"""Record perfbench/reference.json: what every benchmark input must reproduce.

    python3 perfbench/record_reference.py [--workload W ...] [--size S ...] [--out PATH]

For every workload, size and input seed of both seed sets, runs one
batch with the benchmark's checks plus the stronger ones made only here:
the protocol's simulated answers against direct runs (the traced check)
and every misr file against the bytes ``misforge gen-instance`` writes
for the same toy flags and seed.  It refuses to record an input whose
checks fail.  Entries for workloads not named are kept from --out.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import shutil
import sys
from pathlib import Path

from run import POOL, SEED_SETS, WORKLOADS
from worker import ROOT, import_misforge

# instance_pipeline's reference is the union of its parts' entries.
RECORDED = [name for name in WORKLOADS if name != "instance_pipeline"]


def record(name: str, size: str, seed: int, workdir: Path) -> dict:
    import tracing
    import workloads
    from misforge.cli import main as cli_main

    work = workloads.WORKLOADS[name](size, seed, workdir)
    work.setup(tracing.NullTracer())
    batch = work.batch(tracing.NullTracer())
    work.finish(tracing.NullTracer(), batch)
    work.check(tracing.Tracer(), batch)
    if name == "instance_build":
        for key, n0, levels in work.cfg:
            cli_out = workdir / f"cli-{key}.misr"
            toy = ";".join(f"{ell},{d}" for ell, d in levels)
            code = cli_main(["gen-instance", "--r", str(len(levels)), "--n0", str(n0),
                             "--toy", toy, "--seed", str(seed), "--out", str(cli_out)])
            if code != 0 or not filecmp.cmp(cli_out, work.misr_path(key), shallow=False):
                batch.fail(key, "misr bytes differ from misforge gen-instance")
    if batch.failures:
        raise SystemExit(f"{name}/{size}/seed {seed} fails its checks: {batch.failures}")
    return batch.records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=RECORDED, choices=RECORDED)
    parser.add_argument("--size", nargs="*", default=["full", "tiny"], choices=("full", "tiny"))
    parser.add_argument("--out", type=Path, default=Path(__file__).with_name("reference.json"))
    args = parser.parse_args(argv)
    import_misforge()

    reference = json.loads(args.out.read_text()) if args.out.exists() else {}
    workdir = ROOT / ".perfbench_out" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workload:
            for size in args.size:
                entry = reference.setdefault(name, {}).setdefault(size, {})
                for base in SEED_SETS.values():
                    for seed in range(base, base + POOL):
                        entry[str(seed)] = record(name, size, seed, workdir)
                        print(f"{name} {size} seed {seed}: {len(entry[str(seed)])} ops",
                              file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.out.write_text(dump(reference))
    return 0


def dump(reference: dict) -> str:
    """JSON with one line per (workload, size, seed), so drift diffs stay small."""
    lines = []
    for name in sorted(reference):
        sizes = []
        for size in sorted(reference[name]):
            entry = reference[name][size]
            seeds = [f"   {json.dumps(seed)}: {json.dumps(entry[seed], sort_keys=True)}"
                     for seed in sorted(entry, key=int)]
            sizes.append(f"  {json.dumps(size)}: {{\n" + ",\n".join(seeds) + "\n  }")
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(sizes) + "\n }")
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
