"""Wall time and peak RSS of the instance pipeline's stages, before and after a change.

    python3 bench/instances.py --before DIR --after DIR --out BENCH_instances.json

Each DIR is the root of a misforge checkout.  For every seed, and for
each checkout in turn, the script runs there

* ``perfbench/run.py --workload instance_pipeline --trace 1`` and keeps
  the per-layer self times of the hardness, streaming and protocol spans
  and the GC time;
* ``perfbench/run.py --workload instance_pipeline --trace 0`` and keeps
  the end-to-end ``setup_s``, ``wall_s``, ``edges_per_s`` and
  ``peak_rss_mb``;
* for each of the workload's two toy instances, a fresh probe process
  that runs the hardness stages once and records, after every stage, its
  wall time and the process's peak RSS so far (``ru_maxrss`` is a
  high-water mark: a stage that raises it is the one that needed the
  memory).

The file gets the host, both checkouts' commits, every run's numbers
and, per metric, the median over seeds before and after.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

KEEP_PREFIXES = ("hardness.", "streaming.from_instance.", "protocol.simulate.", "runtime.gc_s")

PROBE = r"""
import io, json, resource, sys, time
from misforge import (EdgeStream, ToyParams, check_properties, read_instance,
                      sample_instance, write_instance)

seed, key = int(sys.argv[1]), sys.argv[2]
n0, levels = SHAPES[key]
toy = ToyParams(n_0=n0, levels=levels)
rows = []
clock = time.perf_counter()


def stage(name, fn):
    global clock
    out = fn()
    now = time.perf_counter()
    rows.append({"instance": key, "stage": name, "wall_s": now - clock,
                 "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    clock = now
    return out


inst = stage("sample_instance", lambda: sample_instance(toy.r, toy, seed))
stage("check_properties", lambda: check_properties(inst))
buf = io.StringIO()
stage("write_instance", lambda: write_instance(inst, buf, seed=seed, mode="toy"))
del inst
loaded = stage("read_instance", lambda: read_instance(io.StringIO(buf.getvalue())))
stage("matches", lambda: loaded.matches)
stage("from_instance", lambda: EdgeStream.from_instance(loaded.instance))
print(json.dumps(rows))
"""
# the instance_pipeline workload's two toy instances: (n0, levels)
SHAPES = {"r1": (8, ((3, 2),)), "r2": (4, ((2, 1), (2, 1)))}


def last_json(cmd: list[str], cwd: Path, env: dict | None = None) -> object:
    out = subprocess.run(cmd, cwd=cwd, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def commit(root: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def measure(root: Path, seed: int, seconds: float) -> dict:
    run = [sys.executable, "perfbench/run.py", "--workload", "instance_pipeline",
           "--seed", str(seed), "--seconds", str(seconds)]
    traced = last_json(run + ["--trace", "1"], root)
    plain = last_json(run + ["--trace", "0"], root)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = f"SHAPES = {SHAPES!r}\n" + PROBE
    stages = [row for key in SHAPES
              for row in last_json([sys.executable, "-c", probe, str(seed), key], root, env)]
    return {
        "correct": traced["correct"] and plain["correct"],
        "per_layer_s": {name: m["value"] for name, m in traced["metrics"].items()
                        if name.startswith(KEEP_PREFIXES) and m["unit"] == "s"},
        "end_to_end": {name: m["value"] for name, m in plain["metrics"].items()},
        "stages": stages,
    }


def medians(runs: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, value in run["end_to_end"].items():
            values.setdefault(name, []).append(value)
        for name, value in run["per_layer_s"].items():
            values.setdefault(name, []).append(value)
        for row in run["stages"]:
            for field in ("wall_s", "peak_rss_mb"):
                key = f"stage.{row['instance']}.{row['stage']}.{field}"
                values.setdefault(key, []).append(row[field])
    return {name: statistics.median(vals) for name, vals in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    import numpy

    checkouts = {"before": args.before.resolve(), "after": args.after.resolve()}
    runs: dict[str, list[dict]] = {side: [] for side in checkouts}
    for seed in args.seeds:
        for side, root in checkouts.items():   # alternate, so host drift hits both
            print(f"seed {seed}: {side}", file=sys.stderr)
            runs[side].append({"seed": seed, **measure(root, seed, args.seconds)})
    report = {
        "command": (f"python3 bench/instances.py --before <parent checkout> --after . "
                    f"--seeds {' '.join(map(str, args.seeds))} --seconds {args.seconds:g} "
                    f"--out {args.out.name}"),
        "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "workload": "instance_pipeline",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "commits": {side: commit(root) for side, root in checkouts.items()},
        "median": {side: medians(runs[side]) for side in checkouts},
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
