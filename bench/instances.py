"""Wall time and peak RSS of one workload's stages, before and after a change.

    python3 bench/instances.py --before DIR --after DIR --out BENCH_instances.json
    python3 bench/instances.py --workload exact_checks --before DIR --after DIR \
        --out BENCH_exact_checks.json

Each DIR is the root of a misforge checkout.  Make the before side a git
checkout of the parent commit, for example ``git worktree add DIR HEAD~1``
(or a ``git clone``), so that ``commits`` names both sides: the commit is
``git describe`` in each DIR, and a copy without ``.git`` is recorded as
"unknown".  For every seed, and for each checkout in turn, the script
runs there

* ``perfbench/run.py --workload W --trace 1`` and keeps the per-layer
  self times of the workload's spans (``WORKLOADS[W]["keep"]``) and the
  GC time;
* ``perfbench/run.py --workload W --trace 0`` and keeps the end-to-end
  ``setup_s``, ``wall_s``, ``edges_per_s`` and ``peak_rss_mb``;
* for each of the workload's probe cases, a fresh probe process that
  runs the case's stages once and records, after every stage, its wall
  time and the process's peak RSS so far (``ru_maxrss`` is a high-water
  mark: a stage that raises it is the one that needed the memory).  For
  ``instance_pipeline`` a case is one of its two toy instances and the
  stages are the hardness stages, then a Luby run on the loaded stream
  and the benchmark's check of its output, ``is_mis`` over
  ``flat_edges()``; for ``exact_checks`` a case is one of
  its three average-free grids and the stages are build and verify;
* for ``instance_pipeline``, the ``cli`` case: ``misforge gen-instance``
  on formula r=1, n=4096, then ``misforge check-instance`` on its file,
  each in its own process, recording each one's wall time and peak RSS.

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
import tempfile
import time
from pathlib import Path

# Shared head of every probe: the case key and a stage timer.  The probe
# body makes its imports, then starts ``clock``, runs its stages through
# ``stage`` and prints ``rows``.
PROBE_HEAD = r"""
import json, resource, sys, time

seed, key = int(sys.argv[1]), sys.argv[2]
rows = []


def stage(name, fn):
    global clock
    out = fn()
    now = time.perf_counter()
    rows.append({"case": key, "stage": name, "wall_s": now - clock,
                 "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    clock = now
    return out
"""

PIPELINE_PROBE = r"""
import io
from misforge import (EdgeStream, LubyMIS, ToyParams, check_properties, drive, is_mis,
                      read_instance, sample_instance, write_instance)

n0, levels = CASES[key]
toy = ToyParams(n_0=n0, levels=levels)
clock = time.perf_counter()
inst = stage("sample_instance", lambda: sample_instance(toy.r, toy, seed))
stage("check_properties", lambda: check_properties(inst))
buf = io.StringIO()
stage("write_instance", lambda: write_instance(inst, buf, seed=seed, mode="toy"))
del inst
loaded = stage("read_instance", lambda: read_instance(io.StringIO(buf.getvalue())))
stage("matches", lambda: loaded.matches)
stream = stage("from_instance", lambda: EdgeStream.from_instance(loaded.instance))
n = loaded.instance.graph.n_vertices
report = stage("luby", lambda: drive(LubyMIS(n, seed), stream))
if not stage("is_mis", lambda: is_mis((range(n), loaded.instance.graph.flat_edges()),
                                      report.output)):
    sys.exit(f"{key}: Luby's output is not a maximal independent set")
print(json.dumps(rows))
"""

AVGFREE_PROBE = r"""
from misforge import build_avg_free_set, verify_avg_free

ell, d = CASES[key]
clock = time.perf_counter()
a_set = stage("build_avg_free_set", lambda: build_avg_free_set(ell, d))
if not stage("verify_avg_free", lambda: verify_avg_free(a_set, 5)):
    sys.exit(f"{key}: not average-free")
print(json.dumps(rows))
"""

WORKLOADS = {
    "instance_pipeline": {
        "keep": ("hardness.", "streaming.from_instance.", "protocol.simulate.", "runtime.gc_s"),
        "probe": PIPELINE_PROBE,
        # the workload's two toy instances: (n0, levels)
        "cases": {"r1": (8, ((3, 2),)), "r2": (4, ((2, 1), (2, 1)))},
        # gen-instance arguments of the cli case (the seed is the run's)
        "cli": ["--r", "1", "--n0", "4", "--n", "4096"],
    },
    "exact_checks": {
        "keep": ("avgfree.", "dupgraph.", "embedding.", "oracle.", "runtime.gc_s"),
        "probe": AVGFREE_PROBE,
        # the workload's three average-free grids: (ell, d)
        "cases": {"8,4": (8, 4), "16,3": (16, 3), "7,4": (7, 4)},
    },
}


def last_json(cmd: list[str], cwd: Path, env: dict | None = None) -> object:
    out = subprocess.run(cmd, cwd=cwd, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def commit(root: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def cli_stages(root: Path, seed: int, gen_args: list[str], env: dict) -> list[dict]:
    """gen-instance, then check-instance on its output, each in its own
    process; a child's peak RSS comes from ``os.wait4``."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "cli.misr")
        for stage, args in (("gen-instance", [*gen_args, "--seed", str(seed), "--out", path]),
                            ("check-instance", ["--in", path])):
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "misforge.cli", stage, *args],
                                    cwd=root, env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                sys.exit(f"{root}: {stage} exited {proc.returncode}")
            rows.append({"case": "cli", "stage": stage, "wall_s": wall,
                         "peak_rss_mb": usage.ru_maxrss / 1024})
    return rows


def measure(root: Path, workload: str, seed: int, seconds: float) -> dict:
    spec = WORKLOADS[workload]
    run = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    traced = last_json(run + ["--trace", "1"], root)
    plain = last_json(run + ["--trace", "0"], root)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = f"CASES = {spec['cases']!r}\n" + PROBE_HEAD + spec["probe"]
    stages = [row for key in spec["cases"]
              for row in last_json([sys.executable, "-c", probe, str(seed), key], root, env)]
    if "cli" in spec:
        stages += cli_stages(root, seed, spec["cli"], env)
    return {
        "correct": traced["correct"] and plain["correct"],
        "per_layer_s": {name: m["value"] for name, m in traced["metrics"].items()
                        if name.startswith(spec["keep"]) and m["unit"] == "s"},
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
                key = f"stage.{row['case']}.{row['stage']}.{field}"
                values.setdefault(key, []).append(row[field])
    return {name: statistics.median(vals) for name, vals in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="instance_pipeline")
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
            runs[side].append({"seed": seed, **measure(root, args.workload, seed, args.seconds)})
    report = {
        "command": (f"python3 bench/instances.py --workload {args.workload} "
                    f"--before <parent checkout> --after . "
                    f"--seeds {' '.join(map(str, args.seeds))} --seconds {args.seconds:g} "
                    f"--out {args.out.name}"),
        "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "workload": args.workload,
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
