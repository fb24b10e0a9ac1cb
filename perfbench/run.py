"""misforge benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a misforge checkout; it measures the code in
``src/``.  Workloads: instance_pipeline and exact_checks, the two that
BENCHMARK.json lists, and instance_build, stream_gnp and protocol_sim for
a closer look at one part (see perfbench/README.md for what each stresses
and why).

Every set-up and every measurement runs in a fresh, single-threaded
process (worker.py), one after another.  set-up is repeated
SETUP_REPEATS times and reported as the median.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The lines before it give the
environment and every metric by name with its unit.

``--seed`` picks the inputs from the "main" seed set; ``--seed-set
holdout`` picks them from a set kept apart for confirming a gain.
``MISFORGE_BUDGET`` must be unset: it changes how much enumeration the
verifiers do.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("instance_pipeline", "exact_checks", "instance_build", "stream_gnp",
             "protocol_sim")
# Inputs come from a pool of POOL input seeds per seed set, so that every
# input the benchmark can make has a recorded reference.  "holdout" is
# kept apart from the inputs used while tuning a change, to confirm a
# gain on.
SEED_SETS = {"main": 0, "holdout": 1000}
POOL = 16
SETUP_REPEATS = 5
DEADLINE_S = 170                           # the whole run ends within this


class BenchmarkError(Exception):
    pass


def input_seed(seed: int, seed_set: str) -> int:
    return SEED_SETS[seed_set] + seed % POOL


def spawn(args, mode: str, input_seed: int, deadline: float) -> dict:
    """Run worker.py once and return its result, with set-up time added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--size", args.size, "--input-seed", str(input_seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode]
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} process did not end in time") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} process exited with code {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def measure(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    seed = input_seed(args.seed, args.seed_set)
    setups = [spawn(args, "setup", seed, deadline)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    result = spawn(args, "measure", seed, deadline)
    setups.append(result["setup_s"])
    env = dict(result["environment"], workload=args.workload, size=args.size,
               seed=args.seed, seed_set=args.seed_set, input_seed=seed,
               seconds=args.seconds, trace=args.trace)
    if args.trace:
        from tracing import per_layer_spec

        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in per_layer_spec()}
        env["traced_batches"] = result["traced_batches"]
        env["trace_file"] = result["trace_file"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "edges_per_s": {"value": result["edges"] / result["wall_s"], "unit": "edges/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    env["batches"] = result["batches"]
    env["setup_samples"] = len(setups)
    return result, dict(environment=env, metrics=metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-set", choices=sorted(SEED_SETS), default="main")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "misforge" / "__init__.py").is_file():
        print(f"no misforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if "MISFORGE_BUDGET" in os.environ:
        print("MISFORGE_BUDGET must be unset: it changes how much the verifiers "
              "enumerate", file=sys.stderr)
        return 2
    try:
        result, out = measure(args)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failures = result["failures"]
    for op, why in sorted(failures.items()):
        print(f"FAILED {op}: {why}", file=sys.stderr)
    attempted, failed = result["attempted"], len(failures)
    print("environment " + json.dumps(out["environment"], sort_keys=True))
    for name, metric in out["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"error_rate {failed / attempted!r} fraction "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
