"""One workload process: set up, then (in measure mode) time batches.

run.py starts this script in a fresh process for every set-up and every
measurement, because import time, peak RSS and GC pressure are
per-process.  The last line of standard output is one JSON object; the
monotonic clock is system-wide, so run.py turns ``ready`` into set-up
time from the moment it started the process.

Measure mode repeats the workload's fixed batch, each after a full
collection outside the clock, until the batch time is as near to
``--seconds`` as whole batches bring it: another batch is started only
if it would end nearer to ``--seconds`` than stopping before it would
(judged by the last batch's time).  With ``--trace 1`` untraced and
traced batches alternate, at least one of each, and the per-layer
metrics come from the traced ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_misforge() -> None:
    """Import misforge from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import misforge

    where = Path(misforge.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"misforge imported from {where}, not from {ROOT / 'src'}")


def environment() -> dict:
    import networkx
    import numpy

    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "commit": git_commit(),
        "misforge_budget": os.environ.get("MISFORGE_BUDGET", "unset"),
    }


def git_commit() -> str:
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, size: str, seed: int, seconds: float, trace: bool,
        mode: str, workdir: Path) -> dict:
    import_misforge()
    import tracing
    import workloads

    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    null = tracing.NullTracer()
    work = workloads.WORKLOADS[workload](size, seed, workdir)
    work.setup(tracer)
    ready = time.monotonic()
    result = {"ready": ready, "environment": environment()}
    if mode == "setup":
        return result

    expected = work.expected(workloads.load_reference())
    walls = {True: [], False: []}            # traced -> batch wall times
    failed: dict[str, str] = {}
    attempted = edges = 0
    measured = 0.0
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        tr = tracer if traced else null
        if traced:
            tracer.phase = f"batch{len(walls[True])}"
        gc.collect()
        with tracer.recording_gc() if traced else nullcontext():
            t0 = time.perf_counter()
            batch = work.batch(tr)
            wall = time.perf_counter() - t0
        work.finish(tr, batch)
        walls[traced].append(wall)
        measured += wall
        if len(walls[True]) + len(walls[False]) == 1:
            if trace:
                tracer.phase = "check"
            work.check(tracer if trace else null, batch)
            edges = batch.edges
        workloads.compare(batch, expected)
        attempted += batch.attempted
        failed.update({f"{len(walls[True]) + len(walls[False])}:{op}": why
                       for op, why in batch.failures.items()})
        del batch
        need_both = trace and not (walls[True] and walls[False])
        if not need_both and measured + wall / 2 > seconds:
            break

    result.update(
        attempted=attempted,
        failures=failed,
        wall_s=statistics.median(walls[False]),
        batches=len(walls[False]),
        edges=edges,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if trace:
        phases = [f"batch{i}" for i in range(len(walls[True]))]
        result["per_layer"] = tracer.per_layer(phases, walls[True], walls[False])
        result["traced_batches"] = len(walls[True])
        for problem in tracer.unstable:
            failed[f"trace:{problem.split()[0]}"] = problem
        result["attempted"] += len(tracer.unstable)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace_{workload}_{size}_seed{seed}.jsonl"
        tracer.write(trace_file)
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--input-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    args = parser.parse_args(argv)
    workdir = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.size, args.input_seed, args.seconds,
                     bool(args.trace), args.mode, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
