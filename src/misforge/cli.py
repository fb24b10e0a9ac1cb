"""Command-line entry points.

Exit codes: 0 success, 1 a verification or consistency check failed,
2 invalid input or arguments, 3 an enumeration budget was exceeded.
The MISFORGE_BUDGET environment variable overrides the default caps.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, replace

from .budgets import default_budget
from .dupgraph import (
    build_dup,
    build_dup_from_size,
    check_path_table,
    read_dup,
    read_dup_header,
    verify_dup,
    write_dup,
)
from .avgfree import verify_avg_free, well_formed
from .errors import (
    BudgetExceededError,
    InconsistentMisError,
    InvalidInputError,
    MisforgeError,
    NotAnMisError,
)
from .hardness import (
    ToyParams,
    build_instance,
    check_properties,
    compute_parameters,
    plan_levels,
    read_instance,
    sample_base_instance,
    sample_instance,
    sample_tree,
    write_instance,
)
from .oracle import enumerate_all_mis, eval_predicate, extract_predicate_from_mis
from .streaming import tradeoff_bench


def _output(path: str):
    """A context manager for the output: standard output for "-", else the file."""
    return nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8")


def cmd_gen_dup(args) -> int:
    budget = default_budget()
    if not (args.ell is None) == (args.d is None) == (args.n is not None):
        raise InvalidInputError("give either --ell with --d, or --n, not a mix")
    dup = (build_dup(args.ell, args.d, args.k, budget) if args.n is None
           else build_dup_from_size(args.n, args.k, budget))
    with _output(args.out) as out:
        write_dup(dup, out)
    p = dup.params
    print(
        f"wrote {p.q} collections x {p.p} paths, {dup.graph.num_layers} layers "
        f"of {dup.graph.layer_size}",
        file=sys.stderr,
    )
    return 0


def cmd_verify(args) -> int:
    budget = default_budget()
    if args.path_budget is not None:
        if args.path_budget < 1:
            raise InvalidInputError("--path-budget must be positive")
        budget = replace(budget, max_paths=args.path_budget)
    with open(args.infile, encoding="utf-8") as fh:
        header = read_dup_header(fh)
        check_path_table(header.q, header.p, budget)    # before any path line is read
        dup = read_dup(fh, header)
    report = verify_dup(dup, budget)
    avg_ok = (
        dup.avg_free is not None
        and well_formed(dup.avg_free)
        and verify_avg_free(dup.avg_free, args.max_multiset, budget)
    )
    report.add("avg_free", avg_ok, "recovered direction set is not average-free")
    print(report.summary())
    return 0 if report.ok else 1


def _parse_toy(raw: str, r: int) -> list[tuple[int, int]]:
    levels = []
    for part in raw.split(";"):
        bits = part.split(",")
        if len(bits) != 2:
            raise InvalidInputError(f"--toy levels look like 'ell,d', got {part!r}")
        levels.append((int(bits[0]), int(bits[1])))
    if len(levels) != r:
        raise InvalidInputError(f"--toy needs {r} levels, got {len(levels)}")
    return levels


def cmd_gen_instance(args) -> int:
    budget = default_budget()
    if args.r < 0:
        raise InvalidInputError(f"--r must be non-negative, got {args.r}")
    if args.r == 0:
        if args.toy is not None:
            raise InvalidInputError("--toy needs --r >= 1")
        if args.n is not None and args.n != args.n0:
            raise InvalidInputError("a depth-0 instance has exactly --n0 vertices")
        inst = sample_base_instance(args.n0, args.seed)
        extra = {"mode": "base"}
    elif (args.n is None) == (args.toy is None):
        raise InvalidInputError("give exactly one of --n or --toy")
    elif args.toy is not None:
        params = ToyParams(n_0=args.n0, levels=tuple(_parse_toy(args.toy, args.r)))
        extra = {"mode": "toy"}
        inst = sample_instance(args.r, params, args.seed, budget)
    else:
        table = compute_parameters(args.r, args.n, args.n0)
        plans = plan_levels(table, budget)
        for lp, plan in zip(table.levels, plans):
            dp = plan.dup.params
            print(f"level {lp.j}: declared p={lp.p} q={lp.q}; built ell={dp.ell} d={dp.d} "
                  f"p={dp.p} q={dp.q}", file=sys.stderr)
        extra = {"mode": "formula", "n": args.n, "declared": list(map(asdict, table.levels))}
        inst = build_instance(plans, args.n0, sample_tree(plans, args.n0, args.seed))
    with _output(args.out) as out:
        write_instance(inst, out, seed=args.seed, mode=extra.pop("mode"), extra=extra)
    print(
        f"wrote depth-{inst.r} instance on {inst.graph.n_vertices} vertices, "
        f"{len(inst.graph.edges)} edges",
        file=sys.stderr,
    )
    return 0


def cmd_check_instance(args) -> int:
    budget = default_budget()
    with open(args.infile, encoding="utf-8") as fh:
        loaded = read_instance(fh, budget)
    report = check_properties(loaded.instance)
    report.add("stored_sections_match", loaded.matches,
               "edge sections disagree with the rebuilt instance")
    print(report.summary())
    return 0 if report.ok else 1


def cmd_predicate(args) -> int:
    budget = default_budget()
    with open(args.infile, encoding="utf-8") as fh:
        loaded = read_instance(fh, budget)
    if not loaded.matches:
        print("stored edge sections disagree with the rebuilt instance", file=sys.stderr)
        return 1
    inst = loaded.instance
    if (args.K is None) == (not args.cross_check):
        raise InvalidInputError("give exactly one of --K or --cross-check")
    if args.K is not None:
        seq = tuple(int(x) for x in args.K.split(",")) if args.K else ()
        print(eval_predicate(inst, seq))
        return 0
    sequences = [()]
    cur = inst
    while cur.r >= 1:
        sequences = [s + (k,) for s in sequences for k in range(1, cur.p_achieved + 1)]
        cur = cur.subinstance(cur.t, 1)
    sets = enumerate_all_mis(inst.graph, max_vertices=args.max_vertices)
    bad = 0
    for s in sets:
        for seq in sequences:
            if extract_predicate_from_mis(inst, s, seq) != eval_predicate(inst, seq):
                bad += 1
    print(
        f"checked {len(sets)} maximal independent sets x {len(sequences)} sequences: "
        f"{bad} mismatches"
    )
    return 0 if bad == 0 else 1


def cmd_bench(args) -> int:
    budget = default_budget()
    with open(args.spec, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"bad bench spec: {exc}") from exc
    table = io.StringIO()       # written only once every row is in
    rows = tradeoff_bench(spec, table, budget)
    with _output(args.out) as out:
        out.write(table.getvalue())
    print(f"wrote {len(rows)} rows", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misforge",
        description="Layered-graph gadgets and streaming MIS baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-dup", help="construct a disjoint-path collection graph")
    g.add_argument("--ell", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--n", type=int, help="best dimensions on at most N vertices")
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_gen_dup)

    v = sub.add_parser("verify", help="verify a dupg file")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--max-multiset", type=int, default=5)
    v.add_argument("--path-budget", type=int)
    v.set_defaults(func=cmd_verify)

    gi = sub.add_parser("gen-instance", help="sample a recursive hard instance")
    gi.add_argument("--r", type=int, required=True)
    gi.add_argument("--n0", type=int, required=True)
    gi.add_argument("--n", type=int, help="total size; uses the size cascade")
    gi.add_argument("--toy", help="per-level 'ell,d' pairs joined by ';'")
    gi.add_argument("--seed", type=int, required=True)
    gi.add_argument("--out", default="-")
    gi.set_defaults(func=cmd_gen_instance)

    ci = sub.add_parser("check-instance", help="rebuild and check a misr file")
    ci.add_argument("--in", dest="infile", required=True)
    ci.set_defaults(func=cmd_check_instance)

    pr = sub.add_parser("predicate", help="evaluate or cross-check search predicates")
    pr.add_argument("--in", dest="infile", required=True)
    pr.add_argument("--K", help="comma-separated entries, deepest level first")
    pr.add_argument("--cross-check", action="store_true",
                    help="compare extraction against evaluation over all sequences")
    pr.add_argument("--max-vertices", type=int, default=24)
    pr.set_defaults(func=cmd_predicate)

    b = sub.add_parser("bench", help="run the pass/space/communication benchmark")
    b.add_argument("--spec", required=True)
    b.add_argument("--out", default="-")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (NotAnMisError, InconsistentMisError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (InvalidInputError, OSError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except MisforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
