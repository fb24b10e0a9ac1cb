"""Recursive two-copy instances and the parameter cascade behind them.

A depth-r instance places 2^r copies of a depth-(r-1) instance side by side
(then mirrors the whole thing), wires consecutive copies through embedded
subinstances, and lets a hidden index t pick which copy carries the live
predicate bits.  The level sizes follow n_{j-1} = (n_j / 2)^((2^(j-1)-1)/(2^j-1))
rounded down, so a top size of n = 2 * y^(2^r - 1) with y a power of two
keeps every division exact.  Each level then builds the collection graph
that hides the most on its b_j * 2^j vertices; plan_levels refuses a level
where that graph still has a single collection (q = 1), since t then hides
nothing.
"""

import io

from misforge import (
    BudgetExceededError,
    TooSmallError,
    ToyParams,
    build_dup_from_size,
    check_properties,
    compute_parameters,
    plan_levels,
    read_instance,
    sample_instance,
    write_instance,
)


def cascade_table(r: int, y: int, n_0: int = 4) -> None:
    n = 2 * y ** (2**r - 1)
    table = compute_parameters(r, n, n_0)
    print(f"r={r}, n={n} (y={y}):")
    print(f"  {'level':>5} {'n_j':>12} {'b_j':>8} {'p_j':>6} {'q_j':>6} {'k_j':>4}")
    for lv in table.levels:
        print(f"  {lv.j:>5} {lv.n:>12} {lv.b:>8} {lv.p:>6} {lv.q:>6} {lv.k:>4}")
    top = table.levels[-1]
    inner_n = table.levels[-2].n if r > 1 else n_0
    assert 2 * top.b * inner_n == n
    print(f"  split exact: 2 * {top.b} * {inner_n} == {n}")
    # what gets built: at each level the best graph on its b_j * 2^j vertices
    for lv in table.levels:
        try:
            P = build_dup_from_size(lv.b * 2**lv.j, lv.k).params
            built = f"ell={P.ell} d={P.d} p={P.p} q={P.q}"
        except TooSmallError as exc:
            built = f"nothing: {exc}"
        print(f"  level {lv.j} declares p={lv.p} q={lv.q}, builds {built}")
    try:
        plan_levels(table)
        print("  plan_levels: planned")
    except (TooSmallError, BudgetExceededError) as exc:
        print(f"  plan_levels refuses: {exc}")


def toy_walkthrough() -> None:
    params = ToyParams(n_0=4, levels=((1, 1), (1, 1)))
    inst = sample_instance(2, params, seed=7)
    g = inst.graph
    print(f"\ndepth-2 toy: {g.num_layers} layers x {g.layer_size} vertices, "
          f"{len(g.edges)} edges, {len(inst.players)} players, hidden t={inst.t}")

    report = check_properties(inst)
    bad = report.failures()
    print(f"structural checks: {len(report.checks)} run, "
          f"{'all pass' if not bad else 'FAILED: ' + ', '.join(bad)}")

    # The hidden index chain: which copy is live at each level.
    cur, chain = inst, []
    while cur.r >= 1:
        chain.append(cur.t)
        cur = cur.subinstance(cur.t, 1)
    print(f"live-copy chain down to the base: {chain}, base bits {cur.base_bits!r}")

    buf = io.StringIO()
    write_instance(inst, buf, seed=7)
    loaded = read_instance(io.StringIO(buf.getvalue()))
    print(f"file round-trip: {len(buf.getvalue())} bytes, "
          f"stored sections match rebuild = {loaded.matches}")


if __name__ == "__main__":
    for r, y in ((1, 16), (1, 2048), (2, 16), (3, 16), (2, 32)):
        cascade_table(r, y)

    toy_walkthrough()
