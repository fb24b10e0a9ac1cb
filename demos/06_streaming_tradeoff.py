"""Pass/space tradeoffs for streaming MIS, and the protocol reading of a run.

Three baselines over the same edge streams:

  * buffered greedy -- one pass, stores everything;
  * Luby rounds     -- O(log n) passes, O(n) words;
  * residual sparsity -- a phase schedule of sample sizes; each phase costs
    two passes and shrinks the alive set, trading passes for peak storage.

Any p-pass s-space algorithm also reads as a communication protocol once
the stream is split among k players: snapshot the memory at each boundary
and you get at most p * k * s bits on the blackboard.  That accounting is
what connects streaming lower bounds to communication lower bounds, so the
simulator enforces it on every run.
"""

import io
import math

from misforge import (
    BufferedGreedyMIS,
    EdgeStream,
    LubyMIS,
    ResidualSparsityMIS,
    ToyParams,
    drive,
    gnp_graph,
    is_mis,
    sample_instance,
    simulate_protocol_from_stream,
    tradeoff_bench,
)


def compare_runners(n: int = 400, p: float = 0.08, seed: int = 1) -> None:
    g = gnp_graph(n, p, seed)
    print(f"G({n}, {p}): {len(g.edges)} edges")
    print(f"  {'algorithm':<22} {'passes':>6} {'peak words':>10} {'|MIS|':>6}")
    stream = EdgeStream.from_edges(g.edges)     # one stream, replayed by every run
    runs = [
        ("buffered greedy", drive(BufferedGreedyMIS(n, seed), stream)),
        ("luby", drive(LubyMIS(n, seed), stream)),
        ("residual b=8", drive(ResidualSparsityMIS(n, [8, "all"], seed), stream)),
        ("residual b=32,8", drive(ResidualSparsityMIS(n, [32, 8, "all"], seed), stream)),
    ]
    for name, rep in runs:
        assert is_mis(g, rep.output)
        print(f"  {name:<22} {rep.passes:>6} {rep.peak_words:>10} "
              f"{len(rep.output):>6}")
    residual = dict(runs)["residual b=8"]
    alive = [len(a) for a in residual.extras["alive_after_phase"]]
    print(f"  residual b=8 alive counts after each phase: {n} -> {alive}")


def protocol_view(seed: int = 5) -> None:
    inst = sample_instance(1, ToyParams(n_0=4, levels=((2, 1),)), seed)
    k = len(inst.players)
    sim = simulate_protocol_from_stream("luby", inst, seed)
    t = sim.transcript
    budget = sim.report.passes * k * sim.report.peak_words * t.word_bits
    print(f"\ndepth-1 instance as a {k}-player protocol, luby: "
          f"{sim.report.passes} passes -> {len(t.rounds)} rounds, "
          f"cc = {t.cc_bits} bits <= {budget} = passes * k * peak * 64: "
          f"{t.cc_bits <= budget}")


def bench_csv() -> None:
    spec = {
        "instances": [
            {"kind": "gnp", "n": 128, "p": 0.1, "graph_seed": 0},
            {"kind": "hard", "n0": 4, "toy": [[1, 1]], "graph_seed": 0},
        ],
        "algorithms": ["luby", "greedy", "residual:b=4"],
        "seeds": [0, 1],
    }
    out = io.StringIO()
    rows = tradeoff_bench(spec, out)
    print(f"\nbench: {len(rows)} rows")
    for line in out.getvalue().splitlines():
        print("  " + line)


if __name__ == "__main__":
    compare_runners()
    protocol_view()
    bench_csv()

    # Luby's round count stays well under the 2 * log2(n) guide rail.
    n = 256
    worst = 0
    for seed in range(30):
        g = gnp_graph(n, 0.1, seed)
        rep = drive(LubyMIS(n, seed), EdgeStream.from_edges(g.edges))
        worst = max(worst, rep.extras["rounds"])
    print(f"\nluby on 30 G({n}, 0.1) seeds: worst round count {worst} "
          f"(2 log2 n = {2 * math.log2(n):.0f})")
