import csv
import dataclasses
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misforge import (
    EdgeStream,
    ScheduleError,
    ToyParams,
    gnp_graph,
    is_mis,
    make_algorithm,
    parse_schedule,
    sample_instance,
    simulate_protocol_from_stream,
    tradeoff_bench,
)
from misforge import streaming
from misforge.streaming import BufferedGreedyMIS, LubyMIS, ResidualSparsityMIS, drive

from stream_oracle import stream_edges


def flat_view(g):
    return (set(range(g.n)), set(g.edges))


def toy(seed=7, levels=((1, 1),), n_0=4):
    return sample_instance(len(levels), ToyParams(n_0=n_0, levels=levels), seed)


# -- Luby ---------------------------------------------------------------------


def test_luby_empty_graph():
    rep = drive(LubyMIS(6, 0), EdgeStream.from_edges([]))
    assert rep.output == frozenset(range(6))
    assert rep.passes == 2
    assert rep.extras["rounds"] == 1


def test_luby_triangle():
    edges = [(0, 1), (1, 2), (0, 2)]
    rep = drive(LubyMIS(3, 1), EdgeStream.from_edges(edges))
    assert len(rep.output) == 1
    assert is_mis((set(range(3)), set(edges)), rep.output)


@given(seed=st.integers(0, 200))
@settings(deadline=None, max_examples=30)
def test_luby_round_bound_small(seed):
    g = gnp_graph(64, 0.15, seed)
    rep = drive(LubyMIS(g.n, seed + 1), EdgeStream.from_edges(g.edges))
    assert is_mis(flat_view(g), rep.output)
    assert rep.extras["rounds"] <= 4 * math.log2(g.n)
    assert rep.passes == 2 * rep.extras["rounds"]


# -- schedules ----------------------------------------------------------------


def test_parse_schedule():
    assert parse_schedule([16, "all"], 64) == [16, None]
    assert parse_schedule([64], 64) == [64]
    for bad in ([], ["all", 16], [16, 32, "all"], [0, "all"], [-1], [70], [16, "x"]):
        with pytest.raises(ScheduleError):
            parse_schedule(bad, 64)


def test_single_phase_equals_buffered_greedy():
    g = gnp_graph(48, 0.2, 3)
    stream = EdgeStream.from_edges(g.edges)
    rep = drive(ResidualSparsityMIS(g.n, [g.n], 9), stream)
    greedy = drive(BufferedGreedyMIS(g.n, 9), EdgeStream.from_edges(g.edges))
    assert is_mis(flat_view(g), rep.output)
    assert is_mis(flat_view(g), greedy.output)
    # one storage pass over everything, like the buffered baseline
    assert rep.extras["phase_peaks"][0] >= 2 * len(g.edges)


def test_residual_validity_and_degree_drop():
    g = gnp_graph(256, 0.3, 5)
    stream = EdgeStream.from_edges(g.edges)
    rep = drive(ResidualSparsityMIS(g.n, [g.n // 8, "all"], 2), stream)
    assert is_mis(flat_view(g), rep.output)
    alive = rep.extras["alive_after_phase"][0]
    deg = {v: 0 for v in alive}
    for u, v in g.edges:
        if u in alive and v in alive:
            deg[u] += 1
            deg[v] += 1
    bound = 3 * 8 * math.log(g.n)
    assert max(deg.values(), default=0) <= bound


def test_residual_pass_structure():
    g = gnp_graph(64, 0.25, 1)
    stream = EdgeStream.from_edges(g.edges)
    rep = drive(ResidualSparsityMIS(g.n, [16, "all"], 4), stream)
    # two passes for the sampled phase, one for the final sweep
    assert rep.passes <= 3
    assert is_mis(flat_view(g), rep.output)


# -- buffered greedy ----------------------------------------------------------


def test_buffered_greedy_accounting():
    g = gnp_graph(32, 0.3, 8)
    rep = drive(BufferedGreedyMIS(g.n, 0), EdgeStream.from_edges(g.edges))
    assert rep.passes == 1
    assert rep.peak_words == 2 * len(g.edges)
    assert is_mis(flat_view(g), rep.output)


# -- algorithm descriptors ----------------------------------------------------


def test_make_algorithm():
    assert isinstance(make_algorithm("luby", 8, 0), LubyMIS)
    assert isinstance(make_algorithm("greedy", 8, 0), BufferedGreedyMIS)
    alg = make_algorithm("residual:b=4", 16, 0)
    assert alg.schedule == [4, None]
    alg = make_algorithm("residual:s=8,2,all", 16, 0)
    assert alg.schedule == [8, 2, None]
    from misforge import InvalidInputError

    with pytest.raises(InvalidInputError):
        make_algorithm("dance", 8, 0)


@pytest.mark.parametrize("make", [
    lambda: gnp_graph(-3, 0.5, 0), lambda: gnp_graph(6, 5, 0), lambda: gnp_graph(6, math.nan, 0),
    lambda: gnp_graph(6, -0.1, 0), lambda: gnp_graph(6, 0.5, -1),
    lambda: make_algorithm("luby", 8, -1),
    lambda: EdgeStream.from_edges([(0, 1)], "random", seed=-1),
])
def test_gnp_and_seeds_out_of_range_are_invalid_input(make):
    from misforge import InvalidInputError

    with pytest.raises(InvalidInputError):
        make()


# -- stream orders ------------------------------------------------------------


def test_stream_orders_cover_instance():
    inst = toy(seed=5)
    n = inst.graph.n_vertices
    for order in ("player", "file", "random"):
        stream = EdgeStream.from_instance(inst, order=order, seed=3)
        assert sorted(stream_edges(stream)) == sorted(
            (inst.graph.flat_id(u), inst.graph.flat_id(v))
            for u, v in inst.graph.edges
        )
        rep = drive(LubyMIS(n, 11), stream)
        flat = (set(range(n)), set(stream_edges(EdgeStream.from_instance(inst))))
        assert is_mis(flat, rep.output)


@pytest.mark.parametrize("order", ["file", "random"])
def test_one_stream_driven_repeatedly(order):
    """drive counts passes itself, so a stream replayed by run after run
    (as tradeoff_bench does) gives each run the report of a fresh stream."""
    g = gnp_graph(96, 0.15, 4)

    def stream():
        return EdgeStream.from_edges(g.edges, order=order, seed=4)

    shared = stream()
    for desc in ("luby", "greedy", "residual:b=4", "residual:s=40,12,all") * 2:
        fresh = drive(make_algorithm(desc, g.n, 3), stream())
        assert drive(make_algorithm(desc, g.n, 3), shared) == fresh, desc


# -- protocol simulation ------------------------------------------------------


def test_transcript_one_pass_two_players():
    inst = toy(seed=7)
    sim = simulate_protocol_from_stream("greedy", inst, seed=1)
    assert sim.k == 2
    assert len(sim.transcript.rounds) == 1
    assert len(sim.transcript.rounds[0]) == 2


def test_luby_transcript_round_count():
    inst = toy(seed=9)
    sim = simulate_protocol_from_stream("luby", inst, seed=2)
    rounds = sim.report.extras["rounds"]
    assert len(sim.transcript.rounds) == 2 * rounds == sim.report.passes
    cc = sim.transcript.cc_bits
    assert cc <= sim.report.passes * sim.k * sim.transcript.max_message_bits


@given(seed=st.integers(0, 500))
@settings(deadline=None, max_examples=50)
def test_simulated_equals_direct(seed):
    inst = toy(seed=seed)
    desc = ("luby", "greedy", "residual:b=4")[seed % 3]
    sim = simulate_protocol_from_stream(desc, inst, seed=seed + 1)
    stream = EdgeStream.from_instance(inst, order="player")
    direct = drive(make_algorithm(desc, inst.graph.n_vertices, seed + 1), stream)
    assert sim.report.output == direct.output
    assert sim.transcript.cc_bits <= sim.report.passes * sim.k * sim.report.peak_words * 64


# -- benchmark ----------------------------------------------------------------


def test_bench_empty_spec():
    out = io.StringIO()
    rows = tradeoff_bench({}, out)
    assert rows == []
    assert out.getvalue().strip() == "n,r,algorithm,passes,peak_words,cc_bits,mis_valid,seed"


def test_bench_rows_and_validity():
    spec = {
        "instances": [
            {"kind": "gnp", "n": 32, "p": 0.2, "graph_seed": 1},
            {"kind": "hard", "n0": 4, "toy": [[1, 1]], "graph_seed": 7},
        ],
        "algorithms": ["luby", "residual:b=4"],
        "seeds": [1, 2, 3],
    }
    out = io.StringIO()
    rows = tradeoff_bench(spec, out)
    assert len(rows) == 12
    parsed = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert len(parsed) == 12
    assert all(row["mis_valid"] == "True" for row in parsed)
    hard = [row for row in parsed if row["r"] != ""]
    assert hard and all(row["cc_bits"] != "" for row in hard)


@pytest.mark.parametrize("damage", ["drop", "add"])
def test_bench_flags_invalid_outputs(monkeypatch, damage):
    """mis_valid checks each output against the stream's edges: one vertex
    dropped from an MIS is not dominating, one added is not independent."""
    def damaged(alg, stream, hook=None):
        rep = drive(alg, stream, hook)
        out = sorted(rep.output)
        other = min(set(range(rep.n)) - rep.output)
        chosen = out[1:] if damage == "drop" else out + [other]
        return dataclasses.replace(rep, output=frozenset(chosen))

    monkeypatch.setattr(streaming, "drive", damaged)
    spec = {"instances": [{"kind": "gnp", "n": 32, "p": 0.2, "graph_seed": 1},
                          {"kind": "hard", "n0": 4, "toy": [[1, 1]], "graph_seed": 7}],
            "algorithms": ["luby", "greedy"], "seeds": [1, 2]}
    rows = tradeoff_bench(spec, io.StringIO())
    assert len(rows) == 8 and not any(row["mis_valid"] for row in rows)


def test_bench_storage_monotone_in_b():
    """Larger b: smaller sample to store in phase 1, more survivors for
    the final sweep."""
    import statistics

    n = 192
    phase1 = {}
    final = {}
    for b in (4, 16):
        p1, fin = [], []
        for seed in range(9):
            g = gnp_graph(n, 0.3, seed)
            stream = EdgeStream.from_edges(g.edges)
            rep = drive(ResidualSparsityMIS(n, [n // b, "all"], seed + 1), stream)
            peaks = rep.extras["phase_peaks"]
            p1.append(peaks[0])
            fin.append(peaks[-1])
        phase1[b] = statistics.median(p1)
        final[b] = statistics.median(fin)
    assert phase1[16] < phase1[4]
    assert final[16] > final[4]
