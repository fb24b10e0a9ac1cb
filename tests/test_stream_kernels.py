"""The section kernels against the per-edge oracle in stream_oracle.py.

Every run is compared field by field: output, passes, peak words,
extras, and the memory snapshot at every section boundary, byte for
byte.  The oracle samples the peak after every edge and asserts that
``current_words`` never falls within a section, which is what makes the
kernels' section-boundary peak exact.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stream_oracle as oracle
from misforge import (
    EdgeStream,
    InvalidInputError,
    ToyParams,
    gnp_graph,
    make_algorithm,
    sample_instance,
    simulate_protocol_from_stream,
)
from misforge.dupgraph import expand
from misforge.streaming import _pack_words, drive

DESCS = ("luby", "greedy", "residual:b=4", "residual:b=2", "residual:s={a},{b},all")


def descriptor(template: str, n: int) -> str:
    return template.format(a=max(1, n // 2), b=max(1, n // 5))


def run_both(desc: str, n: int, seed: int, sections: list[list[tuple[int, int]]]):
    """Kernel and oracle runs over the same sections, with boundary snapshots."""
    got_snaps, want_snaps = [], []
    rep = drive(make_algorithm(desc, n, seed), EdgeStream(sections),
                lambda p, o, runner: got_snaps.append((p, o, _pack_words(runner.state_words()))))
    want = oracle.drive(oracle.make_algorithm(desc, n, seed), sections,
                        lambda p, o, words: want_snaps.append((p, o, oracle.pack_words(words))))
    return rep, want, got_snaps, want_snaps


def assert_same(rep, want, got_snaps, want_snaps):
    assert rep.output == want["output"]
    assert all(type(v) is int for v in rep.output)
    assert rep.passes == want["passes"]
    assert rep.peak_words == want["peak_words"]
    assert rep.extras == want["extras"]
    assert got_snaps == want_snaps


@given(
    n=st.integers(1, 40),
    p=st.sampled_from([0.0, 0.08, 0.2, 0.5, 1.0]),
    graph_seed=st.integers(0, 10_000),
    seed=st.integers(0, 10_000),
    order=st.sampled_from(["file", "random"]),
    template=st.sampled_from(DESCS),
    owners=st.integers(1, 4),
)
@settings(deadline=None, max_examples=150)
def test_kernels_match_oracle_on_gnp(n, p, graph_seed, seed, order, template, owners):
    g = gnp_graph(n, p, graph_seed)
    edges = oracle.stream_edges(EdgeStream.from_edges(sorted(g.edges), order=order,
                                                      seed=graph_seed))
    # cut the stream into consecutive owner sections, some possibly empty
    cuts = [len(edges) * i // owners for i in range(owners + 1)]
    sections = [edges[a:b] for a, b in zip(cuts, cuts[1:])]
    assert_same(*run_both(descriptor(template, n), n, seed, sections))


@given(
    graph_seed=st.integers(0, 500),
    seed=st.integers(0, 500),
    template=st.sampled_from(DESCS),
    levels=st.sampled_from([((1, 1),), ((2, 1),), ((1, 1), (1, 1))]),
)
@settings(deadline=None, max_examples=40)
def test_kernels_match_oracle_on_instances(graph_seed, seed, template, levels):
    n0 = 4 if len(levels) == 1 else 2
    inst = sample_instance(len(levels), ToyParams(n_0=n0, levels=levels), graph_seed)
    n = inst.graph.n_vertices
    desc = descriptor(template, n)
    sim = simulate_protocol_from_stream(desc, inst, seed)
    sections = oracle.player_sections(inst)
    raw: dict[int, list[bytes]] = {}
    want = oracle.drive(oracle.make_algorithm(desc, n, seed), sections,
                        lambda p, o, words: raw.setdefault(p, []).append(oracle.pack_words(words)))
    padded = [m.ljust(max(map(len, msgs)), b"\0") for _, msgs in sorted(raw.items())
              for m in msgs]
    assert_same(sim.report, want, [], [])
    # the transcript counts the messages; a hook that asks for them gets the bytes
    assert sim.transcript.rounds == tuple(tuple(len(m) // 8 for m in msgs)
                                          for _, msgs in sorted(raw.items()))
    assert sim.transcript.cc_bits == 8 * sum(map(len, padded))
    assert sim.transcript.max_message_bits == 8 * max(map(len, padded))
    got: dict[int, list[bytes]] = {}
    drive(make_algorithm(desc, n, seed), EdgeStream.from_instance(inst),
          lambda p, o, runner: got.setdefault(p, []).append(_pack_words(runner.state_words())))
    assert got == raw
    assert sim.transcript.answer == oracle.pack_words(sorted(want["output"]))
    assert sim.k == len(sections)


@pytest.mark.parametrize("levels, n0", [(((1, 1),), 4), (((2, 1),), 4), (((1, 1), (1, 1)), 2)])
def test_from_instance_equals_sorted_tuples(levels, n0):
    inst = sample_instance(len(levels), ToyParams(n_0=n0, levels=levels), 11)
    sections = oracle.player_sections(inst)
    stream = EdgeStream.from_instance(inst, order="player")
    assert [expand(s).tolist() for s in stream.sections_list] == [list(map(list, s))
                                                                  for s in sections]
    flat = [e for s in sections for e in s]
    for order in ("file", "random"):
        got = oracle.stream_edges(EdgeStream.from_instance(inst, order=order, seed=5))
        assert got == oracle.stream_edges(EdgeStream.from_edges(flat, order=order, seed=5))
    assert oracle.stream_edges(EdgeStream.from_instance(inst, order="file")) == flat


def test_words_fall_only_between_sections():
    """The oracle's monotonicity check is live: it trips when state shrinks mid-section."""
    alg = oracle.LubyMIS(3, 0)
    original = oracle.LubyMIS.step

    def shrinking(self, e):
        original(self, e)
        if e == (0, 2):
            self.blocked.clear()

    alg.step = shrinking.__get__(alg)
    with pytest.raises(AssertionError, match="words fell"):
        oracle.drive(alg, [[(0, 1), (1, 2), (0, 2)]])


# -- stream validation ----------------------------------------------------------


@pytest.mark.parametrize("edges, n, why", [
    ([(0, 1), (1, 5)], 5, "outside"),
    ([(0, 1), (-1, 2)], 5, "negative"),
    ([(0, 1), (2, 2)], 5, "self loop"),
    ([(0, 1), (1, 2), (0, 1)], 5, "duplicate"),
    ([(0, 1), (1, 2), (1, 0)], 5, "duplicate"),
])
@pytest.mark.parametrize("desc", ["luby", "greedy", "residual:b=2"])
def test_bad_streams_raise_invalid_input(edges, n, why, desc):
    with pytest.raises(InvalidInputError, match=why):
        drive(make_algorithm(desc, n, 0), EdgeStream.from_edges(edges))


def test_duplicate_across_sections_is_caught():
    with pytest.raises(InvalidInputError, match="duplicate"):
        drive(make_algorithm("luby", 4, 0), EdgeStream([[(0, 1)], [(2, 3), (1, 0)]]))


def test_checked_stream_is_rechecked_against_each_n():
    stream = EdgeStream.from_edges([(0, 1), (1, 2)])
    drive(make_algorithm("luby", 3, 0), stream)
    with pytest.raises(InvalidInputError, match="outside"):
        drive(make_algorithm("greedy", 2, 0), stream)


def test_empty_stream_and_graph():
    rep = drive(make_algorithm("luby", 0, 0), EdgeStream.from_edges([]))
    assert rep.output == frozenset() and rep.passes == 0
    rep = drive(make_algorithm("greedy", 3, 0), EdgeStream([]))
    assert rep.output == frozenset({0, 1, 2}) and rep.peak_words == 0


def test_odd_edge_list_is_refused():
    with pytest.raises(InvalidInputError):
        EdgeStream.from_edges([(0, 1), (2,)])
