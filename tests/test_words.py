"""Runner memory and protocol messages counted without a snapshot.

``drive`` takes the peak from ``words()``, a closed-form count, and hands
a hook the runner, which asks for ``state_words()``, the message, only
when it wants the snapshot.  On every runner, at every point where
``drive`` samples, ``words()`` must equal ``len(state_words())``; with no
hook, and in the protocol simulation, no snapshot is built at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stream_oracle as oracle
from misforge import (
    EdgeStream,
    ToyParams,
    make_algorithm,
    sample_instance,
    simulate_protocol_from_stream,
)
from misforge.dupgraph import Biclique
from misforge.streaming import (
    BufferedGreedyMIS,
    LubyMIS,
    ResidualSparsityMIS,
    _pack_words,
    _Runner,
    drive,
)
from test_biclique import biclique_streams

DESCS = ("luby", "greedy", "residual:b=4", "residual:b=2", "residual:s={a},{b},all")
SHAPES = [(4, ((1, 1),)), (4, ((2, 1),)), (2, ((2, 2),)), (2, ((1, 1), (1, 1)))]


def descriptor(template, n):
    return template.format(a=max(1, n // 2), b=max(1, n // 5))


def checked_run(desc, n, seed, sections):
    """drive with a hook that packs every message, every words() checked
    against the snapshot; the report."""
    alg = make_algorithm(desc, n, seed)
    words, samples = alg.words, []

    def counted():
        count = words()
        assert type(count) is int and count == len(alg.state_words())
        samples.append(count)
        return count

    alg.words = counted
    messages = []
    rep = drive(alg, EdgeStream(sections),
                lambda p, o, runner: messages.append(_pack_words(runner.state_words())))
    # residual also counts at the end of each store pass, for its phase peak
    assert len(samples) >= rep.passes * (len(sections) + 2)
    assert len(messages) == rep.passes * len(sections)
    assert rep.peak_words == max(samples, default=0)
    return rep


@given(stream=biclique_streams(), seed=st.integers(0, 500), template=st.sampled_from(DESCS))
@settings(deadline=None, max_examples=100)
def test_words_count_the_snapshot_on_biclique_streams(stream, seed, template):
    n, sections = stream
    checked_run(descriptor(template, n), n, seed, sections)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("template", DESCS)
def test_words_count_the_snapshot_on_instances(shape, template):
    n0, levels = shape
    inst = sample_instance(len(levels), ToyParams(n_0=n0, levels=levels), 3)
    n = inst.graph.n_vertices
    checked_run(descriptor(template, n), n, 5, inst.player_edges)


@pytest.mark.parametrize("template", DESCS)
def test_no_snapshot_without_a_hook(template):
    inst = sample_instance(1, ToyParams(n_0=4, levels=((2, 1),)), 2)
    n = inst.graph.n_vertices
    alg = make_algorithm(descriptor(template, n), n, 1)

    def refuse():
        raise AssertionError("a snapshot was built")

    alg.state_words = refuse
    want = drive(make_algorithm(descriptor(template, n), n, 1), EdgeStream(inst.player_edges))
    got = drive(alg, EdgeStream(inst.player_edges))
    assert (got.output, got.passes, got.peak_words) == (want.output, want.passes,
                                                         want.peak_words)


def test_greedy_message_is_its_packed_buffer():
    join = Biclique(np.array([0, 2, 9]), np.array([10, 11, 12, 100]))
    edges = np.array([[1, 3], [4, 5]], dtype=np.int64)
    greedy = BufferedGreedyMIS(101, 0)
    for section in (edges, join):
        greedy.feed(section)
        first = _pack_words(greedy.state_words())
        assert _pack_words(greedy.state_words()) == first
    assert first == np.concatenate([edges, join.expand()]).astype(">u8").tobytes()
    assert greedy.words() == 2 * (2 + 12) == len(first) // 8


RUNNERS = (_Runner, LubyMIS, BufferedGreedyMIS, ResidualSparsityMIS)


@given(graph_seed=st.integers(0, 500), seed=st.integers(0, 500),
       desc=st.sampled_from(("luby", "greedy", "residual:b=4")),
       levels=st.sampled_from([((1, 1),), ((2, 1),), ((1, 1), (1, 1))]))
@settings(deadline=None, max_examples=50)
def test_simulation_counts_messages_without_building_them(graph_seed, seed, desc, levels):
    """Every runner's snapshot refused: the simulation still
    gives the transcript of the per-edge oracle's packed, padded messages."""
    inst = sample_instance(len(levels), ToyParams(n_0=4 if len(levels) == 1 else 2,
                                                  levels=levels), graph_seed)
    n = inst.graph.n_vertices
    lengths: dict[int, list[int]] = {}
    oracle.drive(oracle.make_algorithm(desc, n, seed), oracle.player_sections(inst),
                 lambda p, o, words: lengths.setdefault(p, []).append(
                     len(oracle.pack_words(words))))

    def refuse(self):
        raise AssertionError("a snapshot was built")

    with pytest.MonkeyPatch.context() as mp:
        for cls in RUNNERS:
            mp.setattr(cls, "state_words", refuse, raising=False)
        sim = simulate_protocol_from_stream(desc, inst, seed)
    assert sim.transcript.cc_bits == sum(8 * len(msgs) * max(msgs) for msgs in lengths.values())
    assert sim.transcript.max_message_bits == 8 * max(map(max, lengths.values()))
