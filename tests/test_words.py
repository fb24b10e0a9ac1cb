"""Runner memory counted without a snapshot, and messages packed once.

``drive`` takes the peak from ``words()``, a closed-form count, and asks
for ``message()`` only when a hook wants the snapshot.  On every runner,
at every point where ``drive`` samples, ``words()`` must equal
``len(state_words())`` and ``message()`` must equal the packed snapshot;
with no hook, no snapshot is built at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misforge import EdgeStream, ToyParams, make_algorithm, sample_instance
from misforge.dupgraph import Biclique
from misforge.streaming import BufferedGreedyMIS, _pack_words, drive
from test_biclique import biclique_streams

DESCS = ("luby", "greedy", "residual:b=4", "residual:b=2", "residual:s={a},{b},all")
SHAPES = [(4, ((1, 1),)), (4, ((2, 1),)), (2, ((2, 2),)), (2, ((1, 1), (1, 1)))]


def descriptor(template, n):
    return template.format(a=max(1, n // 2), b=max(1, n // 5))


def checked_run(desc, n, seed, sections):
    """drive with a hook, every words() and message() checked against the
    snapshot; the report and the number of samples taken."""
    alg = make_algorithm(desc, n, seed)
    words, message, samples = alg.words, alg.message, []

    def counted():
        count = words()
        assert type(count) is int and count == len(alg.state_words())
        samples.append(count)
        return count

    def packed():
        got = message()
        assert got == _pack_words(alg.state_words())
        return got

    alg.words, alg.message = counted, packed
    messages = []
    rep = drive(alg, EdgeStream(sections), lambda p, o, m: messages.append(m))
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

    alg.state_words = alg.message = refuse
    want = drive(make_algorithm(descriptor(template, n), n, 1), EdgeStream(inst.player_edges))
    got = drive(alg, EdgeStream(inst.player_edges))
    assert (got.output, got.passes, got.peak_words) == (want.output, want.passes,
                                                         want.peak_words)


def test_greedy_packs_each_section_once():
    join = Biclique(np.array([0, 2, 9]), np.array([10, 11, 12, 100]))
    edges = np.array([[1, 3], [4, 5]], dtype=np.int64)
    greedy = BufferedGreedyMIS(101, 0)
    for section in (edges, join):
        greedy.feed(section)
        first = greedy.message()
        assert greedy.message() == first == _pack_words(greedy.state_words())
    assert len(greedy.packed) == 2
    assert greedy.packed[1].dtype == np.dtype(">u8") and greedy.words() == 2 * (2 + 12)
