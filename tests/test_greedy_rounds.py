"""Random-order greedy as select/retire rounds against the sequential visit.

``streaming._greedy`` runs Luby's rounds with the rank in the order as a
fixed priority; ``stream_oracle.csr_greedy`` visits the order one vertex
at a time.  Both must take the same vertices on any sections, with the
order over all vertices (buffered greedy) or over a subset (residual's
sample), and never expand a Biclique to do it.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stream_oracle as oracle
from misforge import Biclique, EdgeStream
from misforge.dupgraph import stack_edges
from misforge.streaming import BufferedGreedyMIS, ResidualSparsityMIS, _greedy
from test_biclique import biclique_streams


def sequential(order, sections, n):
    return oracle.csr_greedy(np.asarray(order, dtype=np.int64), stack_edges(sections),
                             np.zeros(n, dtype=bool))


@given(stream=biclique_streams(), pick=st.integers(0, 10**6), subset=st.booleans())
@settings(deadline=None, max_examples=150)
def test_rounds_take_what_the_visit_takes(stream, pick, subset):
    n, sections = stream
    rng = np.random.default_rng(pick)
    order = rng.permutation(n)
    if subset:
        order = order[:rng.integers(0, n + 1)]
    got = _greedy(order, sections, n)
    assert np.array_equal(got, sequential(order, sections, n))


@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("descending", [False, True])
def test_path_in_order_takes_every_other_vertex(n, descending):
    """Along a path in order, each round takes one vertex and retires the
    next: n / 2 rounds, the most any order needs on it."""
    path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    order = np.arange(n)[::-1] if descending else np.arange(n)
    got = _greedy(order, [path], n)
    assert np.array_equal(got, sequential(order, [path], n))
    assert np.flatnonzero(got).tolist() == sorted(order[::2].tolist())


@given(stream=biclique_streams(), pick=st.integers(0, 10**6))
@settings(deadline=None, max_examples=50)
def test_rounds_never_expand_a_biclique(stream, pick):
    n, sections = stream
    order = np.random.default_rng(pick).permutation(n)
    want = sequential(order, sections, n)
    with mock.patch.object(Biclique, "expand", side_effect=AssertionError("expanded")):
        assert np.array_equal(_greedy(order, sections, n), want)


def test_runners_keep_a_biclique_as_it_is():
    join = Biclique(np.arange(0, 3), np.arange(3, 6))
    greedy = BufferedGreedyMIS(6, 0)
    greedy.feed(join)
    residual = ResidualSparsityMIS(6, ["all"], 0)
    residual.begin_pass()
    residual.feed(join)
    assert greedy.buffer[0] is join
    assert isinstance(residual.stored[0], Biclique)
    assert len(residual.state_words()) == 6 + 6 + 2 * 9


def test_random_order_expands_a_biclique():
    join = Biclique(np.array([0, 2, 5]), np.array([1, 3]))
    stream = EdgeStream.from_edges(join, order="random", seed=1)
    (edges,) = stream.sections_list
    assert sorted(map(tuple, edges.tolist())) == sorted(map(tuple, join.expand().tolist()))
    assert EdgeStream.from_edges(join).sections_list == [join]
