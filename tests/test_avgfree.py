import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misforge import (
    AvgFreeSet,
    Budget,
    BudgetExceededError,
    InvalidInputError,
    build_avg_free_set,
    verify_avg_free,
)
from misforge.avgfree import MAX_D, well_formed

from avgfree_oracle import dfs_avg_free, dict_build_members
from conftest import brute_avg_free


def test_example_2_2():
    a = build_avg_free_set(2, 2)
    assert a.members == ((1, 2), (2, 1))
    assert a.norm_sq == 5
    assert a.size == 2 >= math.ceil(4 / 8)


def test_example_1_3_singleton():
    a = build_avg_free_set(1, 3)
    assert a.members == ((1, 1, 1),)
    assert a.size == 1


def test_example_3_2_tie_break():
    # three classes of size two; the smallest squared norm wins
    a = build_avg_free_set(3, 2)
    assert a.members == ((1, 2), (2, 1))
    assert a.norm_sq == 5


def test_verify_examples():
    a = AvgFreeSet(ell=2, d=2, norm_sq=5, members=((1, 2), (2, 1)))
    assert verify_avg_free(a, 4)
    bad = AvgFreeSet(ell=3, d=1, norm_sq=1, members=((1,), (2,), (3,)))
    assert not well_formed(bad)  # mixed norms
    assert not verify_avg_free(bad, 2)  # {(1),(3)} averages to (2)
    ok = AvgFreeSet(ell=3, d=1, norm_sq=1, members=((1,), (3,)))
    assert not well_formed(ok)
    assert verify_avg_free(ok, 2)  # (2) is not a member


def test_singleton_always_verifies():
    for ell, d in [(1, 1), (5, 1), (2, 3)]:
        a = AvgFreeSet(ell=ell, d=d, norm_sq=d, members=((1,) * d,))
        assert verify_avg_free(a, 6)


def test_budget_exceeded():
    tiny = Budget(max_vectors=10, max_nodes=10, max_paths=10)
    with pytest.raises(BudgetExceededError):
        build_avg_free_set(4, 2, tiny)
    with pytest.raises(BudgetExceededError):
        verify_avg_free(build_avg_free_set(4, 2), 5, tiny)


def test_invalid_dimensions():
    for ell, d in [(0, 1), (1, 0), (-2, 3)]:
        with pytest.raises(InvalidInputError):
            build_avg_free_set(ell, d)


def test_d_is_bounded_before_the_grid():
    assert build_avg_free_set(1, MAX_D).members == ((1,) * MAX_D,)
    for ell, d in [(1, MAX_D + 1), (2, 70), (1, 10**30), (2, 10**30)]:
        with pytest.raises(InvalidInputError, match="d <="):
            build_avg_free_set(ell, d)


@given(ell=st.integers(1, 6), d=st.integers(1, 3))
@settings(deadline=None)
def test_build_properties(ell, d):
    a = build_avg_free_set(ell, d)
    assert well_formed(a)
    assert a.size >= math.ceil(ell**d / (d * ell**2))
    assert all(len(v) == d and all(1 <= c <= ell for c in v) for v in a.members)
    assert len(set(a.members)) == a.size
    assert all(sum(c * c for c in v) == a.norm_sq for v in a.members)
    assert all(v in a and list(v) in a for v in a.members)
    assert (0,) * d not in a and (ell + 1,) * d not in a
    assert verify_avg_free(a, 4)


@given(ell=st.integers(2, 4), d=st.integers(1, 2), data=st.data())
@settings(deadline=None, max_examples=60)
def test_verify_matches_brute_force(ell, d, data):
    """The pruned search agrees with direct multiset enumeration."""
    grid = list(itertools.product(range(1, ell + 1), repeat=d))
    members = tuple(
        sorted(
            data.draw(
                st.sets(st.sampled_from(grid), min_size=1, max_size=min(6, len(grid)))
            )
        )
    )
    a = AvgFreeSet(ell=ell, d=d, norm_sq=sum(c * c for c in members[0]), members=members)
    assert verify_avg_free(a, 4) == brute_avg_free(members, 4)


def test_equal_norm_class_is_average_free_even_for_large_t():
    # constructed sets stay average-free well past the verification default
    a = build_avg_free_set(3, 2)
    assert verify_avg_free(a, 8)


def test_builder_matches_dict_builder():
    """The numpy builder equals a dict over itertools.product on every small grid."""
    grids = 0
    for d in range(1, 13):
        ell = 1
        while ell**d <= 512:
            a = build_avg_free_set(ell, d)
            assert (a.norm_sq, a.members) == dict_build_members(ell, d), (ell, d)
            assert all(type(c) is int for v in a.members for c in v)
            grids += 1
            ell += 1
    assert grids == 560


@pytest.mark.parametrize(
    "ell, d, members",
    [
        (3, 1, ((4,), (5,))),       # average-free, but outside {1..3}
        (3, 1, ((0,), (2,))),
        (3, 2, ((1, 2), (2,))),     # ragged
        (3, 2, ((1, 2, 3), (2, 1, 3))),   # length differs from d
        (3, 2, (1, 2)),             # scalars, not vectors
        (0, 1, ((1,), (2,))),
        (3, 0, ((), ())),
        (-1, 1, ()),
    ],
)
def test_verify_rejects_bad_members(ell, d, members):
    a = AvgFreeSet(ell=ell, d=d, norm_sq=0, members=members)
    with pytest.raises(InvalidInputError):
        verify_avg_free(a, 3)


def test_node_count_pins_the_cap():
    """(8,4) up to t=5 visits 454 362 nodes, as the depth-first search does."""
    a = build_avg_free_set(8, 4)
    assert verify_avg_free(a, 5, Budget(max_nodes=454_362))
    with pytest.raises(BudgetExceededError):
        verify_avg_free(a, 5, Budget(max_nodes=454_361))


@pytest.mark.parametrize("ell, d, nodes", [(16, 3, 82_260), (7, 4, 37_422)])
def test_node_count_pins_the_other_benchmark_grids(ell, d, nodes):
    """Up to t=5, as counted by dfs_avg_free."""
    a = build_avg_free_set(ell, d)
    assert verify_avg_free(a, 5, Budget(max_nodes=nodes))
    with pytest.raises(BudgetExceededError):
        verify_avg_free(a, 5, Budget(max_nodes=nodes - 1))


def test_mask_tables_do_not_grow_with_ell():
    a = AvgFreeSet(ell=10**7, d=1, norm_sq=0, members=((1,), (10**7,)))
    assert verify_avg_free(a, 5)     # a first call pays numpy's lazy imports
    tracemalloc.start()
    try:
        assert verify_avg_free(a, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _member_sets(ell, d, data):
    grid = list(itertools.product(range(1, ell + 1), repeat=d))
    members = data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=8, unique=True))
    if data.draw(st.booleans()):
        members = sorted(members)
    return tuple(members)


@given(ell=st.integers(1, 4), d=st.integers(1, 4), t=st.integers(2, 6), data=st.data())
@settings(deadline=None, max_examples=150)
def test_verify_matches_dfs_oracle(ell, d, t, data):
    """Same verdict as the per-node search and brute force; on average-free
    sets the same node count, so the cap trips at the same value."""
    members = _member_sets(ell, d, data)
    a = AvgFreeSet(ell=ell, d=d, norm_sq=0, members=members)
    verdict, nodes = dfs_avg_free(a, t)
    assert verify_avg_free(a, t) == verdict == brute_avg_free(members, t)
    cap = data.draw(st.integers(0, nodes + 1))
    try:
        capped = verify_avg_free(a, t, Budget(max_nodes=cap))
    except BudgetExceededError:
        capped = None
    if verdict:
        assert capped is (None if cap < nodes else True)
    elif capped is not None:
        assert capped is False


def test_verify_matches_dfs_oracle_on_random_sets():
    """A fixed draw in which many sets are not average-free, some with a
    repeated member."""
    rng = random.Random(5)
    refuted = 0
    for _ in range(300):
        d, ell = rng.randint(1, 4), rng.randint(1, 5)
        members = list(dict.fromkeys(
            tuple(rng.randint(1, ell) for _ in range(d)) for _ in range(rng.randint(1, 9))
        ))
        if rng.random() < 0.5:
            members.sort()
        if rng.random() < 0.1:   # a repeated member is a second hit
            members.insert(rng.randrange(len(members) + 1), rng.choice(members))
        t = rng.randint(2, 6)
        a = AvgFreeSet(ell=ell, d=d, norm_sq=0, members=tuple(members))
        verdict, nodes = dfs_avg_free(a, t)
        assert verify_avg_free(a, t) == verdict, (a, t)
        if verdict and nodes:
            assert verify_avg_free(a, t, Budget(max_nodes=nodes))
            with pytest.raises(BudgetExceededError):
                verify_avg_free(a, t, Budget(max_nodes=nodes - 1))
        refuted += not verdict
    assert refuted >= 50


@given(shape=st.sampled_from([(3, 6), (8, 4), (9, 4), (5, 5), (4, 6)]), t=st.integers(2, 3),
       data=st.data())
@settings(deadline=None, max_examples=40)
def test_verify_matches_dfs_oracle_on_multiword_masks(shape, t, data):
    """65 to 140 members, so every mask spans two or three uint64 words: a
    subset of a sphere class (average-free) in random or sorted order, and
    maybe a member repeated or swapped for a stray grid point.  Same
    verdict as the per-node search; on average-free sets the same node
    count, so the cap trips at the same value."""
    ell, d = shape
    sphere = build_avg_free_set(ell, d).members
    size = data.draw(st.integers(65, min(139, len(sphere))))
    members = data.draw(st.permutations(sphere))[:size]
    if data.draw(st.booleans()):
        members = sorted(members)
    if data.draw(st.booleans()):
        members.insert(data.draw(st.integers(0, size)), data.draw(st.sampled_from(members)))
    if data.draw(st.booleans()):
        stray = tuple(data.draw(st.integers(1, ell)) for _ in range(d))
        members[data.draw(st.integers(0, size - 1))] = stray
    a = AvgFreeSet(ell=ell, d=d, norm_sq=0, members=tuple(members))
    verdict, nodes = dfs_avg_free(a, t)
    assert verify_avg_free(a, t) == verdict
    cap = data.draw(st.integers(0, nodes + 1))
    try:
        capped = verify_avg_free(a, t, Budget(max_nodes=cap))
    except BudgetExceededError:
        capped = None
    if verdict:
        assert capped is (None if cap < nodes else True)
    elif capped is not None:
        assert capped is False
