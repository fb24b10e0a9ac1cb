import io
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dup_oracle
import size_oracle
from dup_oracle import (
    collection,
    decode_index,
    encode_vector,
    enumerate_layered_paths,
    verify_upc,
)
from misforge import (
    Budget,
    BudgetExceededError,
    FormatError,
    InvalidInputError,
    TooSmallError,
    build_dup,
    build_dup_from_size,
    pad_dup,
    path_counts,
    read_dup,
    verify_dup,
    write_dup,
)
from misforge import dupgraph
from misforge.dupgraph import DupGraph, DupParams, LayeredGraph, check_key_range, make_edge


def with_edges(dup, edges):
    """dup with its edge array replaced by a set of (layer, idx) pairs."""
    g = dup.graph
    return replace(dup, edges=LayeredGraph(g.num_layers, g.layer_size, frozenset(edges)).flat_edges())


def host(paths, edges, layer_size):
    """A hand-made graph from nested lists of layer-local path indices,
    one list per collection, and (layer, idx) edge pairs."""
    paths = np.array(paths, dtype=np.int64)
    q, p, layers = paths.shape
    params = DupParams(ell=1, d=1, k=layers - 1, p=p, q=q, padded=(0,) * layers)
    dup = DupGraph(paths=paths, layer_size=layer_size, params=params, avg_free=None)
    return with_edges(dup, edges)


# -- sizing -------------------------------------------------------------------


def test_build_from_size_examples():
    for n, dims in ((72, (2, 2)), (6, (1, 1))):
        p = build_dup_from_size(n, 1).params
        assert (p.d, p.ell, 2 * p.base_layer_size) == (*dims, n)
    with pytest.raises(TooSmallError):
        build_dup_from_size(5, 1)


@given(n=st.integers(6, 3000), k=st.integers(1, 3))
@settings(deadline=None, max_examples=80)
def test_build_from_size_fits(n, k):
    try:
        dup = build_dup_from_size(n, k)
    except TooSmallError:
        return
    p = dup.params
    assert (k + 1) * p.base_layer_size <= n
    assert dup.layer_size == n // (k + 1) and dup.graph.num_layers == k + 1
    # ell is maximal for this d
    assert (k + 1) * ((k + 2) * (p.ell + 1)) ** p.d > n


@given(n=st.integers(1, 4000), k=st.integers(1, 3))
@settings(deadline=None, max_examples=80)
def test_build_from_size_matches_oracle(n, k):
    best = size_oracle.best_dimensions(n, k)
    if best is None:
        with pytest.raises(TooSmallError):
            build_dup_from_size(n, k)
        return
    p = build_dup_from_size(n, k).params
    assert (p.ell, p.d) == best


# -- construction -------------------------------------------------------------


def test_build_2_1_1_exact():
    dup = build_dup(2, 1, 1)
    p = dup.params
    assert (p.q, p.p, p.ell, p.d, p.k) == (2, 1, 2, 1, 1)
    assert dup.avg_free.members == ((1,),)
    # labels below are 0-based indices of coordinate values 2,3,4
    assert collection(dup, 1) == [((1, 1), (2, 2))]
    assert collection(dup, 2) == [((1, 2), (2, 3))]
    assert sorted(dup.graph.edges) == [((1, 1), (2, 2)), ((1, 2), (2, 3))]


def test_build_2_2_1_path_arithmetic():
    dup = build_dup(2, 2, 1)
    side = dup.params.side
    assert side == 6
    i = encode_vector((1, 1), side)
    j = dup.avg_free.members.index((1, 2))
    path = collection(dup, i + 1)[j]
    assert path == ((1, encode_vector((2, 3), side)),
                    (2, encode_vector((3, 5), side)))


@given(ell=st.integers(1, 3), d=st.integers(1, 2), k=st.integers(1, 3))
@settings(deadline=None, max_examples=40)
def test_q_is_ell_to_the_d(ell, d, k):
    dup = build_dup(ell, d, k)
    assert dup.paths.shape[:2] == (dup.params.q, dup.params.p)
    assert dup.params.q == ell**d
    assert dup.graph.num_layers == k + 1
    assert (np.abs(np.diff(dup.edges // dup.layer_size, axis=1)) == 1).all()


@given(side=st.integers(1, 8), d=st.integers(1, 3), data=st.data())
def test_encode_decode_roundtrip(side, d, data):
    vec = tuple(
        data.draw(st.integers(1, side)) for _ in range(d)
    )
    assert decode_index(encode_vector(vec, side), side, d) == vec


def test_padding_appends_isolated_vertices():
    dup = pad_dup(build_dup(1, 1, 1), 7)
    assert dup.graph.layer_size == 7
    assert dup.params.base_layer_size == 3
    report = verify_dup(dup)
    assert report.ok, report.failures()


def test_padding_below_the_construction_fails():
    dup = build_dup(2, 1, 1)     # layers of 6
    small = replace(dup, layer_size=4, params=replace(dup.params, padded=(-2, -2)), edges=None)
    assert not verify_dup(small).checks["padding"]


def test_ids_past_int64_keys_are_refused():
    limit = math.isqrt(1 << 63)       # limit^2 <= 2^63 < (limit + 1)^2
    check_key_range(limit)
    with pytest.raises(InvalidInputError, match="overflow int64"):
        check_key_range(limit + 1)
    dup = build_dup(1, 1, 1)
    for make in (lambda: build_dup(1, 20, 1),          # 2 layers of 3^20
                 lambda: pad_dup(dup, limit // 2 + 1)):
        with pytest.raises(InvalidInputError, match="overflow int64"):
            make()


def test_build_from_size_pads_to_equal_layers():
    dup = build_dup_from_size(72, 1)
    assert dup.graph.layer_size == 36
    assert dup.graph.num_layers == 2
    assert verify_dup(dup).ok


# -- path enumeration (the reference DFS) --------------------------------------


def test_enumerate_single_edge():
    g = LayeredGraph(num_layers=2, layer_size=2, edges=frozenset({((1, 0), (2, 1))}))
    assert enumerate_layered_paths(g, (1, 0), (2, 1)) == [((1, 0), (2, 1))]
    assert enumerate_layered_paths(g, (1, 1), (2, 0)) == []


def test_enumerate_diamond():
    edges = frozenset(
        make_edge(u, v)
        for u, v in [((1, 0), (2, 0)), ((1, 0), (2, 1)), ((2, 0), (3, 0)), ((2, 1), (3, 0))]
    )
    g = LayeredGraph(num_layers=3, layer_size=2, edges=edges)
    assert len(enumerate_layered_paths(g, (1, 0), (3, 0))) == 2
    assert path_counts(host([[[0, 0, 0]]], edges, 2)).tolist() == [[[2]]]


def test_enumerate_budget():
    edges = frozenset(
        make_edge((1, a), (2, b)) for a in range(4) for b in range(4)
    ) | frozenset(make_edge((2, a), (3, b)) for a in range(4) for b in range(4))
    g = LayeredGraph(num_layers=3, layer_size=4, edges=edges)
    with pytest.raises(BudgetExceededError):
        enumerate_layered_paths(g, (1, 0), (3, 0), Budget(10, 10, 3))


# -- UPC verification ---------------------------------------------------------


def test_verify_upc_on_build():
    dup = build_dup(2, 1, 1)
    assert verify_upc(dup.graph, collection(dup, 1))
    assert verify_upc(dup.graph, collection(dup, 2))


def test_upc_sharing_a_vertex_fails():
    dup = host([[[0, 0], [1, 0]]], {((1, 0), (2, 0)), ((1, 1), (2, 0))}, 2)
    assert not verify_upc(dup.graph, collection(dup, 1))
    assert not verify_dup(dup).checks["unique_paths"]


def shortcut_counterexample():
    """Two disjoint 3-layer paths plus a crossing edge: a second layered
    path appears between the start of one and the end of the other."""
    p1 = ((1, 0), (2, 0), (3, 0))
    p2 = ((1, 1), (2, 1), (3, 1))
    edges = set()
    for p in (p1, p2):
        edges.add(make_edge(p[0], p[1]))
        edges.add(make_edge(p[1], p[2]))
    edges.add(make_edge((2, 0), (3, 1)))  # the shortcut
    return host([[[0, 0, 0], [1, 1, 1]]], edges, 2)


def test_shortcut_breaks_uniqueness():
    dup = shortcut_counterexample()
    assert not verify_upc(dup.graph, collection(dup, 1))
    assert not verify_dup(dup).checks["unique_paths"]
    assert path_counts(dup).tolist() == [[[1, 1], [0, 1]]]


# -- whole-graph verification -------------------------------------------------


def test_verify_dup_2_2_1():
    report = verify_dup(build_dup(2, 2, 1))
    assert report.ok, report.failures()


def test_verify_dup_3_2_2():
    dup = build_dup(3, 2, 2)
    assert dup.params.q == 9
    report = verify_dup(dup)
    assert report.ok, report.failures()


def test_foreign_edge_breaks_partition():
    dup = build_dup(2, 2, 1)
    g = dup.graph
    extra = None
    covered = set(g.edges)
    for a in range(g.layer_size):
        e = make_edge((1, a), (2, a))
        if e not in covered:
            extra = e
            break
    report = verify_dup(with_edges(dup, g.edges | {extra}))
    assert not report.checks["edge_partition"]


# -- differential: path counting against the reference DFS ---------------------

# every criterion-2 shape whose layers hold at most 216 vertices
SMALL_DUPS = [(ell, d, k) for k in range(1, 4) for d in range(1, 8) for ell in range(1, 73)
              if ((k + 2) * ell) ** d <= 216]
# those with two or more paths per collection, where most mutants can bite
MULTI_PATH = [(ell, d, k) for ell, d, k in SMALL_DUPS if ell >= 2 and d >= 2]
# the two searches count work differently, so neither may hit its cap
NO_CAP = Budget(max_paths=1 << 40)
MUTANTS = ("shortcut", "detour", "moved", "swapped", "skip", "shared")


def mutate(dup, kind, rng):
    """One corruption of a built graph, at places drawn from rng."""
    paths = dup.paths.copy()
    q, p, layers = paths.shape
    i, j, m = rng.integers(q), rng.integers(p), rng.integers(layers - 1)
    h = (j + 1 + rng.integers(p - 1)) % p if p > 1 else j       # another path, if any
    edges = set(dup.graph.edges)
    if kind == "shortcut":      # path j's layer-m vertex to path h's next one
        target = paths[i, h, m + 1] if p > 1 else rng.integers(dup.layer_size)
        edges.add(((m + 1, int(paths[i, j, m])), (m + 2, int(target))))
        return with_edges(dup, edges)
    if kind == "detour":        # a second way round path j's layer-(m+2) vertex
        u, w = (int(x) for x in rng.integers(dup.layer_size, size=2))
        if layers < 3:          # no room: an edge into path j's final vertex instead
            edges.add(((1, u), (2, int(paths[i, j, 1]))))
        else:
            m = min(m, layers - 3)
            edges |= {((m + 1, int(paths[i, j, m])), (m + 2, w)),
                      ((m + 2, w), (m + 3, int(paths[i, j, m + 2])))}
        return with_edges(dup, edges)
    if kind == "moved":         # the vertex takes its path edges along, or leaves them
        paths[i, j, rng.integers(layers)] = rng.integers(dup.layer_size)
        return replace(dup, paths=paths, edges=None if rng.integers(2) else dup.edges)
    if kind == "swapped":       # two paths trade places, in one collection or two
        i2, h = (i, h) if rng.integers(2) else (rng.integers(q), j)
        paths[[i, i2], [j, h]] = paths[[i2, i], [h, j]]
        return replace(dup, paths=paths)
    if kind == "skip":          # two layers apart; a same-layer edge when there are two
        a = rng.integers(layers - 2) if layers > 2 else 0
        b = a + 2 if layers > 2 else a
        u, v = rng.choice(dup.layer_size, 2, replace=False)
        return with_edges(dup, edges | {((a + 1, int(u)), (b + 1, int(v)))})
    width = rng.integers(1, 3)          # "shared": paths j and h meet, or share an edge
    paths[i, h, m:m + width] = paths[i, j, m:m + width]
    return replace(dup, paths=paths, edges=None)


def test_verify_dup_matches_dfs_oracle_on_built_graphs():
    for ell, d, k in SMALL_DUPS:
        dup = build_dup(ell, d, k)
        assert verify_dup(dup, NO_CAP).checks == dup_oracle.verify_dup(dup, NO_CAP).checks


def test_verify_dup_matches_dfs_oracle_on_mutants():
    rejected = []

    @given(case=st.one_of(st.sampled_from(SMALL_DUPS), st.sampled_from(MULTI_PATH)),
           kind=st.sampled_from(MUTANTS), seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=300, database=None)
    def compare(case, kind, seed):
        mutant = mutate(build_dup(*case), kind, np.random.default_rng(seed))
        want = dup_oracle.verify_dup(mutant, NO_CAP).checks
        assert verify_dup(mutant, NO_CAP).checks == want, kind
        rejected.append(not all(want.values()))

    compare()
    assert sum(rejected) >= 20, f"only {sum(rejected)} of {len(rejected)} mutants fail"


def test_verify_dup_budget_raises():
    with pytest.raises(BudgetExceededError):
        verify_dup(build_dup(2, 2, 1), Budget(max_paths=4))


def test_path_count_table_counts_against_the_budget():
    dup = build_dup(5, 3, 1)        # 1047 frontier rows; a (125, 6, 6) table of 4500 entries
    assert verify_dup(dup, Budget(max_paths=4500)).ok
    with pytest.raises(BudgetExceededError, match="table"):
        verify_dup(dup, Budget(max_paths=2000))


# -- index arithmetic against the coordinate construction ------------------------

# every criterion-2 shape
CRITERION_2 = [(ell, d, k) for k in range(1, 4) for d in range(1, 8)
               for ell in range(1, 4096 // (k + 2) + 1) if ((k + 2) * ell) ** d <= 4096]


def test_build_matches_coordinate_oracle():
    for case in CRITERION_2:
        dup, want = build_dup(*case), dup_oracle.coordinate_build_dup(*case)
        assert dup.paths.dtype == want.paths.dtype and np.array_equal(dup.paths, want.paths)
        assert np.array_equal(dup.edges, want.edges), case
        assert (dup.params, dup.avg_free) == (want.params, want.avg_free), case


def nudge(dup, rng):
    """One path entry moved by 1, side or side^(d-1), up or down."""
    paths, side, d = dup.paths.copy(), dup.params.side, dup.params.d
    paths[tuple(rng.integers(n) for n in paths.shape)] += (
        rng.choice([-1, 1]) * rng.choice([1, side, side ** (d - 1)]))
    return replace(dup, paths=paths)


def test_recover_matches_coordinate_oracle():
    none = []

    @given(case=st.one_of(st.sampled_from(SMALL_DUPS), st.sampled_from(MULTI_PATH)),
           kind=st.sampled_from(("built", "nudge", *MUTANTS)),
           seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=400, database=None)
    def compare(case, kind, seed):
        rng, dup = np.random.default_rng(seed), build_dup(*case)
        if kind == "nudge":
            dup = nudge(dup, rng)
        elif kind != "built":
            dup = mutate(dup, kind, rng)
        want = dup_oracle.coordinate_recover_avg_free(dup)
        assert dupgraph._recover_avg_free(dup) == want, kind
        none.append(want is None)

    compare()
    assert 0 < sum(none) < len(none)


def test_recover_matches_coordinate_oracle_on_params_one_off():
    # with k one lower the paths reach a layer where digits carry
    for case in SMALL_DUPS:
        dup = build_dup(*case)
        for field, delta in itertools.product(("ell", "d", "k"), (-1, 1)):
            if getattr(dup.params, field) + delta >= 1:
                params = replace(dup.params, **{field: getattr(dup.params, field) + delta})
                odd = replace(dup, params=params)
                want = dup_oracle.coordinate_recover_avg_free(odd)
                assert dupgraph._recover_avg_free(odd) == want, (case, field, delta)


def refuse_grids_over(monkeypatch, k):
    """Make build_avg_free_set fail the test for a grid whose k+1 layers
    of ell^d vertices would already exceed the budget's vector cap."""
    real = dupgraph.build_avg_free_set

    def spy(ell, d, budget):
        assert (k + 1) * ell**d <= budget.max_vectors, f"built the grid of ({ell}, {d})"
        return real(ell, d, budget)

    monkeypatch.setattr(dupgraph, "build_avg_free_set", spy)


def test_build_refuses_before_building_the_grid(monkeypatch):
    refuse_grids_over(monkeypatch, 1)
    with pytest.raises(BudgetExceededError):
        build_dup(16_000_000, 1, 1)


def test_build_from_size_builds_no_grid_over_budget(monkeypatch):
    budget = Budget(max_vectors=300)
    want = build_dup_from_size(4000, 1, budget)     # d = 1 and 2 are over the cap
    refuse_grids_over(monkeypatch, 1)
    got = build_dup_from_size(4000, 1, budget)
    assert (got.params, got.avg_free) == (want.params, want.avg_free)


# -- dupg serialization -------------------------------------------------------


def roundtrip(dup):
    buf = io.StringIO()
    write_dup(dup, buf)
    return read_dup(io.StringIO(buf.getvalue())), buf.getvalue()


@given(ell=st.integers(1, 3), d=st.integers(1, 2), k=st.integers(1, 2),
       padding=st.integers(0, 5))
@settings(deadline=None, max_examples=30)
def test_dupg_roundtrip(ell, d, k, padding):
    dup = build_dup(ell, d, k)
    if padding:
        dup = pad_dup(dup, dup.graph.layer_size + padding)
    back, text = roundtrip(dup)
    assert back.graph == dup.graph
    assert np.array_equal(back.paths, dup.paths)
    assert back.params == dup.params
    assert back.avg_free == dup.avg_free
    # writing again is byte-stable
    buf2 = io.StringIO()
    write_dup(back, buf2)
    assert buf2.getvalue() == text


def test_write_matches_line_oracle(monkeypatch):
    """Byte for byte on the criterion-2 shapes, padded and not, with blocks
    of 7 lines so most files span several blocks.  Every d >= 2 shape; of
    the d = 1 shapes, which differ only in their number of one-path lines,
    every 16th ell."""
    monkeypatch.setattr(dupgraph, "DUPG_BLOCK_ROWS", 7)
    for case in [(ell, d, k) for ell, d, k in CRITERION_2 if d >= 2 or ell % 16 == 0]:
        dup = build_dup(*case)
        for graph in (dup, pad_dup(dup, dup.layer_size + 3)):
            got, want = io.StringIO(), io.StringIO()
            write_dup(graph, got)
            dup_oracle.line_write_dup(graph, want)
            assert got.getvalue() == want.getvalue(), case


def test_write_blocks_at_the_default_size():
    dup = build_dup_from_size(100_000, 1)      # 65 712 path lines: a block and 176 lines
    assert dup.params.q * dup.params.p > dupgraph.DUPG_BLOCK_ROWS
    got, want = io.StringIO(), io.StringIO()
    write_dup(dup, got)
    dup_oracle.line_write_dup(dup, want)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("mangle", [
    lambda t: t.replace("dupg 1", "dupg 9", 1),
    lambda t: t.replace("dupg 1", "xyzzy 1", 1),
    lambda t: "\n".join(t.splitlines()[:-1]) + "\n",          # drop a line
    lambda t: t + "upc 1 1 0 0\n",                            # trailing garbage
    lambda t: t.replace("upc 1 1", "upc 2 1", 1),             # order violation
    lambda t: t.replace("upc 1 1", "upc 1 x", 1),             # non-integer path number
    lambda t: t.replace("upc 1 1 1 2", "upc 1 1 1 z", 1),     # non-integer vertex index
    lambda t: t.replace("pad 0", "pad q", 1),                 # non-integer pad
])
def test_dupg_malformed(mangle):
    _, text = roundtrip(build_dup(2, 1, 1))
    with pytest.raises(FormatError):
        read_dup(io.StringIO(mangle(text)))
