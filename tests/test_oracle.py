import functools
import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misforge import (
    EdgeStream,
    InconsistentMisError,
    InvalidInputError,
    InvalidSequenceError,
    LubyMIS,
    NotAnMisError,
    ToyParams,
    drive,
    enumerate_all_mis,
    eval_predicate,
    extract_predicate_from_mis,
    greedy_mis,
    is_mis,
    plan_levels,
    sample_instance,
    sample_tree,
)
from misforge.dupgraph import Biclique, EdgeView, LayeredGraph
from misforge.hardness import _base_instance
from misforge.oracle import _covers, _label_map

from conftest import brute_all_mis, brute_is_mis
from instance_oracle import Subgraph
import instance_oracle
import mis_oracle

TRIANGLE = ({"a", "b", "c"}, {("a", "b"), ("b", "c"), ("a", "c")})
PATH3 = ({"a", "b", "c"}, {("a", "b"), ("b", "c")})


# -- is_mis -------------------------------------------------------------------


def test_is_mis_examples():
    assert is_mis(TRIANGLE, {"a"})
    assert not is_mis(TRIANGLE, set())
    assert is_mis(PATH3, {"a", "c"})
    assert not is_mis(PATH3, {"a"})        # not maximal
    assert not is_mis(PATH3, {"a", "b"})   # not independent


def test_is_mis_rejects_foreign_vertices():
    assert not is_mis(PATH3, {"a", "z"})


def test_is_mis_needs_no_vertex_order():
    # is_mis makes one pass and sorts nothing, so unorderable vertices work
    mixed = ([1, "a", (2, 0)], [(1, "a"), ("a", (2, 0))])
    assert is_mis(mixed, {1, (2, 0)})
    assert not is_mis(mixed, {1})


@given(n=st.integers(1, 8), data=st.data())
@settings(deadline=None, max_examples=80)
def test_is_mis_matches_brute(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    cand = data.draw(st.sets(st.integers(0, n - 1)))
    view = (set(range(n)), set(edges))
    assert is_mis(view, cand) == brute_is_mis(range(n), edges, cand)


@given(n=st.integers(1, 8), data=st.data())
@settings(deadline=None, max_examples=120)
def test_covers_matches_is_mis(n, data):
    """The mask check behind extraction and the bench's mis_valid column
    against the set-based check and the brute force."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set())))
    chosen = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    cand = set(np.flatnonzero(chosen).tolist())
    want = brute_is_mis(range(n), edges, cand)
    assert is_mis((range(n), edges), cand) == want
    assert _covers([np.array(edges, dtype=np.int64).reshape(-1, 2)], chosen) is want


# -- is_mis against the set-based loop it replaced ------------------------------

LABELS = st.integers(-2, 6) | st.sampled_from(["a", "b", (2, 0), (1, 1), 1.0, True, 2.5, "1"])


def near_mis(data, vertices, edges, labels):
    """First fit along a drawn order of the distinct vertices, then maybe
    one label dropped, or one drawn from labels added."""
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    chosen: set = set()
    for v in data.draw(st.permutations(list(dict.fromkeys(vertices)))):
        if not adj.get(v, set()) & chosen:
            chosen.add(v)
    how = data.draw(st.sampled_from(["keep", "drop", "add"]))
    if how == "drop" and chosen:
        chosen.discard(data.draw(st.sampled_from(sorted(chosen, key=repr))))
    if how == "add":
        chosen.add(data.draw(labels))
    return chosen


@given(vertices=st.lists(LABELS, max_size=8), data=st.data())
@settings(deadline=None, max_examples=100)
def test_is_mis_matches_oracle_on_labels(vertices, data):
    """Mixed and unorderable labels, equal ones of different types (1, 1.0,
    True), repeated vertices, self loops, and edges and candidates that
    reach labels outside the vertex set."""
    pool = st.sampled_from(vertices) | LABELS if vertices else LABELS
    edges = data.draw(st.lists(st.tuples(pool, pool), max_size=12))
    cand = near_mis(data, vertices, edges, pool)
    assert is_mis((vertices, edges), cand) == mis_oracle.is_mis((vertices, edges), cand)


@given(n=st.integers(0, 8), start=st.sampled_from([0, 2]), step=st.sampled_from([1, 1, 2]),
       data=st.data())
@settings(deadline=None, max_examples=100)
def test_is_mis_matches_oracle_on_flat_ids(n, start, step, data):
    """(range, edges) with negative ids and ids past the range, as an int64
    or int32 array or as a list of pairs, and labels that equal an int
    (1.0, True) or only look like one (2.5, "1")."""
    vertices = range(start, start + step * n, step)
    ids = st.integers(-3, start + step * n + 2)
    labels = ids | st.sampled_from([1.0, True, 2.5, "1"])
    form = data.draw(st.sampled_from(["int64", "int32", "list"]))
    rows = data.draw(st.lists(st.tuples(*[labels if form == "list" else ids] * 2), max_size=12))
    cand = near_mis(data, vertices, rows, labels)
    graph = (vertices, rows if form == "list" else np.array(rows, form).reshape(-1, 2))
    assert is_mis(graph, cand) == mis_oracle.is_mis(graph, cand)


def test_is_mis_takes_a_label_as_a_set_would():
    """A label is the vertex it equals (1.0 and True are 1), and nothing
    that only converts to one (2.5, "1", the pair (1, 0) as a range)."""
    path = (range(3), np.array([[0, 1], [1, 2]]))
    layered = LayeredGraph(2, 1, EdgeView((np.array([[0, 1]]),), 1, 2))
    cases = [(path, {0.0, 2}, True), (path, {True}, True), (path, {0, 2, 2.5}, False),
             (path, {0, 2, "1"}, False), (path, {1.5}, False),
             (layered, {(1.0, 0)}, True), (layered, {(True, False)}, True),
             (layered, {(1, 0), (2.5, 0)}, False), (layered, {(1, 0), ("2", 0)}, False),
             (layered, {range(1, -1, -1)}, False)]
    for graph, cand, want in cases:
        assert is_mis(graph, cand) is mis_oracle.is_mis(graph, cand) is want, cand


SMALL = st.integers(-2, 5)
PLAIN_PAIRS = (st.tuples(SMALL, SMALL)
               | st.tuples(SMALL, SMALL).map(lambda t: (np.int64(t[0]), np.int32(t[1]))))
OTHER_PAIRS = (st.tuples(SMALL | st.sampled_from([1.0, 2.5, True]),
                         SMALL | st.sampled_from([0.0, False]))
               | st.builds(range, SMALL, SMALL, st.sampled_from([1, -1]))
               | SMALL | st.sampled_from(["a", (1,), (1, 0, 0), (1, (0,)), (1, "0")]))
PLAIN_INTS = SMALL | SMALL.map(np.int64) | st.integers(2**40, 2**62)
OTHER_INTS = st.sampled_from([1.0, 2.5, True, False, "1", (1, 0), range(1, 3), 2**70])


@given(layered=st.booleans(), shape=st.tuples(st.integers(1, 3), st.integers(0, 4)),
       start=st.integers(-3, 3), step=st.sampled_from([1, 2, 3, -1, -2]),
       plain=st.booleans(), data=st.data())
@settings(deadline=None, max_examples=100)
def test_label_map_matches_a_dict(layered, shape, start, step, plain, data):
    """_label_map's positions against one dict over the vertices, on a
    LayeredGraph and on a range, with labels all plain (the arithmetic)
    or mixed with floats, bools, ranges, strings, and pairs of another
    length or type (the dict)."""
    if layered:
        vertices = LayeredGraph(*shape, EdgeView((), shape[1], shape[0] * shape[1]))
        pool = PLAIN_PAIRS if plain else PLAIN_PAIRS | OTHER_PAIRS
    else:
        vertices = range(start, start + step * shape[0] * shape[1], step)
        pool = PLAIN_INTS if plain else PLAIN_INTS | OTHER_INTS
    labels = data.draw(st.lists(pool, max_size=10))
    index: dict = {}
    for v in vertices.vertices() if layered else vertices:
        index.setdefault(v, len(index))
    n, positions = _label_map(vertices)
    assert n == len(index)
    assert positions(labels).tolist() == [index.get(x, n) for x in labels], labels


@functools.lru_cache
def r2_toy(seed):
    """A toy r=2 instance whose join is a Biclique, and Luby's MIS of it
    as (layer, idx) labels."""
    inst = sample_instance(2, ToyParams(n_0=2, levels=((1, 1), (1, 1))), seed)
    assert isinstance(inst.player_edges[-1], Biclique)
    size = inst.graph.layer_size
    out = drive(LubyMIS(inst.graph.n_vertices, seed), EdgeStream.from_instance(inst)).output
    return inst, frozenset((f // size + 1, f % size) for f in out)


@given(seed=st.integers(0, 3), pick=st.integers(0, 10**6),
       how=st.sampled_from(["keep", "drop", "add", "foreign", "x"]))
@settings(deadline=None, max_examples=60)
def test_is_mis_matches_oracle_on_a_layered_join(seed, pick, how):
    """A LayeredGraph whose join is a Biclique, Luby's MIS with a vertex
    dropped or added, or with (99, 0) or "x" added; the same set as flat
    ids over flat_edges() gets the same answer."""
    inst, s = r2_toy(seed)
    g = inst.graph
    members, others = sorted(s), sorted(set(g.vertices()) - s)
    cand = {"keep": s, "drop": s - {members[pick % len(members)]},
            "add": s | {others[pick % len(others)]}, "foreign": s | {(99, 0)}, "x": s | {"x"}}[how]
    want = mis_oracle.is_mis(g, cand)
    assert is_mis(g, cand) == want and want == (how == "keep")
    if how in ("keep", "drop", "add"):
        assert is_mis((range(g.n_vertices), g.flat_edges()), {g.flat_id(v) for v in cand}) == want


def test_is_mis_foreign_endpoints():
    """An edge to an id outside the graph, negative or too large, fails a
    set only where a chosen vertex meets it, in every edge form; no id
    wraps around."""
    layered = LayeredGraph(2, 2, EdgeView((np.array([[-1, 0], [1, 4]]),
                                           Biclique(np.array([0, 9]), np.array([2, 3]))), 2, 4))
    graphs = [(range(3), np.array([[0, 3], [-1, 1], [-3, 5]])),
              ([0, 1, 2], [(0, 3), (-1, 1), (7, 8)]),
              (range(3), [(2, -1)]),
              layered]
    for graph in graphs:
        vertices = list(range(3)) if isinstance(graph, tuple) else list(layered.vertices())
        for size in range(len(vertices) + 1):
            for cand in itertools.combinations(vertices, size):
                assert is_mis(graph, cand) == mis_oracle.is_mis(graph, cand), (graph, cand)
    assert not is_mis((range(3), np.array([[0, -1]])), {0, 1, 2})
    assert is_mis((range(3), np.array([[-1, -3]])), {0, 1, 2})


def refuse(*args):
    raise AssertionError("the graph was listed, or its join iterated or expanded")


def test_mis_checks_take_the_join_in_closed_form(monkeypatch):
    """With EdgeView iteration, Biclique.expand and LayeredGraph.vertices
    refused, is_mis on a LayeredGraph and extract_predicate_from_mis still
    answer on (layer, idx) int labels."""
    inst, s = r2_toy(0)
    seq = (1,) * inst.r
    want = eval_predicate(inst, seq)
    monkeypatch.setattr(EdgeView, "__iter__", refuse)
    monkeypatch.setattr(Biclique, "expand", refuse)
    monkeypatch.setattr(LayeredGraph, "vertices", refuse)
    assert is_mis(inst.graph, s)
    assert not is_mis(inst.graph, s - {min(s)})
    assert not is_mis(inst.graph, set())
    assert extract_predicate_from_mis(inst, s, seq) == want
    with pytest.raises(NotAnMisError):
        extract_predicate_from_mis(inst, s | {(99, 0)}, seq)


# -- exhaustive enumeration ---------------------------------------------------


def test_enumerate_examples():
    assert enumerate_all_mis(({"u", "v"}, {("u", "v")})) == [
        frozenset({"u"}), frozenset({"v"})
    ]
    assert enumerate_all_mis(({"u", "v"}, set())) == [frozenset({"u", "v"})]
    cycle = ({0, 1, 2, 3}, {(0, 1), (1, 2), (2, 3), (0, 3)})
    assert sorted(enumerate_all_mis(cycle), key=sorted) == [
        frozenset({0, 2}), frozenset({1, 3})
    ]


@given(n=st.integers(1, 9), data=st.data())
@settings(deadline=None, max_examples=60)
def test_enumerate_matches_brute(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    view = (set(range(n)), set(edges))
    assert sorted(enumerate_all_mis(view), key=sorted) == brute_all_mis(range(n), edges)


def test_enumerate_cap():
    from misforge import BudgetExceededError

    big = (set(range(30)), set())
    with pytest.raises(BudgetExceededError):
        enumerate_all_mis(big, max_vertices=24)


@given(n=st.integers(0, 14), density=st.floats(0, 1), data=st.data())
@settings(deadline=None, max_examples=120)
def test_enumerate_matches_networkx_oracle(n, density, data):
    """The bitmask search against the networkx enumeration it replaced:
    the same sets in the same order, on graphs of up to 14 vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    keep = data.draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    edges = {e for e, x in zip(pairs, keep) if x < density}
    view = (set(range(n)), edges)
    assert enumerate_all_mis(view) == mis_oracle.enumerate_all_mis(view)


@pytest.mark.parametrize("seed", range(16))
def test_enumerate_matches_networkx_oracle_on_instances(seed, monkeypatch):
    """Criterion 5's shapes, every one at most 24 vertices, with the
    EdgeView never iterated: the join is read as a section."""
    n0, levels = [(4, None), (4, ((1, 1),)), (2, ((1, 1),)), (2, ((2, 1),))][seed % 4]
    if levels is None:
        inst = _base_instance(n0, format(seed * 37 % 4, "02b"))
    else:
        inst = sample_instance(len(levels), ToyParams(n_0=n0, levels=levels), seed)
    want = mis_oracle.enumerate_all_mis(inst.graph)
    monkeypatch.setattr(EdgeView, "__iter__", refuse)
    assert enumerate_all_mis(inst.graph) == want and len(want) >= 1


EQUAL_LABELS = st.sampled_from([0, 1, 2, 3, 4, 1.0, True, 2.0, False])


@given(vertices=st.lists(EQUAL_LABELS, max_size=10), data=st.data())
@settings(deadline=None, max_examples=60)
def test_enumerate_matches_networkx_oracle_on_labels(vertices, data):
    """Equal labels of different types (1, 1.0, True), repeated vertices,
    self loops and edges to labels that are not vertices (-1, 2.5, 7)."""
    ends = EQUAL_LABELS | st.sampled_from([-1, 2.5, 7])
    edges = data.draw(st.lists(st.tuples(ends, ends), max_size=12))
    assert enumerate_all_mis((vertices, edges)) == mis_oracle.enumerate_all_mis((vertices, edges))


def test_import_leaves_networkx_out():
    code = "import sys, misforge; sys.exit('networkx' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# -- greedy -------------------------------------------------------------------


def test_greedy_examples():
    for order in itertools.permutations("abc"):
        assert len(greedy_mis(TRIANGLE, order)) == 1
    empty = ({"x", "y", "z"}, set())
    assert greedy_mis(empty, ("z", "x", "y")) == {"x", "y", "z"}
    assert greedy_mis(PATH3, ("b", "a", "c")) == {"b"}


def test_greedy_requires_permutation():
    with pytest.raises(InvalidInputError):
        greedy_mis(PATH3, ("a", "b"))


def test_greedy_refuses_an_edge_off_the_vertex_set():
    with pytest.raises(InvalidInputError, match=r"edge \(1, 3\)"):
        greedy_mis(([1, 2], [(1, 3)]), [1, 2])


@given(n=st.integers(1, 10), data=st.data())
@settings(deadline=None, max_examples=60)
def test_greedy_outputs_mis(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    order = data.draw(st.permutations(range(n)))
    view = (set(range(n)), set(edges))
    assert is_mis(view, greedy_mis(view, order))


# -- predicates ---------------------------------------------------------------


def toy(seed=7, levels=((2, 1),), n_0=4):
    return sample_instance(len(levels), ToyParams(n_0=n_0, levels=levels), seed)


def test_eval_base():
    inst = _base_instance(4, "10")
    assert eval_predicate(inst, ()) == "10"


def test_eval_r1_reads_special_child():
    inst = toy()
    assert eval_predicate(inst, (1,)) == inst.subinstance(inst.t, 1).base_bits


def test_sequence_validation():
    inst = toy()
    with pytest.raises(InvalidSequenceError):
        eval_predicate(inst, ())
    with pytest.raises(InvalidSequenceError):
        eval_predicate(inst, (2,))      # p = 1 at the root
    with pytest.raises(InvalidSequenceError):
        eval_predicate(inst, (1, 1))


def test_sequence_entries_are_ints():
    """An entry that is not an int ("1", 1.0) is an invalid sequence in
    evaluation and extraction alike; True is 1."""
    inst, s = r2_toy(0)
    want = eval_predicate(inst, (1, 1))
    for seq in [("1", 1), (1, 1.0)]:
        with pytest.raises(InvalidSequenceError, match="is not an int"):
            eval_predicate(inst, seq)
        with pytest.raises(InvalidSequenceError, match="is not an int"):
            extract_predicate_from_mis(inst, s, seq)
    assert eval_predicate(inst, (True, 1)) == extract_predicate_from_mis(inst, s, (1, True)) == want


def test_valid_sequence_count():
    inst = toy(seed=5, n_0=2, levels=((1, 1), (1, 1)))
    counts = []
    cur = inst
    while cur.r >= 1:
        counts.append(cur.p_achieved)
        cur = cur.subinstance(cur.t, 1)
    total = 1
    for c in counts:
        total *= c
    seqs = list(itertools.product(*[range(1, c + 1) for c in counts]))
    assert len(seqs) == total
    for seq in seqs:
        eval_predicate(inst, seq)       # all accepted


def test_extract_base_examples():
    inst = _base_instance(4, "10")
    # u_i is (1, i-1) and v_i is (2, i-1); edge present only at slot 1
    assert extract_predicate_from_mis(inst, {(1, 0), (1, 1), (2, 1)}, ()) == "10"
    empty = _base_instance(4, "00")
    everything = {(1, 0), (1, 1), (2, 0), (2, 1)}
    assert extract_predicate_from_mis(empty, everything, ()) == "00"


def test_extract_requires_mis():
    inst = _base_instance(4, "10")
    with pytest.raises(NotAnMisError):
        extract_predicate_from_mis(inst, {(1, 0)}, ())


def test_extract_equals_eval_exhaustive_r1():
    inst = toy(seed=3, levels=((1, 1),))
    sets = enumerate_all_mis(inst.graph)
    assert sets
    for s in sets:
        assert extract_predicate_from_mis(inst, s, (1,)) == eval_predicate(inst, (1,))


def test_extract_detects_corruption():
    # breaking maximality inside both special copies must be reported,
    # not silently decoded
    inst = toy(seed=3, levels=((1, 1),))
    g = inst.graph
    target = {(f // g.layer_size + 1, f % g.layer_size)
              for side in ("L", "R") for f in inst._special_blocks(side, 1)[0].tolist()}
    found = None
    for s in enumerate_all_mis(inst.graph):
        trimmed = set(s) - target
        if is_mis(inst.graph, trimmed):
            found = trimmed
            break
    if found is not None:
        with pytest.raises((InconsistentMisError, NotAnMisError)):
            extract_predicate_from_mis(inst, found, (1,))


def test_subgraph_view_duck_typing():
    sub = Subgraph(vertices=frozenset({1, 2}), edges=frozenset({(1, 2)}))
    assert is_mis(sub, {1})
    assert is_mis((["x"], []), {"x"})


def outcome(extract, inst, candidate, seq):
    """extract's bits, or the type and message of what it raised."""
    try:
        return extract(inst, candidate, seq)
    except Exception as exc:       # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


@given(shape=st.integers(0, 3), seed=st.integers(0, 10_000), pick=st.integers(0, 10**6))
@settings(deadline=None, max_examples=40)
def test_extract_matches_set_oracle(shape, seed, pick):
    """The mask extraction against the set-based one it replaced, on the
    exact_checks MIS shapes: every MIS x sequence, and for each MIS a
    vertex dropped, a vertex added, a foreign (99, 0) and a non-pair "x"."""
    n0, levels = [(4, None), (4, ((1, 1),)), (2, ((1, 1),)), (2, ((2, 1),))][shape]
    if levels is None:
        bits = format(seed % 4, "02b")
        inst, ref = _base_instance(n0, bits), instance_oracle.base_instance(n0, bits)
    else:
        toy_params = ToyParams(n_0=n0, levels=levels)
        plans = plan_levels(toy_params)
        tree = sample_tree(plans, n0, seed)
        inst = sample_instance(toy_params.r, toy_params, seed)
        ref = instance_oracle.build_instance(plans, n0, tree)
    seqs = [()]
    cur = inst
    while cur.r >= 1:
        seqs = [s + (k,) for s in seqs for k in range(1, cur.p_achieved + 1)]
        cur = cur.subinstance(cur.t, 1)
    vertices = sorted(inst.graph.vertices())
    sets = enumerate_all_mis(inst.graph)
    assert sets
    for s in sets:
        members, others = sorted(s), sorted(set(vertices) - s)
        candidates = [s, s - {members[pick % len(members)]}, s | {(99, 0)}, s | {"x"}]
        if others:
            candidates.append(s | {others[pick % len(others)]})
        for cand in candidates:
            for seq in seqs:
                got = outcome(extract_predicate_from_mis, inst, cand, seq)
                assert got == outcome(instance_oracle.extract_predicate_from_mis, ref, cand, seq)
                if cand is s:
                    assert got == eval_predicate(inst, seq)
