"""A Biclique join against its expanded (m, 2) array.

Every instance here is given twice: as built, with each level's join a
``Biclique(L, R)``, and with every join expanded to the sorted array it
stands for.  The closed forms (streaming runners, the stream check,
``check_properties``, the misr writer and reader) must give exactly what
the array paths give: outputs, passes, peaks, extras, snapshot bytes,
verdicts, errors and text.
"""

import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misforge import (
    Biclique,
    BudgetExceededError,
    EdgeStream,
    InvalidInputError,
    ToyParams,
    check_properties,
    enumerate_all_mis,
    extract_predicate_from_mis,
    gnp_graph,
    make_algorithm,
    read_instance,
    sample_instance,
    simulate_protocol_from_stream,
    write_instance,
)
from misforge import hardness
from misforge.dupgraph import expand, stack_edges
from misforge.oracle import _covers
from misforge.streaming import LubyMIS, _pack_words, drive

LEVELS = [(4, ((1, 1),)), (4, ((2, 1),)), (4, ((1, 2),)), (2, ((2, 2),)),
          (2, ((1, 1), (1, 1))), (2, ((2, 1), (1, 1)))]
DESCS = ("luby", "greedy", "residual:b=4", "residual:b=2", "residual:s={a},{b},all")


def instance(shape, seed):
    n0, levels = shape
    return sample_instance(len(levels), ToyParams(n_0=n0, levels=levels), seed)


def expanded(inst):
    """The instance with every level's join stored as its (m, 2) array."""
    subs = inst.subinstances and tuple(tuple(map(expanded, row)) for row in inst.subinstances)
    return dataclasses.replace(inst, player_edges=tuple(map(expand, inst.player_edges)),
                               subinstances=subs)


def run(desc, n, seed, sections, alg=None):
    snaps = []
    rep = drive(alg or make_algorithm(desc, n, seed), EdgeStream(sections),
                lambda p, o, runner: snaps.append((p, o, _pack_words(runner.state_words()))))
    return (rep.output, rep.passes, rep.peak_words, rep.extras), snaps


def descriptor(template, n):
    return template.format(a=max(1, n // 2), b=max(1, n // 5))


# -- streaming runners ------------------------------------------------------------


@given(shape=st.sampled_from(LEVELS), graph_seed=st.integers(0, 500),
       seed=st.integers(0, 500), template=st.sampled_from(DESCS))
@settings(deadline=None, max_examples=60)
def test_runners_agree_on_instance_joins(shape, graph_seed, seed, template):
    inst = instance(shape, graph_seed)
    assert isinstance(inst.player_edges[-1], Biclique)
    n = inst.graph.n_vertices
    desc = descriptor(template, n)
    assert run(desc, n, seed, inst.player_edges) == run(
        desc, n, seed, expanded(inst).player_edges)


@st.composite
def biclique_streams(draw):
    """A G(n, p) graph cut into sections, with one or two bicliques on
    disjoint random sides (ids interleaved, either side may hold the
    smaller ids) put in among them; no edge twice."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    sections, taken = [], set()
    for _ in range(draw(st.integers(1, 2))):
        ids = rng.permutation(n)
        a, b = sorted(rng.integers(0, n + 1, size=2))
        left, right = np.sort(ids[:a]), np.sort(ids[a:b])
        pairs = {(min(u, v), max(u, v)) for u in left.tolist() for v in right.tolist()}
        if pairs & taken:
            continue
        taken |= pairs
        sections.append(Biclique(left.astype(np.int64), right.astype(np.int64)))
    rest = [e for e in gnp_graph(n, draw(st.sampled_from([0.1, 0.3, 0.6])),
                                  draw(st.integers(0, 1000))).edges if e not in taken]
    cuts = sorted(rng.integers(0, len(rest) + 1, size=draw(st.integers(0, 2))).tolist())
    for a, b in zip([0, *cuts], [*cuts, len(rest)]):
        part = np.array(rest[a:b], dtype=np.int64).reshape(-1, 2)
        sections.insert(int(rng.integers(0, len(sections) + 1)), part[:, ::-1].copy()
                        if rng.random() < 0.3 else part)
    return n, sections


@given(stream=biclique_streams(), seed=st.integers(0, 500), template=st.sampled_from(DESCS))
@settings(deadline=None, max_examples=150)
def test_runners_agree_on_any_biclique(stream, seed, template):
    n, sections = stream
    desc = descriptor(template, n)
    assert run(desc, n, seed, sections) == run(desc, n, seed, list(map(expand, sections)))


class FewPriorities:
    """Draws in 0..2, so that Luby's priority ties, broken by id, are common."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def integers(self, low, high, size):
        return self.rng.integers(0, 3, size=size)


@given(stream=biclique_streams(), seed=st.integers(0, 500))
@settings(deadline=None, max_examples=100)
def test_luby_ties_agree_on_any_biclique(stream, seed):
    n, sections = stream
    runs = []
    for form in (sections, list(map(expand, sections))):
        alg = LubyMIS(n, seed)
        alg.rng = FewPriorities(seed)
        runs.append(run("luby", n, seed, form, alg))
    assert runs[0] == runs[1]


# -- the stream check -------------------------------------------------------------


def bic(left, right):
    return Biclique(np.array(left, dtype=np.int64), np.array(right, dtype=np.int64))


@pytest.mark.parametrize("sections, n, why", [
    ([bic([0, 1], [2, 3])], 3, "outside"),
    ([bic([-1, 1], [2, 3])], 5, "negative"),
    ([bic([0, 2], [2, 3])], 5, "self loop"),
    ([bic([0, 0], [2, 3])], 5, "duplicate"),
    ([bic([0, 1], [3, 2, 3])], 5, "duplicate"),
    ([bic([0, 1], [2, 3]), [(1, 3)]], 5, "duplicate"),
    ([[(3, 1)], bic([0, 1], [2, 3])], 5, "duplicate"),
    ([bic([2, 3], [0, 1]), [(0, 4), (1, 2)]], 5, "duplicate"),
    ([bic([0, 1], [2, 3]), bic([4, 3], [1])], 5, "duplicate"),
    ([bic([0, 1], [2, 3]), bic([4], [0]), bic([2], [4])], 5, None),
    ([bic([0, 1], []), bic([0, 1], [2, 3])], 4, None),
])
def test_stream_check_agrees_with_the_expanded_stream(sections, n, why):
    for form in (sections, [expand(s) if isinstance(s, Biclique) else s for s in sections]):
        if why is None:
            EdgeStream(form).check(n)
        else:
            with pytest.raises(InvalidInputError, match=why):
                EdgeStream(form).check(n)


# -- check_properties -------------------------------------------------------------


def with_join(inst, join, players=None):
    players = inst.player_edges[:-1] if players is None else players
    return dataclasses.replace(inst, player_edges=(*players, join))


def verdicts(inst, join, players=None):
    """check_properties at the top level with ``join`` as the join (and
    ``players`` as players 1..r), once as given and once expanded; both
    must agree."""
    got = check_properties(with_join(inst, join, players), recurse=False).checks
    assert got == check_properties(with_join(inst, expand(join), players),
                                   recurse=False).checks
    return got


def test_check_properties_on_join_mutants():
    inst = instance((4, ((2, 1),)), 3)
    join, shift = inst.player_edges[-1], inst.half_layers * inst.graph.layer_size
    assert all(verdicts(inst, join).values())
    special = np.setdiff1d(np.arange(shift, inst.graph.n_vertices), join.right)
    other_t = hardness._nonspecial_left(inst.dup, 3 - inst.t, inst.inner_layer_size)
    mutants = {
        "dropped": Biclique(join.left[1:], join.right),
        "extra": Biclique(join.left, np.sort(np.r_[join.right, special[0]])),
        "wrong t": Biclique(other_t, other_t + shift),
    }
    for name, bad in mutants.items():
        got = verdicts(inst, bad)
        assert not got["join_from_t"], name
        assert got["join_count"] == (name == "wrong t"), name
    # a join edge held by player 1 as well
    first = inst.player_edges[0]
    both = np.concatenate([first, join.expand()[:1]])
    got = verdicts(inst, join, [both[np.lexsort((both[:, 1], both[:, 0]))]])
    assert not got["player_partition"] and got["join_from_t"]
    # one array edge dropped, or one added, fails the same checks
    edges = join.expand()
    extra = np.insert(edges, 1, [edges[0, 0], special[0]], axis=0)
    extra = extra[np.lexsort((extra[:, 1], extra[:, 0]))]
    for bad in (edges[1:], extra):
        got = check_properties(with_join(inst, bad), recurse=False).checks
        assert not got["join_from_t"] and not got["join_count"]


@given(shape=st.sampled_from(LEVELS[:4]), seed=st.integers(0, 1000),
       pick=st.integers(0, 10**6), sorted_sides=st.booleans())
@settings(deadline=None, max_examples=80)
def test_check_properties_agrees_on_any_join(shape, seed, pick, sorted_sides):
    """Random sides, crossing the copies or not, sorted or not: the closed
    form gives every check the verdict of the expanded array."""
    inst = instance(shape, seed)
    rng = np.random.default_rng(pick)
    n = inst.graph.n_vertices
    shift = inst.half_layers * inst.graph.layer_size
    join = inst.player_edges[-1]
    left = rng.choice(np.r_[join.left, rng.integers(0, n, size=3)], size=rng.integers(0, 6))
    right = rng.choice(np.r_[join.right, rng.integers(shift - 2, n, size=3)],
                       size=rng.integers(0, 6))
    if sorted_sides:
        left, right = np.unique(left), np.unique(right)
    verdicts(inst, Biclique(left.astype(np.int64), right.astype(np.int64)))


@pytest.mark.parametrize("shape", LEVELS)
def test_check_properties_same_on_both_forms(shape):
    inst = instance(shape, 7)
    assert check_properties(inst).checks == check_properties(expanded(inst)).checks
    assert check_properties(inst).ok


# -- misr text and MIS checks -----------------------------------------------------


def misr_text(inst):
    buf = io.StringIO()
    write_instance(inst, buf, seed=1, mode="toy")
    return buf.getvalue()


@pytest.mark.parametrize("rows", [1, 3, 7, 1 << 16])
@pytest.mark.parametrize("shape", LEVELS)
def test_misr_text_same_on_both_forms(shape, rows, monkeypatch):
    inst = instance(shape, 9)
    monkeypatch.setattr(hardness, "MISR_BLOCK_ROWS", rows)
    text = misr_text(inst)
    assert text == misr_text(expanded(inst))
    loaded = read_instance(io.StringIO(text))
    assert loaded.matches and isinstance(loaded.instance.player_edges[-1], Biclique)


@given(shape=st.sampled_from(LEVELS[:4]), seed=st.integers(0, 1000), pick=st.integers(0, 10**6))
@settings(deadline=None, max_examples=60)
def test_covers_same_on_both_forms(shape, seed, pick):
    inst = instance(shape, seed)
    n = inst.graph.n_vertices
    chosen = np.random.default_rng(pick).random(n) < 0.5
    assert np.array_equal(stack_edges(inst.player_edges),
                          np.concatenate(expanded(inst).player_edges))
    assert _covers(inst.player_edges, chosen) == _covers(expanded(inst).player_edges, chosen)
    # an MIS read the same way through both forms
    rep = drive(make_algorithm("luby", n, pick), EdgeStream(inst.player_edges))
    seq = (1,) * inst.r
    assert extract_predicate_from_mis(inst, _vertices(inst, rep.output), seq) == \
        extract_predicate_from_mis(expanded(inst), _vertices(inst, rep.output), seq)


def _vertices(inst, flat):
    size = inst.graph.layer_size
    return {(f // size + 1, f % size) for f in flat}


# -- the expansion guard ----------------------------------------------------------


def test_expansion_refused_past_the_vector_cap(monkeypatch):
    """3 x 4 fits a cap of 12 and 3 x 5 does not; under the default cap of
    2^24, a 2^13 x 2^12 join is refused before anything is allocated."""
    monkeypatch.setenv("MISFORGE_BUDGET", "12")
    assert np.array_equal(bic(range(3), range(3, 7)).expand(),
                          [(u, v) for u in range(3) for v in range(3, 7)])
    with pytest.raises(BudgetExceededError, match="3 x 5 join"):
        bic(range(3), range(3, 8)).expand()
    monkeypatch.delenv("MISFORGE_BUDGET")
    join = Biclique(np.arange(1 << 13), np.arange(1 << 13, (1 << 13) + (1 << 12)))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            join.expand()
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_every_expansion_of_a_join_refuses_the_same_way(monkeypatch):
    """With the 8 x 8 join of an r=1 instance over the cap: snapshots, edge
    membership, flat edges, a random-order stream and MIS enumeration
    refuse typed; the protocol simulation, which checks and runs the
    stream in closed form, expands nothing and gives what it gave before."""
    inst = instance((4, ((1, 1),)), 0)
    join, size = inst.player_edges[-1], inst.graph.layer_size
    edge = tuple((int(x) // size + 1, int(x) % size) for x in (join.left[0], join.right[0]))
    want = simulate_protocol_from_stream("greedy", inst, 1)
    monkeypatch.setenv("MISFORGE_BUDGET", str(len(join) - 1))
    greedy = make_algorithm("greedy", inst.graph.n_vertices, 1)
    greedy.feed(join)
    refusals = [greedy.state_words, lambda: _pack_words(greedy.state_words()),
                inst.graph.flat_edges,
                lambda: edge in inst.graph.edges,
                lambda: EdgeStream.from_instance(inst, order="random", seed=0),
                lambda: enumerate_all_mis(inst.graph, max_vertices=10**6)]
    for refused in refusals:
        with pytest.raises(BudgetExceededError):
            refused()
    got = simulate_protocol_from_stream("greedy", inst, 1)
    assert (got.report.output, got.transcript) == (want.report.output, want.transcript)
