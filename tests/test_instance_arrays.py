"""Array-native instances against the tuple-and-set oracle.

``misforge.hardness`` stores each player's edges as one sorted flat-id
array; ``instance_oracle`` is the tuple-set assembly it replaced.  Built
from the same choice tree, both must agree on every player's edge set,
every special subgraph, the misr text byte for byte and every
structural check's verdict.  The misr reader, which compares the text
with blocks regenerated from the rebuilt instance, must agree with the
oracle's parsing reader on every text, intact or mangled.
"""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misforge import (
    EdgeStream,
    Instance,
    ToyParams,
    check_properties,
    plan_levels,
    read_instance,
    sample_instance,
    sample_tree,
    write_instance,
)
from misforge import hardness
from misforge.dupgraph import Biclique, edge_keys, edge_pairs, expand
from misforge.hardness import EdgeView

import instance_oracle as oracle

SHAPES = [
    (4, ((1, 1),)),
    (2, ((1, 1),)),
    (4, ((2, 1),)),
    (8, ((2, 1),)),
    (4, ((1, 2),)),
    (2, ((3, 1),)),
    (2, ((2, 2),)),              # two paths per collection
    (2, ((1, 1), (1, 1))),
    (4, ((1, 1), (1, 1))),
    (2, ((2, 1), (1, 1))),
    (2, ((1, 1), (2, 1))),
]


def build_both(shape, seed):
    n0, levels = shape
    toy = ToyParams(n_0=n0, levels=levels)
    plans = plan_levels(toy)
    return (sample_instance(toy.r, toy, seed),
            oracle.build_instance(plans, n0, sample_tree(plans, n0, seed)))


def nodes(inst, ref):
    """Every (instance, oracle) node pair of the recursion, root first."""
    yield inst, ref
    if inst.r >= 1:
        for i in range(1, inst.q_achieved + 1):
            for j in range(1, inst.p_achieved + 1):
                yield from nodes(inst.subinstance(i, j), ref.subinstance(i, j))


def misr_text(inst, seed, write=write_instance):
    buf = io.StringIO()
    write(inst, buf, seed=seed, mode="toy")
    return buf.getvalue()


@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 10_000))
@settings(deadline=None, max_examples=60)
def test_arrays_agree_with_tuple_oracle(shape, seed):
    inst, ref = build_both(shape, seed)
    for node, want in nodes(inst, ref):
        assert [set(p) for p in node.players] == [set(p) for p in want.players]
        assert [len(p) for p in node.players] == [len(p) for p in want.players]
        assert node.graph.edges == want.graph.edges
        if node.r >= 1:
            g = node.graph
            for side in ("L", "R"):
                for j in range(1, node.p_achieved + 1):
                    verts, edges = node._special_blocks(side, j)
                    sub = want.special_subgraph(side, j)
                    assert {(f // g.layer_size + 1, f % g.layer_size)
                            for f in verts.tolist()} == sub.vertices
                    assert set(edge_pairs(edges, g.layer_size)) == sub.edges
    assert misr_text(inst, seed) == misr_text(ref, seed, oracle.write_instance)
    assert check_properties(inst).checks == oracle.check_properties(ref).checks


@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 10_000),
       pick=st.integers(0, 10**6), how=st.sampled_from(["move", "drop", "copy"]))
@settings(deadline=None, max_examples=60)
def test_mutant_verdicts_agree_with_tuple_oracle(shape, seed, pick, how):
    """Move one edge to the next player: every verdict matches the
    oracle's, failures included.  Drop it, or copy it to the next player
    as well: every check the oracle fails fails here too.  (Here may fail
    more: the copies and the special subgraphs come from the edges and
    the sub-instances, while the oracle reads them from a provenance
    record the mutant edits along with the edge, or not at all.)"""
    inst, ref = build_both(shape, seed)
    parts = [set(p) for p in ref.players]
    owners = [a for a, part in enumerate(parts) if part]
    owner = owners[pick % len(owners)]
    edge = sorted(parts[owner])[pick % len(parts[owner])]
    provenance = dict(ref.provenance)
    if how != "copy":
        parts[owner].discard(edge)
    if how == "drop":
        provenance.pop(edge, None)
    else:
        parts[(owner + 1) % len(parts)].add(edge)
    bad_ref = dataclasses.replace(
        ref, players=tuple(map(frozenset, parts)), provenance=provenance,
        graph=dataclasses.replace(ref.graph, edges=frozenset().union(*parts)))
    got = check_properties(oracle.replace_edges(inst, players=parts), recurse=False).checks
    want = oracle.check_properties(bad_ref, recurse=False).checks
    assert got.keys() == want.keys() and not all(want.values())
    if how == "move":
        assert got == want
    else:
        assert {k for k, ok in want.items() if not ok} <= {k for k, ok in got.items() if not ok}


def test_join_membership_is_checked_not_only_its_size():
    """One join edge swapped for an edge to a special block: the count
    still holds, the block-membership test must fail, as the oracle's
    set comparison does."""
    inst, ref = build_both((4, ((2, 1),)), 3)
    join = set(ref.players[-1])
    u, v = min(join)
    special = min(ref.special_subgraph("R", 1).vertices)
    parts = [set(p) for p in ref.players[:-1]] + [(join - {(u, v)}) | {(u, special)}]
    bad_ref = dataclasses.replace(
        ref, players=tuple(map(frozenset, parts)),
        graph=dataclasses.replace(ref.graph, edges=frozenset().union(*parts)))
    got = check_properties(oracle.replace_edges(inst, players=parts), recurse=False).checks
    assert got["join_count"] and not got["join_from_t"]
    assert got == oracle.check_properties(bad_ref, recurse=False).checks


@pytest.mark.parametrize("shape", SHAPES[:3] + SHAPES[-2:])
def test_misr_roundtrip_keeps_arrays(shape):
    inst, _ = build_both(shape, 5)
    loaded = read_instance(io.StringIO(misr_text(inst, 5)))
    assert loaded.matches and isinstance(loaded.instance.player_edges[-1], Biclique)
    for stored, built in zip(loaded.stored_players, inst.player_edges):
        stored = expand(stored)
        assert stored.dtype == np.int64 and np.array_equal(stored, expand(built))


MUTANTS = ["none", "leading_blank", "blank_line", "trailing_space", "join_id", "drop_line",
           "duplicate_line", "swap_bodies", "swap_sections", "no_sections", "truncate"]


def mangle(text, how, pick):
    """One kind of damage to a misr text, at a line chosen by pick: one of
    the first or last three lines half the time, else any line."""
    lines = text.split("\n")[:-1]                 # the text ends with "\n"
    near = [0, 1, 2, -3, -2, -1][pick // 2 % 6] % len(lines)
    i = near if pick % 2 else pick % len(lines)
    heads = [k for k, ln in enumerate(lines) if ln.startswith("player ")]
    if how == "leading_blank":
        return "\n" * (1 + pick % 3) + text
    if how == "blank_line":
        lines.insert(i, " " * (pick % 3))
    elif how == "trailing_space":
        lines[i] += " " * (1 + pick % 2)
    elif how == "join_id":
        rows = range(heads[-1] + 1, len(lines) - 1)
        if rows:
            k = rows[pick % len(rows)]
            u, v = lines[k].split()
            lines[k] = f"{u} {int(v) + 1 + pick % 5}"
    elif how == "drop_line":
        del lines[i]
    elif how == "duplicate_line":
        lines.insert(i, lines[i])
    elif how in ("swap_bodies", "swap_sections"):
        bounds = [*heads, len(lines) - 1]
        chunks = [lines[a:b] for a, b in zip(bounds, bounds[1:])]
        a = pick % len(chunks)
        b = (a + 1 + pick // 7 % max(len(chunks) - 1, 1)) % len(chunks)
        if how == "swap_sections":
            chunks[a], chunks[b] = chunks[b], chunks[a]
        else:
            chunks[a][1:], chunks[b][1:] = chunks[b][1:], chunks[a][1:]
        lines = lines[:heads[0]] + [ln for chunk in chunks for ln in chunk] + lines[-1:]
    elif how == "no_sections":
        lines = lines[:heads[0]] + lines[-1:]
    elif how == "truncate":
        return text[:pick % len(text)]
    return "\n".join(lines) + "\n"


def outcome(read, text):
    """What a reader makes of text: the exception type and message, or
    the meta, the stored arrays and the verdict."""
    try:
        loaded = read(io.StringIO(text))
    except Exception as exc:       # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    stored = [(a.dtype, a.shape, a.tolist()) for a in map(expand, loaded.stored_players)]
    return loaded.meta, stored, loaded.matches


@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 10_000),
       how=st.sampled_from(MUTANTS), pick=st.integers(0, 10**6))
@settings(deadline=None, max_examples=150)
def test_reader_agrees_with_parsing_oracle(shape, seed, how, pick):
    inst, _ = build_both(shape, seed)
    text = mangle(misr_text(inst, seed), how, pick)
    assert outcome(read_instance, text) == outcome(oracle.read_instance, text)


@pytest.mark.parametrize("how", MUTANTS)
def test_reader_agrees_with_parsing_oracle_near_the_frame(how):
    """Each mutant at each of the first and the last three lines."""
    inst, _ = build_both(SHAPES[2], 3)
    text = misr_text(inst, 3)
    for pick in range(1, 12, 2):
        mangled = mangle(text, how, pick)
        assert outcome(read_instance, mangled) == outcome(oracle.read_instance, mangled)


def test_written_text_is_never_parsed(monkeypatch):
    def refuse(text):
        raise AssertionError("a section was parsed")

    monkeypatch.setattr(hardness, "_parse_section", refuse)
    for shape in SHAPES:
        inst, _ = build_both(shape, 1)
        loaded = read_instance(io.StringIO(misr_text(inst, 1)))
        assert loaded.matches and loaded.stored_players is loaded.instance.player_edges
    with pytest.raises(AssertionError, match="parsed"):
        read_instance(io.StringIO(misr_text(inst, 1).replace("player 1\n", "player 1 \n")))


def test_sections_are_written_in_blocks(monkeypatch):
    """Blocks of a few rows give the same text as one block per section;
    a join's blocks of 3 rows split its runs of |R| > 3 rows."""
    inst, _ = build_both((4, ((2, 1),)), 2)
    whole = misr_text(inst, 2)
    join = inst.player_edges[-1]
    assert isinstance(join, Biclique) and len(join.right) > 3
    monkeypatch.setattr(hardness, "MISR_BLOCK_ROWS", 3)
    blocks = list(hardness._misr_blocks(join))
    assert len(blocks) > 1 and all(block.count("\n") <= 3 for block in blocks)
    assert "".join(blocks) == "".join(hardness._misr_blocks(join.expand()))
    assert misr_text(inst, 2) == whole
    loaded = read_instance(io.StringIO(whole))
    assert loaded.stored_players is loaded.instance.player_edges


def test_layering_requires_sorted_players():
    inst, _ = build_both((4, ((2, 1),)), 3)
    parts = list(inst.player_edges)
    parts[0] = parts[0][::-1].copy()
    bad = dataclasses.replace(inst, player_edges=tuple(parts))
    assert not check_properties(bad, recurse=False).checks["layering"]


def test_flat_edges_from_the_flat_arrays():
    for shape in SHAPES:
        inst, _ = build_both(shape, 4)
        for node, _ in nodes(inst, inst):
            g = node.graph
            got = g.flat_edges()
            assert got.dtype == np.int64 and got.shape == (len(g.edges), 2)
            assert got.tolist() == sorted([g.flat_id(u), g.flat_id(v)] for u, v in g.edges)


# -- the stored form ----------------------------------------------------------


def test_instance_stores_only_flat_arrays():
    """Players 1..r are sorted int64 (m, 2) arrays, the join is a Biclique
    of two sorted int64 vectors, and no edge is stored twice."""
    names = {f.name for f in dataclasses.fields(Instance)}
    assert "provenance" not in names and "players" not in names and "graph" not in names
    for shape in [(4, ((2, 1),)), (2, ((2, 1), (1, 1)))]:
        inst, _ = build_both(shape, 3)
        n = inst.graph.n_vertices
        *players, join = inst.player_edges
        assert len(players) == inst.r
        for part in players:
            assert part.dtype == np.int64 and part.ndim == 2 and part.shape[1] == 2
            keys = part[:, 0] * n + part[:, 1]
            assert np.all(part[:, 0] < part[:, 1]) and np.all(np.diff(keys) > 0)
        assert isinstance(join, Biclique) and join.left[-1] < join.right[0]
        for ids in (join.left, join.right):
            assert ids.dtype == np.int64 and ids.ndim == 1 and np.all(np.diff(ids) > 0)
        every = np.sort(np.concatenate([edge_keys(expand(p), n) for p in inst.player_edges]))
        assert np.all(np.diff(every) > 0)
        assert isinstance(inst.graph.edges, EdgeView)
        assert all(isinstance(p, EdgeView) for p in inst.players)


def test_edge_view_is_a_read_only_set():
    inst, ref = build_both((4, ((2, 1),)), 3)
    view, want = inst.players[-1], ref.players[-1]
    assert len(view) == len(want)
    assert all(e in view for e in want)
    a, b = next(iter(want))
    assert (b, a) not in view                   # edges are normalised, smaller end first
    assert ((1, 0), (1, 1)) not in view         # same layer
    assert ((1, 0), (9, 0)) not in view         # outside the graph
    assert ((1, 99), (3, 0)) not in view        # index beyond the layer
    assert "edge" not in view and 7 not in view
    assert view & {(a, b)} == frozenset({(a, b)})
    assert isinstance(view | set(), frozenset)
    again, _ = build_both((4, ((2, 1),)), 3)
    assert inst.graph.edges == ref.graph.edges and inst.players == again.players
    assert inst.graph.edges != inst.players[0]
    with pytest.raises(TypeError):
        hash(view)


def test_stream_shares_the_player_arrays():
    inst, _ = build_both((4, ((2, 1),)), 3)
    stream = EdgeStream.from_instance(inst, order="player")
    *players, join = stream.sections_list
    assert all(np.shares_memory(s, p) for s, p in zip(players, inst.player_edges))
    assert join is inst.player_edges[-1] and isinstance(join, Biclique)
