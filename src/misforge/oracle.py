"""Maximal-independent-set checks and the bit predicates they reveal.

Works over any graph object exposing vertices and edges: LayeredGraph,
a streaming FlatGraph, or a plain (vertices, edges) pair.

The predicate operations walk a recursive hard instance: a search
sequence K = (k_r, ..., k_1) picks one special sub-instance per level,
ending at a base instance whose edge slots give the bits.  Any maximal
independent set of the full graph determines those bits: at the base,
an edge slot with an edge keeps exactly one endpoint in the set, and a
slot without an edge keeps both.  extract_predicate_from_mis recovers
the bits from a set alone, as a boolean mask over flat ids that each
level's path table restricts and pulls back in one step; eval_predicate
reads the constructed truth.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .dupgraph import Biclique, path_lut
from .errors import (
    BudgetExceededError,
    InconsistentMisError,
    InvalidInputError,
    InvalidSequenceError,
    NotAnMisError,
)

PredicateBits = str
SearchSequence = tuple[int, ...]


def _vertices_and_edges(graph) -> tuple[Iterable, Iterable]:
    """The supported graph shapes as (vertices, edges), in no set order."""
    if isinstance(graph, tuple) and len(graph) == 2:
        return graph
    if hasattr(graph, "vertices") and hasattr(graph, "edges"):
        verts = graph.vertices() if callable(graph.vertices) else graph.vertices
        return verts, graph.edges
    raise InvalidInputError(f"unsupported graph object: {type(graph).__name__}")


def vertex_edge_view(graph) -> tuple[list, list]:
    """Normalize the supported graph shapes to sorted (vertices, edges)."""
    vertices, edges = _vertices_and_edges(graph)
    return sorted(vertices), sorted(tuple(e) for e in edges)


def is_mis(graph, candidate: Iterable) -> bool:
    """True iff candidate is an independent dominating set of graph.

    One pass over the edges; nothing is sorted.
    """
    vertices, edges = _vertices_and_edges(graph)
    vset = set(vertices)
    s = set(candidate)
    if not s <= vset:
        return False
    dominated = set(s)
    for u, v in edges:
        if u in s and v in s:
            return False
        if u in s:
            dominated.add(v)
        if v in s:
            dominated.add(u)
    return dominated == vset


def _covers(sections, chosen: np.ndarray) -> bool:
    """is_mis over flat ids: the vertices marked in the boolean mask chosen
    are independent in the edge sections ((m, 2) arrays or Bicliques) and
    dominate every vertex.  A Biclique has a chosen vertex on both sides
    iff it has a chosen edge, and one on either side dominates the other."""
    dominated = chosen.copy()
    for section in sections:
        if isinstance(section, Biclique):
            on_left, on_right = chosen[section.left].any(), chosen[section.right].any()
            if on_left and on_right:
                return False
            if on_left:
                dominated[section.right] = True
            if on_right:
                dominated[section.left] = True
            continue
        u, v = section.T
        if (chosen[u] & chosen[v]).any():
            return False
        dominated[v[chosen[u]]] = True
        dominated[u[chosen[v]]] = True
    return bool(dominated.all())


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_all_mis(graph, max_vertices: int = 24) -> list[frozenset]:
    """Every maximal independent set, by Bron-Kerbosch with pivoting over
    int bitmasks: a vertex's mask is its closed neighbourhood, the set
    that choosing it removes from the candidates."""
    vertices, edges = vertex_edge_view(graph)
    if len(vertices) > max_vertices:
        raise BudgetExceededError(
            f"{len(vertices)} vertices exceed the enumeration cap {max_vertices}"
        )
    names = list(dict.fromkeys(vertices))
    index = {v: i for i, v in enumerate(names)}
    closed = [1 << i for i in range(len(names))]
    for u, v in edges:
        if u in index and v in index:
            closed[index[u]] |= 1 << index[v]
            closed[index[v]] |= 1 << index[u]
    found: list[int] = []

    def expand(chosen: int, cand: int, excl: int) -> None:
        if not cand | excl:
            found.append(chosen)
        elif cand:
            # a maximal set extending `chosen` holds a vertex of the pivot's
            # closed neighbourhood, so branch on those candidates only
            pivot = min(_bits(cand | excl), key=lambda u: (cand & closed[u]).bit_count())
            for v in _bits(cand & closed[pivot]):
                expand(chosen | 1 << v, cand & ~closed[v], excl & ~closed[v])
                cand ^= 1 << v
                excl |= 1 << v

    expand(0, (1 << len(names)) - 1, 0)
    return sorted((frozenset(names[i] for i in _bits(m)) for m in found), key=sorted)


def greedy_mis(graph, order: Iterable) -> frozenset:
    """First-fit along the given vertex order."""
    vertices, edges = vertex_edge_view(graph)
    order = list(order)
    if sorted(order) != vertices:
        raise InvalidInputError("order must be a permutation of the vertex set")
    adj: dict = {v: set() for v in vertices}
    for u, v in edges:
        if u not in adj or v not in adj:
            raise InvalidInputError(f"edge ({u!r}, {v!r}) has an endpoint that is not a vertex")
        adj[u].add(v)
        adj[v].add(u)
    chosen: set = set()
    for v in order:
        if not adj[v] & chosen:
            chosen.add(v)
    return frozenset(chosen)


def _validate_sequence(inst, seq: SearchSequence) -> None:
    if len(seq) != inst.r:
        raise InvalidSequenceError(
            f"sequence length {len(seq)} does not match recursion depth {inst.r}"
        )
    cur = inst
    for depth, k in enumerate(seq):
        if not 1 <= k <= cur.p_achieved:
            raise InvalidSequenceError(
                f"entry {k} at position {depth} outside 1..{cur.p_achieved}"
            )
        cur = cur.subinstance(cur.t, k)


def eval_predicate(inst, seq: SearchSequence) -> PredicateBits:
    """Read the base bits reached by following the special sub-instances."""
    _validate_sequence(inst, tuple(seq))
    cur = inst
    for k in seq:
        cur = cur.subinstance(cur.t, k)
    return cur.base_bits


def extract_predicate_from_mis(inst, candidate: Iterable, seq: SearchSequence) -> PredicateBits:
    """Recover the same bits from a maximal independent set alone.

    At every level the set restricted to each special subgraph of one of
    the two copies is a maximal independent set of that subgraph; the
    left copy is preferred when both qualify.  A set for which neither
    copy works is evidence of a corrupt instance.  The path table from
    the special sub-instance's flat ids to its blocks' ids restricts the
    mask and pulls it back in one indexing step.
    """
    seq = tuple(seq)
    _validate_sequence(inst, seq)
    flat = {v: f for f, v in enumerate(inst.graph.vertices())}
    ids = [flat.get(v, -1) for v in set(candidate)]
    chosen = np.zeros(inst.graph.n_vertices, dtype=bool)
    chosen[ids] = True
    if -1 in ids or not _covers(inst.player_edges, chosen):
        raise NotAnMisError("candidate is not a maximal independent set of the instance")
    cur = inst
    for k in seq:
        sub = cur.subinstance(cur.t, k)
        lut = path_lut(cur.dup, cur.t, k, cur.inner_layer_size)
        for shift in (0, cur.half_layers * cur.graph.layer_size):     # L copy, then R
            if _covers(sub.player_edges, chosen[lut + shift]):
                chosen = chosen[lut + shift]
                break
        else:
            raise InconsistentMisError(
                f"restriction fits neither copy at depth {cur.r} (path entry {k})"
            )
        cur = sub
    half = cur.graph.layer_size
    return "".join(np.where(chosen[:half] & chosen[half:], "0", "1"))
