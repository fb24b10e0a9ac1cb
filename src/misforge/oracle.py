"""Maximal-independent-set checks and the bit predicates they reveal.

Works over any graph object exposing vertices and edges: LayeredGraph,
a streaming FlatGraph, or a plain (vertices, edges) pair.  is_mis and
enumerate_all_mis read the graph through one adapter, ``_flat``: a map
from labels to flat ids and the edges as flat-id sections, so no edge
becomes a tuple.  Only greedy_mis sorts the vertex set.

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

import operator
from contextlib import suppress
from itertools import repeat
from typing import Callable, Iterable, Iterator

import numpy as np

from .dupgraph import Biclique, EdgeView, LayeredGraph, path_lut, stack_edges
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


def _label_map(vertices) -> tuple[int, Callable[[list], np.ndarray]]:
    """The vertex count n and a map from a list of labels to their vertices'
    positions in 0..n-1, n for anything that is not a vertex.  A label is
    found as a set finds it, through one dict over the vertices: 1.0 and
    True are 1, (1.0, 0) is (1, 0), and "1", 2.5 or a range are nothing.
    Plain ints over a range and plain (layer, idx) int tuples over a
    LayeredGraph are mapped by numpy arithmetic, so there the dict is built
    only when a label that is not plain arrives."""
    index: dict = {}
    layered = isinstance(vertices, LayeredGraph)

    def by_dict(labels: list) -> np.ndarray:
        if not index:
            for v in vertices.vertices() if layered else vertices:
                index.setdefault(v, len(index))
        return np.fromiter(map(index.get, labels, repeat(len(index))), np.int64, len(labels))

    if not (layered or isinstance(vertices, range)):        # no arithmetic applies
        by_dict([])
        return len(index), by_dict
    n = vertices.n_vertices if layered else len(vertices)

    def positions(labels: list) -> np.ndarray:
        with suppress(ValueError, OverflowError):       # ragged or huge labels are not plain
            if not labels:
                return np.zeros(0, np.int64)
            if not layered:
                if (ids := np.array(labels)).dtype.kind == "i" and ids.ndim == 1:
                    ids, off = np.divmod(ids.astype(np.int64) - vertices.start, vertices.step)
                    return _in_range(np.where(off == 0, ids, -1), n)
            elif all(type(x) is tuple for x in labels):     # a range would pass as a pair too
                if (ids := np.array(labels)).dtype.kind == "i" and ids.shape == (len(labels), 2):
                    (layer, idx), size = ids.T, vertices.layer_size
                    ok = (0 < layer) & (layer <= vertices.num_layers) & (0 <= idx) & (idx < size)
                    return np.where(ok, (layer - 1) * size + idx, n)
        return by_dict(labels)
    return n, positions


def _mask(n: int, positions: Callable[[list], np.ndarray], candidate: Iterable) -> np.ndarray:
    """The candidate as a boolean mask over positions 0..n; entry n, the
    stand-in for everything that is not a vertex, is set iff one is in it."""
    chosen = np.zeros(n + 1, dtype=bool)
    chosen[positions(list(set(candidate)))] = True
    return chosen


def _in_range(ids: np.ndarray, n: int) -> np.ndarray:
    """ids with each one outside [0, n) replaced by the stand-in n, so that
    a negative id never wraps around."""
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        return np.where((ids >= 0) & (ids < n), ids, n)
    return ids


def _flat(graph) -> tuple[int, Callable[[list], np.ndarray], list]:
    """The graph as its vertex count n, its label map (``_label_map``) and
    its edges as flat-id sections over 0..n, n standing in for every
    endpoint that is not a vertex: a LayeredGraph's EdgeView parts and an
    integer (m, 2) array over range(n) as they are, other label pairs
    mapped in one step.  Nothing is sorted, so unorderable labels work."""
    vertices, edges = (graph, graph.edges) if isinstance(graph, LayeredGraph) \
        else _vertices_and_edges(graph)
    n, positions = _label_map(vertices)
    if isinstance(edges, EdgeView) and vertices is graph and edges.layer_size == graph.layer_size:
        parts = edges.parts
    elif (isinstance(vertices, range) and vertices == range(n) and isinstance(edges, np.ndarray)
          and edges.dtype.kind in "iu" and edges.shape[1:] == (2,)):
        parts = (edges,)
    else:
        parts = (positions([x for u, v in edges for x in (u, v)]).reshape(-1, 2),)
    return n, positions, [Biclique(_in_range(p.left, n), _in_range(p.right, n))
                          if isinstance(p, Biclique) else _in_range(p, n) for p in parts]


def is_mis(graph, candidate: Iterable) -> bool:
    """True iff candidate is an independent dominating set of graph: one
    ``_dominated`` pass over ``_flat``'s sections with the candidate as a
    mask.  A label that is not a vertex fails the set, and so does an edge
    from a chosen vertex to one outside the graph."""
    n, positions, sections = _flat(graph)
    chosen = _mask(n, positions, candidate)     # a chosen stand-in is never undominated
    dominated = _dominated(sections, chosen)
    return dominated is not None and bool(dominated[:n].all()) and not dominated[n]


def _dominated(sections, chosen: np.ndarray) -> np.ndarray | None:
    """The vertices that those marked in the boolean mask chosen dominate,
    themselves included, over flat-id sections ((m, 2) arrays or
    Bicliques); None if two chosen vertices are adjacent.  A Biclique has
    a chosen vertex on both sides iff it has a chosen edge, and one on
    either side dominates the other."""
    dominated = chosen.copy()
    for section in sections:
        if isinstance(section, Biclique):
            on_left, on_right = chosen[section.left].any(), chosen[section.right].any()
            if on_left and on_right:
                return None
            if on_left:
                dominated[section.right] = True
            if on_right:
                dominated[section.left] = True
            continue
        u, v = section.T
        if (chosen[u] & chosen[v]).any():
            return None
        dominated[v[chosen[u]]] = True
        dominated[u[chosen[v]]] = True
    return dominated


def _covers(sections, chosen: np.ndarray) -> bool:
    """is_mis over flat ids: the vertices marked in chosen are independent
    in the sections and dominate every vertex."""
    dominated = _dominated(sections, chosen)
    return dominated is not None and bool(dominated.all())


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_all_mis(graph, max_vertices: int = 24) -> list[frozenset]:
    """Every maximal independent set, by Bron-Kerbosch with pivoting over
    int bitmasks: a vertex's mask is its closed neighbourhood, the set
    that choosing it removes from the candidates.  The masks come from
    ``_flat``'s sections, a join expanded under its cap; an endpoint that
    is not a vertex sets the stand-in bit n, which no search reaches."""
    if max_vertices < 0:
        raise InvalidInputError(f"the enumeration cap {max_vertices} is negative")
    n, _, sections = _flat(graph)
    if n > max_vertices:
        raise BudgetExceededError(f"{n} vertices exceed the enumeration cap {max_vertices}")
    names = list(dict.fromkeys(_vertices_and_edges(graph)[0]))     # in position order
    closed = [1 << i for i in range(n + 1)]
    for u, v in stack_edges(sections).tolist():
        closed[u] |= 1 << v
        closed[v] |= 1 << u
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

    expand(0, (1 << n) - 1, 0)
    return sorted((frozenset(names[i] for i in _bits(m)) for m in found), key=sorted)


def greedy_mis(graph, order: Iterable) -> frozenset:
    """First-fit along the given vertex order."""
    vertices, edges = _vertices_and_edges(graph)
    vertices, order = sorted(vertices), list(order)
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


def _follow_sequence(inst, seq: SearchSequence):
    """The sub-instance that seq's special path reaches; InvalidSequenceError
    for a wrong length or an entry that is not an int in range."""
    if len(seq) != inst.r:
        raise InvalidSequenceError(
            f"sequence length {len(seq)} does not match recursion depth {inst.r}"
        )
    cur = inst
    for depth, k in enumerate(seq):
        try:
            k = operator.index(k)
        except TypeError:
            raise InvalidSequenceError(f"entry {k!r} at position {depth} is not an int") from None
        if not 1 <= k <= cur.p_achieved:
            raise InvalidSequenceError(
                f"entry {k} at position {depth} outside 1..{cur.p_achieved}"
            )
        cur = cur.subinstance(cur.t, k)
    return cur


def eval_predicate(inst, seq: SearchSequence) -> PredicateBits:
    """Read the base bits reached by following the special sub-instances."""
    return _follow_sequence(inst, tuple(seq)).base_bits


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
    _follow_sequence(inst, seq)
    n, positions = _label_map(inst.graph)
    chosen = _mask(n, positions, candidate)
    if chosen[n] or not _covers(inst.player_edges, chosen[:n]):
        raise NotAnMisError("candidate is not a maximal independent set of the instance")
    chosen = chosen[:n]
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
