"""Reference embedding: each embedded edge kept as a tuple pair with a
provenance dict naming its (i, j) member.

``embed`` checks the family's shape member by member in Python
(``family_well_formed``, over ``layered_well_formed``), routes the members
through ``path_lut`` like the array code but stores the result as a
``{edge: (i, j)}`` dict; ``_expected_union`` builds
each collection's disjoint union from the members' tuple edges; and
``write_embedded`` sorts the dict's rows.  Differential tests require
``misforge.embedding`` to give the same edges, owners, induced subgraphs,
verdicts and file text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Mapping

import numpy as np

from misforge.dupgraph import (
    DupGraph,
    Edge,
    EdgeView,
    LayeredGraph,
    edge_keys,
    edge_pairs,
    make_edge,
    path_lut,
    write_dup,
)
from misforge.embedding import GraphFamily
from misforge.errors import DimensionMismatchError, InvalidInputError


def layered_well_formed(g: LayeredGraph) -> bool:
    """Endpoints in range, no self loops, layers are independent sets."""
    for u, v in g.edges:
        if not (g.has_vertex(u) and g.has_vertex(v)):
            return False
        if u[0] == v[0]:
            return False
    return True


def family_well_formed(family: GraphFamily) -> bool:
    """q rows of p members, each of the family's shape and well formed."""
    if len(family.members) != family.q:
        return False
    for row in family.members:
        if len(row) != family.p:
            return False
        for g in row:
            if g.num_layers != family.num_layers or g.layer_size != family.layer_size:
                return False
            if not layered_well_formed(g):
                return False
    return True


@dataclass(frozen=True)
class EmbeddedGraph:
    graph: LayeredGraph
    provenance: Mapping[Edge, tuple[int, int]]           # edge -> (i, j)
    inner_layer_size: int


def embed(family: GraphFamily, dup: DupGraph) -> EmbeddedGraph:
    """Route every family member along its collection path."""
    if not family_well_formed(family):
        raise DimensionMismatchError("family members disagree on shape")
    if (family.q, family.p) != (dup.params.q, dup.params.p):
        raise DimensionMismatchError(
            f"family is {family.q} x {family.p}, outer graph wants "
            f"{dup.params.q} x {dup.params.p}"
        )
    if family.num_layers != dup.graph.num_layers:
        raise DimensionMismatchError(
            f"family spans {family.num_layers} layers, outer graph has "
            f"{dup.graph.num_layers}"
        )
    w, q, p = family.layer_size, family.q, family.p
    size = dup.graph.layer_size * w
    n = dup.graph.num_layers * size
    # one row (i, j, inner u, inner v) per member edge, i and j 0-based
    rows = np.array([(i, j, (la - 1) * w + xa, (lb - 1) * w + xb)
                     for i in range(q) for j in range(p)
                     for (la, xa), (lb, xb) in family.members[i][j].edges],
                    dtype=np.int64).reshape(-1, 4)
    luts = path_lut(dup, np.arange(1, q + 1)[:, None], np.arange(1, p + 1), w)
    edges = np.sort(luts[rows[:, :1], rows[:, 1:2], rows[:, 2:]], axis=1)
    order = np.argsort(edge_keys(edges, n), kind="stable")
    edges, owners = edges[order], (rows[order, :2] + 1).tolist()
    clash = np.flatnonzero((edges[1:] == edges[:-1]).all(axis=1))
    if len(clash):
        c = clash[0]
        raise InvalidInputError(
            f"edge collision at {next(edge_pairs(edges[c:c + 1], size))}: collections "
            f"{tuple(owners[c])} and {tuple(owners[c + 1])} overlap"
        )
    provenance = dict(zip(edge_pairs(edges, size), map(tuple, owners)))
    graph = LayeredGraph(num_layers=dup.graph.num_layers, layer_size=size,
                         edges=EdgeView((edges,), size, n))
    return EmbeddedGraph(graph=graph, provenance=provenance, inner_layer_size=w)


def induced_on_upc(emb, dup: DupGraph, i: int) -> LayeredGraph:
    """Induced subgraph on collection i's blocks, relabeled block-by-block.

    Path j's block of width w maps onto indices [(j-1)*w, j*w), so the
    result is directly comparable with a disjoint union of the family
    members routed along collection i.
    """
    w, g, p = emb.inner_layer_size, emb.graph, dup.paths.shape[1]
    inner = np.arange(g.num_layers * w)
    relabel = np.full(g.n_vertices, -1)
    relabel[path_lut(dup, i, np.arange(1, p + 1), w)] = (
        inner // w * (p * w) + np.arange(p)[:, None] * w + inner % w)
    mapped = relabel[g.flat_edges()]
    kept = np.sort(mapped[(mapped >= 0).all(axis=1)], axis=1)
    return LayeredGraph(num_layers=g.num_layers, layer_size=p * w,
                        edges=frozenset(edge_pairs(kept, p * w)))


def _expected_union(family: GraphFamily, i: int) -> frozenset[Edge]:
    w = family.layer_size
    edges: set[Edge] = set()
    for j in range(1, family.p + 1):
        for (la, xa), (lb, xb) in family.member(i, j).edges:
            shift = (j - 1) * w
            edges.add(make_edge((la, shift + xa), (lb, shift + xb)))
    return frozenset(edges)


def verify_inducedness(emb, dup: DupGraph, family: GraphFamily, i: int) -> bool:
    """Induced subgraph on collection i equals the family's disjoint union."""
    return induced_on_upc(emb, dup, i).edges == _expected_union(family, i)


def verify_all_inducedness(emb, dup: DupGraph, family: GraphFamily) -> bool:
    return all(
        verify_inducedness(emb, dup, family, i) for i in range(1, dup.params.q + 1)
    )


def write_embedded(emb: EmbeddedGraph, dup: DupGraph, fh: IO[str]) -> None:
    write_dup(dup, fh)
    fh.write(f"embw {emb.inner_layer_size}\n")
    rows = sorted(
        (i, j, emb.graph.flat_id(u), emb.graph.flat_id(v))
        for (u, v), (i, j) in emb.provenance.items()
    )
    for i, j, a, b in rows:
        fh.write(f"emb {i} {j} {a} {b}\n")
