"""Product of a graph family with a disjoint-path collection graph.

Given an outer graph whose q path collections have p paths each, and a
q x p family of inner layered graphs over layers of width w, the
product replaces every outer vertex u of layer m with a block
{u} x {0..w-1} and routes the inner graph H[i][j] along collection i's
j-th path: an inner edge between (layer a, x) and (layer b, y) becomes
an outer-product edge between (a, u_a * w + x) and (b, u_b * w + y),
where u_m is the path's vertex in layer m.

Because each collection admits no stray layered paths, the subgraph
induced on the blocks of collection i's paths is exactly the disjoint
union of H[i][1..p]; edges routed along every other collection mention
at least one vertex outside those blocks.  verify_inducedness checks
that property edge-for-edge, and fails on graphs whose declared
collections admit shortcuts.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, Mapping

import numpy as np

from .dupgraph import (
    DupGraph,
    Edge,
    EdgeView,
    LayeredGraph,
    edge_keys,
    edge_pairs,
    make_edge,
    path_lut,
    read_dup,
    write_dup,
)
from .errors import DimensionMismatchError, FormatError, InvalidInputError


@dataclass(frozen=True)
class GraphFamily:
    q: int
    p: int
    num_layers: int
    layer_size: int                                      # inner width w
    members: tuple[tuple[LayeredGraph, ...], ...]        # indexed [i-1][j-1]

    def member(self, i: int, j: int) -> LayeredGraph:
        return self.members[i - 1][j - 1]

    def well_formed(self) -> bool:
        if len(self.members) != self.q:
            return False
        for row in self.members:
            if len(row) != self.p:
                return False
            for g in row:
                if g.num_layers != self.num_layers or g.layer_size != self.layer_size:
                    return False
                if not g.well_formed():
                    return False
        return True


@dataclass(frozen=True)
class EmbeddedGraph:
    graph: LayeredGraph
    provenance: Mapping[Edge, tuple[int, int]]           # edge -> (i, j)
    inner_layer_size: int


def embed(family: GraphFamily, dup: DupGraph) -> EmbeddedGraph:
    """Route every family member along its collection path."""
    if not family.well_formed():
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


def induced_on_upc(emb: EmbeddedGraph, dup: DupGraph, i: int) -> LayeredGraph:
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
    mapped = relabel[g.edge_array()]
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


def verify_inducedness(
    emb: EmbeddedGraph, dup: DupGraph, family: GraphFamily, i: int
) -> bool:
    """Induced subgraph on collection i equals the family's disjoint union."""
    return induced_on_upc(emb, dup, i).edges == _expected_union(family, i)


def verify_all_inducedness(emb: EmbeddedGraph, dup: DupGraph, family: GraphFamily) -> bool:
    return all(
        verify_inducedness(emb, dup, family, i) for i in range(1, dup.params.q + 1)
    )


# ---------------------------------------------------------------------------
# File format: the dupg v1 section, then
#
#   embw <w>
#   emb <i> <j> <v_a> <v_b>      ordered by (i, j), then by (v_a, v_b)
#
# v_a, v_b are flat ids in the product graph:
# (layer - 1) * (outer_layer_size * w) + block index.
# ---------------------------------------------------------------------------


def write_embedded(emb: EmbeddedGraph, dup: DupGraph, fh: IO[str]) -> None:
    write_dup(dup, fh)
    fh.write(f"embw {emb.inner_layer_size}\n")
    rows = sorted(
        (i, j, emb.graph.flat_id(u), emb.graph.flat_id(v))
        for (u, v), (i, j) in emb.provenance.items()
    )
    for i, j, a, b in rows:
        fh.write(f"emb {i} {j} {a} {b}\n")


def read_embedded(fh: IO[str]) -> tuple[EmbeddedGraph, DupGraph, GraphFamily]:
    lines = [ln.strip() for ln in fh if ln.strip()]
    split = next((n for n, ln in enumerate(lines) if ln.startswith("embw ")), None)
    if split is None:
        raise FormatError("missing embw line")
    dup = read_dup(io.StringIO("\n".join(lines[:split]) + "\n"))
    try:
        w = int(lines[split].split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"bad embw line: {lines[split]!r}") from exc
    if w < 1:
        raise FormatError(f"inner width must be positive, got {w}")
    prod_size = dup.graph.layer_size * w
    num_layers = dup.graph.num_layers
    product = LayeredGraph(num_layers=num_layers, layer_size=prod_size, edges=frozenset())
    provenance: dict[Edge, tuple[int, int]] = {}
    inner_edges: dict[tuple[int, int], set[Edge]] = {}
    for line in lines[split + 1 :]:
        parts = line.split()
        if parts[0] != "emb" or len(parts) != 5:
            raise FormatError(f"bad emb line: {line!r}")
        try:
            i, j, a, b = (int(x) for x in parts[1:])
        except ValueError as exc:
            raise FormatError(f"non-integer field in {line!r}") from exc
        if not (1 <= i <= dup.params.q and 1 <= j <= dup.params.p):
            raise FormatError(f"collection index out of range in {line!r}")
        if not all(0 <= v < num_layers * prod_size for v in (a, b)):
            raise FormatError(f"vertex id out of range in {line!r}")
        lut = path_lut(dup, i, j, w)
        pos = np.searchsorted(lut, [a, b])
        if not (pos < len(lut)).all() or (lut[pos] != [a, b]).any():
            raise FormatError(f"edge {line!r} is not aligned with its path block")
        e = make_edge(product.unflat(a), product.unflat(b))
        if e in provenance:
            raise FormatError(f"duplicate embedded edge in {line!r}")
        provenance[e] = (i, j)
        inner = [(int(x) // w + 1, int(x) % w) for x in pos]
        inner_edges.setdefault((i, j), set()).add(make_edge(*inner))
    members = tuple(
        tuple(
            LayeredGraph(
                num_layers=num_layers,
                layer_size=w,
                edges=frozenset(inner_edges.get((i, j), set())),
            )
            for j in range(1, dup.params.p + 1)
        )
        for i in range(1, dup.params.q + 1)
    )
    family = GraphFamily(
        q=dup.params.q, p=dup.params.p, num_layers=num_layers, layer_size=w,
        members=members,
    )
    graph = LayeredGraph(
        num_layers=num_layers, layer_size=prod_size, edges=frozenset(provenance)
    )
    emb = EmbeddedGraph(graph=graph, provenance=provenance, inner_layer_size=w)
    return emb, dup, family
