"""Layered graphs with disjoint and unique path collections.

A layered graph splits its vertices into equal independent layers; a
layered path visits one vertex per layer, consecutively.  A unique-path
collection (UPC) is a set of vertex-disjoint full-span layered paths
such that between any start vertex and any final vertex of the
collection, the whole graph contains no layered path at all unless the
two are the ends of one collection path, in which case that path is the
only one.

build_dup produces a graph that is an edge-disjoint union of q = ell^d
such collections with p paths each.  Vertices of layer i are the grid
{1..(k+2)*ell}^d.  For a shift vector x in {1..ell}^d and a direction y
from an average-free set A (see avgfree), the path for (x, y) visits
x + y, x + 2y, ..., x + (k+1)y.  Uniqueness comes from average-freeness:
a stray layered path between collection endpoints would express one
direction as an average of others.

Vertices are (layer, index) pairs with layers 1-based and indices
0-based; grid vectors map to indices lexicographically (first coordinate
most significant).  Padding appends isolated vertices at the top of
every layer's index range, so path indices are unaffected by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import IO, Iterator

from .avgfree import AvgFreeSet, Vector, build_avg_free_set
from .budgets import Budget, default_budget
from .errors import BudgetExceededError, FormatError, InvalidInputError, TooSmallError
from .numutil import ceil_div, integer_nth_root
from .report import VerificationReport

Vertex = tuple[int, int]          # (layer, index)
Edge = tuple[Vertex, Vertex]      # normalized so the smaller endpoint is first


def make_edge(u: Vertex, v: Vertex) -> Edge:
    if u == v:
        raise InvalidInputError(f"self loop at {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class LayeredGraph:
    num_layers: int
    layer_size: int
    edges: frozenset[Edge]

    @property
    def n_vertices(self) -> int:
        return self.num_layers * self.layer_size

    def vertices(self) -> Iterator[Vertex]:
        for layer in range(1, self.num_layers + 1):
            for idx in range(self.layer_size):
                yield (layer, idx)

    def has_vertex(self, v: Vertex) -> bool:
        return 1 <= v[0] <= self.num_layers and 0 <= v[1] < self.layer_size

    def well_formed(self) -> bool:
        """Endpoints in range, no self loops, layers are independent sets."""
        for u, v in self.edges:
            if not (self.has_vertex(u) and self.has_vertex(v)):
                return False
            if u[0] == v[0]:
                return False
        return True

    def is_strict(self) -> bool:
        """Every edge joins consecutive layers."""
        return all(abs(u[0] - v[0]) == 1 for u, v in self.edges)

    def flat_id(self, v: Vertex) -> int:
        return (v[0] - 1) * self.layer_size + v[1]

    def unflat(self, i: int) -> Vertex:
        return (i // self.layer_size + 1, i % self.layer_size)

    def flat_edges(self) -> list[tuple[int, int]]:
        return sorted((self.flat_id(u), self.flat_id(v)) for u, v in self.edges)


@dataclass(frozen=True)
class LayeredPath:
    vertices: tuple[Vertex, ...]

    @property
    def start(self) -> Vertex:
        return self.vertices[0]

    @property
    def final(self) -> Vertex:
        return self.vertices[-1]

    def edges(self) -> Iterator[Edge]:
        for a, b in zip(self.vertices, self.vertices[1:]):
            yield make_edge(a, b)

    def is_layered(self) -> bool:
        return all(b[0] == a[0] + 1 for a, b in zip(self.vertices, self.vertices[1:]))


@dataclass(frozen=True)
class Upc:
    index: int                      # 1-based position within the graph's collections
    paths: tuple[LayeredPath, ...]

    def starts(self) -> list[Vertex]:
        return [p.start for p in self.paths]

    def finals(self) -> list[Vertex]:
        return [p.final for p in self.paths]


@dataclass(frozen=True)
class DupParams:
    ell: int
    d: int
    k: int
    p: int
    q: int
    padded: tuple[int, ...]         # per-layer count of appended isolated vertices

    @property
    def side(self) -> int:
        """Grid side length of the unpadded layers."""
        return (self.k + 2) * self.ell

    @property
    def base_layer_size(self) -> int:
        return self.side**self.d


@dataclass(frozen=True)
class DupGraph:
    graph: LayeredGraph
    upcs: tuple[Upc, ...]
    params: DupParams
    avg_free: AvgFreeSet | None


@dataclass(frozen=True)
class DupDimensions:
    d: int
    ell: int
    n_effective: int


def encode_vector(v: Vector, side: int) -> int:
    idx = 0
    for c in v:
        if not 1 <= c <= side:
            raise InvalidInputError(f"coordinate {c} outside 1..{side}")
        idx = idx * side + (c - 1)
    return idx


def decode_index(idx: int, side: int, d: int) -> Vector:
    coords = []
    for _ in range(d):
        coords.append(idx % side + 1)
        idx //= side
    return tuple(reversed(coords))


def derive_dup_dimensions(n: int, k: int) -> DupDimensions:
    """Pick (d, ell) for a k+1 layer construction of at most n vertices.

    d tracks sqrt(log2(n / (k+1))) rounded to the nearest integer (at
    least 1), then ell is the largest value with
    (k+1) * ((k+2)*ell)^d <= n.
    """
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got {k}")
    if n < (k + 1) * (k + 2):
        raise TooSmallError(
            f"n={n} cannot hold k+1 layers of side k+2 (needs {(k + 1) * (k + 2)})"
        )
    d = max(1, int(math.sqrt(math.log2(n / (k + 1))) + 0.5))
    side_max = integer_nth_root(n // (k + 1), d)
    ell = side_max // (k + 2)
    if ell < 1:
        raise TooSmallError(f"n={n} too small for d={d} with k={k}")
    n_effective = (k + 1) * ((k + 2) * ell) ** d
    return DupDimensions(d=d, ell=ell, n_effective=n_effective)


def build_dup(ell: int, d: int, k: int, budget: Budget | None = None) -> DupGraph:
    """Construct the q = ell^d collections of p vertex-disjoint paths."""
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got {k}")
    budget = budget or default_budget()
    a_set = build_avg_free_set(ell, d, budget)
    q = ell**d
    p = a_set.size
    if q * p * (k + 1) > budget.max_vectors:
        raise BudgetExceededError(
            f"construction would enumerate {q * p * (k + 1)} path vertices, "
            f"cap is {budget.max_vectors}"
        )
    side = (k + 2) * ell
    edges: set[Edge] = set()
    upcs = []
    for i, x in enumerate(sorted(product(range(1, ell + 1), repeat=d)), start=1):
        paths = []
        for y in a_set.members:
            verts = tuple(
                (m, encode_vector(tuple(xc + m * yc for xc, yc in zip(x, y)), side))
                for m in range(1, k + 2)
            )
            path = LayeredPath(verts)
            paths.append(path)
            edges.update(path.edges())
        upcs.append(Upc(index=i, paths=tuple(paths)))
    graph = LayeredGraph(num_layers=k + 1, layer_size=side**d, edges=frozenset(edges))
    params = DupParams(ell=ell, d=d, k=k, p=p, q=q, padded=(0,) * (k + 1))
    return DupGraph(graph=graph, upcs=tuple(upcs), params=params, avg_free=a_set)


def pad_dup(dup: DupGraph, layer_size: int) -> DupGraph:
    """Append isolated vertices so every layer reaches layer_size."""
    base = dup.params.base_layer_size
    if layer_size < base:
        raise InvalidInputError(f"cannot pad layers of size {base} down to {layer_size}")
    if layer_size == dup.graph.layer_size:
        return dup
    pad = layer_size - base
    graph = replace(dup.graph, layer_size=layer_size)
    params = replace(dup.params, padded=(pad,) * dup.graph.num_layers)
    return DupGraph(graph=graph, upcs=dup.upcs, params=params, avg_free=dup.avg_free)


def build_dup_from_size(n: int, k: int, budget: Budget | None = None) -> DupGraph:
    """Largest construction fitting n vertices, layers padded to n // (k+1)."""
    dims = derive_dup_dimensions(n, k)
    dup = build_dup(dims.ell, dims.d, k, budget)
    return pad_dup(dup, n // (k + 1))


def forward_adjacency(graph: LayeredGraph) -> dict[Vertex, list[Vertex]]:
    """Next-layer neighbour lists; build once when checking many pairs."""
    forward: dict[Vertex, list[Vertex]] = {}
    for u, v in graph.edges:
        if v[0] == u[0] + 1:
            forward.setdefault(u, []).append(v)
        elif u[0] == v[0] + 1:
            forward.setdefault(v, []).append(u)
    return forward


def enumerate_layered_paths(
    graph: LayeredGraph, s: Vertex, t: Vertex, budget: Budget | None = None,
    forward: dict[Vertex, list[Vertex]] | None = None,
) -> list[LayeredPath]:
    """All layered paths from s up to t, one vertex per layer in between.

    Only edges between consecutive layers can take part.  Search effort
    is capped by the path budget.
    """
    budget = budget or default_budget()
    if not (graph.has_vertex(s) and graph.has_vertex(t)):
        raise InvalidInputError(f"endpoints {s}, {t} outside the graph")
    if t[0] <= s[0]:
        return []
    if forward is None:
        forward = forward_adjacency(graph)
    found: list[LayeredPath] = []
    visited = 0
    stack: list[tuple[Vertex, ...]] = [(s,)]
    while stack:
        prefix = stack.pop()
        visited += 1
        if visited > budget.max_paths:
            raise BudgetExceededError(f"path enumeration exceeded cap {budget.max_paths}")
        head = prefix[-1]
        if head[0] == t[0] - 1:
            for nxt in forward.get(head, ()):
                if nxt == t:
                    found.append(LayeredPath(prefix + (t,)))
            continue
        for nxt in forward.get(head, ()):
            stack.append(prefix + (nxt,))
    found.sort(key=lambda path: path.vertices)
    return found


def verify_upc(
    graph: LayeredGraph, upc: Upc, budget: Budget | None = None,
    forward: dict[Vertex, list[Vertex]] | None = None,
) -> bool:
    """Check one collection against the whole graph it lives in."""
    budget = budget or default_budget()
    if forward is None:
        forward = forward_adjacency(graph)
    seen: set[Vertex] = set()
    for path in upc.paths:
        if len(path.vertices) != graph.num_layers:
            return False
        if path.vertices[0][0] != 1 or not path.is_layered():
            return False
        if any(not graph.has_vertex(v) for v in path.vertices):
            return False
        if any(e not in graph.edges for e in path.edges()):
            return False
        if seen & set(path.vertices):
            return False
        seen.update(path.vertices)
    ends = {(p.start, p.final): p for p in upc.paths}
    for s in upc.starts():
        for t in upc.finals():
            paths = enumerate_layered_paths(graph, s, t, budget, forward=forward)
            expected = [ends[(s, t)]] if (s, t) in ends else []
            if paths != expected:
                return False
    return True


def _recover_avg_free(dup: DupGraph) -> AvgFreeSet | None:
    """Reconstruct the direction set from path coordinates, if coherent."""
    params = dup.params
    side = params.side
    directions: list[Vector] | None = None
    for upc in dup.upcs:
        shift: Vector | None = None
        dirs = []
        for path in upc.paths:
            if len(path.vertices) < 2:
                return None
            if any(idx >= params.base_layer_size for _, idx in path.vertices):
                return None
            vecs = [decode_index(idx, side, params.d) for _, idx in path.vertices]
            y = tuple(b - a for a, b in zip(vecs[0], vecs[1]))
            x = tuple(a - yc for a, yc in zip(vecs[0], y))
            if any(not 1 <= c <= params.ell for c in y):
                return None
            if any(not 1 <= c <= params.ell for c in x):
                return None
            for m, vec in enumerate(vecs, start=1):
                if vec != tuple(xc + m * yc for xc, yc in zip(x, y)):
                    return None
            if shift is None:
                shift = x
            elif shift != x:
                return None
            dirs.append(y)
        if directions is None:
            directions = dirs
        elif directions != dirs:
            return None
    if not directions or len(set(directions)) != len(directions):
        return None
    norms = {sum(c * c for c in y) for y in directions}
    if len(norms) != 1:
        return None
    return AvgFreeSet(
        ell=params.ell, d=params.d, norm_sq=norms.pop(), members=tuple(sorted(directions))
    )


def verify_dup(dup: DupGraph, budget: Budget | None = None) -> VerificationReport:
    """Structural report: layering, edge partition, every collection unique."""
    budget = budget or default_budget()
    params = dup.params
    report = VerificationReport()
    graph = dup.graph
    report.add("layering", graph.well_formed() and graph.is_strict())
    report.add("layer_count", graph.num_layers == params.k + 1,
               f"expected {params.k + 1} layers, found {graph.num_layers}")
    report.add(
        "padding",
        len(params.padded) == graph.num_layers
        and all(c == graph.layer_size - params.base_layer_size for c in params.padded),
        "pad counts disagree with layer size",
    )

    counts = {params.q == len(dup.upcs), params.q == params.ell**params.d}
    counts.add(all(len(u.paths) == params.p for u in dup.upcs))
    report.add("collection_counts", all(counts),
               f"expected q={params.q} collections of p={params.p} paths")
    bound = ceil_div(params.ell**params.d, params.d * params.ell**2)
    report.add("direction_count_bound", params.p >= bound,
               f"p={params.p} below pigeonhole bound {bound}")

    covered: dict[Edge, int] = {}
    for upc in dup.upcs:
        for path in upc.paths:
            for e in path.edges():
                covered[e] = covered.get(e, 0) + 1
    partition_ok = set(covered) == set(graph.edges) and all(c == 1 for c in covered.values())
    report.add("edge_partition", partition_ok,
               "path edges do not partition the edge set")

    recovered = _recover_avg_free(dup)
    consistent = recovered is not None and (
        dup.avg_free is None or recovered.members == dup.avg_free.members
    )
    report.add("construction_consistent", consistent,
               "paths are not arithmetic progressions over a single direction set")

    all_upcs_ok = True
    forward = forward_adjacency(graph)
    for upc in dup.upcs:
        if not verify_upc(graph, upc, budget, forward=forward):
            all_upcs_ok = False
            report.add("unique_paths", False, f"collection {upc.index} fails")
            break
    if all_upcs_ok:
        report.add("unique_paths", True)
    return report


# ---------------------------------------------------------------------------
# dupg v1 file format
#
#   dupg 1 <k+1> <layer_size> <p> <q> <ell> <d>
#   upc <i> <j> <v_1> ... <v_{k+1}>     one line per path, i-major, 1-based i, j
#   pad <count>                          one line per layer
#
# Path entries v_m are 0-based indices local to layer m.  layer_size is
# the padded size; padding occupies the top of each layer's index range.
# ---------------------------------------------------------------------------


def write_dup(dup: DupGraph, fh: IO[str]) -> None:
    params = dup.params
    g = dup.graph
    fh.write(
        f"dupg 1 {g.num_layers} {g.layer_size} {params.p} {params.q} "
        f"{params.ell} {params.d}\n"
    )
    for upc in dup.upcs:
        for j, path in enumerate(upc.paths, start=1):
            idxs = " ".join(str(idx) for _, idx in path.vertices)
            fh.write(f"upc {upc.index} {j} {idxs}\n")
    for pad in params.padded:
        fh.write(f"pad {pad}\n")


def read_dup(fh: IO[str]) -> DupGraph:
    lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise FormatError("empty dupg file")
    head = lines[0].split()
    if len(head) != 8 or head[0] != "dupg" or head[1] != "1":
        raise FormatError(f"bad dupg header: {lines[0]!r}")
    try:
        num_layers, layer_size, p, q, ell, d = (int(x) for x in head[2:])
    except ValueError as exc:
        raise FormatError(f"non-integer header field in {lines[0]!r}") from exc
    if num_layers < 2 or layer_size < 1 or p < 1 or q < 1 or ell < 1 or d < 1:
        raise FormatError("header fields out of range")
    expected = [(i, j) for i in range(1, q + 1) for j in range(1, p + 1)]
    if len(lines) != 1 + q * p + num_layers:
        raise FormatError(
            f"expected {q * p} path lines and {num_layers} pad lines, "
            f"found {len(lines) - 1}"
        )
    upc_paths: dict[int, list[LayeredPath]] = {i: [] for i in range(1, q + 1)}
    for pos, line in enumerate(lines[1 : 1 + q * p]):
        parts = line.split()
        if parts[0] != "upc" or len(parts) != 3 + num_layers:
            raise FormatError(f"bad path line: {line!r}")
        i, j = int(parts[1]), int(parts[2])
        if (i, j) != expected[pos]:
            raise FormatError(f"path lines out of order at {line!r}")
        idxs = [int(x) for x in parts[3:]]
        if any(not 0 <= v < layer_size for v in idxs):
            raise FormatError(f"vertex index out of range in {line!r}")
        upc_paths[i].append(LayeredPath(tuple(enumerate(idxs, start=1))))
    pads = []
    for line in lines[1 + q * p :]:
        parts = line.split()
        if parts[0] != "pad" or len(parts) != 2:
            raise FormatError(f"bad pad line: {line!r}")
        pads.append(int(parts[1]))
    k = num_layers - 1
    base = ((k + 2) * ell) ** d
    if any(c != layer_size - base for c in pads):
        raise FormatError("pad counts disagree with layer size and dimensions")
    edges: set[Edge] = set()
    upcs = []
    for i in range(1, q + 1):
        paths = tuple(upc_paths[i])
        for path in paths:
            edges.update(path.edges())
        upcs.append(Upc(index=i, paths=paths))
    graph = LayeredGraph(num_layers=num_layers, layer_size=layer_size, edges=frozenset(edges))
    params = DupParams(ell=ell, d=d, k=k, p=p, q=q, padded=tuple(pads))
    dup = DupGraph(graph=graph, upcs=tuple(upcs), params=params, avg_free=None)
    return replace(dup, avg_free=_recover_avg_free(dup))


if __name__ == "__main__":
    dup = build_dup(ell=2, d=2, k=1)
    print(f"q={dup.params.q} p={dup.params.p} layer={dup.graph.layer_size}")
    print(verify_dup(dup).summary())
