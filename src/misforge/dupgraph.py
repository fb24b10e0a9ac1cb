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
0-based; grid vector v has index(v - 1), index reading base-(k+2)*ell
digits, first most significant, so path (x, y) is index(x - 1) +
m*index(y) (see build_dup).  Padding appends isolated vertices at the top
of every layer's index range, so path indices are unaffected by it.

Storage: a DupGraph stores its paths once, as a (q, p, k+1) int64 array
of layer-local indices (``paths[i-1, j-1, m-1]`` is the layer-m vertex
of collection i's path j), and its edges as one sorted (m, 2) int64
array of flat ids (layer - 1) * layer_size + idx, smaller id first,
derived from the paths.  ``graph.edges`` is a read-only ``EdgeView`` of
the edge array.  verify_dup checks uniqueness with one capped path-count
pass over the whole graph (see path_counts), and path_lut is the one
table that routes a graph along a collection path.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product
from typing import IO, Iterator, NamedTuple

import numpy as np

from .avgfree import MAX_D, AvgFreeSet, build_avg_free_set
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


def edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """One int64 key u * n + v per edge (u, v) along the last axis, ordered
    as the pairs.  Ids in [0, n) need check_key_range(n) first."""
    return edges[..., 0] * n + edges[..., 1]


def check_key_range(n: int) -> None:
    """Raise InvalidInputError unless every edge key of n vertices, at most
    n * n - 1, fits in int64 (n up to about 3.04e9)."""
    if n * n > 1 << 63:
        raise InvalidInputError(f"{n} vertices is too many: edge keys u * n + v overflow int64")


def edge_pairs(edges: np.ndarray, layer_size: int) -> Iterator[Edge]:
    """Flat-id edges as ((layer, idx), (layer, idx)) pairs."""
    for u, v in edges.tolist():
        yield (u // layer_size + 1, u % layer_size), (v // layer_size + 1, v % layer_size)


@dataclass(frozen=True, eq=False)
class Biclique:
    """The complete bipartite edge set left x right of two sorted int64 id
    vectors, kept as the two vectors: an edge section that holds |L| * |R|
    edges in O(|L| + |R|) words."""

    left: np.ndarray
    right: np.ndarray

    def __len__(self) -> int:
        return len(self.left) * len(self.right)

    def check_expandable(self) -> None:
        """The one guard before any expansion: BudgetExceededError past the
        vector cap of ``default_budget()`` (MISFORGE_BUDGET or 2^24), not of
        a Budget passed to the caller."""
        if len(self) > (cap := default_budget().max_vectors):
            raise BudgetExceededError(f"a {len(self.left)} x {len(self.right)} join expands "
                                      f"to {len(self)} edges, over the cap {cap}")

    def expand(self) -> np.ndarray:
        """The edges as an (m, 2) int64 array, row-major in (u, v): sorted."""
        self.check_expandable()
        edges = np.empty((len(self.left), len(self.right), 2), np.int64)
        edges[..., 0] = self.left[:, None]
        edges[..., 1] = self.right
        return edges.reshape(-1, 2)


def expand(part: np.ndarray | Biclique) -> np.ndarray:
    """An edge section as an (m, 2) array: a Biclique expanded, an array as it is."""
    return part.expand() if isinstance(part, Biclique) else part


def stack_edges(parts) -> np.ndarray:
    """Edge sections, in order, as one (m, 2) array."""
    return np.concatenate([expand(p) for p in parts] or [np.empty((0, 2), np.int64)])


class EdgeView(AbstractSet):
    """A read-only set of ``(layer, idx)`` edge pairs over disjoint edge
    sections: ``(m, 2)`` flat-id arrays, each sorted by (u, v) with u < v,
    or Bicliques whose left ids are below their right ids.  ``len``
    touches no edge, membership is a binary search, and only iteration
    builds tuple pairs.  Set operations with other sets return frozensets."""

    def __init__(self, parts: tuple[np.ndarray | Biclique, ...], layer_size: int, n: int):
        self.parts, self.layer_size, self.n = parts, layer_size, n
        self._sorted_keys: np.ndarray | None = None     # built on the first lookup

    _from_iterable = frozenset      # what the Set mixin methods build

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts)

    def __iter__(self) -> Iterator[Edge]:
        size = self.layer_size
        for part in self.parts:
            if isinstance(part, Biclique):      # each side's vertices made once
                part.check_expandable()
                yield from product(*([(x // size + 1, x % size) for x in ids.tolist()]
                                     for ids in (part.left, part.right)))
            else:
                yield from edge_pairs(part, size)

    def __contains__(self, edge) -> bool:
        size, n = self.layer_size, self.n
        try:
            (la, xa), (lb, xb) = edge
            u, v = (la - 1) * size + xa, (lb - 1) * size + xb
            if not (0 <= xa < size and 0 <= xb < size and 0 <= u < v < n):
                return False
        except (TypeError, ValueError):
            return False
        if self._sorted_keys is None:
            self._sorted_keys = np.sort(np.concatenate([edge_keys(expand(p), n)
                                                        for p in self.parts]))
        i = np.searchsorted(self._sorted_keys, u * n + v)
        return bool(i < len(self._sorted_keys) and self._sorted_keys[i] == u * n + v)


@dataclass(frozen=True)
class LayeredGraph:
    num_layers: int
    layer_size: int
    edges: AbstractSet[Edge]

    @property
    def n_vertices(self) -> int:
        return self.num_layers * self.layer_size

    def vertices(self) -> Iterator[Vertex]:
        for layer in range(1, self.num_layers + 1):
            for idx in range(self.layer_size):
                yield (layer, idx)

    def has_vertex(self, v: Vertex) -> bool:
        return 1 <= v[0] <= self.num_layers and 0 <= v[1] < self.layer_size

    def flat_id(self, v: Vertex) -> int:
        return (v[0] - 1) * self.layer_size + v[1]

    def flat_edges(self) -> np.ndarray:
        """The edges as one sorted (m, 2) int64 array of flat ids, smaller id
        first, each edge once: the array form every flat-id consumer takes.
        An EdgeView's Biclique parts are expanded, under their cap."""
        edges = self.edges
        if isinstance(edges, EdgeView):
            keys = np.sort(np.concatenate([edge_keys(expand(p), edges.n) for p in edges.parts]))
            return np.column_stack(np.divmod(keys, edges.n))
        pairs = np.array([(self.flat_id(u), self.flat_id(v)) for u, v in edges], dtype=np.int64)
        return np.unique(np.sort(pairs.reshape(-1, 2), axis=1), axis=0)


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


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a flattened array (np.unique's hashing
    made it the slowest step of verify_dup on small graphs)."""
    values = np.sort(values, axis=None)
    return values[np.diff(values, prepend=values[:1] - 1) != 0]


def _flat_paths(paths: np.ndarray, layer_size: int) -> np.ndarray:
    """Path vertices as flat ids."""
    return paths + np.arange(paths.shape[-1]) * layer_size


def _path_keys(paths: np.ndarray, layer_size: int) -> np.ndarray:
    """The edge key of every path step, shape (q, p, k)."""
    ids = _flat_paths(paths, layer_size)
    return edge_keys(np.stack([ids[..., :-1], ids[..., 1:]], axis=-1),
                     paths.shape[-1] * layer_size)


def _path_edges(paths: np.ndarray, layer_size: int) -> np.ndarray:
    """The edges the paths use, sorted and distinct, in flat ids."""
    keys = _distinct(_path_keys(paths, layer_size))
    return np.column_stack(np.divmod(keys, paths.shape[-1] * layer_size))


@dataclass(frozen=True, eq=False)
class DupGraph:
    """A layered graph with its path collections (see the module
    docstring).  ``edges`` is derived from ``paths`` when not given."""

    paths: np.ndarray                   # (q, p, num_layers) layer-local indices
    layer_size: int
    params: DupParams
    avg_free: AvgFreeSet | None
    edges: np.ndarray | None = None     # (m, 2) flat ids

    def __post_init__(self):
        check_key_range(self.paths.shape[-1] * self.layer_size)
        if self.edges is None:
            object.__setattr__(self, "edges", _path_edges(self.paths, self.layer_size))

    @cached_property
    def graph(self) -> LayeredGraph:
        layers, size = self.paths.shape[-1], self.layer_size
        return LayeredGraph(layers, size, EdgeView((self.edges,), size, layers * size))


def build_dup(ell: int, d: int, k: int, budget: Budget | None = None) -> DupGraph:
    """Construct the q = ell^d collections of p vertex-disjoint paths.
    Path (x, y) at layer m is index(x - 1) + m*index(y): no digit carries,
    as no coordinate of x - 1 + m*y, at most ell - 1 + (k+1)*ell, reaches
    the radix (k+2)*ell.  Shifts x run over {1..ell}^d lexicographically."""
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got {k}")
    budget = budget or default_budget()
    # refused before any grid is built; build_avg_free_set refuses a bad d
    if 1 <= d <= MAX_D and (k + 1) * ell**d > budget.max_vectors:
        raise BudgetExceededError(f"even one direction makes {(k + 1) * ell**d} path vertices, "
                                  f"cap is {budget.max_vectors}")
    a_set = build_avg_free_set(ell, d, budget)
    q, p = ell**d, a_set.size
    if q * p * (k + 1) > budget.max_vectors:
        raise BudgetExceededError(f"construction would enumerate {q * p * (k + 1)} path vertices, "
                                  f"cap is {budget.max_vectors}")
    side = (k + 2) * ell
    shifts = np.zeros(1, dtype=np.int64)
    for _ in range(d):
        shifts = (shifts[:, None] * side + np.arange(ell)).ravel()
    steps = np.array(a_set.members, dtype=np.int64) @ side ** np.arange(d - 1, -1, -1)
    paths = shifts[:, None, None] + steps[:, None] * np.arange(1, k + 2)
    params = DupParams(ell=ell, d=d, k=k, p=p, q=q, padded=(0,) * (k + 1))
    return DupGraph(paths=paths, layer_size=side**d, params=params, avg_free=a_set)


def pad_dup(dup: DupGraph, layer_size: int) -> DupGraph:
    """Append isolated vertices so every layer reaches layer_size."""
    base = dup.params.base_layer_size
    if layer_size < base:
        raise InvalidInputError(f"cannot pad layers of size {base} down to {layer_size}")
    if layer_size == dup.layer_size:
        return dup
    edges = dup.edges // dup.layer_size * layer_size + dup.edges % dup.layer_size
    params = replace(dup.params, padded=(layer_size - base,) * dup.paths.shape[-1])
    return replace(dup, layer_size=layer_size, params=params, edges=edges)


def build_dup_from_size(n: int, k: int, budget: Budget | None = None) -> DupGraph:
    """The k+1 layer construction on at most n vertices that hides the most,
    layers padded to n // (k+1): over every d with the largest ell such that
    (k+1) * ((k+2)*ell)^d <= n, the one ranking highest by (q >= 2, p >= 2,
    p * q), ties to the smaller d, as t picks one of q collections and the
    direct sum runs over the p * q paths.  The largest ell suffices: with
    equal-norm direction sets neither p >= 2 nor p * q drops as ell grows
    (checked for d = 2, ell < 60 and d = 3, ell < 14).  Candidates over the
    budget are skipped; BudgetExceededError if all are."""
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got {k}")
    if n < (k + 1) * (k + 2):
        raise TooSmallError(f"n={n} cannot hold k+1 layers of side k+2 (needs {(k + 1) * (k + 2)})")
    layer_size = n // (k + 1)
    check_key_range((k + 1) * layer_size)
    candidates = []
    for d in range(1, MAX_D + 1):
        ell = integer_nth_root(layer_size, d) // (k + 2)
        if ell < 1:
            break
        with suppress(BudgetExceededError):
            candidates.append(build_dup(ell, d, k, budget))
    if not candidates:
        raise BudgetExceededError(f"every construction on n={n} with k={k} exceeds the budget")
    best = max(candidates, key=lambda g: (g.params.q > 1, g.params.p > 1, g.params.p * g.params.q))
    return pad_dup(best, layer_size)


def path_lut(dup: DupGraph, i: int, j: int, w: int) -> np.ndarray:
    """Flat id, in the product graph of block width w, of every flat id
    of a graph of layer width w routed along collection i's path j:
    inner vertex (layer, x) goes to (layer, u * w + x), with u the path's
    vertex in that layer.  Increasing, so it keeps sorted edge arrays
    sorted.  Index arrays i and j broadcast, giving one table per pair
    along the last axis."""
    starts = _flat_paths(dup.paths[i - 1, j - 1], dup.layer_size) * w
    return (starts[..., None] + np.arange(w)).reshape(*starts.shape[:-1], -1)


def _graph_keys(dup: DupGraph) -> np.ndarray:
    """The edge set as sorted distinct keys u * n + v with u < v."""
    n = dup.paths.shape[-1] * dup.layer_size
    return _distinct(edge_keys(np.sort(dup.edges, axis=1), n))


def check_path_table(q: int, p: int, budget: Budget) -> None:
    """Raise BudgetExceededError if the (q, p, p) path-count table of q
    collections of p paths has more than ``budget.max_paths`` entries."""
    if q * p * p > budget.max_paths:
        raise BudgetExceededError(f"the (q, p, p) path-count table needs {q * p * p} entries, "
                                  f"cap is {budget.max_paths}")


# entries of the (q, p, p) path-count table looked up at once
PATH_BLOCK_ENTRIES = 1 << 20


def path_counts(dup: DupGraph, budget: Budget | None = None) -> np.ndarray:
    """Layered path counts between collection endpoints, capped at 2.

    ``counts[i-1, j-1, h-1]`` is the number of layered paths in the whole
    graph from the start of collection i's path j to the final vertex of
    its path h (2 meaning two or more).  Only edges between consecutive
    layers take part.  One pass counts from every distinct layer-1 path
    start at once: a frontier of (start, vertex, count) rows advances a
    layer per step, and rows meeting at one vertex merge.  Going past
    ``budget.max_paths`` in rows made over the pass (the initial ones
    included) or in the q*p*p table's entries raises BudgetExceededError.
    """
    return np.concatenate(list(_path_count_blocks(dup, budget)))


def _path_count_blocks(dup: DupGraph, budget: Budget | None = None) -> Iterator[np.ndarray]:
    """path_counts' table, a block of whole collections at a time: at most
    PATH_BLOCK_ENTRIES entries a block, or one collection."""
    budget = budget or default_budget()
    paths, size = dup.paths, dup.layer_size
    q, p, layers = paths.shape
    check_path_table(q, p, budget)
    n = layers * size
    tails, heads = np.divmod(_graph_keys(dup), n)
    forward = heads // size == tails // size + 1
    tails, heads = tails[forward], heads[forward]
    first = paths[..., 0]
    starts = _distinct(first[(0 <= first) & (first < size)])
    src, vert, count = np.arange(len(starts)), starts, np.ones(len(starts), dtype=np.int64)
    rows = len(src)
    for _ in range(layers - 1):
        lo = np.searchsorted(tails, vert, "left")
        deg = np.searchsorted(tails, vert, "right") - lo
        total = int(deg.sum())
        rows += total
        if rows > budget.max_paths:
            raise BudgetExceededError(f"path counting exceeded {budget.max_paths} frontier rows")
        step = np.repeat(lo - np.cumsum(deg) + deg, deg) + np.arange(total)
        key = np.repeat(src, deg) * n + heads[step]
        order = np.argsort(key, kind="stable")
        key, merged = key[order], np.repeat(count, deg)[order]
        cuts = np.flatnonzero(np.diff(key, prepend=-1))
        count = np.minimum(np.add.reduceat(merged, cuts), 2)
        src, vert = np.divmod(key[cuts], n)
    # (rows, p, p) lookups: start of path j against the final of path h
    found, count = np.r_[src * n + vert, -1], np.r_[count, 0]
    tails, heads = np.searchsorted(starts, first) * n, paths[..., -1] + n - size
    rows = max(1, PATH_BLOCK_ENTRIES // max(p * p, 1))
    for lo in range(0, max(q, 1), rows):
        query = tails[lo:lo + rows, :, None] + heads[lo:lo + rows, None, :]
        pos = np.searchsorted(found[:-1], query)
        yield np.where(found[pos] == query, count[pos], 0)


def _recover_avg_free(dup: DupGraph) -> AvgFreeSet | None:
    """The direction set, if every path is shift + m*step as in build_dup,
    with one shift per collection and one step per path position."""
    params, paths = dup.params, dup.paths
    if 0 in paths.shape or paths.shape[-1] < 2:
        return None
    ell, side, layers = params.ell, params.side, paths.shape[-1]
    step = paths[..., 1] - paths[..., 0]                # (q, p)
    shift = paths[..., 0] - step
    weights = side ** np.arange(params.d - 1, -1, -1)
    x, y = (v[:, None] // weights % side for v in (shift[:, 0], step[0]))   # x - 1 and y
    coherent = ((paths == shift[..., None] + step[..., None] * np.arange(1, layers + 1)).all()
                and (step == step[:1]).all() and (shift == shift[:, :1]).all()
                and (x @ weights == shift[:, 0]).all() and (y @ weights == step[0]).all()
                and ((0 <= x) & (x < ell)).all() and ((1 <= y) & (y <= ell)).all()
                and (x.max(axis=0) + layers * y.max(axis=0) < side).all())   # no carry
    directions = sorted(map(tuple, y.tolist()))
    norms = (y**2).sum(axis=1)
    if not coherent or len(set(directions)) != len(directions) or (norms != norms[0]).any():
        return None
    return AvgFreeSet(ell=ell, d=params.d, norm_sq=int(norms[0]), members=tuple(directions))


def verify_dup(dup: DupGraph, budget: Budget | None = None) -> VerificationReport:
    """Structural report: layering, edge partition, every collection unique."""
    params, paths, size = dup.params, dup.paths, dup.layer_size
    q, p, layers = paths.shape
    n = layers * size
    report = VerificationReport()
    u, v = np.sort(dup.edges, axis=1).T
    report.add("layering", bool(np.all((0 <= u) & (v < n) & (v // size == u // size + 1))))
    report.add("layer_count", layers == params.k + 1,
               f"expected {params.k + 1} layers, found {layers}")
    report.add(
        "padding",
        len(params.padded) == layers
        and all(c == size - params.base_layer_size and c >= 0 for c in params.padded),
        "pad counts disagree with layer size",
    )

    counts_ok = params.q == q == params.ell**params.d and p == params.p
    report.add("collection_counts", counts_ok,
               f"expected q={params.q} collections of p={params.p} paths")
    bound = ceil_div(params.ell**params.d, params.d * params.ell**2)
    report.add("direction_count_bound", params.p >= bound,
               f"p={params.p} below pigeonhole bound {bound}")

    in_range = ((0 <= paths) & (paths < size)).all(axis=(1, 2))
    path_keys = _path_keys(paths, size)
    keys = _graph_keys(dup)
    report.add("edge_partition",
               bool(in_range.all()) and np.array_equal(np.sort(path_keys, axis=None), keys),
               "path edges do not partition the edge set")

    recovered = _recover_avg_free(dup)
    consistent = recovered is not None and (
        dup.avg_free is None or recovered.members == dup.avg_free.members
    )
    report.add("construction_consistent", consistent,
               "paths are not arithmetic progressions over a single direction set")

    # per collection: its paths lie in the graph and the p x p (start, final)
    # path counts are the identity.  That makes the paths vertex-disjoint:
    # paths j != h through one vertex would join start j to final h.
    on_graph = (np.r_[keys, -1][np.searchsorted(keys, path_keys)] == path_keys).all(axis=(1, 2))
    # the identity: every diagonal entry 1, and entries (all >= 0) summing to p
    unique = np.concatenate([(np.diagonal(block, axis1=1, axis2=2) == 1).all(axis=1)
                             & (block.sum(axis=(1, 2)) == p)
                             for block in _path_count_blocks(dup, budget)])
    bad = np.flatnonzero(~(in_range & on_graph & unique))
    report.add("unique_paths", not len(bad), f"collection {bad[0] + 1} fails" if len(bad) else "")
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


# path lines per string that write_dup formats with one %
DUPG_BLOCK_ROWS = 1 << 16


def write_dup(dup: DupGraph, fh: IO[str]) -> None:
    params = dup.params
    q, p, layers = dup.paths.shape
    fh.write(f"dupg 1 {layers} {dup.layer_size} {params.p} {params.q} {params.ell} {params.d}\n")
    line = "upc %d %d" + " %d" * layers + "\n"
    paths = dup.paths.reshape(q * p, layers)
    for lo in range(0, q * p, DUPG_BLOCK_ROWS):
        block = paths[lo:lo + DUPG_BLOCK_ROWS]
        pos = np.arange(lo, lo + len(block))
        rows = np.column_stack([pos // p + 1, pos % p + 1, block])     # i, j, path
        fh.write(line * len(rows) % tuple(rows.ravel().tolist()))
    for pad in params.padded:
        fh.write(f"pad {pad}\n")


def _ints(fields: list[str], line: str) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError as exc:
        raise FormatError(f"non-integer field in {line!r}") from exc


class DupHeader(NamedTuple):
    num_layers: int
    layer_size: int
    p: int
    q: int
    ell: int
    d: int


def read_dup_header(fh: IO[str]) -> DupHeader:
    """The first non-blank line of a dupg file, validated; nothing after
    it is read."""
    line = next((ln.strip() for ln in fh if ln.strip()), None)
    if line is None:
        raise FormatError("empty dupg file")
    head = line.split()
    if len(head) != 8 or head[0] != "dupg" or head[1] != "1":
        raise FormatError(f"bad dupg header: {line!r}")
    header = DupHeader(*_ints(head[2:], line))
    num_layers, layer_size, p, q, ell, d = header
    if num_layers < 2 or layer_size < 1 or p < 1 or q < 1 or ell < 1 or not 1 <= d <= MAX_D:
        raise FormatError("header fields out of range")
    base = ((num_layers + 1) * ell) ** d
    if layer_size < base:
        raise FormatError(f"layer size {layer_size} is below the construction's {base}")
    return header


def read_dup(fh: IO[str], header: DupHeader | None = None) -> DupGraph:
    """A dupg file, or the rest of one whose header has been read."""
    num_layers, layer_size, p, q, ell, d = header or read_dup_header(fh)
    lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) != q * p + num_layers:
        raise FormatError(
            f"expected {q * p} path lines and {num_layers} pad lines, "
            f"found {len(lines)}"
        )
    rows = []
    for pos, line in enumerate(lines[:q * p]):
        parts = line.split()
        if parts[0] != "upc" or len(parts) != 3 + num_layers:
            raise FormatError(f"bad path line: {line!r}")
        i, j, *idxs = _ints(parts[1:], line)
        if (i, j) != (pos // p + 1, pos % p + 1):
            raise FormatError(f"path lines out of order at {line!r}")
        if any(not 0 <= v < layer_size for v in idxs):
            raise FormatError(f"vertex index out of range in {line!r}")
        rows.append(idxs)
    pads = []
    for line in lines[q * p:]:
        parts = line.split()
        if parts[0] != "pad" or len(parts) != 2:
            raise FormatError(f"bad pad line: {line!r}")
        pads.extend(_ints(parts[1:], line))
    params = DupParams(ell=ell, d=d, k=num_layers - 1, p=p, q=q, padded=tuple(pads))
    if any(c != layer_size - params.base_layer_size for c in pads):
        raise FormatError("pad counts disagree with layer size and dimensions")
    paths = np.array(rows, dtype=np.int64).reshape(q, p, num_layers)
    dup = DupGraph(paths=paths, layer_size=layer_size, params=params, avg_free=None)
    return replace(dup, avg_free=_recover_avg_free(dup))
