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

Storage: ``emb.graph.edges`` holds each edge once, as q * p sorted flat-id
arrays in i-major order, so an edge's member is the index of its part.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import chain
from typing import IO

import numpy as np

from .dupgraph import (
    DupGraph,
    EdgeView,
    LayeredGraph,
    check_key_range,
    edge_keys,
    edge_pairs,
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


@dataclass(frozen=True)
class EmbeddedGraph:
    graph: LayeredGraph          # edges: an EdgeView of q * p parts, i-major
    inner_layer_size: int


def _member_rows(family: GraphFamily) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every member edge, i-major, as int64 rows: its member (i, j), 0-based;
    its endpoints' layers and indices (la, xa, lb, xb) as the member gives
    them; and its inner flat ids (layer - 1) * w + x."""
    members = [(i, j, g) for i, row in enumerate(family.members) for j, g in enumerate(row)]
    owners = np.array([(i, j) for i, j, _ in members], dtype=np.int64).reshape(-1, 2)
    owners = np.repeat(owners, [len(g.edges) for *_, g in members], axis=0)
    # every endpoint's two ints in order, with no Python step per edge
    ends = np.fromiter(chain.from_iterable(chain.from_iterable(chain.from_iterable(
        g.edges for *_, g in members))), dtype=np.int64).reshape(-1, 4)
    return owners, ends, (ends[:, ::2] - 1) * family.layer_size + ends[:, 1::2]


def _parts(owner: np.ndarray, rows: np.ndarray, keys: np.ndarray, count: int) -> list[np.ndarray]:
    """rows grouped by owner 0..count-1, each group in keys order."""
    cuts = np.cumsum(np.bincount(owner, minlength=count))[:-1]
    return np.split(rows[np.lexsort((keys, owner))], cuts)


def embed(family: GraphFamily, dup: DupGraph) -> EmbeddedGraph:
    """Route every family member along its collection path.  Member (i, j)'s
    edges are part (i - 1) * p + j - 1 of the result's edge view."""
    w, q, p, shape = family.layer_size, family.q, family.p, (family.num_layers, family.layer_size)
    try:
        owners, ends, inner = _member_rows(family)
        layers, idx = ends[:, ::2], ends[:, 1::2]
        # endpoints in range, and no edge inside a layer
        edges_ok = (layers.min(initial=1) >= 1 and layers.max(initial=1) <= family.num_layers
                    and idx.min(initial=0) >= 0 and idx.max(initial=0) < w
                    and (layers[:, 0] != layers[:, 1]).all())
    except OverflowError:           # an endpoint beyond int64 is in no layer
        edges_ok = False
    if not edges_ok or len(family.members) != q or any(
            len(row) != p or any((g.num_layers, g.layer_size) != shape for g in row)
            for row in family.members):
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
    size = dup.graph.layer_size * w
    n = dup.graph.num_layers * size
    check_key_range(n)
    luts = path_lut(dup, np.arange(1, q + 1)[:, None], np.arange(1, p + 1), w)
    edges = np.sort(luts[owners[:, :1], owners[:, 1:], inner], axis=1)
    keys = edge_keys(edges, n)
    order = np.argsort(keys, kind="stable")
    clash = np.flatnonzero(np.diff(keys[order]) == 0)
    if len(clash):
        a, b = order[clash[0]], order[clash[0] + 1]
        raise InvalidInputError(
            f"edge collision at {next(edge_pairs(edges[a:a + 1], size))}: collections "
            f"{tuple((owners[a] + 1).tolist())} and {tuple((owners[b] + 1).tolist())} overlap"
        )
    parts = _parts(owners[:, 0] * p + owners[:, 1], edges, keys, q * p)
    graph = LayeredGraph(num_layers=dup.graph.num_layers, layer_size=size,
                         edges=EdgeView(tuple(parts), size, n))
    return EmbeddedGraph(graph=graph, inner_layer_size=w)


def _induced_keys(emb: EmbeddedGraph, dup: DupGraph,
                  cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys (c * n + u) * n + v of the edges induced on the blocks of
    collection cols[c] (consecutive, 1-based), relabeled as by induced_on_upc,
    and the relabeling: row j maps path j's inner flat ids; n is its size."""
    if len(cols) and not 1 <= cols[0] <= cols[-1] <= len(dup.paths):
        raise InvalidInputError(f"collection index outside 1..{len(dup.paths)}")
    g, w, p = emb.graph, emb.inner_layer_size, dup.paths.shape[1]
    inner = np.arange(g.num_layers * w)
    labels = inner // w * (p * w) + np.arange(p)[:, None] * w + inner % w
    keys, edges = [np.empty(0, dtype=np.int64)], g.flat_edges()
    for c, lut in enumerate(path_lut(dup, cols[:, None], np.arange(1, p + 1), w)):
        relabel = np.full(g.n_vertices, -1)
        relabel[lut] = labels
        mapped = np.sort(relabel[edges], axis=1)
        mapped = mapped[mapped[:, 0] >= 0]
        keys.append((c * labels.size + mapped[:, 0]) * labels.size + mapped[:, 1])
    return np.sort(np.concatenate(keys)), labels


def induced_on_upc(emb: EmbeddedGraph, dup: DupGraph, i: int) -> LayeredGraph:
    """Induced subgraph on collection i's blocks, relabeled block-by-block.

    Path j's block of width w maps onto indices [(j-1)*w, j*w), so the
    result is directly comparable with a disjoint union of the family
    members routed along collection i.
    """
    keys, labels = _induced_keys(emb, dup, np.array([i]))
    size = labels.size // emb.graph.num_layers
    edges = np.column_stack(np.divmod(keys, labels.size))
    return LayeredGraph(num_layers=emb.graph.num_layers, layer_size=size,
                        edges=EdgeView((edges,), size, labels.size))


def _union_induced(emb: EmbeddedGraph, dup: DupGraph, family: GraphFamily,
                   cols: np.ndarray) -> bool:
    """Each collection in cols induces exactly the disjoint union of the
    members of family routed along it."""
    got, labels = _induced_keys(emb, dup, cols)
    (owners, _, inner), n = _member_rows(family), labels.size
    c = owners[:, 0] + 1 - cols[0]
    keep = (0 <= c) & (c < len(cols))
    want = np.sort(labels[owners[keep, 1:], inner[keep]], axis=1)
    return np.array_equal(got, np.sort((c[keep] * n + want[:, 0]) * n + want[:, 1]))


def verify_inducedness(
    emb: EmbeddedGraph, dup: DupGraph, family: GraphFamily, i: int
) -> bool:
    """Induced subgraph on collection i equals the family's disjoint union."""
    return _union_induced(emb, dup, family, np.array([i]))


def verify_all_inducedness(emb: EmbeddedGraph, dup: DupGraph, family: GraphFamily) -> bool:
    return _union_induced(emb, dup, family, np.arange(1, dup.params.q + 1))


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
    for k, part in enumerate(emb.graph.edges.parts):
        i, j = divmod(k, dup.params.p)
        fh.writelines(f"emb {i + 1} {j + 1} {a} {b}\n" for a, b in part.tolist())


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
    q, p = dup.params.q, dup.params.p
    prod_size = dup.graph.layer_size * w
    num_layers = dup.graph.num_layers
    seen: set[tuple[int, int]] = set()
    rows = []                    # (member, inner u, inner v) per line
    for line in lines[split + 1 :]:
        parts = line.split()
        if parts[0] != "emb" or len(parts) != 5:
            raise FormatError(f"bad emb line: {line!r}")
        try:
            i, j, a, b = (int(x) for x in parts[1:])
        except ValueError as exc:
            raise FormatError(f"non-integer field in {line!r}") from exc
        if not (1 <= i <= q and 1 <= j <= p):
            raise FormatError(f"collection index out of range in {line!r}")
        if not all(0 <= v < num_layers * prod_size for v in (a, b)):
            raise FormatError(f"vertex id out of range in {line!r}")
        a, b = min(a, b), max(a, b)
        (la, xa), (lb, xb) = divmod(a, prod_size), divmod(b, prod_size)
        if (dup.paths[i - 1, j - 1, [la, lb]] != [xa // w, xb // w]).any():
            raise FormatError(f"edge {line!r} is not aligned with its path block")
        if la == lb:
            raise FormatError(f"edge {line!r} joins two vertices of one layer")
        if (a, b) in seen:
            raise FormatError(f"duplicate embedded edge in {line!r}")
        seen.add((a, b))
        rows.append(((i - 1) * p + j - 1, la * w + xa % w, lb * w + xb % w))
    # routing the members again gives back exactly the edges read: each line
    # is aligned with its path block and no two lines name one edge
    rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
    n = num_layers * w
    groups = _parts(rows[:, 0], rows[:, 1:], edge_keys(rows[:, 1:], n), q * p)
    members = tuple(tuple(LayeredGraph(num_layers, w, EdgeView((g,), w, n))
                          for g in groups[i * p:(i + 1) * p]) for i in range(q))
    family = GraphFamily(q=q, p=p, num_layers=num_layers, layer_size=w, members=members)
    return embed(family, dup), dup, family
