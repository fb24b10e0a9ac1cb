"""Reference DUP verification: a per-pair DFS over a dict adjacency.

It enumerates the layered paths between every start/final pair of every
collection, one pair at a time, and reads only tuples: the edge view
``dup.graph.edges`` and each collection's paths as tuples of
``(layer, idx)`` vertices, derived from ``dup.paths`` by ``collection``.
Slow and obviously correct; differential tests require
``misforge.dupgraph.verify_dup``, which counts paths in one capped pass,
to give the same named verdicts.

``coordinate_build_dup`` and ``coordinate_recover_avg_free`` are the
construction and its inverse on grid coordinates, with every path vertex
expanded into a (q, p, k+1, d) array; ``build_dup`` and
``_recover_avg_free`` must give the same results on index arithmetic.

``line_write_dup`` writes a dupg file one f-string per path line;
``write_dup``, which formats a block of lines at a time, must write the
same bytes.
"""

from __future__ import annotations

from embedding_oracle import layered_well_formed
import numpy as np

from misforge.avgfree import AvgFreeSet, Vector, build_avg_free_set
from misforge.budgets import Budget, default_budget
from misforge.dupgraph import DupGraph, DupParams, Edge, LayeredGraph, Vertex, make_edge
from misforge.errors import BudgetExceededError, InvalidInputError
from misforge.numutil import ceil_div
from misforge.report import VerificationReport

Path = tuple[Vertex, ...]


def collection(dup: DupGraph, i: int) -> list[Path]:
    """Collection i's paths (1-based i) as tuples of (layer, idx) vertices."""
    return [tuple(enumerate(row, start=1)) for row in dup.paths[i - 1].tolist()]


def encode_vector(v: Vector, side: int) -> int:
    """Grid vector in {1..side}^d to its layer index, first coordinate most
    significant."""
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


def path_edges(path: Path):
    for a, b in zip(path, path[1:]):
        yield make_edge(a, b)


def is_layered(path: Path) -> bool:
    return all(b[0] == a[0] + 1 for a, b in zip(path, path[1:]))


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
) -> list[Path]:
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
    found: list[Path] = []
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
                    found.append(prefix + (t,))
            continue
        for nxt in forward.get(head, ()):
            stack.append(prefix + (nxt,))
    found.sort()
    return found


def verify_upc(
    graph: LayeredGraph, upc: list[Path], budget: Budget | None = None,
    forward: dict[Vertex, list[Vertex]] | None = None,
) -> bool:
    """Check one collection against the whole graph it lives in."""
    budget = budget or default_budget()
    if forward is None:
        forward = forward_adjacency(graph)
    seen: set[Vertex] = set()
    for path in upc:
        if len(path) != graph.num_layers:
            return False
        if path[0][0] != 1 or not is_layered(path):
            return False
        if any(not graph.has_vertex(v) for v in path):
            return False
        if any(e not in graph.edges for e in path_edges(path)):
            return False
        if seen & set(path):
            return False
        seen.update(path)
    ends = {(p[0], p[-1]): p for p in upc}
    for s in (p[0] for p in upc):
        for t in (p[-1] for p in upc):
            paths = enumerate_layered_paths(graph, s, t, budget, forward=forward)
            expected = [ends[(s, t)]] if (s, t) in ends else []
            if paths != expected:
                return False
    return True


def recover_avg_free(dup: DupGraph) -> AvgFreeSet | None:
    """Reconstruct the direction set from path coordinates, if coherent."""
    params = dup.params
    side = params.side
    directions: list[Vector] | None = None
    for i in range(1, len(dup.paths) + 1):
        shift: Vector | None = None
        dirs = []
        for path in collection(dup, i):
            if len(path) < 2:
                return None
            if any(idx >= params.base_layer_size for _, idx in path):
                return None
            vecs = [decode_index(idx, side, params.d) for _, idx in path]
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


def line_write_dup(dup: DupGraph, fh) -> None:
    params = dup.params
    fh.write(
        f"dupg 1 {dup.paths.shape[-1]} {dup.layer_size} {params.p} {params.q} "
        f"{params.ell} {params.d}\n"
    )
    for i, rows in enumerate(dup.paths.tolist(), start=1):
        for j, row in enumerate(rows, start=1):
            fh.write(f"upc {i} {j} {' '.join(map(str, row))}\n")
    for pad in params.padded:
        fh.write(f"pad {pad}\n")


def coordinate_build_dup(ell: int, d: int, k: int, budget: Budget | None = None) -> DupGraph:
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
    x = np.indices((ell,) * d).reshape(d, q).T + 1                 # shifts, lexicographic
    y = np.array(a_set.members, dtype=np.int64).reshape(p, d)      # directions
    m = np.arange(1, k + 2)[:, None]
    coords = x[:, None, None, :] + m * y[None, :, None, :]         # (q, p, k+1, d)
    paths = (coords - 1) @ side ** np.arange(d - 1, -1, -1, dtype=np.int64)
    params = DupParams(ell=ell, d=d, k=k, p=p, q=q, padded=(0,) * (k + 1))
    return DupGraph(paths=paths, layer_size=side**d, params=params, avg_free=a_set)


def coordinate_recover_avg_free(dup: DupGraph) -> AvgFreeSet | None:
    """Reconstruct the direction set from path coordinates, if coherent."""
    params, paths = dup.params, dup.paths
    if 0 in paths.shape or paths.shape[-1] < 2:
        return None
    if not ((0 <= paths) & (paths < params.base_layer_size)).all():
        return None
    ell, side = params.ell, params.side
    vecs = paths[..., None] // side ** np.arange(params.d - 1, -1, -1) % side + 1
    y = vecs[:, :, 1] - vecs[:, :, 0]                   # (q, p, d)
    x = vecs[:, :, 0] - y
    m = np.arange(1, paths.shape[-1] + 1)[:, None]
    coherent = (((1 <= y) & (y <= ell)).all() and ((1 <= x) & (x <= ell)).all()
                and (vecs == x[:, :, None] + m * y[:, :, None]).all()
                and (x == x[:, :1]).all() and (y == y[:1]).all())
    directions = sorted(map(tuple, y[0].tolist()))
    norms = (y[0] ** 2).sum(axis=1)
    if not coherent or len(set(directions)) != len(directions) or (norms != norms[0]).any():
        return None
    return AvgFreeSet(ell=ell, d=params.d, norm_sq=int(norms[0]), members=tuple(directions))


def verify_dup(dup: DupGraph, budget: Budget | None = None) -> VerificationReport:
    """Structural report: layering, edge partition, every collection unique."""
    budget = budget or default_budget()
    params = dup.params
    report = VerificationReport()
    graph = dup.graph
    report.add("layering", layered_well_formed(graph)
               and all(abs(u[0] - v[0]) == 1 for u, v in graph.edges))
    report.add("layer_count", graph.num_layers == params.k + 1,
               f"expected {params.k + 1} layers, found {graph.num_layers}")
    report.add(
        "padding",
        len(params.padded) == graph.num_layers
        and all(c == graph.layer_size - params.base_layer_size for c in params.padded),
        "pad counts disagree with layer size",
    )

    counts = {params.q == len(dup.paths), params.q == params.ell**params.d}
    counts.add(all(len(collection(dup, i)) == params.p for i in range(1, len(dup.paths) + 1)))
    report.add("collection_counts", all(counts),
               f"expected q={params.q} collections of p={params.p} paths")
    bound = ceil_div(params.ell**params.d, params.d * params.ell**2)
    report.add("direction_count_bound", params.p >= bound,
               f"p={params.p} below pigeonhole bound {bound}")

    covered: dict[Edge, int] = {}
    for i in range(1, len(dup.paths) + 1):
        for path in collection(dup, i):
            for e in path_edges(path):
                covered[e] = covered.get(e, 0) + 1
    partition_ok = set(covered) == set(graph.edges) and all(c == 1 for c in covered.values())
    report.add("edge_partition", partition_ok,
               "path edges do not partition the edge set")

    recovered = recover_avg_free(dup)
    consistent = recovered is not None and (
        dup.avg_free is None or recovered.members == dup.avg_free.members
    )
    report.add("construction_consistent", consistent,
               "paths are not arithmetic progressions over a single direction set")

    all_upcs_ok = True
    forward = forward_adjacency(graph)
    for i in range(1, len(dup.paths) + 1):
        if not verify_upc(graph, collection(dup, i), budget, forward=forward):
            all_upcs_ok = False
            report.add("unique_paths", False, f"collection {i} fails")
            break
    if all_upcs_ok:
        report.add("unique_paths", True)
    return report
