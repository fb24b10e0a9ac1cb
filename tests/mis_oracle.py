"""Reference MIS checks for the differential tests in ``test_oracle.py``.

``misforge.oracle.is_mis`` maps labels to flat-id positions and runs one
mask check over edge sections; ``is_mis`` here is the set-based loop it
replaced, one ``(u, v)`` pair per edge.  ``misforge.oracle.enumerate_all_mis``
runs its own Bron-Kerbosch search over bitmasks; ``enumerate_all_mis``
here is the networkx complement-clique version it replaced, over the
sorted tuple view ``vertex_edge_view``.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx

from misforge.errors import BudgetExceededError
from misforge.oracle import _vertices_and_edges


def vertex_edge_view(graph) -> tuple[list, list]:
    """Normalize the supported graph shapes to sorted (vertices, edges)."""
    vertices, edges = _vertices_and_edges(graph)
    return sorted(vertices), sorted(tuple(e) for e in edges)


def is_mis(graph, candidate) -> bool:
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


def enumerate_all_mis(graph, max_vertices: int = 24) -> list[frozenset]:
    """Every maximal independent set, as maximal cliques of the complement."""
    vertices, edges = vertex_edge_view(graph)
    if len(vertices) > max_vertices:
        raise BudgetExceededError(
            f"{len(vertices)} vertices exceed the enumeration cap {max_vertices}"
        )
    if not vertices:
        return [frozenset()]
    comp = nx.Graph()
    comp.add_nodes_from(vertices)
    present = {frozenset(e) for e in edges}
    comp.add_edges_from(
        (u, v) for u, v in combinations(vertices, 2) if frozenset((u, v)) not in present
    )
    sets = [frozenset(c) for c in nx.find_cliques(comp)]
    return sorted(sets, key=lambda s: sorted(s))
