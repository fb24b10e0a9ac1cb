"""Every maximal independent set via networkx: the reference enumeration.

``misforge.oracle.enumerate_all_mis`` runs its own Bron-Kerbosch search
over bitmasks; this is the networkx complement-clique version it
replaced, kept as the oracle for the differential tests in
``test_oracle.py``.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx

from misforge.errors import BudgetExceededError
from misforge.oracle import vertex_edge_view


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
