"""Enumeration budgets.

Every exhaustive search in the package (vector enumeration, multiset
search, layered path counting) is capped; for DUP verification the path
cap bounds the path-count frontier rows and, apart, the count table's entries.
The vector cap also bounds the path vertices a DUP build makes and, when
levels are planned, the edges the instance may hold.
Hitting a cap raises BudgetExceededError rather than silently
truncating, so a passing check always means the whole space was covered.  The MISFORGE_BUDGET
environment variable, when set to a positive integer, replaces the
default caps below.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_CAP = 1 << 24

ENV_VAR = "MISFORGE_BUDGET"


@dataclass(frozen=True)
class Budget:
    max_vectors: int = DEFAULT_CAP    # vectors, DUP path vertices, planned instance edges
    max_nodes: int = DEFAULT_CAP      # search-tree nodes in multiset verification
    max_paths: int = DEFAULT_CAP      # frontier rows, and table entries, per DUP verification


def default_budget() -> Budget:
    """Budget from the environment, or the package default."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return Budget()
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise ValueError(f"{ENV_VAR} must be positive, got {cap}")
    return Budget(max_vectors=cap, max_nodes=cap, max_paths=cap)
