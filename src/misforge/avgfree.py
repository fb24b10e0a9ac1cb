"""Average-free sets of integer vectors.

A set A of vectors from the grid {1..ell}^d is average-free when the
coordinate-wise average of any multiset of its members that are not all
equal lies outside A.  Picking all grid vectors of one squared length
gives such a set: averaging distinct vectors of equal length strictly
shrinks the length (Cauchy-Schwarz is tight only on parallel vectors),
so the average can never land back on the set.  The grid has at most
d*ell^2 distinct squared lengths, hence the biggest length class has at
least ell^d / (d*ell^2) members.

build_avg_free_set returns that biggest class.  verify_avg_free is an
independent exhaustive check of the averaging property; it does not
assume the input came from the builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .budgets import Budget, default_budget
from .errors import BudgetExceededError, InvalidInputError

Vector = tuple[int, ...]


@dataclass(frozen=True)
class AvgFreeSet:
    ell: int
    d: int
    norm_sq: int
    members: tuple[Vector, ...]   # sorted lexicographically

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def _member_set(self) -> frozenset[Vector]:
        return frozenset(self.members)

    def __contains__(self, v) -> bool:
        return tuple(v) in self._member_set


def build_avg_free_set(ell: int, d: int, budget: Budget | None = None) -> AvgFreeSet:
    """Largest equal-squared-length class of {1..ell}^d.

    Ties between classes of equal size go to the smaller squared length.
    """
    if ell < 1 or d < 1:
        raise InvalidInputError(f"need ell >= 1 and d >= 1, got ell={ell}, d={d}")
    budget = budget or default_budget()
    total = ell**d
    if total > budget.max_vectors:
        raise BudgetExceededError(
            f"ell^d = {total} exceeds vector enumeration cap {budget.max_vectors}"
        )
    classes: dict[int, list[Vector]] = {}
    for v in product(range(1, ell + 1), repeat=d):
        classes.setdefault(sum(c * c for c in v), []).append(v)
    best_size = max(len(vs) for vs in classes.values())
    norm_sq = min(s for s, vs in classes.items() if len(vs) == best_size)
    return AvgFreeSet(ell=ell, d=d, norm_sq=norm_sq, members=tuple(sorted(classes[norm_sq])))


def well_formed(a_set: AvgFreeSet) -> bool:
    """Structural sanity: members in range, distinct, all of the declared length."""
    seen = set()
    for v in a_set.members:
        if len(v) != a_set.d:
            return False
        if any(c < 1 or c > a_set.ell for c in v):
            return False
        if sum(c * c for c in v) != a_set.norm_sq:
            return False
        if v in seen:
            return False
        seen.add(v)
    return len(seen) > 0


def verify_avg_free(
    a_set: AvgFreeSet, max_multiset_size: int, budget: Budget | None = None
) -> bool:
    """Exhaustively check the averaging property for multiset sizes 2..max.

    A multiset of t members averaging to a member a is the same thing as
    a non-decreasing t-tuple of members summing to t*a, all in integer
    arithmetic, so the check is exact.  The all-equal tuple (a,...,a)
    always sums to t*a; the property holds iff it is the only one.  The
    search prunes on per-coordinate bounds: after picking a partial
    tuple, each of the m remaining picks contributes between 1 and ell
    per coordinate.
    """
    if max_multiset_size < 2:
        raise InvalidInputError("max_multiset_size must be at least 2")
    budget = budget or default_budget()
    members = a_set.members
    if len(members) <= 1:
        return True
    arr = np.asarray(members, dtype=np.int64)
    index_of = {v: i for i, v in enumerate(members)}
    nodes = 0
    for t in range(2, max_multiset_size + 1):
        for a in members:
            target = t * arr[index_of[a]]
            count = 0
            stack = [(0, t, target)]
            while stack:
                start, m, residual = stack.pop()
                nodes += 1
                if nodes > budget.max_nodes:
                    raise BudgetExceededError(
                        f"multiset search exceeded node cap {budget.max_nodes}"
                    )
                if m == 1:
                    j = index_of.get(tuple(int(c) for c in residual))
                    if j is not None and j >= start:
                        count += 1
                        if count >= 2:
                            break
                    continue
                lo = residual - (m - 1) * a_set.ell
                hi = residual - (m - 1)
                sub = arr[start:]
                feasible = np.flatnonzero(np.all((sub >= lo) & (sub <= hi), axis=1))
                for off in feasible:
                    idx = start + int(off)
                    stack.append((idx, m - 1, residual - arr[idx]))
            if count != 1:
                return False
    return True


if __name__ == "__main__":
    for ell, d in [(2, 2), (3, 2), (1, 3), (8, 4)]:
        s = build_avg_free_set(ell, d)
        print(
            f"ell={ell} d={d}: |A|={s.size} norm_sq={s.norm_sq} "
            f"avg-free(t<=5)={verify_avg_free(s, 5)}"
        )
