"""Average-free sets of integer vectors.

A set A of vectors from the grid {1..ell}^d is average-free when the
coordinate-wise average of any multiset of its members that are not all
equal lies outside A.  Picking all grid vectors of one squared length
gives such a set: averaging distinct vectors of equal length strictly
shrinks the length (Cauchy-Schwarz is tight only on parallel vectors),
so the average can never land back on the set.  The grid has at most
d*ell^2 distinct squared lengths, hence the biggest length class has at
least ell^d / (d*ell^2) members.

build_avg_free_set returns that biggest class, found with numpy over
the whole grid in lexicographic order.  verify_avg_free is an
independent exhaustive check of the averaging property; it does not
assume the input came from the builder.  It searches the multisets of
each size as one tree of partial sums, expanding a block of search
states per numpy step: each state's feasible next picks are an AND of
per-coordinate packed-bit member masks, and a completed sum is looked
up among the members by a binary search over their sorted rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .budgets import Budget, default_budget
from .errors import BudgetExceededError, InvalidInputError

Vector = tuple[int, ...]

# Search states expanded per numpy step.  The children of one block are
# materialised at once, so the block size bounds the live frontier, and
# with it peak memory: on (8, 4) a block of 2048 leaves up to 42 k live
# states, one of 256 about 8 k, at a few percent more time.
BLOCK = 256

# d is bounded before ell^d or the grid is built.  No grid of d > 63 is
# usable: for ell >= 2 it has at least 2^64 vectors, and a DUP grid (side
# at least 3) already outgrows int64 vertex ids at d = 40.
MAX_D = 63


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
    if ell < 1 or not 1 <= d <= MAX_D:
        raise InvalidInputError(f"need ell >= 1 and 1 <= d <= {MAX_D}, got ell={ell}, d={d}")
    budget = budget or default_budget()
    total = ell**d
    if total > budget.max_vectors:
        raise BudgetExceededError(
            f"ell^d = {total} exceeds vector enumeration cap {budget.max_vectors}"
        )
    # row i holds the base-ell digits of i, most significant first, plus 1
    grid = np.arange(total)[:, None] // ell ** np.arange(d - 1, -1, -1) % ell + 1
    norms = (grid * grid).sum(axis=1)
    lengths, sizes = np.unique(norms, return_counts=True)
    norm_sq = int(lengths[np.argmax(sizes)])   # the first maximum: the smaller length
    members = grid[norms == norm_sq].tolist()
    return AvgFreeSet(ell=ell, d=d, norm_sq=norm_sq, members=tuple(map(tuple, members)))


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


def _member_array(a_set: AvgFreeSet) -> np.ndarray:
    """The members as an (n, d) int64 array, each row in {1..ell}^d."""
    ell, d = a_set.ell, a_set.d
    if ell < 1 or d < 1:
        raise InvalidInputError(f"need ell >= 1 and d >= 1, got ell={ell}, d={d}")
    if not a_set.members:
        return np.zeros((0, d), dtype=np.int64)
    try:
        arr = np.asarray(a_set.members, dtype=np.int64)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InvalidInputError(f"members must be integer vectors of one length: {exc}") from exc
    if arr.ndim != 2 or arr.shape[1] != d or arr.min() < 1 or arr.max() > ell:
        raise InvalidInputError(f"members must lie in {{1..{ell}}}^{d}")
    return arr


class _Children:
    """Vectorised child test and member lookup of the multiset search.

    For coordinate c, ``values[c]`` are the distinct member values and
    ``below[c][k]`` is the packed bit mask of the members whose value is
    smaller than ``values[c][k]`` (all members for k = len(values[c])).
    ``from_start[s]`` masks the indices j >= s.  The children of a block
    of states are then a few row gathers and ANDs of packed bits, one per
    coordinate and bound.
    """

    def __init__(self, arr: np.ndarray):
        n, d = arr.shape
        self.arr = arr
        self.values = [np.unique(arr[:, c]) for c in range(d)]
        self.below = []
        for c, vals in enumerate(self.values):
            rank = np.searchsorted(vals, arr[:, c])
            self.below.append(np.packbits(rank < np.arange(len(vals) + 1)[:, None], axis=1))
        self.from_start = np.packbits(np.arange(n) >= np.arange(n + 1)[:, None], axis=1)
        # Rows as big-endian bytes compare in lexicographic order (every
        # value is positive), so a stable sort of the members and a binary
        # search find a vector; ``order`` maps back to member indices.  With
        # stability the last of equal rows has the largest index.
        keys = self._keys(arr)
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]

    @staticmethod
    def _keys(vecs: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(vecs, dtype=">i8")
        return rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel()

    def of(self, start: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """(state, j) pairs: j >= start[state] and lo <= arr[j] <= hi per coordinate."""
        bits = self.from_start[start]
        for c, vals in enumerate(self.values):
            below = self.below[c]
            bits &= below[np.searchsorted(vals, hi[:, c], side="right")]
            bits &= ~below[np.searchsorted(vals, lo[:, c], side="left")]
        return np.nonzero(np.unpackbits(bits, axis=1, count=len(self.arr)))

    def member_index(self, vecs: np.ndarray) -> np.ndarray:
        """The last index of each row of vecs among the members, or -1."""
        pos = np.searchsorted(self.keys, self._keys(vecs), side="right") - 1
        found = (pos >= 0) & np.all(self.arr[self.order[pos]] == vecs, axis=1)
        return np.where(found, self.order[pos], -1)


def verify_avg_free(
    a_set: AvgFreeSet, max_multiset_size: int, budget: Budget | None = None
) -> bool:
    """Exhaustively check the averaging property for multiset sizes 2..max.

    A multiset of t members averaging to a member a is the same thing as
    a non-decreasing t-tuple of member indices whose vectors sum to t*a,
    all in integer arithmetic, so the check is exact.  The all-equal
    tuple (a,...,a) always sums to t*a; the property holds iff it is the
    only one.

    The search tree: a state (start, m, residual) needs m more picks, each
    of index at least start, summing to residual.  Each pick contributes
    between 1 and ell per coordinate, so its children are the indices
    j >= start with residual - (m-1)*ell <= arr[j] <= residual - (m-1) in
    every coordinate.  At m = 1 the state is a hit when residual is a
    member of index at least start.  For each t every root t*a must get
    exactly one hit.

    All |A| roots of one t are searched together, depth-first, a block of
    up to BLOCK states of one depth per numpy step; ``owner`` records each
    state's root.  Every state counts as one node against
    ``budget.max_nodes``, and BudgetExceededError is raised as soon as the
    running total passes it.  On an average-free set the whole tree is
    visited, so the total, and the cap at which the check raises, equal
    those of a one-state-at-a-time depth-first search.  On a set that is
    not average-free, that search stops at the first root with a second
    hit, while here all roots advance together until some root has two
    hits: the verdict is the same False, but it may come after more
    nodes, so a cap that the one-state search stays under can raise here.

    Raises InvalidInputError for ell < 1 or d < 1, for ragged members and
    for members outside {1..ell}^d.
    """
    if max_multiset_size < 2:
        raise InvalidInputError("max_multiset_size must be at least 2")
    budget = budget or default_budget()
    arr = _member_array(a_set)
    n = len(arr)
    if n <= 1:
        return True
    children = _Children(arr)
    nodes = 0

    def visit(count: int) -> None:
        nonlocal nodes
        nodes += count
        if nodes > budget.max_nodes:
            raise BudgetExceededError(f"multiset search exceeded node cap {budget.max_nodes}")

    for t in range(2, max_multiset_size + 1):
        hits = np.zeros(n, dtype=np.int64)
        # frames of states (m, start, residual, owner), deepest last
        stack = [(t, np.zeros(n, dtype=np.int64), t * arr, np.arange(n))]
        while stack:
            m, start, residual, owner = stack[-1]
            if len(start) > BLOCK:
                stack[-1] = (m, start[:-BLOCK], residual[:-BLOCK], owner[:-BLOCK])
                start, residual, owner = start[-BLOCK:], residual[-BLOCK:], owner[-BLOCK:]
            else:
                stack.pop()
            visit(len(start))
            rows, js = children.of(start, residual - (m - 1) * a_set.ell, residual - (m - 1))
            if not len(js):
                continue
            residual, owner = residual[rows] - arr[js], owner[rows]
            if m > 2:
                stack.append((m - 1, js, residual, owner))
                continue
            visit(len(js))   # the m = 1 leaves
            hit = children.member_index(residual) >= js
            hits += np.bincount(owner[hit], minlength=n)
            if hits.max() >= 2:
                return False
        if np.any(hits != 1):
            return False
    return True
