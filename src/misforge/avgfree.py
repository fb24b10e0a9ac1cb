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
states of one depth per numpy step, leaves included.  Member sets are
rows of uint64 words, one bit per member.  Per depth and coordinate an
interval table maps a residual, by one binary search over at most 2u
breakpoints (u distinct member values), to the word mask of the members
that fit the depth's box, so a block's children are one row gather and
AND per coordinate; at the last pick the box is a single point and a
leaf is a hit when its mask is not empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .budgets import Budget, default_budget
from .errors import BudgetExceededError, InvalidInputError

Vector = tuple[int, ...]

# Search states expanded per numpy step.  A block's children are kept as
# 8-byte pairs, so the block size mostly bounds the numpy temporaries of
# one step.  On (8, 4) up to t = 5, the tracemalloc peak of a first call
# (1.16 MB of it numpy's lazy imports) is 1.40 MB at 512, 1.64 MB at 1024
# and 2.11 MB at 2048, where 1024 takes about 20 % more time than 2048.
BLOCK = 1024

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


def _words(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D bool array as packed uint64 words, bit j of a row
    (in packbits order) standing for column j."""
    padded = np.zeros((len(rows), -(-rows.shape[1] // 64) * 64), dtype=bool)
    padded[:, :rows.shape[1]] = rows
    return np.packbits(padded, axis=1).view(np.uint64)


def _box_tables(arr: np.ndarray, ell: int, m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per coordinate c, the members inside the level-m box as a function
    of the residual r: member j fits when arr[j, c] + (m-1) <= r <= arr[j, c]
    + (m-1)*ell, so the fitting set only changes at the sorted breakpoints
    v + m-1 and v + (m-1)*ell + 1 of the distinct values v.  Row
    searchsorted(breaks, r, "right") of ``masks`` is its word mask: row 0
    (r below every breakpoint) is empty, and row i holds the members fitting
    at breaks[i-1].  Sized by the distinct values, never by ell."""
    tables = []
    for col in arr.T:
        breaks = np.unique(np.r_[col + (m - 1), col + (m - 1) * ell + 1])
        at = breaks[:, None]
        fits = (col + (m - 1) <= at) & (at <= col + (m - 1) * ell)
        tables.append((breaks, _words(np.vstack([np.zeros_like(col, dtype=bool), fits]))))
    return tables


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
    every coordinate.  At m = 1 that box is the single point residual, so
    a leaf's children are the members equal to residual of index at least
    start, and the leaf is a hit when it has any: the last such index is
    at least start, which also holds when members repeat.  For each t
    every root t*a must get exactly one hit.

    All |A| roots of one t are searched together, depth-first, a block of
    up to BLOCK states of one depth per numpy step, leaves included.  A
    state's children are one word-mask row AND per coordinate, looked up
    in the level's box tables (_box_tables) by one searchsorted, over the
    row of indices >= start.  A frame keeps the children of a block as
    flat pairs row * |A| + j over the block's residuals and root owners,
    8 bytes a state.  Every state counts as one node against
    ``budget.max_nodes`` when its block is taken, and BudgetExceededError
    is raised as soon as the running total passes it.  On an average-free
    set the whole tree is visited, so the total, and the cap at which the
    check raises, equal those of a one-state-at-a-time depth-first search.
    On a set that is not average-free, that search stops at the first root
    with a second hit, while here all roots advance together until some
    root has two hits: the verdict is the same False, but it may come
    after more nodes, so a cap that the one-state search stays under can
    raise here.

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
    from_start = _words(np.arange(n) >= np.arange(n + 1)[:, None])   # row s: j >= s
    boxes = [None] + [_box_tables(arr, a_set.ell, m) for m in range(1, max_multiset_size + 1)]
    nodes = 0
    for t in range(2, max_multiset_size + 1):
        hits = np.zeros(n, dtype=np.int64)
        # frames (m, pairs, base, owner), deepest last: pair row * n + j is
        # the state of start j, residual base[row] - arr[j] and root
        # owner[row].  Root a_i is pair i * n + 0 over base t * a_i + arr[0].
        stack = [(t, np.arange(n) * n, t * arr + arr[0], np.arange(n))]
        while stack:
            m, pairs, base, owner = stack[-1]
            if len(pairs) > BLOCK:
                stack[-1] = (m, pairs[:-BLOCK], base, owner)
                pairs = pairs[-BLOCK:]
            else:
                stack.pop()
            nodes += len(pairs)
            if nodes > budget.max_nodes:
                raise BudgetExceededError(f"multiset search exceeded node cap {budget.max_nodes}")
            rows, start = np.divmod(pairs, n)
            residual, owner = base[rows] - arr[start], owner[rows]
            bits = from_start[start]
            for c, (breaks, masks) in enumerate(boxes[m]):
                bits &= masks[np.searchsorted(breaks, residual[:, c], side="right")]
            if m == 1:
                hits += np.bincount(owner[bits.any(axis=1)], minlength=n)
                if hits.max() >= 2:
                    return False
                continue
            pairs = np.flatnonzero(np.unpackbits(bits.view(np.uint8), axis=1, count=n).view(bool))
            if len(pairs):
                stack.append((m - 1, pairs, residual, owner))
        if np.any(hits != 1):
            return False
    return True
