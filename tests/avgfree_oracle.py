"""Per-node average-free search and dict builder: slow, obviously-correct
reference code.

This is the multiset search one state at a time, with a Python stack and
one small numpy call per state.  ``misforge.avgfree.verify_avg_free``
expands a block of states per numpy step; the differential tests in
``test_avgfree.py`` require both to give the same verdict and, on
average-free sets, to visit the same number of search nodes.  The dict
builder is what ``build_avg_free_set`` computed before it used numpy.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def dfs_avg_free(a_set, max_multiset_size: int) -> tuple[bool, int]:
    """(verdict, nodes visited) of the depth-first multiset search.

    A state is (start, m, residual): m more picks, each of index at least
    start, must sum to residual.  Its children are the indices j >= start
    whose vector fits between residual - (m-1)*ell and residual - (m-1) in
    every coordinate.  At m = 1 the state is a hit when residual is a
    member of index at least start.  Each root t*a must have exactly one
    hit, the all-equal tuple.  A root's search stops at its second hit
    and the whole check at the first root without exactly one.
    """
    members = a_set.members
    if len(members) <= 1:
        return True, 0
    arr = np.asarray(members, dtype=np.int64)
    index_of = {v: i for i, v in enumerate(members)}
    nodes = 0
    for t in range(2, max_multiset_size + 1):
        for a in members:
            count = 0
            stack = [(0, t, t * arr[index_of[a]])]
            while stack:
                start, m, residual = stack.pop()
                nodes += 1
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
                return False, nodes
    return True, nodes


def dict_build_members(ell: int, d: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(norm_sq, members) of the largest equal-squared-length class, by a
    dict over ``itertools.product``; ties go to the smaller length."""
    classes: dict[int, list[tuple[int, ...]]] = {}
    for v in product(range(1, ell + 1), repeat=d):
        classes.setdefault(sum(c * c for c in v), []).append(v)
    best_size = max(len(vs) for vs in classes.values())
    norm_sq = min(s for s, vs in classes.items() if len(vs) == best_size)
    return norm_sq, tuple(sorted(classes[norm_sq]))
