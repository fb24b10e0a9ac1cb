"""Reference for build_dup_from_size's choice of (ell, d).

It ranks every (ell, d) whose k+1 layers of side (k+2)*ell fit n
vertices, not only the largest ell of each d, by (q >= 2, p >= 2,
p * q), ties going to the smaller d and then to the larger ell.  p is the
size of the direction set build_avg_free_set gives, q = ell^d.
"""

from __future__ import annotations

from functools import lru_cache

from misforge.avgfree import build_avg_free_set


@lru_cache(maxsize=None)
def direction_count(ell: int, d: int) -> int:
    return build_avg_free_set(ell, d).size


def best_dimensions(n: int, k: int) -> tuple[int, int] | None:
    """The best (ell, d) on at most n vertices, or None if none fits."""
    best, best_key = None, None
    d = 1
    while (k + 1) * (k + 2) ** d <= n:
        ell = 1
        while (k + 1) * ((k + 2) * ell) ** d <= n:
            p, q = direction_count(ell, d), ell**d
            key = (q >= 2, p >= 2, p * q, -d, ell)
            if best_key is None or key > best_key:
                best, best_key = (ell, d), key
            ell += 1
        d += 1
    return best
