"""Disjoint unique-path collection (DUP) graphs.

A DUP graph is a layered graph whose edge set is exactly a union of q
collections of p vertex-disjoint paths, one collection per grid point x,
one path per direction y in a shared average-free set: the path through x
with direction y visits x + m*y in layer m.  Average-freeness makes every
start/finish pair connect by at most one layered path, which is the whole
point -- each collection is a "unique paths" gadget.
"""

import io

from misforge import (
    TooSmallError,
    build_dup,
    build_dup_from_size,
    path_counts,
    read_dup,
    verify_dup,
    write_dup,
)


def show(dup) -> None:
    P = dup.params
    g = dup.graph
    print(f"  ell={P.ell} d={P.d} k={P.k}: {g.num_layers} layers x "
          f"{g.layer_size} vertices, q={P.q} collections of p={P.p} paths, "
          f"{len(g.edges)} edges")


def sizing_table() -> None:
    print("vertex budget -> chosen dimensions (k=1), ranked by (q >= 2, p >= 2, p*q):")
    for n in (5, 6, 24, 72, 200, 1000, 4096):
        try:
            P = build_dup_from_size(n, 1).params
            print(f"  n={n:>5}: ell={P.ell} d={P.d} p={P.p} q={P.q}, "
                  f"uses {2 * P.base_layer_size} vertices")
        except TooSmallError as exc:
            print(f"  n={n:>5}: {exc}")


if __name__ == "__main__":
    dup = build_dup(ell=3, d=2, k=2)
    show(dup)

    report = verify_dup(dup)
    print("  checks:", ", ".join(f"{name}={ok}" for name, ok in report.checks.items()))
    assert report.ok

    # Uniqueness in action: a start reaches its own path's finish by exactly
    # one layered path and every other finish of its collection by none.
    row = path_counts(dup)[0, 0]
    print(f"  from start {(1, int(dup.paths[0, 0, 0]))}: layered paths to each finish "
          f"of collection 1 (capped at 2): {row.tolist()}")

    sizing_table()

    # Round-trip through the text format is byte-stable.
    sized = build_dup_from_size(72, 1)
    buf = io.StringIO()
    write_dup(sized, buf)
    again = io.StringIO()
    write_dup(read_dup(io.StringIO(buf.getvalue())), again)
    print(f"\nformat round-trip stable: {buf.getvalue() == again.getvalue()} "
          f"({len(buf.getvalue())} bytes)")
