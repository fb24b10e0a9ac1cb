import io

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misforge import (
    DimensionMismatchError,
    FormatError,
    GraphFamily,
    build_dup,
    embed,
    induced_on_upc,
    read_embedded,
    verify_all_inducedness,
    verify_inducedness,
    write_embedded,
)
from misforge.dupgraph import DupGraph, LayeredGraph, make_edge
from misforge.embedding import EmbeddedGraph


def empty_family(dup, w):
    g = dup.graph
    p = dup.params
    empty = LayeredGraph(num_layers=g.num_layers, layer_size=w, edges=frozenset())
    return GraphFamily(
        q=p.q, p=p.p, num_layers=g.num_layers, layer_size=w,
        members=tuple(tuple(empty for _ in range(p.p)) for _ in range(p.q)),
    )


def random_family(dup, w, rng):
    g = dup.graph
    p = dup.params
    pairs = [
        (make_edge((layer, a), (layer + 1, b)))
        for layer in range(1, g.num_layers)
        for a in range(w)
        for b in range(w)
    ]
    members = []
    for _ in range(p.q):
        row = []
        for _ in range(p.p):
            chosen = frozenset(e for e in pairs if rng.random() < 0.4)
            row.append(LayeredGraph(g.num_layers, w, chosen))
        members.append(tuple(row))
    return GraphFamily(q=p.q, p=p.p, num_layers=g.num_layers, layer_size=w,
                       members=tuple(members))


def test_single_edge_family():
    dup = build_dup(2, 1, 1)
    w = 2
    fam = empty_family(dup, w)
    inner = LayeredGraph(2, w, frozenset({((1, 0), (2, 1))}))
    members = [list(row) for row in fam.members]
    members[0][0] = inner
    fam = GraphFamily(fam.q, fam.p, fam.num_layers, fam.layer_size,
                      tuple(tuple(r) for r in members))
    emb = embed(fam, dup)
    path = dup.upcs[0].paths[0].vertices
    expect = make_edge((1, path[0][1] * w + 0), (2, path[1][1] * w + 1))
    assert emb.graph.edges == frozenset({expect})


def test_all_empty_family():
    dup = build_dup(2, 2, 1)
    emb = embed(empty_family(dup, 3), dup)
    assert emb.graph.edges == frozenset()
    assert emb.graph.layer_size == dup.graph.layer_size * 3


@given(seed=st.integers(0, 10_000))
@settings(deadline=None, max_examples=40)
def test_edge_counts_add_up(seed):
    import random

    rng = random.Random(seed)
    dup = build_dup(2, 1, 1) if seed % 2 else build_dup(2, 2, 1)
    fam = random_family(dup, rng.randrange(1, 4), rng)
    emb = embed(fam, dup)
    total = sum(len(h.edges) for row in fam.members for h in row)
    assert len(emb.graph.edges) == total
    assert len(emb.provenance) == total


def test_shape_mismatch_rejected():
    dup = build_dup(2, 1, 1)
    fam = empty_family(dup, 2)
    with pytest.raises(DimensionMismatchError):
        embed(GraphFamily(fam.q + 1, fam.p, fam.num_layers, fam.layer_size,
                          fam.members + (fam.members[0],)), dup)


def test_induced_subgraph_is_relabeled_copy():
    import random

    rng = random.Random(5)
    dup = build_dup(2, 1, 1)
    w = 3
    fam = random_family(dup, w, rng)
    emb = embed(fam, dup)
    for i in range(1, fam.q + 1):
        got = induced_on_upc(emb, dup, i)
        expected = set()
        for j, h in enumerate(fam.members[i - 1], start=1):
            off = (j - 1) * w
            expected |= {
                make_edge((la, a + off), (lb, b + off)) for (la, a), (lb, b) in h.edges
            }
        assert set(got.edges) == expected


def test_relabeled_copy_is_isomorphic():
    import random

    rng = random.Random(9)
    dup = build_dup(3, 1, 1)
    fam = random_family(dup, 3, rng)
    emb = embed(fam, dup)
    got = induced_on_upc(emb, dup, 1)
    direct = nx.Graph()
    for j, h in enumerate(fam.members[0], start=1):
        for (la, a), (lb, b) in h.edges:
            direct.add_edge((j, la, a), (j, lb, b))
    mirror = nx.Graph()
    mirror.add_edges_from(got.edges)
    assert nx.is_isomorphic(direct, mirror)


def test_inducedness_holds_on_dup():
    import random

    rng = random.Random(3)
    for dup in (build_dup(2, 1, 1), build_dup(2, 2, 1), build_dup(2, 1, 3)):
        fam = random_family(dup, 2, rng)
        emb = embed(fam, dup)
        assert verify_all_inducedness(emb, dup, fam)


def test_shortcut_host_breaks_inducedness():
    """Embedding into a host whose 'collection' is not unique-path lets a
    foreign block edge leak into the induced subgraph."""
    paths = np.array([[[0, 0, 0], [1, 1, 1]]])
    edges = {
        make_edge((1, 0), (2, 0)), make_edge((2, 0), (3, 0)),
        make_edge((1, 1), (2, 1)), make_edge((2, 1), (3, 1)),
        make_edge((2, 0), (3, 1)),  # shortcut between the two paths
    }
    g = LayeredGraph(num_layers=3, layer_size=2, edges=frozenset(edges))
    from misforge.dupgraph import DupParams

    params = DupParams(ell=1, d=1, k=2, p=2, q=1, padded=(0, 0, 0))
    host = DupGraph(paths=paths, layer_size=2, params=params, avg_free=None,
                    edges=g.edge_array())
    w = 1
    inner_a = LayeredGraph(3, w, frozenset({((1, 0), (2, 0))}))
    inner_b = LayeredGraph(3, w, frozenset({((2, 0), (3, 0))}))
    fam = GraphFamily(q=1, p=2, num_layers=3, layer_size=w,
                      members=((inner_a, inner_b),))
    emb = embed(fam, host)
    # route an edge along the shortcut to make the induced union too big
    extra = make_edge((2, 0 * w), (3, 1 * w))
    bigger = LayeredGraph(emb.graph.num_layers, emb.graph.layer_size,
                          emb.graph.edges | {extra})
    emb = EmbeddedGraph(graph=bigger, provenance=emb.provenance,
                        inner_layer_size=emb.inner_layer_size)
    assert not verify_inducedness(emb, host, fam, 1)


def test_p_equal_one_reduces_to_induced_copy():
    import random

    rng = random.Random(1)
    dup = build_dup(2, 1, 1)
    assert dup.params.p == 1
    fam = random_family(dup, 3, rng)
    emb = embed(fam, dup)
    for i in range(1, fam.q + 1):
        got = induced_on_upc(emb, dup, i)
        inner = fam.members[i - 1][0]
        assert set(got.edges) == set(inner.edges)


def test_embedded_roundtrip():
    import random

    rng = random.Random(7)
    dup = build_dup(2, 2, 1)
    fam = random_family(dup, 2, rng)
    emb = embed(fam, dup)
    buf = io.StringIO()
    write_embedded(emb, dup, buf)
    emb2, dup2, fam2 = read_embedded(io.StringIO(buf.getvalue()))
    assert emb2.graph == emb.graph
    assert dup2.graph == dup.graph
    assert fam2 == fam
    buf2 = io.StringIO()
    write_embedded(emb2, dup2, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_embedded_rejects_non_integer_fields():
    import random

    dup = build_dup(2, 2, 1)
    buf = io.StringIO()
    write_embedded(embed(random_family(dup, 2, random.Random(7)), dup), dup, buf)
    lines = buf.getvalue().splitlines()
    at = next(n for n, line in enumerate(lines) if line.startswith("emb "))
    for field in range(1, 5):
        parts = lines[at].split()
        parts[field] = "x"
        mangled = lines[:at] + [" ".join(parts)] + lines[at + 1:]
        with pytest.raises(FormatError):
            read_embedded(io.StringIO("\n".join(mangled) + "\n"))
