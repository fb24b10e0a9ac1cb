import io
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misforge import (
    DimensionMismatchError,
    FormatError,
    GraphFamily,
    InvalidInputError,
    build_dup,
    embed,
    induced_on_upc,
    read_embedded,
    verify_all_inducedness,
    verify_inducedness,
    write_embedded,
)
import embedding_oracle
from dup_oracle import collection
from misforge.dupgraph import (
    DupGraph,
    DupParams,
    EdgeView,
    LayeredGraph,
    edge_keys,
    edge_pairs,
    make_edge,
    path_lut,
    write_dup,
)
from misforge.embedding import EmbeddedGraph


def empty_family(dup, w):
    g = dup.graph
    p = dup.params
    empty = LayeredGraph(num_layers=g.num_layers, layer_size=w, edges=frozenset())
    return GraphFamily(
        q=p.q, p=p.p, num_layers=g.num_layers, layer_size=w,
        members=tuple(tuple(empty for _ in range(p.p)) for _ in range(p.q)),
    )


def test_embed_refuses_ids_past_int64_keys():
    # 2 layers of 3 * 2^31 vertices: keys u * n + v pass 2^63, and no
    # routing table of that width is built
    with pytest.raises(InvalidInputError, match="overflow int64"):
        embed(empty_family(build_dup(1, 1, 1), 1 << 31), build_dup(1, 1, 1))


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
    path = collection(dup, 1)[0]
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
    rng = random.Random(seed)
    dup = build_dup(2, 1, 1) if seed % 2 else build_dup(2, 2, 1)
    fam = random_family(dup, rng.randrange(1, 4), rng)
    emb = embed(fam, dup)
    total = sum(len(h.edges) for row in fam.members for h in row)
    assert len(emb.graph.edges) == total
    assert [len(part) for part in emb.graph.edges.parts] == [
        len(h.edges) for row in fam.members for h in row]


def test_shape_mismatch_rejected():
    dup = build_dup(2, 1, 1)
    fam = empty_family(dup, 2)
    with pytest.raises(DimensionMismatchError):
        embed(GraphFamily(fam.q + 1, fam.p, fam.num_layers, fam.layer_size,
                          fam.members + (fam.members[0],)), dup)


def test_induced_subgraph_is_relabeled_copy():
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
    rng = random.Random(3)
    for dup in (build_dup(2, 1, 1), build_dup(2, 2, 1), build_dup(2, 1, 3)):
        fam = random_family(dup, 2, rng)
        emb = embed(fam, dup)
        assert verify_all_inducedness(emb, dup, fam)


def shortcut_host():
    """Two 3-layer paths declared as one collection, plus a crossing edge
    that makes it not unique-path."""
    paths = np.array([[[0, 0, 0], [1, 1, 1]]])
    edges = {
        make_edge((1, 0), (2, 0)), make_edge((2, 0), (3, 0)),
        make_edge((1, 1), (2, 1)), make_edge((2, 1), (3, 1)),
        make_edge((2, 0), (3, 1)),  # shortcut between the two paths
    }
    g = LayeredGraph(num_layers=3, layer_size=2, edges=frozenset(edges))
    params = DupParams(ell=1, d=1, k=2, p=2, q=1, padded=(0, 0, 0))
    return DupGraph(paths=paths, layer_size=2, params=params, avg_free=None,
                    edges=g.flat_edges())


def test_shortcut_host_breaks_inducedness():
    """Embedding into a host whose 'collection' is not unique-path lets a
    foreign block edge leak into the induced subgraph."""
    host = shortcut_host()
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
    emb = EmbeddedGraph(graph=bigger, inner_layer_size=emb.inner_layer_size)
    assert not verify_inducedness(emb, host, fam, 1)


def test_p_equal_one_reduces_to_induced_copy():
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


@pytest.mark.parametrize("line", [
    "emb 1 1 2 3",      # both ends in layer 1, inside path (1, 1)'s block
    "emb 1 1 2 2",      # a self loop
])
def test_embedded_rejects_edges_inside_one_layer(line):
    buf = io.StringIO()
    write_dup(build_dup(2, 1, 1), buf)
    with pytest.raises(FormatError):
        read_embedded(io.StringIO(buf.getvalue() + f"embw 2\n{line}\n"))


# -- differential: the array embedding against the tuple oracle ----------------

# the exact_checks host shapes, then a host whose collection has a shortcut
HOSTS = [build_dup(*shape) for shape in ((2, 1, 1), (2, 2, 1), (3, 1, 2), (2, 1, 3), (3, 2, 1))]
HOSTS.append(shortcut_host())
MUTANTS = ("none", "shortcut", "dropped", "moved")


def with_parts(emb, ref, parts, prov):
    """Both embeddings rebuilt from edited parts and an edited provenance."""
    g = emb.graph
    ordered = tuple(part[np.argsort(edge_keys(part, g.n_vertices))] for part in parts)
    view = EmbeddedGraph(LayeredGraph(g.num_layers, g.layer_size,
                                      EdgeView(ordered, g.layer_size, g.n_vertices)),
                         emb.inner_layer_size)
    tuples = embedding_oracle.EmbeddedGraph(
        LayeredGraph(g.num_layers, g.layer_size, frozenset(prov)), prov, ref.inner_layer_size)
    return view, tuples


def mutate(kind, emb, ref, fam, dup, rng):
    """One corruption applied alike to the array embedding, the oracle's
    embedding and, for "moved", the family."""
    size, w, (q, p, layers) = emb.graph.layer_size, emb.inner_layer_size, dup.paths.shape
    parts, prov = list(emb.graph.edges.parts), dict(ref.provenance)
    if kind == "shortcut":      # path j's block in layer m to path h's in layer m + 1
        i, j, h, m = rng.randrange(q), rng.randrange(p), rng.randrange(p), rng.randrange(layers - 1)
        u = m * size + int(dup.paths[i, j, m]) * w + rng.randrange(w)
        v = (m + 1) * size + int(dup.paths[i, h, m + 1]) * w + rng.randrange(w)
        edge = next(edge_pairs(np.array([[u, v]]), size))
        if edge not in prov:
            parts[i * p + j] = np.vstack([parts[i * p + j], [[u, v]]])
            prov[edge] = (i + 1, j + 1)
        return (*with_parts(emb, ref, parts, prov), fam)
    full = [k for k, part in enumerate(parts) if len(part)]
    if kind == "none" or not full:
        return emb, ref, fam
    k = rng.choice(full)
    row = rng.randrange(len(parts[k]))
    flat = parts[k][row]
    edge = next(edge_pairs(flat[None], size))
    parts[k] = np.delete(parts[k], row, axis=0)
    del prov[edge]
    if kind == "dropped":
        return (*with_parts(emb, ref, parts, prov), fam)
    # "moved": the edge and its member edge change owner, to another member
    k2 = (k + 1 + rng.randrange(q * p - 1)) % (q * p) if q * p > 1 else k
    parts[k2] = np.vstack([parts[k2], flat[None]])
    prov[edge] = (k2 // p + 1, k2 % p + 1)
    lut = path_lut(dup, k // p + 1, k % p + 1, w)
    inner = tuple((int(x) // w + 1, int(x) % w) for x in np.searchsorted(lut, flat))
    members = [list(r) for r in fam.members]
    src, dst = members[k // p][k % p], members[k2 // p][k2 % p]
    members[k // p][k % p] = LayeredGraph(layers, w, frozenset(src.edges) - {inner})
    members[k2 // p][k2 % p] = LayeredGraph(layers, w, frozenset(dst.edges) | {inner})
    fam = GraphFamily(fam.q, fam.p, fam.num_layers, fam.layer_size,
                      tuple(map(tuple, members)))
    return (*with_parts(emb, ref, parts, prov), fam)


def test_embedding_matches_tuple_oracle():
    rejected = []

    @given(host=st.sampled_from(range(len(HOSTS))), w=st.integers(1, 4),
           kind=st.sampled_from(MUTANTS), seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=200, database=None)
    def compare(host, w, kind, seed):
        rng = random.Random(seed)
        dup = HOSTS[host]
        fam = random_family(dup, w, rng)
        emb, ref = embed(fam, dup), embedding_oracle.embed(fam, dup)
        emb, ref, fam = mutate(kind, emb, ref, fam, dup, rng)
        g, p = emb.graph, fam.p
        assert set(g.edges) == set(ref.graph.edges)
        groups = [set() for _ in g.edges.parts]
        for edge, (i, j) in ref.provenance.items():
            groups[(i - 1) * p + j - 1].add(edge)
        assert [set(edge_pairs(part, g.layer_size)) for part in g.edges.parts] == groups
        assert all((np.diff(edge_keys(part, g.n_vertices)) > 0).all() for part in g.edges.parts)
        for i in range(1, fam.q + 1):
            assert (induced_on_upc(emb, dup, i).edges
                    == embedding_oracle.induced_on_upc(ref, dup, i).edges)
            assert (verify_inducedness(emb, dup, fam, i)
                    == embedding_oracle.verify_inducedness(ref, dup, fam, i))
        want = embedding_oracle.verify_all_inducedness(ref, dup, fam)
        assert verify_all_inducedness(emb, dup, fam) == want
        ours, theirs = io.StringIO(), io.StringIO()
        write_embedded(emb, dup, ours)
        embedding_oracle.write_embedded(ref, dup, theirs)
        assert ours.getvalue() == theirs.getvalue()
        rejected.append(not want)

    compare()
    assert sum(rejected) >= 60, f"only {sum(rejected)} of {len(rejected)} cases fail"


DEFECTS = ("none", "layers", "width", "layer 0", "layer past", "index -1", "index w",
           "index past int64", "same layer")


@given(host=st.integers(0, 4), w=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       defect=st.sampled_from(DEFECTS))
@settings(deadline=None, max_examples=150)
def test_embed_rejects_exactly_malformed_families(host, w, seed, defect):
    """embed raises DimensionMismatchError exactly when the oracle's
    member-by-member well_formed is False.  The family is random and well
    formed but for at most one defect in one member: a wrong shape, an
    endpoint outside the layers or indices, or an edge inside one layer."""
    rng = random.Random(seed)
    dup = HOSTS[host]
    fam = random_family(dup, w, rng)
    layers, p, x = fam.num_layers, fam.p, rng.randrange(w)
    k = rng.randrange(fam.q * p)
    members = [list(row) for row in fam.members]
    g = members[k // p][k % p]
    bad = {"layer 0": ((0, x), (1, x)), "layer past": ((layers, x), (layers + 1, x)),
           "index -1": ((1, -1), (2, x)), "index w": ((1, x), (2, w)),
           "index past int64": ((1, x), (2, 2**63)), "same layer": ((1, 0), (1, w - 1))}
    shape = {"layers": (layers + 1, w), "width": (layers, w + 1)}.get(defect, (layers, w))
    edges = frozenset(g.edges) | ({bad[defect]} if defect in bad else set())
    members[k // p][k % p] = LayeredGraph(*shape, edges)
    fam = GraphFamily(fam.q, p, layers, w, tuple(map(tuple, members)))
    assert embedding_oracle.family_well_formed(fam) == (defect == "none")
    for embedder in (embed, embedding_oracle.embed):
        if defect == "none":
            embedder(fam, dup)
        else:
            with pytest.raises(DimensionMismatchError, match="disagree on shape"):
                embedder(fam, dup)


def test_collision_reported_like_the_oracle():
    """Two collections whose paths meet in layers 1 and 3 route a member
    edge that skips layer 2 onto one embedded edge."""
    dup = DupGraph(paths=np.array([[[0, 0, 0]], [[0, 1, 0]]]), layer_size=2,
                   params=DupParams(ell=1, d=1, k=2, p=1, q=2, padded=(0, 0, 0)), avg_free=None)
    skip = LayeredGraph(3, 1, frozenset({((1, 0), (3, 0))}))
    fam = GraphFamily(q=2, p=1, num_layers=3, layer_size=1, members=((skip,), (skip,)))
    messages = []
    for embedder in (embed, embedding_oracle.embed):
        with pytest.raises(InvalidInputError) as exc:
            embedder(fam, dup)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == (
        "edge collision at ((1, 0), (3, 0)): collections (1, 1) and (2, 1) overlap")


def test_collection_index_out_of_range_rejected():
    dup = build_dup(2, 2, 1)
    fam = empty_family(dup, 2)
    emb = embed(fam, dup)
    for i in (0, dup.params.q + 1):
        with pytest.raises(InvalidInputError):
            induced_on_upc(emb, dup, i)
        with pytest.raises(InvalidInputError):
            verify_inducedness(emb, dup, fam, i)
