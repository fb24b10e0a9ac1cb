"""Acceptance gate: eleven end-to-end criteria, one test (and one
pass/fail line under pytest -v) per criterion."""

import math
import subprocess
import sys
import time

from misforge import (
    EdgeStream,
    GraphFamily,
    ToyParams,
    build_avg_free_set,
    build_dup,
    check_properties,
    compute_parameters,
    embed,
    enumerate_all_mis,
    eval_predicate,
    extract_predicate_from_mis,
    gnp_graph,
    is_mis,
    make_algorithm,
    sample_base_instance,
    sample_instance,
    simulate_protocol_from_stream,
    verify_all_inducedness,
    verify_avg_free,
    verify_dup,
)
from misforge.cli import main as cli_main
from misforge.dupgraph import LayeredGraph, make_edge
from misforge.streaming import LubyMIS, ResidualSparsityMIS, drive

from dup_oracle import collection
from instance_oracle import replace_edges
from stream_oracle import stream_edges

import numpy as np


def all_small_dups():
    for k in range(1, 4):
        for d in range(1, 8):
            ell = 1
            while ((k + 2) * ell) ** d <= 4096:
                yield ell, d, k
                ell += 1


def toy(seed, levels, n_0=4):
    return sample_instance(len(levels), ToyParams(n_0=n_0, levels=levels), seed)


def flat_view(n, edges):
    return (set(range(n)), set(edges))


def test_criterion_01_average_free_soundness():
    start = time.monotonic()
    cases = 0
    for d in range(1, 13):  # beyond d=12 only the one-point grids repeat
        ell = 1
        while ell**d <= 4096:
            a = build_avg_free_set(ell, d)
            assert a.size >= math.ceil(ell**d / (d * ell**2)), (ell, d)
            assert verify_avg_free(a, 5), (ell, d)
            cases += 1
            ell += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"criterion 1 PASS: {cases} (ell, d) grids verified in {elapsed:.1f}s")


def test_criterion_02_dup_soundness():
    start = time.monotonic()
    cases = 0
    for ell, d, k in all_small_dups():
        dup = build_dup(ell, d, k)
        assert dup.params.q == ell**d
        report = verify_dup(dup)
        assert report.ok, (ell, d, k, report.failures())
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"took {elapsed:.1f}s"
    print(f"criterion 2 PASS: {cases} collection graphs verified in {elapsed:.1f}s")


def _random_family(dup, w, rng):
    g = dup.graph
    slots = [
        make_edge((layer, a), (layer + 1, b))
        for layer in range(1, g.num_layers)
        for a in range(w)
        for b in range(w)
    ]
    members = tuple(
        tuple(
            LayeredGraph(g.num_layers, w,
                         frozenset(e for e in slots if rng.random() < 0.45))
            for _ in range(dup.params.p)
        )
        for _ in range(dup.params.q)
    )
    return GraphFamily(q=dup.params.q, p=dup.params.p, num_layers=g.num_layers,
                       layer_size=w, members=members)


def test_criterion_03_inducedness():
    from test_embedding import test_shortcut_host_breaks_inducedness

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2024)))
    pool = [build_dup(2, 1, 1), build_dup(2, 2, 1), build_dup(3, 1, 2),
            build_dup(2, 1, 3), build_dup(3, 2, 1)]
    checked = 0
    for trial in range(105):
        dup = pool[trial % len(pool)]
        w = 1 + trial % 8
        fam = _random_family(dup, w, rng)
        emb = embed(fam, dup)
        assert verify_all_inducedness(emb, dup, fam), (trial, w)
        checked += 1
    test_shortcut_host_breaks_inducedness()
    print(f"criterion 3 PASS: {checked} random families induced correctly, "
          "shortcut host rejected")


def test_criterion_04_parameter_identities():
    table = compute_parameters(2, 1024, 4)
    assert (table.level(1).n, table.level(2).b) == (8, 64)
    for r in range(1, 6):
        for y in (16, 32):
            n = 2 * y ** (2**r - 1)
            t = compute_parameters(r, n, 4)
            prev = t.level(r - 1).n if r > 1 else 4
            assert 2 * t.level(r).b * prev == n, (r, y)
            if r > 1:
                b = t.level(r).b
                assert b ** (2 ** (r - 1) - 1) == prev ** (2 ** (r - 1)), (r, y)
    print("criterion 4 PASS: split and closed-form identities exact for r in 1..5")


def test_criterion_05_predicate_extraction():
    start = time.monotonic()
    shapes = [
        dict(levels=None, n_0=4),            # depth 0
        dict(levels=((1, 1),), n_0=4),       # 24 vertices
        dict(levels=((1, 1),), n_0=2),       # 12 vertices
        dict(levels=((2, 1),), n_0=2),       # 24 vertices
    ]
    instances = 0
    checked = 0
    for seed in range(52):
        shape = shapes[seed % len(shapes)]
        if shape["levels"] is None:
            inst = sample_base_instance(shape["n_0"], seed)
        else:
            inst = toy(seed, shape["levels"], shape["n_0"])
        n_verts = inst.graph.num_layers * inst.graph.layer_size
        assert n_verts <= 24, n_verts
        seqs = [()]
        cur = inst
        while cur.r >= 1:
            seqs = [s + (k,) for s in seqs for k in range(1, cur.p_achieved + 1)]
            cur = cur.subinstance(cur.t, 1)
        sets = enumerate_all_mis(inst.graph)
        assert sets
        for s in sets:
            for seq in seqs:
                assert extract_predicate_from_mis(inst, s, seq) == eval_predicate(inst, seq)
                checked += 1
        instances += 1
    elapsed = time.monotonic() - start
    assert instances >= 50 and elapsed < 600
    print(f"criterion 5 PASS: {instances} instances, {checked} MIS/sequence "
          f"pairs agree in {elapsed:.1f}s")


def _mutations(inst):
    """Four targeted corruptions; each must trip a named check."""
    half = inst.half_layers
    w = inst.inner_layer_size

    def rebuild(graph=None, players=None):
        return replace_edges(inst, players=players,
                             edges=None if graph is None else graph.edges)

    g = inst.graph

    # 1: clique edge touching a special block
    path = collection(inst.dup, inst.t)[0]
    layer, u_idx = path[0]
    special_v = (layer, u_idx * w)
    other = next(
        v for v in ((1, i) for i in range(g.layer_size))
        if v not in {p for pt in collection(inst.dup, inst.t) for p in pt}
    )
    bad_edge = make_edge(special_v, (other[0] + half, other[1] * w))
    players = [set(p) for p in inst.players]
    players[-1].add(bad_edge)
    yield rebuild(
        graph=LayeredGraph(g.num_layers, g.layer_size, g.edges | {bad_edge}),
        players=tuple(frozenset(p) for p in players),
    ), ("join_from_t", "special_induced", "join_count")

    # 2: extra edge inside a special block pair
    (l1, u1), (l2, u2) = path[0], path[1]
    candidates = [
        make_edge((l1, u1 * w + a), (l2, u2 * w + b))
        for a in range(w) for b in range(w)
    ]
    extra = next(e for e in candidates if e not in g.edges)
    yield rebuild(
        graph=LayeredGraph(g.num_layers, g.layer_size, g.edges | {extra}),
    ), ("special_induced", "player_partition")

    # 3: copies diverge
    left = next(e for e in g.edges if e[1][0] <= half)
    owner = next(i for i, p in enumerate(inst.players) if left in p)
    players = [set(p) for p in inst.players]
    players[owner].discard(left)
    yield rebuild(
        graph=LayeredGraph(g.num_layers, g.layer_size, g.edges - {left}),
        players=tuple(frozenset(p) for p in players),
    ), ("copies_identical",)

    # 4: an embedded edge moved to the joining player
    moved = next(iter(inst.players[0]))
    players = [set(p) for p in inst.players]
    players[0].discard(moved)
    players[-1].add(moved)
    yield rebuild(players=tuple(frozenset(p) for p in players)), (
        "player_1_from_subparts", "join_from_t",
    )


def test_criterion_06_structural_properties():
    count = 0
    for seed in range(40):
        inst = toy(seed, ((2, 1),) if seed % 2 else ((1, 1),))
        report = check_properties(inst)
        assert report.ok, report.failures()
        count += 1
    for seed in range(12):
        inst = toy(seed, ((1, 1), (1, 1)), n_0=2)
        report = check_properties(inst)
        assert report.ok, report.failures()
        count += 1
    assert count >= 50
    tripped = []
    for mutant, expected in _mutations(toy(3, ((2, 1),))):
        report = check_properties(mutant, recurse=False)
        hit = [name for name in expected if not report.checks.get(name, True)]
        assert hit, f"mutation escaped: expected one of {expected}"
        tripped.append(hit[0])
    print(f"criterion 6 PASS: {count} instances clean; mutations caught by {tripped}")


def test_criterion_07_streaming_validity():
    runs = 0
    graphs = [gnp_graph(40 + 8 * (i % 12), 0.12 + 0.02 * (i % 4), i) for i in range(24)]
    for idx, g in enumerate(graphs):
        for order in ("file", "random"):
            for desc in ("luby", "greedy", "residual:b=4"):
                stream = EdgeStream.from_edges(g.edges, order=order, seed=idx)
                rep = drive(make_algorithm(desc, g.n, idx + 1), stream)
                assert is_mis(flat_view(g.n, g.edges), rep.output), (idx, order, desc)
                runs += 1
    for seed in range(8):
        inst = toy(seed, ((2, 1),))
        n = inst.graph.n_vertices
        edges = stream_edges(EdgeStream.from_instance(inst))
        for order in ("player", "file", "random"):
            for desc in ("luby", "greedy", "residual:b=4"):
                stream = EdgeStream.from_instance(inst, order=order, seed=seed)
                rep = drive(make_algorithm(desc, n, seed + 2), stream)
                assert is_mis(flat_view(n, edges), rep.output), (seed, order, desc)
                runs += 1
    assert runs >= 200
    print(f"criterion 7 PASS: {runs}/{runs} runs produced maximal independent sets")


def test_criterion_08_luby_round_bound():
    worst = 0
    for seed in range(100):
        g = gnp_graph(256, 0.1, seed)
        rep = drive(LubyMIS(g.n, seed + 7), EdgeStream.from_edges(g.edges))
        assert is_mis(flat_view(g.n, g.edges), rep.output)
        worst = max(worst, rep.extras["rounds"])
        assert rep.extras["rounds"] <= 32, (seed, rep.extras["rounds"])
    print(f"criterion 8 PASS: 100 seeds, worst round count {worst} <= 32")


def test_criterion_09_residual_sparsity():
    n, b = 512, 8
    bound = 3 * b * math.log(n)
    good = 0
    worst = 0
    for seed in range(100):
        g = gnp_graph(n, 0.3, seed)
        stream = EdgeStream.from_edges(g.edges)
        rep = drive(ResidualSparsityMIS(n, [n // b, "all"], seed + 1), stream)
        assert is_mis(flat_view(n, g.edges), rep.output)
        alive = rep.extras["alive_after_phase"][0]
        deg = {v: 0 for v in alive}
        for u, v in g.edges:
            if u in alive and v in alive:
                deg[u] += 1
                deg[v] += 1
        top = max(deg.values(), default=0)
        worst = max(worst, top)
        good += top <= bound
    assert good >= 95, good
    print(f"criterion 9 PASS: {good}/100 seeds under the degree bound "
          f"{bound:.0f} (worst seen {worst})")


def test_criterion_10_reduction_identity():
    checked = 0
    for seed in range(50):
        inst = toy(seed, ((2, 1),) if seed % 2 else ((1, 1),))
        desc = ("luby", "greedy", "residual:b=4")[seed % 3]
        sim = simulate_protocol_from_stream(desc, inst, seed=seed + 1)
        stream = EdgeStream.from_instance(inst, order="player")
        direct = drive(make_algorithm(desc, inst.graph.n_vertices, seed + 1), stream)
        assert sim.report.output == direct.output, (seed, desc)
        t = sim.transcript
        assert t.cc_bits <= sim.report.passes * sim.k * t.max_message_bits, (seed, desc)
        assert t.cc_bits <= sim.report.passes * sim.k * sim.report.peak_words * 64
        checked += 1
    print(f"criterion 10 PASS: {checked} simulated runs match direct runs "
          "within the communication budget")


def test_criterion_11_deterministic_generation(tmp_path):
    args = ["gen-instance", "--r", "1", "--n0", "4", "--toy", "2,1", "--seed", "42"]
    paths = [tmp_path / f"{i}.misr" for i in range(4)]
    assert cli_main(args + ["--out", str(paths[0])]) == 0
    assert cli_main(args + ["--out", str(paths[1])]) == 0
    for target in paths[2:]:
        proc = subprocess.run(
            [sys.executable, "-m", "misforge.cli"] + args + ["--out", str(target)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
    blobs = {p.read_bytes() for p in paths}
    assert len(blobs) == 1
    print("criterion 11 PASS: four invocations (two in-process, two subprocess) "
          "byte-identical")
