import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misforge import (
    FormatError,
    InvalidInputError,
    SizeRelationViolatedError,
    TooSmallError,
    ToyParams,
    build_instance,
    check_properties,
    compute_parameters,
    plan_levels,
    read_instance,
    sample_base_instance,
    sample_instance,
    sample_tree,
    write_instance,
)
from misforge.dupgraph import make_edge
from misforge.hardness import _base_instance

from dup_oracle import collection
from instance_oracle import replace_edges


# -- parameter cascade --------------------------------------------------------


def test_frozen_r2_example():
    table = compute_parameters(2, 1024, 4)
    assert table.level(1).n == 8
    assert table.level(2).b == 64
    assert 2 * table.level(2).b * table.level(1).n == 1024
    assert table.level(2).k == 3 and table.level(1).k == 1


def test_r1_b_is_n_over_2n0():
    table = compute_parameters(1, 64, 4)
    assert table.level(1).b == 8


def test_size_relation_violated():
    with pytest.raises(SizeRelationViolatedError):
        compute_parameters(2, 100, 4)


@given(r=st.integers(1, 5), y=st.sampled_from([16, 24, 32]))
@settings(deadline=None, max_examples=20)
def test_exact_power_identities(r, y):
    # n/2 an exact (2^r - 1)-th power makes the top split exact and the
    # closed form b_r = n_{r-1}^(1 + 1/(2^(r-1) - 1)) hold with integers
    n = 2 * y ** (2**r - 1)
    table = compute_parameters(r, n, 4)
    top = table.level(r)
    prev_n = table.level(r - 1).n if r > 1 else 4
    assert 2 * top.b * prev_n == n
    if r > 1:
        assert top.b ** (2 ** (r - 1) - 1) == prev_n ** (2 ** (r - 1))
        assert prev_n == y ** (2 ** (r - 1) - 1)


def test_rounded_split_within_one_unit():
    # non-exact n still splits to within one b unit
    for n in (1100, 1500, 2000):
        table = compute_parameters(2, n, 4)
        lv, prev = table.level(2), table.level(1)
        assert 0 <= n - 2 * lv.b * prev.n < 2 * prev.n


def test_floor_cascade_bottoms_out_for_small_powers():
    # with n = 2 (2 n_0)^(2^r - 1) the floored cascade dips below 2 n_0
    # at the bottom once r >= 3, which must be reported, not papered over
    with pytest.raises(SizeRelationViolatedError):
        compute_parameters(3, 2 * 8**7, 4)


def test_slack_counts_are_positive_and_monotone():
    table = compute_parameters(3, 2 * 16**7, 4)
    for lv in table.levels:
        m = lv.b * 2**lv.j
        assert 1 <= lv.p <= m and 1 <= lv.q <= m


# -- level planning -----------------------------------------------------------


def test_plan_levels_toy():
    plans = plan_levels(ToyParams(n_0=4, levels=((1, 1),)))
    assert len(plans) == 1
    assert plans[0].w == 2
    assert plans[0].dup.graph.num_layers == 2


def test_plan_levels_formula_small():
    table = compute_parameters(1, 96, 4)
    plans = plan_levels(table)
    assert plans[0].dup.graph.layer_size == table.level(1).b
    assert plans[0].w == 2


def test_plan_levels_formula_infeasible_layer():
    # b_1 = 2 is below the smallest layer, 3; b_1 = 8 fits (ell, d) = (2, 1)
    with pytest.raises(TooSmallError):
        plan_levels(compute_parameters(1, 16, 4))
    assert plan_levels(compute_parameters(1, 64, 4))[0].dup.params.q == 2


@pytest.mark.parametrize("n, plan", [(64, (2, 1, 1, 2)), (96, (4, 1, 1, 4)),
                                     (256, (10, 1, 1, 10)), (1024, (3, 2, 2, 9)),
                                     (4096, (7, 2, 3, 49))])
def test_plan_levels_formula_r1(n, plan):
    (level,) = plan_levels(compute_parameters(1, n, 4))
    p = level.dup.params
    assert (p.ell, p.d, p.p, p.q) == plan


# -- base instances -----------------------------------------------------------


def test_base_forced_bits():
    inst = _base_instance(4, "10")
    assert inst.graph.edges == frozenset({((1, 0), (2, 0))})
    assert inst.base_bits == "10"
    assert inst.r == 0
    assert len(inst.players) == 1


def test_base_minimal():
    inst = _base_instance(2, "1")
    assert inst.graph.layer_size == 1
    assert len(inst.graph.edges) == 1


def test_base_bit_frequency():
    slots = 2
    counts = [0] * slots
    trials = 10_000
    for seed in range(trials):
        inst = sample_base_instance(4, seed)
        for i, c in enumerate(inst.base_bits):
            counts[i] += c == "1"
    for c in counts:
        assert 0.47 <= c / trials <= 0.53, counts


def test_base_determinism():
    assert sample_base_instance(4, 99).base_bits == sample_base_instance(4, 99).base_bits


# -- sampling and structure ---------------------------------------------------


def toy_instance(seed=7, n_0=4, levels=((1, 1),)):
    return sample_instance(len(levels), ToyParams(n_0=n_0, levels=levels), seed)


def test_toy_r1_shape():
    inst = toy_instance()
    assert inst.r == 1
    assert inst.graph.num_layers == 4
    assert inst.graph.layer_size == 6
    assert len(inst.players) == 2
    assert inst.q_achieved == 1 and inst.p_achieved == 1


def test_toy_r1_ell2_shape():
    # two collections, one path each; sub-instances of the 4-vertex base
    inst = toy_instance(levels=((2, 1),))
    assert inst.q_achieved == 2 and inst.p_achieved == 1
    assert 1 <= inst.t <= 2
    assert all(sub.r == 0 for row in inst.subinstances for sub in row)
    report = check_properties(inst)
    assert report.ok, report.failures()


def test_player_sets_partition_edges():
    inst = toy_instance(seed=3, levels=((2, 1),))
    seen = set()
    for part in inst.players:
        assert not (part & seen)
        seen |= part
    assert seen == set(inst.graph.edges)


def test_copies_identical():
    inst = toy_instance(seed=11)
    half = inst.half_layers
    left = {e for e in inst.graph.edges if e[0][0] <= half and e[1][0] <= half}
    right = {e for e in inst.graph.edges if e[0][0] > half and e[1][0] > half}
    mirrored = {make_edge((u[0] + half, u[1]), (v[0] + half, v[1])) for u, v in left}
    assert mirrored == right


def test_check_properties_r1_and_r2():
    for seed in (0, 1, 2):
        report = check_properties(toy_instance(seed=seed, levels=((2, 1),)))
        assert report.ok, report.failures()
    report = check_properties(toy_instance(seed=5, n_0=2, levels=((1, 1), (1, 1))))
    assert report.ok, report.failures()


def test_t_distribution_uniform():
    counts = {1: 0, 2: 0}
    for seed in range(2000):
        counts[toy_instance(seed=seed, levels=((2, 1),)).t] += 1
    assert 0.45 <= counts[1] / 2000 <= 0.55, counts


# -- targeted mutations -------------------------------------------------------


def mutate(inst, new_edges=None, new_players=None):
    return replace_edges(inst, players=new_players, edges=new_edges)


def special_block_vertex(inst):
    path = collection(inst.dup, inst.t)[0]
    layer, u_idx = path[0]
    return (layer, u_idx * inst.inner_layer_size)


def nonspecial_vertex(inst, layer=1):
    w = inst.inner_layer_size
    special = {v for p in collection(inst.dup, inst.t) for v in p}
    for u_idx in range(inst.dup.graph.layer_size):
        if (layer, u_idx) not in special:
            return (layer, u_idx * w)
    raise AssertionError("no non-special block in this layer")


def test_mutation_clique_edge_touching_special_caught():
    inst = toy_instance(seed=2, levels=((2, 1),))
    half = inst.half_layers
    u = special_block_vertex(inst)
    v = (nonspecial_vertex(inst)[0] + half, nonspecial_vertex(inst)[1])
    bad_edge = make_edge(u, v)
    players = [set(p) for p in inst.players]
    players[-1].add(bad_edge)
    bad = mutate(inst, new_edges=set(inst.graph.edges) | {bad_edge}, new_players=players)
    report = check_properties(bad, recurse=False)
    assert not report.ok
    assert not report.checks["join_from_t"] or not report.checks["special_induced"]


def test_mutation_extra_special_edge_breaks_inducedness():
    inst = toy_instance(seed=2, levels=((2, 1),))
    path = collection(inst.dup, inst.t)[0]
    w = inst.inner_layer_size
    (l1, u1), (l2, u2) = path[0], path[1]
    candidates = [
        make_edge((l1, u1 * w + a), (l2, u2 * w + b)) for a in range(w) for b in range(w)
    ]
    extra = next(e for e in candidates if e not in inst.graph.edges)
    bad = mutate(inst, new_edges=set(inst.graph.edges) | {extra})
    report = check_properties(bad, recurse=False)
    assert not report.checks["special_induced"]


def test_mutation_copy_divergence_caught():
    inst = toy_instance(seed=2, levels=((2, 1),))
    half = inst.half_layers
    left = next(e for e in inst.graph.edges if e[0][0] <= half and e[1][0] <= half)
    owner = next(i for i, p in enumerate(inst.players) if left in p)
    players = [set(p) for p in inst.players]
    players[owner].discard(left)
    bad = mutate(inst, new_edges=set(inst.graph.edges) - {left}, new_players=players)
    report = check_properties(bad, recurse=False)
    assert not report.checks["copies_identical"]


def test_mutation_player_edge_swap_caught():
    inst = toy_instance(seed=2, levels=((2, 1),))
    players = [set(p) for p in inst.players]
    moved = next(iter(players[0]))
    players[0].discard(moved)
    players[-1].add(moved)
    bad = mutate(inst, new_players=players)
    report = check_properties(bad, recurse=False)
    assert not report.ok
    assert (not report.checks["player_1_from_subparts"]
            or not report.checks["join_from_t"])


# -- special subgraphs --------------------------------------------------------


def test_special_subgraph_matches_inner():
    """The special blocks of either copy hold sub-instance (t, j)'s edges
    routed by the blocks' path table, and pulling each block id back to
    its index in that table gives the inner graph exactly."""
    inst = toy_instance(seed=4, levels=((2, 1),))
    for side in ("L", "R"):
        for j in range(1, inst.p_achieved + 1):
            verts, edges = inst._special_blocks(side, j)
            inner = inst.subinstance(inst.t, j)
            assert len(verts) == inner.graph.n_vertices
            assert (np.diff(verts) > 0).all()
            pulled = np.searchsorted(verts, edges)
            assert (verts[pulled] == edges).all()
            want = inner.graph.flat_edges().tolist()
            assert set(map(tuple, pulled.tolist())) == set(map(tuple, want))


def test_special_subgraph_stable():
    inst = toy_instance(seed=4, levels=((2, 1),))
    a = [inst._special_blocks("L", j)[1] for j in range(1, inst.p_achieved + 1)]
    b = [inst._special_blocks("L", j)[1] for j in range(1, inst.p_achieved + 1)]
    assert all(map(np.array_equal, a, b))


# -- seeded tree sampling -----------------------------------------------------


def test_sample_tree_deterministic():
    plans = plan_levels(ToyParams(n_0=4, levels=((2, 1),)))
    assert sample_tree(plans, 4, 17) == sample_tree(plans, 4, 17)
    assert sample_tree(plans, 4, 17) != sample_tree(plans, 4, 18)


def test_negative_seed_is_invalid_input():
    plans = plan_levels(ToyParams(n_0=4, levels=((2, 1),)))
    for sample in (lambda: sample_tree(plans, 4, -1), lambda: sample_base_instance(4, -1)):
        with pytest.raises(InvalidInputError, match="-1"):
            sample()


def test_sibling_substreams_differ():
    # with many base slots, all-identical sibling draws would mean the
    # per-child keying collapsed
    plans = plan_levels(ToyParams(n_0=16, levels=((2, 1),)))
    tree = sample_tree(plans, 16, 23)
    bits = [c["bits"] for row in tree["subs"] for c in row]
    assert len(bits) == 2
    assert len(set(bits)) > 1


def test_rebuild_from_tree_matches_sample():
    params = ToyParams(n_0=4, levels=((2, 1),))
    plans = plan_levels(params)
    tree = sample_tree(plans, 4, 31)
    direct = sample_instance(1, params, 31)
    rebuilt = build_instance(plans, 4, tree)
    assert rebuilt.graph == direct.graph
    assert rebuilt.players == direct.players
    assert rebuilt.t == direct.t


def test_resampling_one_child_leaves_others_alone():
    params = ToyParams(n_0=4, levels=((2, 1),))
    plans = plan_levels(params)
    tree = sample_tree(plans, 4, 31)
    other = sample_tree(plans, 4, 99)
    patched = json.loads(json.dumps(tree))
    patched["subs"][0][0] = other["subs"][0][0]
    inst = build_instance(plans, 4, patched)
    base = build_instance(plans, 4, tree)
    assert inst.subinstance(2, 1).base_bits == base.subinstance(2, 1).base_bits
    assert inst.t == base.t


# -- misr serialization -------------------------------------------------------


def write_text(inst, seed, mode="toy", extra=None):
    buf = io.StringIO()
    write_instance(inst, buf, seed=seed, mode=mode, extra=extra or {})
    return buf.getvalue()


def test_misr_roundtrip():
    inst = toy_instance(seed=7, levels=((2, 1),))
    text = write_text(inst, 7)
    loaded = read_instance(io.StringIO(text))
    assert loaded.matches
    assert loaded.instance.graph == inst.graph
    assert loaded.instance.players == inst.players
    assert loaded.instance.t == inst.t
    assert write_text(loaded.instance, 7) == text


def test_misr_rejects_mangled():
    inst = toy_instance(seed=7)
    text = write_text(inst, 7)
    for mangle in (
        lambda t: t.replace("misr 1", "misr 2", 1),
        lambda t: t.replace('"r":1', '"r":3', 1),
        lambda t: "\n".join(t.splitlines()[:-1]) + "\n",   # drop the end marker
        lambda t: t.replace("player 2", "player x", 1),      # section number not an int
        lambda t: t.replace("player 1\n", "player 1\na b\n", 1),   # vertex ids not ints
        lambda t: t.replace('"w":2', '"w":1', 1),             # inner width not the base's
        lambda t: re.sub(r"\n(\d+ \d+)\n(\d+ \d+)\n", r"\n\1 \2\n", t, count=1),  # 2 edges, 1 line
        lambda t: t.replace('"w":2', '"w":"x"', 1),
        lambda t: re.sub(r'"n0":\d+', '"n0":"x"', t, count=1),
        lambda t: t.replace('"levels":', '"levels":5,"x":', 1),
        lambda t: re.sub(r'"j":\d+', '"j":"x"', t, count=1),
        lambda t: re.sub(r'"b":\d+', f'"b":{10**30}', t, count=1),     # overflows int64
        lambda t: t.replace('"tree":', '"tree":5,"x":', 1),
        lambda t: t.replace('"subs":', '"subs":5,"x":', 1),
        lambda t: re.sub(r'"t":\d+', '"t":"a"', t, count=1),
    ):
        mangled = mangle(text)
        assert mangled != text
        with pytest.raises(FormatError):
            read_instance(io.StringIO(mangled))


def test_misr_flags_edge_tampering():
    inst = toy_instance(seed=7)
    text = write_text(inst, 7)
    lines = text.splitlines()
    idx = next(i for i, ln in enumerate(lines)
               if ln and ln[0].isdigit() and " " in ln)
    u, v = lines[idx].split()
    lines[idx] = f"{u} {int(v) + 1 if int(v) + 1 < 24 else int(v) - 1}"
    loaded = read_instance(io.StringIO("\n".join(lines) + "\n"))
    assert not loaded.matches


def test_invalid_n0():
    with pytest.raises(InvalidInputError):
        sample_base_instance(3, 0)
    with pytest.raises(InvalidInputError):
        sample_base_instance(0, 0)
