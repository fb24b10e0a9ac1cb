"""Recursive two-copy instance families over disjoint-path collections.

A level-0 instance on n_0 vertices is a perfect matching slot list:
pairs (u_i, v_i) with each edge present independently with probability
1/2.  A level-r instance embeds q*p independent level-(r-1) instances
into a padded collection graph with 2^r layers (one inner instance per
collection path), keeps two identical copies of the product, then joins
every non-special block vertex of the left copy with every non-special
block vertex of the right copy, where the special blocks are those on
the paths of one uniformly chosen collection t.

Edges are split among r+1 players: player a <= r owns the embedded
images (in both copies) of whatever player a owned inside every inner
instance, so its input is a function of those inner parts alone; player
r+1 owns the cross-copy join, a function of t alone.

Layer convention: a level-r instance graph has 2^(r+1) equal layers,
the left copy on layers 1..2^r and the right copy on layers
2^r+1..2^(r+1).  Block vertex (u, x) of outer vertex u and inner index
x is (layer, u_index * w + x) with w the inner layer width.

Sampling is driven by a counter-based generator keyed by the position
in the recursion tree, so resampling one sub-instance never perturbs
any other: substream (i, j) of a node extends the node's key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Mapping

import numpy as np

from .budgets import Budget, default_budget
from .dupgraph import (
    DupGraph,
    Edge,
    LayeredGraph,
    Vertex,
    build_dup,
    build_dup_from_size,
    make_edge,
    pad_dup,
)
from .errors import (
    FormatError,
    InvalidInputError,
    SizeRelationViolatedError,
)
from .numutil import integer_nth_root
from .oracle import Subgraph
from .report import VerificationReport


@dataclass(frozen=True)
class LevelParams:
    j: int
    n: int
    b: int
    p: int
    q: int
    k: int


@dataclass(frozen=True)
class ParamTable:
    r: int
    n: int
    n_0: int
    eta_p: float
    eta_q: float
    levels: tuple[LevelParams, ...]      # levels[j-1] describes level j

    def level(self, j: int) -> LevelParams:
        return self.levels[j - 1]


@dataclass(frozen=True)
class ToyParams:
    n_0: int
    levels: tuple[tuple[int, int], ...]  # (ell, d) per level, lowest first

    @property
    def r(self) -> int:
        return len(self.levels)


def _check_n0(n_0: int) -> None:
    if n_0 < 2 or n_0 % 2:
        raise InvalidInputError(f"n_0 must be even and at least 2, got {n_0}")


def _count_with_slack(m: int, eta: float) -> int:
    """floor(m / exp(eta * ln(m)^(3/4))), at least 1."""
    if m < 1:
        raise InvalidInputError(f"need a positive layer total, got {m}")
    denom = math.exp(eta * math.log(m) ** 0.75)
    try:
        value = int(m / denom)
    except OverflowError:
        value = m // (int(denom) + 1)
    return max(1, value)


def compute_parameters(
    r: int, n: int, n_0: int, eta_p: float = 1.0, eta_q: float = 1.0
) -> ParamTable:
    """Exact-integer size cascade for a depth-r family on n vertices.

    Level sizes follow n_{j-1} = (n_j / 2)^((2^(j-1)-1)/(2^j-1)) with
    floor rounding via exact integer roots, and b_j = n_j // (2 n_{j-1})
    so that 2 * b_j * n_{j-1} <= n_j always holds (with equality on
    exact powers).  Every level must satisfy
    2 * n_j >= (2 n_0)^(2^j - 1); the first level that does not raises
    SizeRelationViolatedError.
    """
    if r < 1:
        raise InvalidInputError(f"need r >= 1, got {r}")
    _check_n0(n_0)
    if n < 2:
        raise InvalidInputError(f"need n >= 2, got {n}")
    sizes = {r: n}
    for j in range(r, 0, -1):
        n_j = sizes[j]
        required = (2 * n_0) ** (2**j - 1)
        if 2 * n_j < required:
            raise SizeRelationViolatedError(level=j, n=n_j, required=(required + 1) // 2)
        if j > 1:
            a, b_exp = 2 ** (j - 1) - 1, 2**j - 1
            sizes[j - 1] = integer_nth_root((n_j // 2) ** a, b_exp)
    sizes[0] = n_0
    levels = []
    for j in range(1, r + 1):
        b_j = sizes[j] // (2 * sizes[j - 1])
        if b_j < 1:
            raise SizeRelationViolatedError(level=j, n=sizes[j], required=2 * sizes[j - 1])
        m = b_j * 2**j
        levels.append(
            LevelParams(
                j=j,
                n=sizes[j],
                b=b_j,
                p=_count_with_slack(m, eta_p),
                q=_count_with_slack(m, eta_q),
                k=2**j - 1,
            )
        )
    return ParamTable(r=r, n=n, n_0=n_0, eta_p=eta_p, eta_q=eta_q, levels=tuple(levels))


@dataclass(frozen=True)
class LevelPlan:
    j: int
    dup: DupGraph
    w: int                 # inner layer width at this level


def plan_levels(params: ParamTable | ToyParams, budget: Budget | None = None) -> list[LevelPlan]:
    """Concrete collection graph and inner width for every level."""
    budget = budget or default_budget()
    _check_n0(params.n_0)
    plans = []
    n_prev = params.n_0
    if isinstance(params, ToyParams):
        for j, (ell, d) in enumerate(params.levels, start=1):
            dup = build_dup(ell, d, 2**j - 1, budget)
            w = n_prev // 2**j
            plans.append(LevelPlan(j=j, dup=dup, w=w))
            n_prev = 2 * dup.graph.layer_size * n_prev
    else:
        for lp in params.levels:
            dup = build_dup_from_size(lp.b * 2**lp.j, lp.k, budget)
            if dup.graph.layer_size != lp.b:
                raise InvalidInputError(
                    f"level {lp.j}: padded layer size {dup.graph.layer_size} "
                    f"does not hit b={lp.b}"
                )
            w = n_prev // 2**lp.j
            if w < 1:
                raise SizeRelationViolatedError(level=lp.j, n=n_prev, required=2**lp.j)
            plans.append(LevelPlan(j=lp.j, dup=dup, w=w))
            n_prev = 2 * lp.b * n_prev
    return plans


@dataclass(frozen=True)
class Instance:
    r: int
    graph: LayeredGraph
    players: tuple[frozenset[Edge], ...]
    t: int | None
    dup: DupGraph | None
    inner_layer_size: int | None
    subinstances: tuple[tuple["Instance", ...], ...] | None
    base_bits: str | None
    provenance: Mapping[Edge, tuple[str, int, int]] | None

    @property
    def q_achieved(self) -> int:
        return 0 if self.subinstances is None else len(self.subinstances)

    @property
    def p_achieved(self) -> int:
        return 0 if self.subinstances is None else len(self.subinstances[0])

    @property
    def half_layers(self) -> int:
        return self.graph.num_layers // 2

    def subinstance(self, i: int, j: int) -> "Instance":
        return self.subinstances[i - 1][j - 1]

    def copy_map(self, v: Vertex) -> Vertex:
        """Mirror a vertex into the other copy."""
        half = self.half_layers
        layer, idx = v
        return (layer + half, idx) if layer <= half else (layer - half, idx)

    def special_dup_vertices(self) -> set[Vertex]:
        return {v for path in self.dup.upcs[self.t - 1].paths for v in path.vertices}

    def _side_offset(self, side: str) -> int:
        if side not in ("L", "R"):
            raise InvalidInputError(f"side must be 'L' or 'R', got {side!r}")
        return 0 if side == "L" else self.half_layers

    def special_subgraph(self, side: str, j: int) -> Subgraph:
        """The j-th special block subgraph of one copy, as a vertex/edge view."""
        off = self._side_offset(side)
        w = self.inner_layer_size
        path = self.dup.upcs[self.t - 1].paths[j - 1]
        verts = frozenset(
            (layer + off, u_idx * w + x) for layer, u_idx in path.vertices for x in range(w)
        )
        edges = frozenset(
            e
            for e, (s, i, jj) in self.provenance.items()
            if s == side and i == self.t and jj == j
        )
        return Subgraph(vertices=verts, edges=edges)

    def pullback_special(self, side: str, j: int, vertices) -> frozenset:
        """Map block vertices of a special subgraph back to inner vertices."""
        off = self._side_offset(side)
        w = self.inner_layer_size
        path = self.dup.upcs[self.t - 1].paths[j - 1]
        inner = set()
        for layer, idx in vertices:
            in_layer = layer - off
            if not 1 <= in_layer <= self.half_layers:
                raise InvalidInputError(f"vertex {(layer, idx)} is not on side {side}")
            u_idx = path.vertices[in_layer - 1][1]
            x = idx - u_idx * w
            if not 0 <= x < w:
                raise InvalidInputError(f"vertex {(layer, idx)} is outside block {j}")
            inner.add((in_layer, x))
        return frozenset(inner)


def _base_instance(n_0: int, bits: str) -> Instance:
    _check_n0(n_0)
    if len(bits) != n_0 // 2 or any(c not in "01" for c in bits):
        raise InvalidInputError(f"need {n_0 // 2} bits, got {bits!r}")
    edges = frozenset(
        make_edge((1, i), (2, i)) for i, c in enumerate(bits) if c == "1"
    )
    graph = LayeredGraph(num_layers=2, layer_size=n_0 // 2, edges=edges)
    return Instance(
        r=0, graph=graph, players=(edges,), t=None, dup=None,
        inner_layer_size=None, subinstances=None, base_bits=bits, provenance=None,
    )


def _nonspecial_blocks(dup: DupGraph, t: int, w: int) -> tuple[list[Vertex], list[Vertex]]:
    half = dup.graph.num_layers
    b = dup.graph.layer_size
    special = {v for path in dup.upcs[t - 1].paths for v in path.vertices}
    left, right = [], []
    for layer in range(1, half + 1):
        for u_idx in range(b):
            if (layer, u_idx) in special:
                continue
            for x in range(w):
                left.append((layer, u_idx * w + x))
                right.append((layer + half, u_idx * w + x))
    return left, right


def _assemble(level: int, dup: DupGraph, w: int,
              subs: tuple[tuple[Instance, ...], ...], t: int) -> Instance:
    half = dup.graph.num_layers
    layer_size = dup.graph.layer_size * w
    players: list[set[Edge]] = [set() for _ in range(level + 1)]
    prov: dict[Edge, tuple[str, int, int]] = {}
    for i0, row in enumerate(subs):
        upc = dup.upcs[i0]
        for j0, sub in enumerate(row):
            path = upc.paths[j0]
            for a, edge_set in enumerate(sub.players):
                for (la, xa), (lb, xb) in edge_set:
                    ua = path.vertices[la - 1][1]
                    ub = path.vertices[lb - 1][1]
                    for off, side in ((0, "L"), (half, "R")):
                        e = make_edge((la + off, ua * w + xa), (lb + off, ub * w + xb))
                        if e in prov:
                            raise InvalidInputError(
                                f"block collision at {e}; collection graph is invalid"
                            )
                        players[a].add(e)
                        prov[e] = (side, i0 + 1, j0 + 1)
    left, right = _nonspecial_blocks(dup, t, w)
    clique = {make_edge(u, v) for u in left for v in right}
    players[level] = clique
    all_edges = frozenset().union(*players) if players else frozenset()
    graph = LayeredGraph(num_layers=2 * half, layer_size=layer_size, edges=all_edges)
    return Instance(
        r=level, graph=graph, players=tuple(frozenset(s) for s in players),
        t=t, dup=dup, inner_layer_size=w,
        subinstances=subs, base_bits=None, provenance=prov,
    )


# -- sampling ---------------------------------------------------------------


def _node_rng(seed: int, path: tuple[int, ...]) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=path + (0,))
    return np.random.Generator(np.random.Philox(ss))


def sample_tree(plans: list[LevelPlan], n_0: int, seed: int) -> dict:
    """Random choice tree: one t per node, one bit string per leaf.

    Every node draws from its own substream keyed by the path of
    (i, j) indices leading to it, so subtrees are independent and
    reproducible in isolation.
    """
    p_0 = n_0 // 2

    def node(level: int, path: tuple[int, ...]) -> dict:
        rng = _node_rng(seed, path)
        if level == 0:
            bits = rng.integers(0, 2, size=p_0)
            return {"bits": "".join(str(int(b)) for b in bits)}
        plan = plans[level - 1]
        t = int(rng.integers(1, plan.dup.params.q + 1))
        subs = [
            [node(level - 1, path + (i, j)) for j in range(1, plan.dup.params.p + 1)]
            for i in range(1, plan.dup.params.q + 1)
        ]
        return {"t": t, "subs": subs}

    return node(len(plans), ())


def build_instance(plans: list[LevelPlan], n_0: int, tree: dict) -> Instance:
    """Deterministic assembly from a choice tree."""

    def build(level: int, node: dict) -> Instance:
        if level == 0:
            if "bits" not in node:
                raise FormatError("leaf node missing bits")
            return _base_instance(n_0, node["bits"])
        plan = plans[level - 1]
        q, p = plan.dup.params.q, plan.dup.params.p
        if "t" not in node or "subs" not in node:
            raise FormatError(f"level {level} node missing t or subs")
        t = node["t"]
        if not 1 <= t <= q:
            raise FormatError(f"t={t} outside 1..{q} at level {level}")
        subs_node = node["subs"]
        if len(subs_node) != q or any(len(row) != p for row in subs_node):
            raise FormatError(f"level {level} sub-tree is not {q} x {p}")
        subs = tuple(tuple(build(level - 1, cell) for cell in row) for row in subs_node)
        return _assemble(level, plan.dup, plan.w, subs, t)

    return build(len(plans), tree)


def sample_instance(r: int, params: ParamTable | ToyParams, seed: int,
                    budget: Budget | None = None) -> Instance:
    if r != params.r:
        raise InvalidInputError(f"r={r} does not match params.r={params.r}")
    plans = plan_levels(params, budget)
    tree = sample_tree(plans, params.n_0, seed)
    return build_instance(plans, params.n_0, tree)


def sample_base_instance(n_0: int, seed: int) -> Instance:
    _check_n0(n_0)
    tree = sample_tree([], n_0, seed)
    return _base_instance(n_0, tree["bits"])


# -- structural properties ---------------------------------------------------


def special_subgraphs(inst: Instance, side: str) -> list[Subgraph]:
    return [inst.special_subgraph(side, j) for j in range(1, inst.p_achieved + 1)]


def check_properties(inst: Instance, recurse: bool = True) -> VerificationReport:
    """Named structural checks, recursing into every sub-instance."""
    report = VerificationReport()

    def walk(node: Instance, prefix: str) -> None:
        g = node.graph
        report.add(prefix + "layering", g.well_formed(), "malformed layered graph")
        covered: dict[Edge, int] = {}
        for part in node.players:
            for e in part:
                covered[e] = covered.get(e, 0) + 1
        report.add(
            prefix + "player_partition",
            set(covered) == set(g.edges) and all(c == 1 for c in covered.values()),
            "player edge sets do not partition the graph",
        )
        if node.r == 0:
            report.add(prefix + "base_shape",
                       g.num_layers == 2 and len(node.players) == 1
                       and node.base_bits is not None
                       and g.edges == frozenset(
                           make_edge((1, i), (2, i))
                           for i, c in enumerate(node.base_bits) if c == "1"),
                       "base instance disagrees with its bits")
            return
        report.add(prefix + "layer_count", g.num_layers == 2 ** (node.r + 1),
                   f"expected {2 ** (node.r + 1)} layers")
        report.add(prefix + "player_count", len(node.players) == node.r + 1,
                   f"expected {node.r + 1} players")

        half = node.half_layers
        left_edges = {
            e for e, (s, _, _) in node.provenance.items() if s == "L"
        }
        right_edges = {
            e for e, (s, _, _) in node.provenance.items() if s == "R"
        }
        mirrored = {
            make_edge(node.copy_map(u), node.copy_map(v)) for u, v in left_edges
        }
        report.add(prefix + "copies_identical", mirrored == right_edges,
                   "the two copies differ")

        specials = {
            side: special_subgraphs(node, side) for side in ("L", "R")
        }
        all_special_verts: set[Vertex] = set()
        disjoint = True
        for side in ("L", "R"):
            for sub in specials[side]:
                if all_special_verts & sub.vertices:
                    disjoint = False
                all_special_verts |= sub.vertices
        report.add(prefix + "special_disjoint", disjoint,
                   "special blocks overlap")

        induced = {
            e for e in g.edges if e[0] in all_special_verts and e[1] in all_special_verts
        }
        union_special = frozenset(
            e for side in ("L", "R") for sub in specials[side] for e in sub.edges
        )
        report.add(prefix + "special_induced", induced == union_special,
                   "induced subgraph on special blocks has foreign or missing edges")

        rebuilt: list[set[Edge]] = [set() for _ in range(node.r)]
        w = node.inner_layer_size
        for i in range(1, node.q_achieved + 1):
            for j in range(1, node.p_achieved + 1):
                path = node.dup.upcs[i - 1].paths[j - 1]
                sub = node.subinstance(i, j)
                for a, edge_set in enumerate(sub.players):
                    for (la, xa), (lb, xb) in edge_set:
                        ua = path.vertices[la - 1][1]
                        ub = path.vertices[lb - 1][1]
                        for off in (0, half):
                            rebuilt[a].add(
                                make_edge((la + off, ua * w + xa), (lb + off, ub * w + xb))
                            )
        for a in range(node.r):
            report.add(prefix + f"player_{a + 1}_from_subparts",
                       rebuilt[a] == set(node.players[a]),
                       "player input is not a function of its inner parts")
        left, right = _nonspecial_blocks(node.dup, node.t, w)
        clique = {make_edge(u, v) for u in left for v in right}
        report.add(prefix + "join_from_t", clique == set(node.players[-1]),
                   "cross-copy join is not a function of t")
        report.add(prefix + "join_count",
                   len(node.players[-1]) == len(left) * len(right),
                   "cross-copy join has the wrong size")
        if recurse:
            for i in range(1, node.q_achieved + 1):
                for j in range(1, node.p_achieved + 1):
                    walk(node.subinstance(i, j), prefix + f"sub[{i}][{j}].")

    walk(inst, "")
    return report


# ---------------------------------------------------------------------------
# misr v1 file format
#
#   misr 1
#   <one-line JSON metadata>
#   player 1
#   <u> <v>                 flat vertex ids, sorted
#   ...
#   player r+1
#   ...
#   end
#
# Flat id of (layer, idx) is (layer-1) * layer_size + idx; the left copy
# occupies the first half of the layer range.  The metadata carries the
# level dimensions and the full choice tree, so the reader rebuilds the
# instance deterministically and validates the edge sections against it.
# ---------------------------------------------------------------------------


def _levels_meta(inst: Instance) -> list[dict]:
    levels = []
    cur = inst
    while cur.r >= 1:
        dp = cur.dup.params
        levels.append(
            {
                "j": cur.r,
                "ell": dp.ell,
                "d": dp.d,
                "k": dp.k,
                "b": cur.dup.graph.layer_size,
                "w": cur.inner_layer_size,
                "p": dp.p,
                "q": dp.q,
            }
        )
        cur = cur.subinstance(1, 1)
    levels.reverse()
    return levels


def _tree_of(inst: Instance) -> dict:
    if inst.r == 0:
        return {"bits": inst.base_bits}
    return {
        "t": inst.t,
        "subs": [
            [_tree_of(inst.subinstance(i, j)) for j in range(1, inst.p_achieved + 1)]
            for i in range(1, inst.q_achieved + 1)
        ],
    }


def write_instance(inst: Instance, fh: IO[str], seed: int | None = None,
                   mode: str = "toy", extra: dict | None = None) -> None:
    base = inst
    while base.r >= 1:
        base = base.subinstance(1, 1)
    meta = {
        "version": 1,
        "r": inst.r,
        "seed": seed,
        "mode": mode,
        "n0": base.graph.layer_size * 2,
        "levels": _levels_meta(inst),
        "tree": _tree_of(inst),
    }
    if extra:
        meta.update(extra)
    fh.write("misr 1\n")
    fh.write(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
    for a, part in enumerate(inst.players, start=1):
        fh.write(f"player {a}\n")
        for u, v in sorted((inst.graph.flat_id(x), inst.graph.flat_id(y)) for x, y in part):
            fh.write(f"{u} {v}\n")
    fh.write("end\n")


@dataclass(frozen=True)
class ReadInstance:
    instance: Instance
    meta: dict
    stored_players: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def matches(self) -> bool:
        rebuilt = tuple(
            tuple(
                sorted(
                    (self.instance.graph.flat_id(u), self.instance.graph.flat_id(v))
                    for u, v in part
                )
            )
            for part in self.instance.players
        )
        return rebuilt == tuple(tuple(p) for p in self.stored_players)


def read_instance(fh: IO[str], budget: Budget | None = None) -> ReadInstance:
    lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    if len(lines) < 3 or lines[0].strip() != "misr 1" or lines[-1].strip() != "end":
        raise FormatError("not a misr v1 file")
    try:
        meta = json.loads(lines[1])
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad metadata: {exc}") from exc
    for key in ("r", "n0", "levels", "tree"):
        if key not in meta:
            raise FormatError(f"metadata missing {key!r}")
    r, n0 = meta["r"], meta["n0"]
    if not isinstance(r, int) or r < 0:
        raise FormatError(f"bad r: {r!r}")
    plans = []
    budget = budget or default_budget()
    if len(meta["levels"]) != r:
        raise FormatError(f"expected {r} level entries, found {len(meta['levels'])}")
    for lvl in meta["levels"]:
        try:
            dup = pad_dup(build_dup(lvl["ell"], lvl["d"], lvl["k"], budget), lvl["b"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad level entry {lvl!r}") from exc
        if lvl["k"] != 2 ** lvl["j"] - 1:
            raise FormatError(f"level {lvl['j']} must use k = 2^j - 1")
        plans.append(LevelPlan(j=lvl["j"], dup=dup, w=lvl["w"]))
    inst = build_instance(plans, n0, meta["tree"])
    sections: list[list[tuple[int, int]]] = []
    current: list[tuple[int, int]] | None = None
    for ln in lines[2:-1]:
        parts = ln.split()
        if parts[0] == "player":
            if len(parts) != 2 or int(parts[1]) != len(sections) + 1:
                raise FormatError(f"unexpected section header {ln!r}")
            current = []
            sections.append(current)
        else:
            if current is None or len(parts) != 2:
                raise FormatError(f"unexpected line {ln!r}")
            current.append((int(parts[0]), int(parts[1])))
    if len(sections) != len(inst.players):
        raise FormatError(
            f"expected {len(inst.players)} player sections, found {len(sections)}"
        )
    return ReadInstance(
        instance=inst,
        meta=meta,
        stored_players=tuple(tuple(s) for s in sections),
    )
