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

Storage: edges are kept in flat ids (layer - 1) * layer_size + idx,
each edge once.  Players 1..r each hold one sorted (m, 2) int64 array,
smaller id first.  Player r+1's join is a ``Biclique(L, R)``: the sorted
left-copy ids L off collection t's paths and their mirrors R = L + shift,
|L| * |R| edges in 2 |L| words, never expanded by assembly, sampling or
the misr reader.  ``check_properties``, the misr writer and reader and the
streaming runners take it in closed form; other consumers ``expand()`` it
to its sorted (m, 2) array.  A plain (m, 2) array is a valid join too.
``inst.players[a]`` and ``inst.graph.edges`` are read-only set views over
the sections (O(1) ``len``, (layer, idx) tuple pairs on iteration).

Sampling is driven by a counter-based generator keyed by the position
in the recursion tree, so resampling one sub-instance never perturbs
any other: substream (i, j) of a node extends the node's key.
"""

from __future__ import annotations

import json
import math
import operator
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Callable, Iterator

import numpy as np

from .budgets import Budget, default_budget
from .dupgraph import (
    DupGraph,
    Biclique,
    EdgeView,
    LayeredGraph,
    build_dup,
    build_dup_from_size,
    check_key_range,
    edge_keys,
    expand,
    pad_dup,
    path_lut,
    stack_edges,
)
from .errors import (
    BudgetExceededError,
    FormatError,
    InvalidInputError,
    SizeRelationViolatedError,
    TooSmallError,
)
from .numutil import integer_nth_root
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


def _count_with_slack(m: int) -> int:
    """floor(m / exp(ln(m)^(3/4))), at least 1: the declared p and q."""
    if m < 1:
        raise InvalidInputError(f"need a positive layer total, got {m}")
    denom = math.exp(math.log(m) ** 0.75)
    try:
        value = int(m / denom)
    except OverflowError:
        value = m // (int(denom) + 1)
    return max(1, value)


def compute_parameters(r: int, n: int, n_0: int) -> ParamTable:
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
        count = _count_with_slack(b_j * 2**j)
        levels.append(LevelParams(j=j, n=sizes[j], b=b_j, p=count, q=count, k=2**j - 1))
    return ParamTable(r=r, n=n, n_0=n_0, levels=tuple(levels))


@dataclass(frozen=True)
class LevelPlan:
    j: int
    dup: DupGraph
    w: int                 # inner layer width at this level


def _plan(n_0: int, r: int, level_dup: Callable[[int, int], DupGraph],
          budget: Budget) -> list[LevelPlan]:
    """The plans of a depth-r instance on n_0 base vertices, with level j's
    collection graph level_dup(j, k), k = 2^j - 1.  BudgetExceededError if
    the instance may hold over budget.max_vectors edges: E_0 = n_0 / 2 (all
    base slots filled), E_j = 2 p q E_{j-1} + |L|^2 with |L| = 2^j w (b - p)
    the vertices on either side of level j's join."""
    _check_n0(n_0)
    plans, n_prev, edges = [], n_0, n_0 // 2
    for j in range(1, r + 1):
        dup = level_dup(j, 2**j - 1)
        w = n_prev // 2**j
        if w < 1:
            raise SizeRelationViolatedError(level=j, n=n_prev, required=2**j)
        b, p, q = dup.layer_size, dup.params.p, dup.params.q
        n_prev = 2 * b * n_prev
        check_key_range(n_prev)
        edges = 2 * p * q * edges + (2**j * w * (b - p)) ** 2
        if edges > budget.max_vectors:
            raise BudgetExceededError(f"level {j} may hold {edges} edges, cap {budget.max_vectors}")
        plans.append(LevelPlan(j=j, dup=dup, w=w))
    return plans


def plan_levels(params: ParamTable | ToyParams, budget: Budget | None = None) -> list[LevelPlan]:
    """Concrete collection graph and inner width for every level: toy
    mode's (ell, d), or the build_dup_from_size choice on each level's
    b * 2^j vertices, which must have q >= 2 for t to hide anything."""
    budget = budget or default_budget()

    def level_dup(j: int, k: int) -> DupGraph:
        if isinstance(params, ToyParams):
            return build_dup(*params.levels[j - 1], k, budget)
        size = params.level(j).b * 2**j
        dup = build_dup_from_size(size, k, budget)
        if dup.params.q == 1:
            raise TooSmallError(f"level {j}: every collection graph on {size} vertices has q = 1")
        return dup

    return _plan(params.n_0, params.r, level_dup, budget)


@dataclass(frozen=True, eq=False)
class Instance:
    """A hard instance; ``player_edges[a]`` holds player a+1's edges (see
    the module docstring), ``graph.edges`` and ``players[a]`` view them."""

    r: int
    player_edges: tuple[np.ndarray | Biclique, ...]
    t: int | None = None
    dup: DupGraph | None = None
    inner_layer_size: int | None = None
    subinstances: tuple[tuple["Instance", ...], ...] | None = None
    base_bits: str | None = None

    @cached_property
    def graph(self) -> LayeredGraph:
        if self.dup is None:
            layers, size = 2, len(self.base_bits)
        else:
            layers = 2 * self.dup.graph.num_layers
            size = self.dup.graph.layer_size * self.inner_layer_size
        return LayeredGraph(layers, size, EdgeView(self.player_edges, size, layers * size))

    @cached_property
    def players(self) -> tuple[EdgeView, ...]:
        g = self.graph
        return tuple(EdgeView((part,), g.layer_size, g.n_vertices) for part in self.player_edges)

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

    def _special_blocks(self, side: str, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The j-th special block subgraph of one copy in flat ids: its
        vertices, and sub-instance (t, j)'s edges mapped onto them."""
        lut = path_lut(self.dup, self.t, j, self.inner_layer_size)
        lut += (side == "R") * self.half_layers * self.graph.layer_size
        return lut, lut[stack_edges(self.subinstance(self.t, j).player_edges)]


def _ascending(keys: np.ndarray) -> bool:
    return bool(np.all(keys[1:] > keys[:-1]))


def _base_edges(bits: str) -> np.ndarray:
    """Slot i's edge (1, i)-(2, i) for every 1 bit, in flat ids."""
    edges = [(i, len(bits) + i) for i, c in enumerate(bits) if c == "1"]
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def _base_instance(n_0: int, bits: str) -> Instance:
    _check_n0(n_0)
    if len(bits) != n_0 // 2 or any(c not in "01" for c in bits):
        raise InvalidInputError(f"need {n_0 // 2} bits, got {bits!r}")
    return Instance(r=0, player_edges=(_base_edges(bits),), base_bits=bits)


def _nonspecial_left(dup: DupGraph, t: int, w: int) -> np.ndarray:
    """Sorted left-copy flat ids of the block vertices off collection t's
    paths; adding half the layers' ids gives their right-copy mirrors."""
    keep = np.ones(dup.graph.n_vertices * w, dtype=bool)
    keep[np.concatenate([path_lut(dup, t, j, w) for j in range(1, dup.params.p + 1)])] = False
    return np.flatnonzero(keep)


def _embedded_players(dup: DupGraph, w: int,
                      subs: tuple[tuple[Instance, ...], ...]) -> list[np.ndarray]:
    """Every player's edges but the join's: each sub-instance's player a,
    mapped along its collection path into the left copy, sorted, then the
    same edges shifted into the right copy (all of whose ids are larger)."""
    mapped = []         # per sub-instance, its players' edges in left-copy ids
    for i, row in enumerate(subs, start=1):
        for j, sub in enumerate(row, start=1):
            lut = path_lut(dup, i, j, w)
            mapped.append([lut[expand(edges)] for edges in sub.player_edges])
    players = []
    for parts in zip(*mapped):      # one player's edges from every sub-instance
        left = np.concatenate(parts)
        left = left[np.lexsort((left[:, 1], left[:, 0]))]
        players.append(np.concatenate([left, left + dup.graph.n_vertices * w]))
    return players


def _assemble(level: int, dup: DupGraph, w: int,
              subs: tuple[tuple[Instance, ...], ...], t: int) -> Instance:
    # edge-disjoint collections of vertex-disjoint paths map no two edges to one
    players = _embedded_players(dup, w, subs)
    left = _nonspecial_left(dup, t, w)
    players.append(Biclique(left, left + dup.graph.num_layers * dup.graph.layer_size * w))
    return Instance(r=level, player_edges=tuple(players), t=t, dup=dup,
                    inner_layer_size=w, subinstances=subs)


# -- sampling ---------------------------------------------------------------


def _node_rng(seed: int, path: tuple[int, ...]) -> np.random.Generator:
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
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
        if not isinstance(node, dict):
            raise FormatError(f"level {level} node is not an object: {node!r}")
        if level == 0:
            if not isinstance(node.get("bits"), str):
                raise FormatError("leaf node missing bits")
            return _base_instance(n_0, node["bits"])
        plan = plans[level - 1]
        q, p = plan.dup.params.q, plan.dup.params.p
        if "t" not in node or "subs" not in node:
            raise FormatError(f"level {level} node missing t or subs")
        t = node["t"]
        if not isinstance(t, int) or not 1 <= t <= q:
            raise FormatError(f"t={t!r} outside 1..{q} at level {level}")
        subs_node = node["subs"]
        if not isinstance(subs_node, list) or len(subs_node) != q or any(
                not isinstance(row, list) or len(row) != p for row in subs_node):
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
    return _base_instance(n_0, sample_tree([], n_0, seed)["bits"])


# -- structural properties ---------------------------------------------------


def check_properties(inst: Instance, recurse: bool = True) -> VerificationReport:
    """Named structural checks, recursing into every sub-instance.

    Every check compares flat-id arrays.  Edges are handled as keys
    u * n + v, so sorting keys sorts edges by (u, v).  A Biclique join
    whose every edge crosses the copies is checked in closed form, on its
    two id vectors and L/R masks, with the verdicts its expansion would
    get; any other Biclique section is expanded."""
    report = VerificationReport()

    def walk(node: Instance, prefix: str) -> None:
        g, parts = node.graph, node.player_edges
        n, size = g.n_vertices, g.layer_size
        shift = node.half_layers * size         # the right copy is the left one shifted
        join = parts[-1]
        closed = (isinstance(join, Biclique) and len(join) > 0
                  and join.left.max() < shift <= join.right.min())
        arrays = [expand(p) for p in (parts[:-1] if closed else parts)]
        layering = all(np.all((0 <= u) & (u < v) & (v < n) & (u // size != v // size))
                       and _ascending(edge_keys(p, n)) for p in arrays for u, v in [p.T])
        # a crossing L x R is sorted and in range iff L and R are
        layering = layering and (not closed or _ascending(join.left) and _ascending(join.right)
                                 and join.left[0] >= 0 and join.right[-1] < n)
        report.add(prefix + "layering", layering,
                   "malformed layered graph, or a player's edges are not sorted")
        if not layering:
            return      # every check below indexes by vertex id
        every = np.sort(np.concatenate([np.empty(0, np.int64),
                                        *(edge_keys(p, n) for p in arrays)]))
        u, v = np.divmod(every, n)
        if closed:
            in_left, in_right = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
            in_left[join.left] = in_right[join.right] = True
        report.add(prefix + "player_partition",
                   _ascending(every) and not (closed and (in_left[u] & in_right[v]).any()),
                   "player edge sets do not partition the graph")
        if node.r == 0:
            report.add(prefix + "base_shape",
                       g.num_layers == 2 and len(parts) == 1 and node.base_bits is not None
                       and np.array_equal(expand(parts[0]), _base_edges(node.base_bits)),
                       "base instance disagrees with its bits")
            return
        report.add(prefix + "layer_count", g.num_layers == 2 ** (node.r + 1),
                   f"expected {2 ** (node.r + 1)} layers")
        report.add(prefix + "player_count", len(parts) == node.r + 1,
                   f"expected {node.r + 1} players")
        report.add(prefix + "copies_identical",
                   np.array_equal(every[v < shift] + shift * (n + 1), every[u >= shift]),
                   "the two copies differ")

        blocks = [node._special_blocks(side, j)
                  for side in ("L", "R") for j in range(1, node.p_achieved + 1)]
        special = np.concatenate([verts for verts, _ in blocks])
        report.add(prefix + "special_disjoint", len(np.unique(special)) == len(special),
                   "special blocks overlap")
        inside = np.zeros(n, dtype=bool)
        inside[special] = True
        union_special = np.sort(np.concatenate([edge_keys(edges, n) for _, edges in blocks]))
        report.add(prefix + "special_induced",
                   np.array_equal(every[inside[u] & inside[v]], union_special)
                   and not (closed and inside[join.left].any() and inside[join.right].any()),
                   "induced subgraph on special blocks has foreign or missing edges")

        w = node.inner_layer_size
        rebuilt = _embedded_players(node.dup, w, node.subinstances)
        for a in range(node.r):
            report.add(prefix + f"player_{a + 1}_from_subparts",
                       a < len(parts) - 1 and np.array_equal(rebuilt[a], arrays[a]),
                       "player input is not a function of its inner parts")
        left = _nonspecial_left(node.dup, node.t, w)
        # |left|^2 distinct (sorted) pairs from left x (left + shift): all of it
        sized = len(join) == len(left) ** 2
        tails, heads = (join.left, join.right) if closed else arrays[-1].T
        in_blocks = np.isin(tails, left).all() and np.isin(heads, left + shift).all()
        report.add(prefix + "join_from_t", sized and bool(in_blocks),
                   "cross-copy join is not a function of t")
        report.add(prefix + "join_count", sized, "cross-copy join has the wrong size")
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
# instance deterministically.  Sections are written in blocks of at most
# MISR_BLOCK_ROWS rows (``_misr_blocks``): a Biclique's from numpy bytes,
# one row template per width run of L with the head digits written through
# strided views; an array's by str.join per run of equal u.  The reader
# regenerates the same blocks from the rebuilt sections and compares them
# in place with the text (``str.startswith`` at an offset, no copy), so a
# file as written is never parsed.  In any other text, each section that
# compares equal keeps the rebuilt one and only the others are parsed.
# ---------------------------------------------------------------------------

MISR_BLOCK_ROWS = 1 << 16


def _level_entry(plan: LevelPlan) -> dict:
    dp = plan.dup.params
    return {"j": plan.j, "ell": dp.ell, "d": dp.d, "k": dp.k, "b": plan.dup.layer_size,
            "w": plan.w, "p": dp.p, "q": dp.q}


def _tree_of(inst: Instance) -> dict:
    if inst.r == 0:
        return {"bits": inst.base_bits}
    return {"t": inst.t, "subs": [[_tree_of(sub) for sub in row] for row in inst.subinstances]}


_POWERS = 10 ** np.arange(19, dtype=np.int64)      # 10^0 .. 10^18


def _width_runs(ids: np.ndarray) -> Iterator[np.ndarray]:
    """The ASCII digits of each run of ids of one decimal width w, in order,
    as a (run length, w) uint8 array; ids are sorted and non-negative."""
    cuts = [0, *np.searchsorted(ids, _POWERS[1:]).tolist(), len(ids)]
    for w, (a, b) in enumerate(zip(cuts, cuts[1:]), start=1):
        if a < b:
            yield (ids[a:b, None] // _POWERS[w - 1::-1] % 10 + 48).astype(np.uint8)


def _join_blocks(join: Biclique) -> Iterator[str]:
    """A Biclique's misr lines from numpy bytes.  For each run of L ids of
    one decimal width w, a row template holds R's " v\\n" tails behind w
    placeholder bytes per line.  A block broadcasts it over a chunk of L
    rows, then writes each head digit column through a strided view: in a
    run of R ids of one width every line has the same length.  A row
    longer than MISR_BLOCK_ROWS lines goes out in pieces of that many."""
    m, rows = len(join.right), MISR_BLOCK_ROWS
    tails = [np.column_stack([np.full(len(d), 32, np.uint8), d, np.full(len(d), 10, np.uint8)])
             for d in _width_runs(join.right)]
    for heads in _width_runs(join.left):
        w = heads.shape[1]
        lines = [np.column_stack([np.zeros((len(t), w), np.uint8), t]) for t in tails]
        template = np.concatenate([x.ravel() for x in lines])
        run_at = np.cumsum([0, *(x.size for x in lines)])   # each R run's first byte
        widths = np.repeat([x.shape[1] for x in lines], [len(x) for x in lines])
        line_at = np.concatenate([[0], np.cumsum(widths)])  # each line's first byte
        per = max(rows // m, 1)
        for i in range(0, len(heads), per):
            part = heads[i:i + per]
            chunk = np.empty((len(part), len(template)), dtype=np.uint8)
            chunk[:] = template
            for at, x in zip(run_at, lines):
                for d in range(w):
                    chunk[:, at + d:at + x.size:x.shape[1]] = part[:, d, None]
            for lo in range(0, m, rows):    # one piece unless m > rows, and then one row
                yield str(chunk[:, line_at[lo]:line_at[min(lo + rows, m)]], "ascii")


def _misr_blocks(edges: np.ndarray | Biclique) -> Iterator[str]:
    """misr lines "u v\\n" of an edge section of non-negative ids, at most
    MISR_BLOCK_ROWS rows per string.  A Biclique's come from
    ``_join_blocks``; an array's from one str.join per run of equal u, over
    " v\\n" strings made once per distinct v of the section."""
    if not len(edges):
        return
    if isinstance(edges, Biclique):
        yield from _join_blocks(edges)
        return
    distinct, which = np.unique(edges[:, 1], return_inverse=True)
    tails = np.array([f" {v}\n" for v in distinct.tolist()], dtype=object)
    for lo in range(0, len(edges), MISR_BLOCK_ROWS):
        block = edges[lo:lo + MISR_BLOCK_ROWS]
        vs = tails[which[lo:lo + MISR_BLOCK_ROWS]].tolist()
        u = block[:, 0]
        cuts = [0, *(np.flatnonzero(u[1:] != u[:-1]) + 1).tolist(), len(u)]
        heads = map(str, u[cuts[:-1]].tolist())     # u once per run, then " v\n" each
        yield "".join(h + h.join(vs[a:b]) for h, a, b in zip(heads, cuts, cuts[1:]))


def write_instance(inst: Instance, fh: IO[str], seed: int | None = None,
                   mode: str = "toy", extra: dict | None = None) -> None:
    levels, base = [], inst
    while base.r >= 1:
        levels.insert(0, _level_entry(LevelPlan(j=base.r, dup=base.dup, w=base.inner_layer_size)))
        base = base.subinstance(1, 1)
    meta = {"version": 1, "r": inst.r, "seed": seed, "mode": mode,
            "n0": base.graph.layer_size * 2, "levels": levels, "tree": _tree_of(inst)}
    if extra:
        meta.update(extra)
    fh.write("misr 1\n")
    fh.write(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
    for a, edges in enumerate(inst.player_edges, start=1):
        fh.write(f"player {a}\n")
        fh.writelines(_misr_blocks(edges))
    fh.write("end\n")


@dataclass(frozen=True)
class ReadInstance:
    instance: Instance
    meta: dict
    # the rebuilt sections when the text is as written; else each section
    # whose lines are as written as rebuilt, the others as parsed, (m, 2) int64
    stored_players: tuple[np.ndarray | Biclique, ...]

    @property
    def matches(self) -> bool:
        stored, rebuilt = self.stored_players, self.instance.player_edges
        return stored is rebuilt or len(stored) == len(rebuilt) and all(
            a is b or np.array_equal(a, expand(b)) for a, b in zip(stored, rebuilt))


def _parse_section(text: str) -> np.ndarray:
    """A section's "u v" lines as an (m, 2) int64 array: in one call if the
    text is in the form ``write_instance`` produces, else line by line."""
    with warnings.catch_warnings():
        # text fromstring cannot read to its end warns (or, later, raises)
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            ids = np.fromstring(text, dtype=np.int64, sep=" ")
        except ValueError:
            ids = None
    if ids is not None and len(ids) % 2 == 0 and ids.min(initial=0) >= 0:
        edges = ids.reshape(-1, 2)
        if "".join(_misr_blocks(edges)) == text:
            return edges
    lines = [ln.split() for ln in text.split("\n") if ln.strip()]
    for parts in lines:
        if len(parts) != 2:
            raise FormatError(f"unexpected line {' '.join(parts)!r}")
    try:
        return np.array(lines, dtype=np.int64).reshape(-1, 2)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"vertex ids must be 64-bit integers: {exc}") from exc


# the first two non-blank lines and where the body after them starts, as
# text.lstrip().partition("\n") twice would split them, but copying nothing
_FRAME = re.compile(r"\s*(.*)\n?\s*(.*)\n?")


# a line whose first token is "player", where the parser starts a section
_HEADER = re.compile(r"^[^\S\n]*player\b", re.M)


def _written_end(text: str, pos: int, end: int, edges: np.ndarray | Biclique) -> int:
    """Where the misr lines of edges end if text[pos:end] starts with them,
    else -1, compared a block at a time, in place."""
    for chunk in _misr_blocks(edges):
        if not text.startswith(chunk, pos, end):
            return -1
        pos += len(chunk)
    return pos


def read_instance(fh: IO[str], budget: Budget | None = None) -> ReadInstance:
    text = fh.read()
    frame = _FRAME.match(text)
    head, meta_line, body, end = frame[1], frame[2], frame.end(), len(text)
    while end > body and text[end - 1].isspace():     # the last line is [last, end)
        end -= 1
    last = max(text.rfind("\n", body, end), body)
    if head.strip() != "misr 1" or text[last:end].strip() != "end":
        raise FormatError("not a misr v1 file")
    try:
        meta = json.loads(meta_line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"metadata is not a JSON object: {meta!r}")
    for key in ("r", "n0", "levels", "tree"):
        if key not in meta:
            raise FormatError(f"metadata missing {key!r}")
    r, n0 = meta["r"], meta["n0"]
    if not isinstance(r, int) or r < 0:
        raise FormatError(f"bad r: {r!r}")
    if not isinstance(n0, int) or not isinstance(meta["levels"], list):
        raise FormatError(f"bad n0 {n0!r} or levels {meta['levels']!r}")
    budget, levels = budget or default_budget(), meta["levels"]
    if len(levels) != r:
        raise FormatError(f"expected {r} level entries, found {len(levels)}")

    def stored_dup(j: int, k: int) -> DupGraph:
        lvl = levels[j - 1]
        try:
            return pad_dup(build_dup(lvl["ell"], lvl["d"], k, budget), lvl["b"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise FormatError(f"bad level entry {lvl!r}") from exc

    plans = _plan(n0, r, stored_dup, budget)
    built = [_level_entry(plan) for plan in plans]
    if levels != built:
        raise FormatError(f"level entries {levels!r} are not the levels they build, {built!r}")
    inst = build_instance(plans, n0, meta["tree"])
    # a section runs from a line whose first token is "player" to the newline
    # before the next one.  A section as written, compared in place, keeps
    # the rebuilt one; only the others are parsed.
    rebuilt, sections = inst.player_edges, []
    found = _HEADER.search(text, body, last)
    preamble = text[body:found.start() if found else last]
    if preamble.strip():
        raise FormatError(f"unexpected line {preamble.strip().splitlines()[0]!r}")
    while found:
        k, start = len(sections) + 1, found.start()
        written = f"player {k}\n"
        if k <= len(rebuilt) and text.startswith(written, start, last + 1):
            stop = _written_end(text, start + len(written), last + 1, rebuilt[k - 1])
            after = _HEADER.match(text, stop, last) if 0 < stop <= last else None
            if stop == last + 1 or after:
                sections.append(rebuilt[k - 1])
                found = after
                continue
        eol = text.find("\n", start, last)
        eol = last if eol < 0 else eol
        header = text[start:eol]
        parts = header.split()
        try:
            if parts[0] != "player" or len(parts) != 2 or int(parts[1]) != k:
                raise ValueError
        except ValueError:
            raise FormatError(f"unexpected section header {header!r}") from None
        found = _HEADER.search(text, eol + 1, last)
        edges = text[eol + 1:found.start() - 1 if found else last]
        sections.append(_parse_section(edges + "\n" if edges else ""))
    if len(sections) != len(rebuilt):
        raise FormatError(f"expected {len(rebuilt)} player sections, found {len(sections)}")
    if all(map(operator.is_, sections, rebuilt)):
        return ReadInstance(instance=inst, meta=meta, stored_players=rebuilt)
    return ReadInstance(instance=inst, meta=meta, stored_players=tuple(sections))
