"""Tuple-and-set hard instances: slow, obviously-correct reference code.

This is the instance assembly with every edge a ``((layer, idx), (layer,
idx))`` tuple pair kept in Python sets, a provenance dict naming each
embedded edge's copy, collection and path, and the structural checks
and misr writer that work on those sets.  ``misforge.hardness`` stores
one sorted flat-id array per player instead; the differential tests in
``test_instance_arrays.py`` require both to agree on every player's edge
set, every special subgraph, the misr text and every check verdict.

Both build from the same choice tree (``misforge.sample_tree``), so the
oracle only replaces the edge representation, never the sampling.

The module also keeps the misr reader that parses every section
(``read_instance``); ``misforge.hardness.read_instance`` must raise the
same errors and otherwise store the same arrays with the same verdict.
And it keeps the set-based predicate extraction
(``extract_predicate_from_mis``), which restricts a vertex set to each
special ``Subgraph`` and pulls it back through a dict; the mask-based
``misforge.oracle.extract_predicate_from_mis`` must give the same bits or
raise the same error for every candidate.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, replace
from typing import IO, Mapping

import numpy as np

from dup_oracle import collection
from misforge import hardness
from misforge.budgets import Budget, default_budget
from misforge.dupgraph import DupGraph, Edge, LayeredGraph, Vertex, build_dup, make_edge, pad_dup
from embedding_oracle import layered_well_formed
from misforge.errors import (
    FormatError,
    InconsistentMisError,
    InvalidInputError,
    NotAnMisError,
)
from misforge.oracle import _follow_sequence
from misforge.report import VerificationReport
from mis_oracle import is_mis


@dataclass(frozen=True)
class Subgraph:
    """Vertex-induced view used for restriction checks."""

    vertices: frozenset
    edges: frozenset


@dataclass(frozen=True)
class OracleInstance:
    r: int
    graph: LayeredGraph
    players: tuple[frozenset[Edge], ...]
    t: int | None
    dup: DupGraph | None
    inner_layer_size: int | None
    subinstances: tuple[tuple["OracleInstance", ...], ...] | None
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

    def subinstance(self, i: int, j: int) -> "OracleInstance":
        return self.subinstances[i - 1][j - 1]

    def copy_map(self, v: Vertex) -> Vertex:
        half = self.half_layers
        layer, idx = v
        return (layer + half, idx) if layer <= half else (layer - half, idx)

    def special_subgraph(self, side: str, j: int) -> Subgraph:
        off = 0 if side == "L" else self.half_layers
        w = self.inner_layer_size
        path = collection(self.dup, self.t)[j - 1]
        verts = frozenset(
            (layer + off, u_idx * w + x) for layer, u_idx in path for x in range(w)
        )
        edges = frozenset(
            e for e, (s, i, jj) in self.provenance.items()
            if s == side and i == self.t and jj == j
        )
        return Subgraph(vertices=verts, edges=edges)

    def pullback_special(self, side: str, j: int, vertices) -> frozenset:
        """Map block vertices of a special subgraph back to inner vertices."""
        off = 0 if side == "L" else self.half_layers
        blocks = self.special_subgraph(side, j).vertices
        if not set(vertices) <= blocks:
            raise InvalidInputError(f"a vertex is outside block {j} of side {side}")
        return frozenset((layer - off, idx % self.inner_layer_size) for layer, idx in vertices)


def base_instance(n_0: int, bits: str) -> OracleInstance:
    edges = frozenset(make_edge((1, i), (2, i)) for i, c in enumerate(bits) if c == "1")
    graph = LayeredGraph(num_layers=2, layer_size=n_0 // 2, edges=edges)
    return OracleInstance(
        r=0, graph=graph, players=(edges,), t=None, dup=None,
        inner_layer_size=None, subinstances=None, base_bits=bits, provenance=None,
    )


def nonspecial_blocks(dup: DupGraph, t: int, w: int) -> tuple[list[Vertex], list[Vertex]]:
    half = dup.graph.num_layers
    b = dup.graph.layer_size
    special = {v for path in collection(dup, t) for v in path}
    left, right = [], []
    for layer in range(1, half + 1):
        for u_idx in range(b):
            if (layer, u_idx) in special:
                continue
            for x in range(w):
                left.append((layer, u_idx * w + x))
                right.append((layer + half, u_idx * w + x))
    return left, right


def assemble(level: int, dup: DupGraph, w: int,
             subs: tuple[tuple[OracleInstance, ...], ...], t: int) -> OracleInstance:
    half = dup.graph.num_layers
    layer_size = dup.graph.layer_size * w
    players: list[set[Edge]] = [set() for _ in range(level + 1)]
    prov: dict[Edge, tuple[str, int, int]] = {}
    for i0, row in enumerate(subs):
        upc = collection(dup, i0 + 1)
        for j0, sub in enumerate(row):
            path = upc[j0]
            for a, edge_set in enumerate(sub.players):
                for (la, xa), (lb, xb) in edge_set:
                    ua = path[la - 1][1]
                    ub = path[lb - 1][1]
                    for off, side in ((0, "L"), (half, "R")):
                        e = make_edge((la + off, ua * w + xa), (lb + off, ub * w + xb))
                        assert e not in prov, f"block collision at {e}"
                        players[a].add(e)
                        prov[e] = (side, i0 + 1, j0 + 1)
    left, right = nonspecial_blocks(dup, t, w)
    players[level] = {make_edge(u, v) for u in left for v in right}
    graph = LayeredGraph(num_layers=2 * half, layer_size=layer_size,
                         edges=frozenset().union(*players))
    return OracleInstance(
        r=level, graph=graph, players=tuple(frozenset(s) for s in players),
        t=t, dup=dup, inner_layer_size=w,
        subinstances=subs, base_bits=None, provenance=prov,
    )


def build_instance(plans, n_0: int, tree: dict) -> OracleInstance:
    """The choice tree assembled into tuple sets, level by level."""

    def build(level: int, node: dict) -> OracleInstance:
        if level == 0:
            return base_instance(n_0, node["bits"])
        plan = plans[level - 1]
        subs = tuple(tuple(build(level - 1, cell) for cell in row) for row in node["subs"])
        return assemble(level, plan.dup, plan.w, subs, node["t"])

    return build(len(plans), tree)


def check_properties(inst: OracleInstance, recurse: bool = True) -> VerificationReport:
    """The named structural checks, over tuple sets and the provenance dict."""
    report = VerificationReport()

    def walk(node: OracleInstance, prefix: str) -> None:
        g = node.graph
        report.add(prefix + "layering", layered_well_formed(g), "malformed layered graph")
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
        left_edges = {e for e, (s, _, _) in node.provenance.items() if s == "L"}
        right_edges = {e for e, (s, _, _) in node.provenance.items() if s == "R"}
        mirrored = {make_edge(node.copy_map(u), node.copy_map(v)) for u, v in left_edges}
        report.add(prefix + "copies_identical", mirrored == right_edges,
                   "the two copies differ")

        specials = {
            side: [node.special_subgraph(side, j) for j in range(1, node.p_achieved + 1)]
            for side in ("L", "R")
        }
        all_special_verts: set[Vertex] = set()
        disjoint = True
        for side in ("L", "R"):
            for sub in specials[side]:
                if all_special_verts & sub.vertices:
                    disjoint = False
                all_special_verts |= sub.vertices
        report.add(prefix + "special_disjoint", disjoint, "special blocks overlap")

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
                path = collection(node.dup, i)[j - 1]
                sub = node.subinstance(i, j)
                for a, edge_set in enumerate(sub.players):
                    for (la, xa), (lb, xb) in edge_set:
                        ua = path[la - 1][1]
                        ub = path[lb - 1][1]
                        for off in (0, half):
                            rebuilt[a].add(
                                make_edge((la + off, ua * w + xa), (lb + off, ub * w + xb))
                            )
        for a in range(node.r):
            report.add(prefix + f"player_{a + 1}_from_subparts",
                       rebuilt[a] == set(node.players[a]),
                       "player input is not a function of its inner parts")
        left, right = nonspecial_blocks(node.dup, node.t, w)
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


def extract_predicate_from_mis(inst, candidate, seq) -> str:
    """The bits from a maximal independent set alone, over vertex sets:
    restrict to each special subgraph, L copy first, and pull back."""
    seq = tuple(seq)
    _follow_sequence(inst, seq)
    s = set(candidate)
    if not is_mis(inst.graph, s):
        raise NotAnMisError("candidate is not a maximal independent set of the instance")
    cur, cur_s = inst, s
    for k in seq:
        descended = False
        for side in ("L", "R"):
            sub = cur.special_subgraph(side, k)
            restriction = cur_s & sub.vertices
            if is_mis(sub, restriction):
                cur_s = cur.pullback_special(side, k, restriction)
                cur = cur.subinstance(cur.t, k)
                descended = True
                break
        if not descended:
            raise InconsistentMisError(
                f"restriction fits neither copy at depth {cur.r} (path entry {k})"
            )
    bits = []
    half = cur.graph.layer_size
    for i in range(half):
        both = (1, i) in cur_s and (2, i) in cur_s
        bits.append("0" if both else "1")
    return "".join(bits)


def levels_meta(inst: OracleInstance) -> list[dict]:
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


def tree_of(inst: OracleInstance) -> dict:
    if inst.r == 0:
        return {"bits": inst.base_bits}
    return {
        "t": inst.t,
        "subs": [
            [tree_of(inst.subinstance(i, j)) for j in range(1, inst.p_achieved + 1)]
            for i in range(1, inst.q_achieved + 1)
        ],
    }


def write_instance(inst: OracleInstance, fh: IO[str], seed: int | None = None,
                   mode: str = "toy", extra: dict | None = None) -> None:
    """misr v1, one f-string line per sorted flat-id pair."""
    base = inst
    while base.r >= 1:
        base = base.subinstance(1, 1)
    meta = {
        "version": 1,
        "r": inst.r,
        "seed": seed,
        "mode": mode,
        "n0": base.graph.layer_size * 2,
        "levels": levels_meta(inst),
        "tree": tree_of(inst),
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


def flat_array(edges, layer_size: int) -> np.ndarray:
    """Tuple edges as the sorted (m, 2) int64 flat-id array misforge stores."""
    pairs = sorted(
        ((u[0] - 1) * layer_size + u[1], (v[0] - 1) * layer_size + v[1]) for u, v in edges
    )
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def replace_edges(inst, players=None, edges=None):
    """``inst`` with its edges replaced, stored as misforge stores them.

    ``players`` are new per-player tuple sets.  ``edges`` is a new whole
    edge set: edges it leaves out leave their players, and edges no
    player holds go to player 1."""
    parts = [set(p) for p in (inst.players if players is None else players)]
    if edges is not None:
        edges = set(edges)
        for part in parts:
            part &= edges
        parts[0] |= edges - set().union(*parts)
    size = inst.graph.layer_size
    return replace(inst, player_edges=tuple(flat_array(p, size) for p in parts))


# -- the parsing misr reader ----------------------------------------------------
#
# ``misforge.hardness.read_instance`` compares the text with blocks regenerated
# from the rebuilt instance and parses only text that differs.  This is the
# reader it replaced, unchanged but for module prefixes: it splits and parses
# every section.  Both must raise the same errors, and otherwise agree on the
# stored arrays and ``matches``.


def format_edges(edges: np.ndarray) -> str:
    """misr lines "u v\\n" of an (m, 2) array of non-negative ids: one
    str.join per run of equal u, over " v\\n" strings made once per id."""
    if not len(edges):
        return ""
    tails = np.array([f" {v}\n" for v in range(int(edges[:, 1].max()) + 1)], dtype=object)
    vs = tails[edges[:, 1]].tolist()
    u = edges[:, 0]
    cuts = [0, *(np.flatnonzero(u[1:] != u[:-1]) + 1).tolist(), len(u)]
    heads = map(str, u[cuts[:-1]].tolist())     # u once per run, then " v\n" each
    return "".join(h + h.join(vs[a:b]) for h, a, b in zip(heads, cuts, cuts[1:]))


def join_blocks(join, rows: int):
    """misr lines of a Biclique in blocks of rows lines, as the writer made
    them before it formatted from numpy bytes: each u's run is one
    ``h + h.join(R tails)``, over " v\\n" strings made once per join."""
    heads, m = list(map(str, join.left.tolist())), len(join.right)
    vs = [f" {v}\n" for v in join.right.tolist()]
    for lo in range(0, len(join), rows):
        # rows [lo, hi) lie in the runs of heads lo // m to (hi - 1) // m
        hi = min(lo + rows, len(join))
        yield "".join(heads[i] + heads[i].join(vs[max(lo - i * m, 0):hi - i * m])
                      for i in range(lo // m, -(-hi // m)))


def parse_section(text: str) -> np.ndarray:
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
        if format_edges(edges) == text:
            return edges
    lines = [ln.split() for ln in text.split("\n") if ln.strip()]
    for parts in lines:
        if len(parts) != 2:
            raise FormatError(f"unexpected line {' '.join(parts)!r}")
    try:
        return np.array(lines, dtype=np.int64).reshape(-1, 2)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"vertex ids must be 64-bit integers: {exc}") from exc


def read_instance(fh: IO[str], budget: Budget | None = None) -> hardness.ReadInstance:
    """The misr reader that parses every section, then re-formats it to
    check that the text is canonical; it builds array instances."""
    head, _, rest = fh.read().lstrip().partition("\n")
    meta_line, _, rest = rest.lstrip().partition("\n")
    body, _, last = rest.rstrip().rpartition("\n")
    if head.strip() != "misr 1" or last.strip() != "end":
        raise FormatError("not a misr v1 file")
    try:
        meta = json.loads(meta_line)
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
        plans.append(hardness.LevelPlan(j=lvl["j"], dup=dup, w=lvl["w"]))
    inst = hardness.build_instance(plans, n0, meta["tree"])
    # split before every line whose first token is "player"; each chunk then
    # lacks the newline that ended it
    preamble, *chunks = re.split(r"\n(?=[^\S\n]*player\b)", "\n" + body)
    if preamble.strip():
        raise FormatError(f"unexpected line {preamble.strip().splitlines()[0]!r}")
    sections = []
    for k, chunk in enumerate(chunks, start=1):
        header, _, edges = chunk.partition("\n")
        parts = header.split()
        try:
            if parts[0] != "player" or len(parts) != 2 or int(parts[1]) != k:
                raise ValueError
        except ValueError:
            raise FormatError(f"unexpected section header {header!r}") from None
        sections.append(parse_section(edges + "\n" if edges else ""))
    if len(sections) != len(inst.player_edges):
        raise FormatError(
            f"expected {len(inst.player_edges)} player sections, found {len(sections)}"
        )
    return hardness.ReadInstance(instance=inst, meta=meta, stored_players=tuple(sections))
