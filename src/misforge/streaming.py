"""Multi-pass edge-stream MIS algorithms and their protocol view.

Streams replay a fixed edge order each pass; the driver counts passes
and tracks a peak word count.  A runner's memory has one definition,
its snapshot ``state_words()``: an int64 array with one entry per word
of state retained between stream elements, one per vertex id, priority
value or status entry and two per buffered edge.  O(1) counters are
exempt; the output set is written to an output tape and not counted.
``words()`` counts the snapshot in closed form, so ``drive``'s peak
builds none; a snapshot is made only for a hook that asks ``state_words()``.

A stream is a list of owner sections of flat vertex ids.  A section is
an ``(m, 2)`` int64 array, or a ``Biclique(L, R)``: every edge (u, v)
with u in L and v in R, in row-major order, as a hard instance's
cross-copy join is stored.  A runner consumes one whole section per
``feed`` call with numpy kernels.  Every MIS decision is made by one
pair of section kernels: ``_select`` scatters the losers of the
(priority, id) contests between undecided neighbours into a ``blocked``
mask, and ``_retire`` sends the undecided neighbours of newly chosen
vertices OUT.  Luby's rounds run them on random priorities, one pass
each.  Random-order greedy (the buffered runner, and each residual
phase on its sample) runs them on its stored sections, in memory, with
the rank in the order as a fixed priority.  The rounds take exactly the
vertices that the sequential visit takes: a vertex that beats every
undecided neighbour has only OUT neighbours earlier in the order, so
the visit takes it too, and a retired vertex has a taken neighbour.  A
Biclique takes both kernels in closed form:

* select: a drawn vertex is blocked iff the other side's smallest drawn
  (priority, id) beats it;
* retire: if a vertex on one side was newly chosen, every undecided
  vertex on the other side goes OUT.

The storing passes filter and append the section; a Biclique is stored
as one, sampled(L) x sampled(R) for residual.  Only snapshots expand a
stored Biclique, into the edges the expanded section would have left;
``words()`` counts it as 2 |L| |R|.
Before the first pass ``drive`` checks the stream once: every vertex id
lies in ``[0, n)``, and there are no self loops and no duplicate edges;
a violation raises ``InvalidInputError``.  A Biclique is checked on its
two id vectors, and the other sections' edges against its L/R masks.

Accounting stays exact at section granularity, and a Biclique changes
none of it: a runner's state after a Biclique section, and so every
snapshot, is what the expanded section would leave.  The snapshot never
shrinks within a section: blocked masks, stored edges and buffers only
grow, and retire passes only rewrite status entries.  So the peak
sampled at section boundaries equals the peak over every single edge.

A run over a stream whose edges are grouped by owner simulates a
blackboard protocol: at the end of each owner's section the live memory
words are written out as one message, counted by ``words()``, never built.
Messages in a round count as padded to the round's longest, so the total
transcript size is at most passes * k * peak_words * word_bits for k
owners, which is the communication bound this package exists to measure.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Callable, ClassVar, Iterable

import numpy as np

from .dupgraph import Biclique, expand, stack_edges
from .errors import InvalidInputError, ScheduleError
from .hardness import Instance, ToyParams, sample_instance
from .oracle import _covers

FlatEdge = tuple[int, int]

UNDECIDED, IN_MIS, OUT = 0, 1, 2


@dataclass(frozen=True)
class FlatGraph:
    n: int
    edges: tuple[FlatEdge, ...]     # (u, v) with u < v, sorted

    @property
    def vertices(self) -> list[int]:
        return list(range(self.n))


def gnp_graph(n: int, p: float, seed: int) -> FlatGraph:
    """Erdos-Renyi graph with a counter-based generator; the edges come
    in ``np.triu_indices`` order, which is sorted."""
    if n < 0 or not 0 <= p <= 1:
        raise InvalidInputError(f"G(n, p) needs n >= 0 and 0 <= p <= 1, got n={n}, p={p}")
    us, vs = np.triu_indices(n, k=1)
    mask = _rng(seed).random(len(us)) < p
    return FlatGraph(n=n, edges=tuple(zip(us[mask].tolist(), vs[mask].tolist())))


def _as_section(edges) -> np.ndarray | Biclique:
    """Edges, in the given order, as an (m, 2) int64 array; a Biclique as it is."""
    if isinstance(edges, Biclique):
        return edges
    if not isinstance(edges, np.ndarray):
        edges = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
    if edges.size % 2:
        raise InvalidInputError("every edge must be a pair of vertex ids")
    return edges.astype(np.int64, copy=False).reshape(-1, 2)


def _repeats(values: np.ndarray) -> np.ndarray:
    """The values of a sorted vector that equal their predecessor."""
    return values[1:][values[1:] == values[:-1]]


def _duplicate(a: int, b: int) -> InvalidInputError:
    return InvalidInputError(f"duplicate edge ({min(a, b)}, {max(a, b)})")


def _check_sections(sections: list) -> int:
    """The largest vertex id of a stream's sections, or -1 if there is
    none, after raising InvalidInputError on a negative id, a self loop or
    a duplicate edge.  Array edges are checked as keys lo * width + hi:
    each section's are sorted only if they are not ascending already, and
    several sections' are merged by one stable sort.  A Biclique is
    checked on its id vectors (no repeat on a side, L and R disjoint), and
    every other section's edges against its L/R masks, both ways round."""
    arrays = [(np.minimum(s[:, 0], s[:, 1]), np.maximum(s[:, 0], s[:, 1]))
              for s in sections if not isinstance(s, Biclique) and len(s)]
    bicliques = [s for s in sections if isinstance(s, Biclique) and len(s)]
    sides = [x for b in bicliques for x in (b.left, b.right)]
    if not arrays and not sides:
        return -1
    low = min(int(x.min()) for x in [lo for lo, _ in arrays] + sides)
    if low < 0:
        raise InvalidInputError(f"vertex id {low} is negative")
    loops = [lo[lo == hi] for lo, hi in arrays] + [np.intersect1d(b.left, b.right)
                                                   for b in bicliques]
    loops = np.concatenate(loops)
    if len(loops):
        raise InvalidInputError(f"self loop at {int(loops[0])}")
    width = max(int(x.max()) for x in [hi for _, hi in arrays] + sides) + 1
    keys = [lo * width + hi for lo, hi in arrays]
    keys = [k if np.all(k[1:] >= k[:-1]) else np.sort(k) for k in keys]
    keys = keys[0] if len(keys) == 1 else np.sort(
        np.concatenate([np.empty(0, np.int64), *keys]), kind="stable")
    again = _repeats(keys)
    if len(again):
        raise _duplicate(*divmod(int(again[0]), width))
    for i, b in enumerate(bicliques):
        for side, other in ((b.left, b.right), (b.right, b.left)):
            again = _repeats(np.sort(side))
            if len(again):
                raise _duplicate(int(again[0]), int(other[0]))
        in_left, in_right = np.zeros(width, dtype=bool), np.zeros(width, dtype=bool)
        in_left[b.left] = in_right[b.right] = True
        for lo, hi in arrays:
            hit = (in_left[lo] & in_right[hi]) | (in_right[lo] & in_left[hi])
            if hit.any():
                raise _duplicate(int(lo[hit][0]), int(hi[hit][0]))
        for c in bicliques[i + 1:]:
            for ends, starts in ((c.left, c.right), (c.right, c.left)):
                x, y = ends[in_left[ends]], starts[in_right[starts]]
                if len(x) and len(y):
                    raise _duplicate(int(x[0]), int(y[0]))
    return width - 1


class EdgeStream:
    """A fixed edge order, split into per-owner sections: (m, 2) int64
    arrays or Bicliques."""

    def __init__(self, sections: Iterable):
        self.sections_list = [_as_section(s) for s in sections]
        self._max_id: int | None = None   # set once the stream has been checked

    @classmethod
    def from_edges(cls, edges: Iterable[FlatEdge] | np.ndarray, order: str = "file",
                   seed: int | None = None) -> "EdgeStream":
        edges = _as_section(edges)
        if order == "random":
            if seed is None:
                raise InvalidInputError("random order needs a seed")
            edges = expand(edges)[_rng(seed).permutation(len(edges))]
        elif order != "file":
            raise InvalidInputError(f"unknown order {order!r} for a plain edge list")
        return cls([edges])

    @classmethod
    def from_instance(cls, inst: Instance, order: str = "player",
                      seed: int | None = None) -> "EdgeStream":
        """Each player's edges as (smaller, larger) flat-id pairs, sorted:
        the instance's own sections (arrays and the join's Biclique),
        shared, not copied.  Other orders expand the join."""
        if order == "player":
            return cls(inst.player_edges)
        return cls.from_edges(stack_edges(inst.player_edges), order=order, seed=seed)

    def check(self, n: int) -> None:
        """Raise InvalidInputError unless every id is in [0, n) and no edge
        is a self loop or a duplicate (see _check_sections).  The scan runs
        once per stream."""
        if self._max_id is None:
            self._max_id = _check_sections(self.sections_list)
        if self._max_id >= n:
            raise InvalidInputError(f"vertex id {self._max_id} is outside [0, {n})")


@dataclass
class StreamReport:
    algorithm: str
    n: int
    passes: int
    peak_words: int
    output: frozenset[int]
    seed: int
    extras: dict = field(default_factory=dict)


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _ids(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def _select(section: np.ndarray | Biclique, drawn: np.ndarray, prio: np.ndarray,
            blocked: np.ndarray) -> None:
    """Select pass over one section: a drawn vertex that loses a contest
    with a drawn neighbour, by smaller (prio, id), is blocked."""
    if isinstance(section, Biclique):
        # a drawn vertex loses to the other side's smallest drawn (prio, id)
        for side, other in ((section.left, section.right), (section.right, section.left)):
            rivals = other[drawn[other]]
            if len(rivals):
                best = prio[rivals].min()
                best_id = rivals[prio[rivals] == best].min()
                mine = side[drawn[side]]
                pm = prio[mine]
                blocked[mine[(best < pm) | ((best == pm) & (best_id < mine))]] = True
        return
    u, v = section[:, 0], section[:, 1]
    contest = drawn[u] & drawn[v]
    u, v = u[contest], v[contest]
    pu, pv = prio[u], prio[v]
    u_wins = (pu < pv) | ((pu == pv) & (u < v))
    blocked[np.where(u_wins, v, u)] = True


def _retire(status: np.ndarray, newly: np.ndarray, section: np.ndarray | Biclique) -> None:
    """Retire pass over one section: undecided neighbors of newly chosen
    vertices leave.  Only UNDECIDED entries change, and only to OUT, so
    the order of the two scatters does not matter."""
    if isinstance(section, Biclique):
        for side, other in ((section.left, section.right), (section.right, section.left)):
            if newly[side].any():
                status[other[status[other] == UNDECIDED]] = OUT
        return
    u, v = section[:, 0], section[:, 1]
    status[v[newly[u] & (status[v] == UNDECIDED)]] = OUT
    status[u[newly[v] & (status[u] == UNDECIDED)]] = OUT


def _greedy(order: np.ndarray, sections: list, n: int) -> np.ndarray:
    """The mask of what greedy takes visiting ``order`` over ``sections``:
    rounds of ``_select`` and ``_retire``, the rank in ``order`` as priority,
    the other vertices OUT.  The undecided vertex of least rank is never
    blocked, so without self loops each round decides at least one."""
    status = np.full(n, OUT, dtype=np.int8)
    status[order] = UNDECIDED
    prio = np.zeros(n, dtype=np.int64)
    prio[order] = np.arange(len(order))
    while (drawn := status == UNDECIDED).any():
        blocked = np.zeros(n, dtype=bool)
        for section in sections:
            _select(section, drawn, prio, blocked)
        newly = drawn & ~blocked
        status[newly] = IN_MIS
        for section in sections:
            _retire(status, newly, section)
    return status == IN_MIS


class _Runner:
    """What ``drive`` runs: ``begin_pass``, one ``feed(section)`` per owner
    section and ``end_pass``, until ``done()``.  ``state_words()`` is the
    memory snapshot, and so the protocol's message, and ``words()`` its
    length in closed form."""

    _done = False

    def done(self) -> bool:
        return self._done


class LubyMIS(_Runner):
    """Rounds of random priorities: local minima join, neighbors leave.

    Each round costs two passes: one to find undecided vertices that
    beat every undecided neighbor (ties by vertex id), one to retire
    the neighbors of the new members.
    """

    name = "luby"

    def __init__(self, n: int, seed: int):
        self.n = n
        self.seed = seed
        self.rng = _rng(seed)
        self.status = np.full(n, UNDECIDED, dtype=np.int8)
        self.phase = "select"
        self.prio = np.zeros(n, dtype=np.int64)
        self.drawn = np.zeros(n, dtype=bool)     # holds a priority this round
        self.blocked = np.zeros(n, dtype=bool)
        self.newly = np.zeros(n, dtype=bool)
        self.rounds = 0
        self._done = n == 0

    def begin_pass(self) -> None:
        if self.phase == "select":
            self.rounds += 1
            self.drawn = self.status == UNDECIDED
            undecided = np.flatnonzero(self.drawn)
            self.prio[undecided] = self.rng.integers(0, 1 << 62, size=len(undecided))
            self.blocked[:] = False

    def feed(self, section: np.ndarray | Biclique) -> None:
        if self.phase == "select":
            # statuses are fixed during a select pass: drawn == undecided
            _select(section, self.drawn, self.prio, self.blocked)
        else:
            _retire(self.status, self.newly, section)

    def end_pass(self) -> None:
        if self.phase == "select":
            self.newly = self.drawn & ~self.blocked
            self.status[self.newly] = IN_MIS
            self.drawn[:] = False
            self.blocked[:] = False
            self.phase = "remove"
        else:
            self.newly[:] = False
            self.phase = "select"
            self._done = not (self.status == UNDECIDED).any()

    def state_words(self) -> np.ndarray:
        return np.concatenate([self.status, self.prio[self.drawn],
                               np.flatnonzero(self.blocked), np.flatnonzero(self.newly)],
                              dtype=np.int64)

    def words(self) -> int:
        return self.n + int(np.count_nonzero(self.drawn) + np.count_nonzero(self.blocked)
                            + np.count_nonzero(self.newly))

    def result(self) -> frozenset[int]:
        return _ids(self.status == IN_MIS)

    def extras(self) -> dict:
        return {"rounds": self.rounds}


def parse_schedule(schedule: list, n: int) -> list:
    """Validate a phase schedule: non-increasing sizes, final phase covers all."""
    if not schedule:
        raise ScheduleError("schedule must have at least one phase")
    sizes = []
    for pos, entry in enumerate(schedule):
        last = pos == len(schedule) - 1
        if entry == "all":
            if not last:
                raise ScheduleError("'all' is only allowed as the final phase")
            sizes.append(None)
            continue
        if not isinstance(entry, int) or entry < 1:
            raise ScheduleError(f"phase sizes must be positive integers, got {entry!r}")
        if sizes and sizes[-1] is not None and entry > sizes[-1]:
            raise ScheduleError("phase sizes must not increase")
        if entry > n:
            raise ScheduleError(f"phase size {entry} exceeds vertex count {n}")
        sizes.append(entry)
    return sizes


class ResidualSparsityMIS(_Runner):
    """Phased sampling: solve a shrinking random sample, retire its neighbors.

    Each phase stores only edges inside the current sample of alive
    vertices (none is adjacent to an earlier choice: the retire passes made
    those OUT), runs a random-order greedy on them, then spends one more
    pass retiring neighbors.  The final phase samples every still-alive
    vertex, so no retirement pass is needed after it.
    """

    name = "residual"

    def __init__(self, n: int, schedule: list, seed: int):
        self.n = n
        self.seed = seed
        self.schedule = parse_schedule(schedule, n)
        self.rng = _rng(seed)
        self.status = np.full(n, UNDECIDED, dtype=np.int8)
        self.phase_idx = 0
        self.mode = "store"
        self.sampled = np.zeros(n, dtype=bool)
        self.stored: list = []      # (m, 2) chunks and Bicliques in stream order
        self.newly = np.zeros(n, dtype=bool)
        self.phase_peaks: list[int] = []
        self.alive_after: list[frozenset[int]] = []
        self._phase_peak = 0
        self._done = n == 0

    def _final_phase(self) -> bool:
        return self.phase_idx == len(self.schedule) - 1

    def begin_pass(self) -> None:
        if self.mode != "store":
            return
        alive = np.flatnonzero(self.status == UNDECIDED)
        size = self.schedule[self.phase_idx]
        if self._final_phase() or size is None or size >= len(alive):
            take = len(alive)
        else:
            take = size
        order = self.rng.permutation(len(alive))
        self.sampled[alive[order[:take]]] = True
        self.stored = []

    def feed(self, section: np.ndarray | Biclique) -> None:
        if self.mode != "store":
            _retire(self.status, self.newly, section)
        elif isinstance(section, Biclique):
            left, right = section.left, section.right
            self.stored.append(Biclique(left[self.sampled[left]], right[self.sampled[right]]))
        else:
            self.stored.append(section[self.sampled[section[:, 0]]
                                       & self.sampled[section[:, 1]]])

    def end_pass(self) -> None:
        if self.mode == "store":
            # words only grow during a store pass, so its end is the phase's peak
            self._phase_peak = self.words()
            members = np.flatnonzero(self.sampled)
            order = self.rng.permutation(len(members))
            self.newly = _greedy(members[order], self.stored, self.n)
            self.status[self.sampled] = OUT
            self.status[self.newly] = IN_MIS
            self.stored = []
            self.sampled[:] = False
            if self._final_phase() or not (self.status == UNDECIDED).any():
                self._finish_phase()
            else:
                self.mode = "remove"
        else:
            self._finish_phase()
            self.mode = "store"

    def _finish_phase(self) -> None:
        self.phase_peaks.append(self._phase_peak)
        self.alive_after.append(_ids(self.status == UNDECIDED))
        self.newly[:] = False
        self.phase_idx += 1
        self._done = self.phase_idx >= len(self.schedule) or not self.alive_after[-1]

    def state_words(self) -> np.ndarray:
        return np.concatenate([self.status, np.flatnonzero(self.sampled),
                               *(expand(chunk).ravel() for chunk in self.stored),
                               np.flatnonzero(self.newly)], dtype=np.int64)

    def words(self) -> int:
        return (self.n + int(np.count_nonzero(self.sampled) + np.count_nonzero(self.newly))
                + 2 * sum(map(len, self.stored)))

    def result(self) -> frozenset[int]:
        return _ids(self.status == IN_MIS)

    def extras(self) -> dict:
        return {
            "phases": self.phase_idx,
            "phase_peaks": tuple(self.phase_peaks),
            "alive_after_phase": tuple(self.alive_after),
        }


class BufferedGreedyMIS(_Runner):
    """Store the whole stream in one pass, then greedy in random order."""

    name = "greedy"

    def __init__(self, n: int, seed: int):
        self.n = n
        self.seed = seed
        self.rng = _rng(seed)
        self.buffer: list = []      # the stream's sections, in order
        self.chosen: frozenset[int] = frozenset()

    def begin_pass(self) -> None:
        pass

    def feed(self, section: np.ndarray | Biclique) -> None:
        self.buffer.append(section)

    def end_pass(self) -> None:
        self.chosen = _ids(_greedy(self.rng.permutation(self.n), self.buffer, self.n))
        self._done = True

    def state_words(self) -> np.ndarray:
        return stack_edges(self.buffer).ravel()

    def words(self) -> int:
        return 2 * sum(map(len, self.buffer))

    def result(self) -> frozenset[int]:
        return self.chosen

    def extras(self) -> dict:
        return {}


def make_algorithm(desc: str, n: int, seed: int):
    """Build a runner from a descriptor: luby | greedy | residual:b=8 | residual:s=a,b,all."""
    if desc == "luby":
        return LubyMIS(n, seed)
    if desc == "greedy":
        return BufferedGreedyMIS(n, seed)
    if desc.startswith("residual:"):
        arg = desc.split(":", 1)[1]
        if arg.startswith("b="):
            b = int(arg[2:])
            if b < 1:
                raise ScheduleError(f"b must be positive, got {b}")
            return ResidualSparsityMIS(n, [-(-n // b), "all"], seed)
        if arg.startswith("s="):
            entries = [
                x if x == "all" else int(x) for x in arg[2:].split(",") if x
            ]
            return ResidualSparsityMIS(n, entries, seed)
        raise InvalidInputError(f"bad residual descriptor {desc!r}")
    raise InvalidInputError(f"unknown algorithm {desc!r}")


def drive(alg, stream: EdgeStream,
          hook: Callable[[int, int, _Runner], None] | None = None) -> StreamReport:
    """Run ``alg`` over ``stream`` until done, one ``feed`` per owner section.

    The stream is checked once, before the first pass.  The runner's
    snapshot ``alg.state_words()`` is its memory, and ``alg.words()``
    counts it without building it: the peak is the largest count, sampled
    after ``begin_pass``, after every section and after ``end_pass``.  The
    snapshot never shrinks within a section (blocked masks, stored edges
    and buffers only grow; retire passes only rewrite status entries), so
    this is the exact peak over every single edge.  ``hook(pass, owner,
    alg)`` gets the runner at every section boundary, passes counted from
    1: ``alg.words()`` is the message length, and only
    ``alg.state_words()``, the message itself, builds a snapshot.
    """
    stream.check(alg.n)
    passes = peak = 0
    while not alg.done():
        passes += 1
        alg.begin_pass()
        peak = max(peak, alg.words())
        for owner, section in enumerate(stream.sections_list):
            alg.feed(section)
            peak = max(peak, alg.words())
            if hook is not None:
                hook(passes, owner, alg)
        alg.end_pass()
        peak = max(peak, alg.words())
    return StreamReport(
        algorithm=alg.name,
        n=alg.n,
        passes=passes,
        peak_words=peak,
        output=alg.result(),
        seed=alg.seed,
        extras=alg.extras(),
    )


# -- protocol simulation ------------------------------------------------------


@dataclass(frozen=True)
class Transcript:
    rounds: tuple[tuple[int, ...], ...]      # per pass, each owner's message length in words
    answer: bytes
    word_bits: ClassVar[int] = 64            # every word is packed as 64-bit big-endian

    @property
    def cc_bits(self) -> int:     # every message padded to its round's longest
        return sum(len(rnd) * max(rnd) for rnd in self.rounds) * self.word_bits

    @property
    def max_message_bits(self) -> int:
        return max((max(rnd) for rnd in self.rounds), default=0) * self.word_bits


def _pack_words(words) -> bytes:
    return np.asarray(words, dtype=np.int64).astype(">u8").tobytes()


@dataclass(frozen=True)
class SimulationResult:
    transcript: Transcript
    report: StreamReport
    k: int


def simulate_protocol_from_stream(desc: str, inst: Instance, seed: int) -> SimulationResult:
    """Run a streaming algorithm as a k-owner blackboard protocol.

    The instance's player edge sets, in order, form the stream; the
    memory at each section boundary is a message of ``words()`` 64-bit
    words, counted and never built.  Counting only reads the runner's
    state, so the report is that of a plain ``drive`` over the
    player-order stream.
    """
    rounds: dict[int, list[int]] = {}
    report = drive(make_algorithm(desc, inst.graph.n_vertices, seed),
                   EdgeStream.from_instance(inst, order="player"),
                   lambda pass_idx, owner, alg: rounds.setdefault(pass_idx, []).append(alg.words()))
    transcript = Transcript(rounds=tuple(map(tuple, rounds.values())),
                            answer=_pack_words(sorted(report.output)))
    return SimulationResult(transcript=transcript, report=report, k=len(inst.players))


# -- benchmark ----------------------------------------------------------------

BENCH_FIELDS = ("n", "r", "algorithm", "passes", "peak_words", "cc_bits", "mis_valid", "seed")


def _is(value, kind) -> bool:
    """isinstance, except that a bool is never a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _spec_value(obj: dict, key: str, kind, default=None, item=None):
    """obj[key], or default when absent, if it is a kind (a list of item if
    item is given); otherwise InvalidInputError naming the field."""
    value = obj.get(key, default)
    if not _is(value, kind) or item and not all(_is(x, item) for x in value):
        raise InvalidInputError(f"bench spec field {key!r} has a bad value {value!r}")
    return value


def _bench_graph(entry: dict, budget=None) -> tuple[int, int | str, EdgeStream, Instance | None]:
    """One spec entry's vertex count, r column, edge stream and, for a hard
    instance, the instance."""
    kind = entry.get("kind")
    seed = _spec_value(entry, "graph_seed", int, 0)
    if kind == "gnp":
        g = gnp_graph(_spec_value(entry, "n", int), _spec_value(entry, "p", (int, float)), seed)
        return g.n, "", EdgeStream.from_edges(g.edges), None
    if kind == "hard":
        levels = _spec_value(entry, "toy", list, item=list)
        if not all(len(x) == 2 and all(_is(y, int) for y in x) for x in levels):
            raise InvalidInputError(f"bench spec field 'toy' has a bad value {levels!r}")
        toy = ToyParams(n_0=_spec_value(entry, "n0", int), levels=tuple(map(tuple, levels)))
        inst = sample_instance(toy.r, toy, seed, budget)
        return inst.graph.n_vertices, inst.r, EdgeStream.from_instance(inst), inst
    raise InvalidInputError(f"unknown instance kind {kind!r}")


def tradeoff_bench(spec: dict, out: IO[str], budget=None) -> list[dict]:
    """Cartesian product of instances x algorithms x seeds, one CSV row each."""
    if not isinstance(spec, dict):
        raise InvalidInputError("a bench spec is a JSON object")
    instances = _spec_value(spec, "instances", list, [], item=dict)
    algorithms = _spec_value(spec, "algorithms", list, [], item=str)
    seeds = _spec_value(spec, "seeds", list, [], item=int)
    writer = csv.DictWriter(out, fieldnames=BENCH_FIELDS, lineterminator="\n")
    writer.writeheader()
    rows = []
    for entry in instances:
        n, r_field, stream, inst = _bench_graph(entry, budget)
        for desc in algorithms:
            for seed in seeds:
                if inst is not None:
                    sim = simulate_protocol_from_stream(desc, inst, seed)
                    report, cc_bits = sim.report, sim.transcript.cc_bits
                else:
                    report, cc_bits = drive(make_algorithm(desc, n, seed), stream), ""
                chosen = np.zeros(n, dtype=bool)
                chosen[list(report.output)] = True
                row = {
                    "n": n,
                    "r": r_field,
                    "algorithm": desc,
                    "passes": report.passes,
                    "peak_words": report.peak_words,
                    "cc_bits": cc_bits,
                    "mis_valid": _covers(stream.sections_list, chosen),
                    "seed": seed,
                }
                writer.writerow(row)
                rows.append(row)
    return rows
