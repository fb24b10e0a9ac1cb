"""Per-edge streaming runners: slow, obviously-correct reference code.

These are the runners one edge at a time, with Python sets and dicts for
state and one ``step`` call per edge.  ``misforge.streaming`` processes a
whole owner section per call with numpy; the differential tests in
``test_stream_kernels.py`` require both to agree on every output, pass
count, peak, extra and snapshot byte.  ``csr_greedy`` is the sequential
greedy visit over a CSR adjacency that ``streaming._greedy`` computes in
select/retire rounds.
"""

from __future__ import annotations

import struct

import numpy as np

from misforge.dupgraph import expand
from misforge.streaming import IN_MIS, OUT, UNDECIDED, parse_schedule

FlatEdge = tuple[int, int]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def player_sections(inst) -> list[list[FlatEdge]]:
    """Each player's edges as sorted (smaller id, larger id) tuples."""
    flat = inst.graph.flat_id
    sections = []
    for part in inst.players:
        pairs = ((flat(u), flat(v)) for u, v in part)
        sections.append(sorted((min(a, b), max(a, b)) for a, b in pairs))
    return sections


def stream_edges(stream) -> list[FlatEdge]:
    """Every edge of a stream, section by section, as (u, v) tuples."""
    return [(u, v) for section in stream.sections_list for u, v in expand(section).tolist()]


def pack_words(words: list[int]) -> bytes:
    return b"".join(struct.pack(">Q", w & (1 << 64) - 1) for w in words)


class LubyMIS:
    name = "luby"

    def __init__(self, n: int, seed: int):
        self.n = n
        self.seed = seed
        self.rng = _rng(seed)
        self.status = [UNDECIDED] * n
        self.phase = "select"
        self.prio: dict[int, int] = {}
        self.blocked: set[int] = set()
        self.newly: set[int] = set()
        self.rounds = 0
        self._done = n == 0

    def done(self) -> bool:
        return self._done

    def begin_pass(self) -> None:
        if self.phase == "select":
            self.rounds += 1
            undecided = [v for v in range(self.n) if self.status[v] == UNDECIDED]
            draws = self.rng.integers(0, 1 << 62, size=len(undecided))
            self.prio = {v: int(x) for v, x in zip(undecided, draws)}
            self.blocked = set()

    def step(self, e: FlatEdge) -> None:
        u, v = e
        if self.phase == "select":
            if self.status[u] == UNDECIDED and self.status[v] == UNDECIDED:
                loser = v if (self.prio[u], u) < (self.prio[v], v) else u
                self.blocked.add(loser)
        else:
            if u in self.newly and self.status[v] == UNDECIDED:
                self.status[v] = OUT
            if v in self.newly and self.status[u] == UNDECIDED:
                self.status[u] = OUT

    def end_pass(self) -> None:
        if self.phase == "select":
            self.newly = {v for v in self.prio if v not in self.blocked}
            for v in self.newly:
                self.status[v] = IN_MIS
            self.prio = {}
            self.blocked = set()
            self.phase = "remove"
        else:
            self.newly = set()
            self.phase = "select"
            self._done = all(s != UNDECIDED for s in self.status)

    @property
    def current_words(self) -> int:
        return self.n + len(self.prio) + len(self.blocked) + len(self.newly)

    def state_words(self) -> list[int]:
        words = list(self.status)
        words += [self.prio[v] for v in sorted(self.prio)]
        words += sorted(self.blocked)
        words += sorted(self.newly)
        return words

    def result(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n) if self.status[v] == IN_MIS)

    def extras(self) -> dict:
        return {"rounds": self.rounds}


class ResidualSparsityMIS:
    name = "residual"

    def __init__(self, n: int, schedule: list, seed: int):
        self.n = n
        self.seed = seed
        self.schedule = parse_schedule(schedule, n)
        self.rng = _rng(seed)
        self.status = [UNDECIDED] * n
        self.phase_idx = 0
        self.mode = "store"
        self.sampled: set[int] = set()
        self.stored: list[FlatEdge] = []
        self.newly: set[int] = set()
        self.phase_peaks: list[int] = []
        self.alive_after: list[frozenset[int]] = []
        self._phase_peak = 0
        self._done = n == 0

    def done(self) -> bool:
        return self._done

    def _final_phase(self) -> bool:
        return self.phase_idx == len(self.schedule) - 1

    def _note_words(self) -> None:
        if self.current_words > self._phase_peak:
            self._phase_peak = self.current_words

    def begin_pass(self) -> None:
        if self.mode != "store":
            return
        alive = [v for v in range(self.n) if self.status[v] == UNDECIDED]
        size = self.schedule[self.phase_idx]
        if self._final_phase() or size is None or size >= len(alive):
            take = len(alive)
        else:
            take = size
        order = self.rng.permutation(len(alive))
        self.sampled = {alive[int(i)] for i in order[:take]}
        self.stored = []
        self._phase_peak = 0
        self._note_words()

    def step(self, e: FlatEdge) -> None:
        u, v = e
        if self.mode == "store":
            u_in, v_in = u in self.sampled, v in self.sampled
            if (u_in and v_in) or (u_in and self.status[v] == IN_MIS) or (
                v_in and self.status[u] == IN_MIS
            ):
                self.stored.append(e)
                self._note_words()
        else:
            if u in self.newly and self.status[v] == UNDECIDED:
                self.status[v] = OUT
            if v in self.newly and self.status[u] == UNDECIDED:
                self.status[u] = OUT

    def end_pass(self) -> None:
        if self.mode == "store":
            self._note_words()
            adj: dict[int, set[int]] = {v: set() for v in self.sampled}
            blocked: set[int] = set()
            for u, v in self.stored:
                if u in adj and v in adj:
                    adj[u].add(v)
                    adj[v].add(u)
                else:
                    blocked.add(u if u in adj else v)
            members = sorted(self.sampled)
            order = self.rng.permutation(len(members))
            self.newly = set()
            for idx in order:
                v = members[int(idx)]
                if v in blocked or adj[v] & self.newly:
                    continue
                self.newly.add(v)
            for v in self.sampled:
                self.status[v] = IN_MIS if v in self.newly else OUT
            self.stored = []
            self.sampled = set()
            if self._final_phase() or not any(s == UNDECIDED for s in self.status):
                self._finish_phase()
            else:
                self.mode = "remove"
        else:
            self.newly = set()
            self._finish_phase()
            self.mode = "store"

    def _finish_phase(self) -> None:
        self.phase_peaks.append(self._phase_peak)
        self.alive_after.append(
            frozenset(v for v in range(self.n) if self.status[v] == UNDECIDED)
        )
        self.newly = set()
        self.phase_idx += 1
        self._done = self.phase_idx >= len(self.schedule) or not self.alive_after[-1]

    @property
    def current_words(self) -> int:
        return self.n + len(self.sampled) + 2 * len(self.stored) + len(self.newly)

    def state_words(self) -> list[int]:
        words = list(self.status)
        words += sorted(self.sampled)
        for u, v in self.stored:
            words += [u, v]
        words += sorted(self.newly)
        return words

    def result(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n) if self.status[v] == IN_MIS)

    def extras(self) -> dict:
        return {
            "phases": self.phase_idx,
            "phase_peaks": tuple(self.phase_peaks),
            "alive_after_phase": tuple(self.alive_after),
        }


class BufferedGreedyMIS:
    name = "greedy"

    def __init__(self, n: int, seed: int):
        self.n = n
        self.seed = seed
        self.rng = _rng(seed)
        self.buffer: list[FlatEdge] = []
        self.chosen: frozenset[int] = frozenset()
        self._done = False

    def done(self) -> bool:
        return self._done

    def begin_pass(self) -> None:
        pass

    def step(self, e: FlatEdge) -> None:
        self.buffer.append(e)

    def end_pass(self) -> None:
        adj: dict[int, set[int]] = {v: set() for v in range(self.n)}
        for u, v in self.buffer:
            adj[u].add(v)
            adj[v].add(u)
        chosen: set[int] = set()
        for idx in self.rng.permutation(self.n):
            v = int(idx)
            if not adj[v] & chosen:
                chosen.add(v)
        self.chosen = frozenset(chosen)
        self._done = True

    @property
    def current_words(self) -> int:
        return 2 * len(self.buffer)

    def state_words(self) -> list[int]:
        return [x for e in self.buffer for x in e]

    def result(self) -> frozenset[int]:
        return self.chosen

    def extras(self) -> dict:
        return {}


def make_algorithm(desc: str, n: int, seed: int):
    """The same descriptors as misforge.streaming.make_algorithm."""
    if desc == "luby":
        return LubyMIS(n, seed)
    if desc == "greedy":
        return BufferedGreedyMIS(n, seed)
    arg = desc.split(":", 1)[1]
    if arg.startswith("b="):
        return ResidualSparsityMIS(n, [-(-n // int(arg[2:])), "all"], seed)
    entries = [x if x == "all" else int(x) for x in arg[2:].split(",") if x]
    return ResidualSparsityMIS(n, entries, seed)


def drive(alg, sections: list[list[FlatEdge]], hook=None) -> dict:
    """Run ``alg`` one edge at a time, peak sampled after every edge.

    Asserts the accounting invariant the section kernels rely on: within
    a section, ``current_words`` never decreases.  Returns what a
    ``StreamReport`` holds.
    """
    passes = 0
    peak = 0
    while not alg.done():
        passes += 1
        alg.begin_pass()
        peak = max(peak, alg.current_words)
        for owner, section in enumerate(sections):
            last = alg.current_words
            for e in section:
                alg.step(e)
                words = alg.current_words
                assert words >= last, f"{alg.name}: words fell from {last} to {words}"
                last = words
                peak = max(peak, words)
            if hook is not None:
                words = alg.state_words()
                assert len(words) == alg.current_words
                hook(passes, owner, words)
        alg.end_pass()
        peak = max(peak, alg.current_words)
    return {
        "passes": passes,
        "peak_words": peak,
        "output": alg.result(),
        "extras": alg.extras(),
    }


def csr_greedy(order: np.ndarray, edges: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Visit ``order``; take each vertex neither in ``skip`` nor adjacent to
    one taken before.  ``skip`` is updated in place; returns the taken mask."""
    n = len(skip)
    ends = np.concatenate([edges[:, 0], edges[:, 1]])
    nbrs = np.concatenate([edges[:, 1], edges[:, 0]])[np.argsort(ends, kind="stable")]
    start = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))]).tolist()
    taken = np.zeros(n, dtype=bool)
    for v in order.tolist():
        if skip[v]:
            continue
        taken[v] = True
        skip[nbrs[start[v]:start[v + 1]]] = True
    return taken
