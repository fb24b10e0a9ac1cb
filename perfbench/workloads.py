"""The benchmark workloads, their output checks and their reference.

Each workload builds its inputs in ``setup`` from one input seed, runs a
fixed ``batch`` of operations through misforge's public functions, and
checks every output.  A batch returns, per operation, a record of the
behaviour it must reproduce exactly (pass counts, peak words, MIS
digests, misr digests, verdicts), and every batch's records are compared
with ``reference.json``; the first batch's outputs are also checked
directly (``check``).  Any exception, failed check or differing record
counts the operation as failed; nothing is allowed to crash the run.

Why these (each stresses a different part of misforge):

* ``instance_build``: the gen-instance -> check-instance pipeline as
  library calls on toy-mode instances.  ``hardness`` does nearly all the
  work and the cross-copy join is 99.98 % of the edges.  Toy mode only,
  because toy misr files are pinned byte-identical.
* ``stream_gnp``: the streaming runners over dense and sparse G(n, p) in
  file and random order.  ``streaming`` does all the work, ``hardness``
  none.
* ``protocol_sim``: the blackboard-protocol simulation on an r=2 toy
  instance: per-player sections, a memory snapshot at every section
  boundary, word packing and a second direct run.
* ``exact_checks``: the exhaustive verifiers (average-free sets, DUP
  unique paths, embedding inducedness, MIS enumeration and predicate
  extraction): small-object pure-Python search, the opposite of
  ``instance_build``'s large heap.

``instance_pipeline`` is ``instance_build``'s batch followed by
``protocol_sim``'s, in one process.  ``BENCHMARK.json`` lists it and
``exact_checks``; the other three can be run on their own.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from misforge import (
    EdgeStream,
    GraphFamily,
    ToyParams,
    build_avg_free_set,
    build_dup,
    check_properties,
    embed,
    enumerate_all_mis,
    eval_predicate,
    extract_predicate_from_mis,
    gnp_graph,
    is_mis,
    make_algorithm,
    read_instance,
    sample_base_instance,
    sample_instance,
    simulate_protocol_from_stream,
    verify_all_inducedness,
    verify_avg_free,
    verify_dup,
    write_instance,
)
from misforge.dupgraph import LayeredGraph, make_edge
from misforge.streaming import drive

from tracing import ALG_SLUGS, PROTOCOL_ALGS, STREAM_ALGS

REFERENCE = Path(__file__).with_name("reference.json")


def digest(values) -> str:
    return hashlib.sha256(" ".join(map(str, sorted(values))).encode()).hexdigest()[:16]


@dataclass
class Batch:
    records: dict[str, dict] = field(default_factory=dict)   # op -> what must repeat
    failures: dict[str, str] = field(default_factory=dict)   # op -> why it failed
    outputs: dict[str, object] = field(default_factory=dict)  # op -> output to check
    edges: int = 0                                           # numerator of edges_per_s

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, reason)

    @property
    def attempted(self) -> int:
        return len(self.records.keys() | self.failures.keys())


def guarded(batch: Batch, op: str, tracer, fn) -> None:
    """Run one operation; an exception fails it instead of the run."""
    with tracer.op(op):
        try:
            fn()
        except Exception:  # noqa: BLE001 - every failure is counted, none stops the run
            batch.fail(op, traceback.format_exc(limit=3))


class Workload:
    name = ""
    sizes: dict = {}

    def __init__(self, size: str, seed: int, workdir: Path):
        self.size = size
        self.cfg = self.sizes[size]
        self.seed = seed
        self.workdir = workdir

    def setup(self, tr) -> None:
        """Build the inputs."""

    def batch(self, tr) -> Batch:
        out = Batch()
        self.fill(tr, out)
        return out

    def fill(self, tr, out: Batch) -> None:
        """Run the fixed batch's operations, recording into ``out``."""
        raise NotImplementedError

    def expected(self, reference: dict) -> dict | None:
        """This input's records in ``reference``, or None if none were recorded."""
        return reference.get(self.name, {}).get(self.size, {}).get(str(self.seed))

    def finish(self, tr, batch: Batch) -> None:
        """Cheap per-batch bookkeeping, after the batch's clock stops."""

    def check(self, tr, batch: Batch) -> None:
        """Verify the first batch's outputs, outside the timed batches."""


# -- instance_build ---------------------------------------------------------------


class InstanceBuild(Workload):
    name = "instance_build"
    sizes = {
        # r=1 (3,2), n0=8: 1296 vertices, 399 k edges; r=2 (2,1);(2,1), n0=4:
        # 960 vertices, 188 k edges, recursing into sub-instances.
        "full": (("r1", 8, ((3, 2),)), ("r2", 4, ((2, 1), (2, 1)))),
        "tiny": (("r1", 4, ((1, 1),)), ("r2", 2, ((1, 1), (1, 1)))),
    }

    def setup(self, tr):
        self.shapes = [(key, ToyParams(n_0=n0, levels=levels)) for key, n0, levels in self.cfg]

    def fill(self, tr, out):
        for key, toy in self.shapes:
            guarded(out, key, tr, lambda: self._pipeline(tr, out, key, toy))

    def misr_path(self, key: str) -> Path:
        return self.workdir / f"{key}.misr"

    def _pipeline(self, tr, out: Batch, key: str, toy: ToyParams) -> None:
        inst = tr.call("hardness.sample_instance", sample_instance, toy.r, toy, self.seed)
        report = tr.call("hardness.check_properties", check_properties, inst)
        with open(self.misr_path(key), "w", encoding="utf-8") as fh:
            tr.call("hardness.write_instance", write_instance, inst, fh,
                    seed=self.seed, mode="toy")
        record = {
            "vertices": inst.graph.n_vertices,
            "edges": len(inst.graph.edges),
            "join_edges": len(inst.players[-1]),
        }
        out.records[key] = record
        out.edges += record["edges"]
        if not report.ok:
            out.fail(key, f"check_properties failed: {report.failures()}")
        del inst, report   # gen-instance and check-instance are separate processes
        with open(self.misr_path(key), encoding="utf-8") as fh:
            loaded = tr.call("hardness.read_instance", read_instance, fh)
        if not tr.call("hardness.matches", lambda: loaded.matches):
            out.fail(key, "stored sections differ from the rebuilt instance")
        stream = tr.call("streaming.from_instance", EdgeStream.from_instance, loaded.instance)
        streamed = sum(len(section) for section in stream.sections_list)
        if streamed != record["edges"]:
            out.fail(key, f"stream holds {streamed} edges, instance {record['edges']}")

    def finish(self, tr, batch):
        for key, _ in self.shapes:
            path = self.misr_path(key)
            if key not in batch.records or not path.exists():
                continue
            blob = path.read_bytes()
            batch.records[key]["misr_bytes"] = len(blob)
            batch.records[key]["misr_sha256"] = hashlib.sha256(blob).hexdigest()
            tr.count("hardness.edges", batch.records[key]["edges"])
            tr.count("hardness.join_edges", batch.records[key]["join_edges"])
            tr.count("hardness.misr_bytes", len(blob))


# -- stream_gnp -------------------------------------------------------------------


class StreamGnp(Workload):
    name = "stream_gnp"
    sizes = {
        "full": {"graphs": ((512, 0.3), (4096, 0.005)), "seeds": 4},
        "tiny": {"graphs": ((128, 0.3), (256, 0.02)), "seeds": 1},
    }
    orders = ("file", "random")

    def setup(self, tr):
        self.inputs = []
        for g in range(self.cfg["seeds"]):
            gseed = self.seed * self.cfg["seeds"] + g
            for n, p in self.cfg["graphs"]:
                graph = tr.call("streaming.gnp_graph", gnp_graph, n, p, gseed)
                edges = sorted(graph.edges)
                streams = {
                    order: EdgeStream.from_edges(edges, order=order, seed=gseed)
                    for order in self.orders
                }
                self.inputs.append((f"n{n}/g{gseed}", graph, streams, gseed + 1))

    def fill(self, tr, out):
        for key, graph, streams, alg_seed in self.inputs:
            for order, stream in streams.items():
                for alg in STREAM_ALGS:
                    op = f"{key}/{order}/{alg}"
                    guarded(out, op, tr, lambda: self._run(
                        tr, out, op, graph, stream, alg, alg_seed))

    def _run(self, tr, out, op, graph, stream, alg, alg_seed):
        slug = ALG_SLUGS[alg]
        rep = tr.call(f"streaming.drive.{slug}",
                      lambda: drive(make_algorithm(alg, graph.n, alg_seed), stream))
        stepped = rep.passes * len(graph.edges)
        out.records[op] = {"passes": rep.passes, "peak_words": rep.peak_words,
                           "mis_size": len(rep.output), "mis_digest": digest(rep.output)}
        out.outputs[op] = (graph, rep.output)
        out.edges += stepped
        tr.count("streaming.edges_stepped", stepped)
        tr.count(f"streaming.edges_stepped.{slug}", stepped)
        tr.count(f"streaming.passes.{slug}", rep.passes)
        tr.peak(f"streaming.peak_words.{slug}", rep.peak_words)

    def check(self, tr, batch):
        for op, (graph, output) in batch.outputs.items():
            if not tr.call("oracle.is_mis", is_mis, (range(graph.n), graph.edges), output):
                batch.fail(op, "output is not a maximal independent set")


# -- protocol_sim -----------------------------------------------------------------


class ProtocolSim(Workload):
    name = "protocol_sim"
    sizes = {
        "full": (4, ((2, 1), (2, 1))),   # r=2, 3 players, 960 vertices, 188 k edges
        "tiny": (2, ((1, 1), (1, 1))),
    }

    def setup(self, tr):
        n0, levels = self.cfg
        toy = ToyParams(n_0=n0, levels=levels)
        self.inst = tr.call("hardness.sample_instance", sample_instance, toy.r, toy, self.seed)
        self.n = self.inst.graph.n_vertices
        self.n_edges = len(self.inst.graph.edges)
        self.alg_seed = self.seed + 1

    def fill(self, tr, out):
        for alg in PROTOCOL_ALGS:
            guarded(out, alg, tr, lambda: self._simulate(tr, out, alg))

    def _simulate(self, tr, out, alg):
        slug = ALG_SLUGS[alg]
        sim = tr.call(f"protocol.simulate.{slug}", simulate_protocol_from_stream,
                      alg, self.inst, self.alg_seed)
        rep, transcript = sim.report, sim.transcript
        messages = sum(len(rnd) for rnd in transcript.rounds)
        out.records[alg] = {
            "passes": rep.passes, "peak_words": rep.peak_words,
            "cc_bits": transcript.cc_bits, "max_message_bits": transcript.max_message_bits,
            "messages": messages, "mis_size": len(rep.output), "mis_digest": digest(rep.output),
        }
        out.outputs[alg] = rep.output
        out.edges += rep.passes * self.n_edges
        if transcript.cc_bits > rep.passes * sim.k * rep.peak_words * 64:
            out.fail(alg, "communication exceeds passes * k * peak_words * 64 bits")
        tr.count("streaming.edges_stepped", rep.passes * self.n_edges)
        tr.count(f"protocol.cc_bits.{slug}", transcript.cc_bits)
        tr.count("protocol.messages", messages)
        tr.peak("protocol.max_message_bits", transcript.max_message_bits)

    def check(self, tr, batch):
        view = (range(self.n), self.inst.graph.flat_edges())
        for alg, output in batch.outputs.items():
            if not tr.call("oracle.is_mis", is_mis, view, output):
                batch.fail(alg, "output is not a maximal independent set")
            if tr.enabled:
                # A plain run over the same player-order stream: the simulated
                # answer must equal it, and simulate minus direct is the
                # protocol's overhead.
                direct = tr.call(
                    f"protocol.direct.{ALG_SLUGS[alg]}",
                    lambda: drive(make_algorithm(alg, self.n, self.alg_seed),
                                  EdgeStream.from_instance(self.inst, order="player")))
                if direct.output != output:
                    batch.fail(alg, "simulated output differs from the direct run")


# -- exact_checks -----------------------------------------------------------------


def _random_family(dup, w: int, rng) -> GraphFamily:
    g = dup.graph
    slots = [
        make_edge((layer, a), (layer + 1, b))
        for layer in range(1, g.num_layers) for a in range(w) for b in range(w)
    ]
    members = tuple(
        tuple(
            LayeredGraph(g.num_layers, w, frozenset(e for e in slots if rng.random() < 0.45))
            for _ in range(dup.params.p)
        )
        for _ in range(dup.params.q)
    )
    return GraphFamily(q=dup.params.q, p=dup.params.p, num_layers=g.num_layers,
                       layer_size=w, members=members)


def _dup_slice(d1_stride: int):
    """Criterion 2's grid: every d >= 2 graph, and every d1_stride-th d = 1 graph."""
    for k in range(1, 4):
        for d in range(1, 8):
            ell = 1
            while ((k + 2) * ell) ** d <= 4096:
                if d >= 2 or ell % d1_stride == 0:
                    yield ell, d, k
                ell += 1


class ExactChecks(Workload):
    name = "exact_checks"
    sizes = {
        "full": {
            # the heaviest criterion-1 grids: (8,4) alone is most of the time
            "grids": ((8, 4), (16, 3), (7, 4)),
            "dups": tuple(_dup_slice(64)),
            "host_dups": ((2, 1, 1), (2, 2, 1), (3, 1, 2), (2, 1, 3), (3, 2, 1)),
            "families": 40,
            "mis_instances": 40,
        },
        "tiny": {
            "grids": ((3, 2),),
            "dups": ((1, 1, 1), (2, 2, 1), (2, 1, 2)),
            "host_dups": ((2, 1, 1), (2, 2, 1)),
            "families": 2,
            "mis_instances": 2,
        },
    }
    # criterion 5's shapes, all at most 24 vertices: (n0, levels)
    mis_shapes = ((4, None), (4, ((1, 1),)), (2, ((1, 1),)), (2, ((2, 1),)))

    def setup(self, tr):
        cfg = self.cfg
        self.avg_sets = [(ell, d, build_avg_free_set(ell, d)) for ell, d in cfg["grids"]]
        hosts = [build_dup(ell, d, k) for ell, d, k in cfg["host_dups"]]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed)))
        self.families = []
        for i in range(cfg["families"]):
            dup = hosts[i % len(hosts)]
            self.families.append((dup, _random_family(dup, 1 + i % 8, rng)))
        self.mis_instances = []
        for i in range(cfg["mis_instances"]):
            n0, levels = self.mis_shapes[i % len(self.mis_shapes)]
            iseed = self.seed * cfg["mis_instances"] + i
            if levels is None:
                inst = sample_base_instance(n0, iseed)
            else:
                toy = ToyParams(n_0=n0, levels=levels)
                inst = tr.call("hardness.sample_instance", sample_instance, toy.r, toy, iseed)
            self.mis_instances.append(inst)

    def fill(self, tr, out):
        for ell, d, a_set in self.avg_sets:
            guarded(out, f"avgfree/{ell},{d}", tr,
                    lambda: self._avgfree(tr, out, f"avgfree/{ell},{d}", a_set))
        for ell, d, k in self.cfg["dups"]:
            op = f"dup/{ell},{d},{k}"
            guarded(out, op, tr, lambda: self._dup(tr, out, op, ell, d, k))
        for i, (dup, fam) in enumerate(self.families):
            guarded(out, f"embed/{i}", tr, lambda: self._embed(tr, out, f"embed/{i}", dup, fam))
        for i, inst in enumerate(self.mis_instances):
            guarded(out, f"mis/{i}", tr, lambda: self._mis(tr, out, f"mis/{i}", inst))

    def _avgfree(self, tr, out, op, a_set):
        verdict = tr.call("avgfree.verify_avg_free", verify_avg_free, a_set, 5)
        out.records[op] = {"size": a_set.size, "avg_free": verdict}
        if not verdict:
            out.fail(op, "direction set is not average-free")

    def _dup(self, tr, out, op, ell, d, k):
        dup = tr.call("dupgraph.build_dup", build_dup, ell, d, k)
        report = tr.call("dupgraph.verify_dup", verify_dup, dup)
        p, q = dup.params.p, dup.params.q
        out.records[op] = {"p": p, "q": q, "edges": len(dup.graph.edges), "ok": report.ok}
        out.edges += len(dup.graph.edges)
        tr.count("dupgraph.pairs", q * p * p)
        if not report.ok:
            out.fail(op, f"verify_dup failed: {report.failures()}")

    def _embed(self, tr, out, op, dup, fam):
        emb = tr.call("embedding.embed", embed, fam, dup)
        induced = tr.call("embedding.verify_all_inducedness", verify_all_inducedness,
                          emb, dup, fam)
        out.records[op] = {"edges": len(emb.graph.edges), "induced": induced}
        out.edges += len(emb.graph.edges)
        if not induced:
            out.fail(op, "embedding is not induced on some collection")

    def _mis(self, tr, out, op, inst):
        sets = tr.call("oracle.enumerate_all_mis", enumerate_all_mis, inst.graph)
        seqs = [()]
        cur = inst
        while cur.r >= 1:
            seqs = [s + (k,) for s in seqs for k in range(1, cur.p_achieved + 1)]
            cur = cur.subinstance(cur.t, 1)
        mismatches = 0
        for s in sets:
            for seq in seqs:
                got = tr.call("oracle.extract_predicate_from_mis",
                              extract_predicate_from_mis, inst, s, seq)
                mismatches += got != eval_predicate(inst, seq)
        out.records[op] = {"mis_sets": len(sets), "pairs": len(sets) * len(seqs),
                           "mismatches": mismatches}
        out.edges += len(inst.graph.edges)
        tr.count("oracle.mis_sets", len(sets))
        if mismatches or not sets:
            out.fail(op, f"{mismatches} extract/eval mismatches over {len(sets)} sets")


# -- instance_pipeline ------------------------------------------------------------


class InstancePipeline(Workload):
    """instance_build's batch, then protocol_sim's, on the same input seed.

    The parts' operation names are disjoint (r1, r2 / one per runner), so
    their records share one batch and the reference is the union of the
    parts' recorded entries.  One workload instead of two lets each run
    last longer for the same total time, which steadies its timings on a
    shared host.
    """

    name = "instance_pipeline"
    parts = (InstanceBuild, ProtocolSim)
    sizes = {"full": None, "tiny": None}

    def __init__(self, size, seed, workdir):
        super().__init__(size, seed, workdir)
        self.works = [part(size, seed, workdir) for part in self.parts]

    def setup(self, tr):
        for work in self.works:
            work.setup(tr)

    def fill(self, tr, out):
        for work in self.works:
            work.fill(tr, out)

    def finish(self, tr, batch):
        for work in self.works:
            work.finish(tr, batch)

    def check(self, tr, batch):
        for work in self.works:
            work.check(tr, batch)

    def expected(self, reference):
        parts = [work.expected(reference) for work in self.works]
        if any(part is None for part in parts):
            return None
        return {op: rec for part in parts for op, rec in part.items()}


WORKLOADS = {w.name: w for w in (InstancePipeline, ExactChecks, InstanceBuild,
                                 StreamGnp, ProtocolSim)}


# -- reference --------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def compare(batch: Batch, expected: dict | None) -> None:
    """Fail every operation whose record differs from the reference."""
    if expected is None:
        for op in batch.records:
            batch.fail(op, "no reference recorded for this input")
        return
    for op in expected.keys() | batch.records.keys():
        got, want = batch.records.get(op), expected.get(op)
        if got != want:
            drift = sorted(k for k in (got or {}).keys() | (want or {}).keys()
                           if (got or {}).get(k) != (want or {}).get(k))
            batch.fail(op, f"differs from the reference in {drift}: {got} != {want}")
