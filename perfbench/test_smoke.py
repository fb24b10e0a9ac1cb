"""Smoke test for the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every workload emits every metric named in
BENCHMARK.json with its unit, and that corrupted outputs are counted as
failed operations instead of passing.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import worker

worker.import_misforge()

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

ROOT = worker.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    env = {k: v for k, v in os.environ.items() if k != "MISFORGE_BUDGET"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_lists_what_the_trace_emits():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracing.per_layer_spec()
    assert list(WORKLOADS) == list(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS[:2])


def test_pipeline_reference_is_the_union_of_its_parts():
    reference = workloads.load_reference()
    for size in ("full", "tiny"):
        pipeline = workloads.InstancePipeline(size, 5, ROOT)
        assert pipeline.expected(reference) == {
            **reference["instance_build"][size]["5"], **reference["protocol_sim"][size]["5"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    lines, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        value = result["metrics"][m["name"]]["value"]
        assert f"{m['name']} {value!r} {m['unit']}" in lines
    assert any(line.startswith("error_rate 0.0 fraction") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("environment "))[12:])
    assert env["misforge_budget"] == "unset" and env["workload"] == workload


def test_budget_variable_is_refused():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_gnp", "--seed", "0",
         "--seconds", "0.3", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, env=dict(os.environ, MISFORGE_BUDGET="1000"), capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout


def run_in_process(workload: str, tmp_path: Path) -> dict:
    return worker.run(workload, "tiny", 3, 0.1, False, "measure", tmp_path)


def test_non_maximal_output_raises_error_rate(monkeypatch, tmp_path):
    real_drive = workloads.drive

    def drop_one_vertex(alg, stream, hook=None):
        rep = real_drive(alg, stream, hook)
        rep.output = frozenset(sorted(rep.output)[1:])
        return rep

    monkeypatch.setattr(workloads, "drive", drop_one_vertex)
    result = run_in_process("stream_gnp", tmp_path)
    assert result["attempted"] >= 1
    assert len(result["failures"]) / result["attempted"] > 0
    assert any("not a maximal independent set" in why for why in result["failures"].values())


def flip_edge_digit(text: str) -> str:
    pos = text.rstrip("\nend").rfind("\n") + 1       # first digit of the last edge
    return text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]


def flip_seed_digit(text: str) -> str:
    # the metadata's seed is not used to rebuild the instance: only the
    # digest comparison with the reference can tell
    return text.replace('"seed":3', '"seed":4', 1)


@pytest.mark.parametrize("corrupt, caught_by", [
    (flip_edge_digit, ("misr_sha256", "stored sections")),
    (flip_seed_digit, ("misr_sha256",)),
])
def test_flipped_misr_byte_raises_error_rate(monkeypatch, tmp_path, corrupt, caught_by):
    real_write = workloads.write_instance

    def write_corrupted(inst, fh, **kwargs):
        buf = io.StringIO()
        real_write(inst, buf, **kwargs)
        fh.write(corrupt(buf.getvalue()))

    monkeypatch.setattr(workloads, "write_instance", write_corrupted)
    result = run_in_process("instance_build", tmp_path)
    assert len(result["failures"]) == result["attempted"] == 2 * result["batches"]
    assert all(any(c in why for c in caught_by) for why in result["failures"].values())


def test_misr_digests_equal_cli_output(tmp_path):
    """The benchmark's reference digests are what `misforge gen-instance` writes."""
    reference = workloads.load_reference()["instance_build"]["tiny"]
    for key, n0, levels in workloads.InstanceBuild.sizes["tiny"]:
        out = tmp_path / f"{key}.misr"
        toy = ";".join(f"{ell},{d}" for ell, d in levels)
        subprocess.run(
            [sys.executable, "-m", "misforge.cli", "gen-instance", "--r", str(len(levels)),
             "--n0", str(n0), "--toy", toy, "--seed", "3", "--out", str(out)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
            capture_output=True, timeout=60,
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            reference["3"][key]["misr_sha256"]
