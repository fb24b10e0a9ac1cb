import json
import re
import subprocess
import sys

import pytest

from misforge.cli import main


def run_cli(*argv, capsys=None):
    return main(list(argv))


def test_gen_dup_and_verify(tmp_path, capsys):
    out = tmp_path / "g.dupg"
    assert main(["gen-dup", "--ell", "2", "--d", "2", "--k", "1", "--out", str(out)]) == 0
    assert main(["verify", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS unique_paths" in text
    header = out.read_text().splitlines()[0].split()
    assert header[0] == "dupg"
    assert int(header[4]) == 2 and int(header[5]) == 4  # p=2, q=4


def test_gen_dup_too_small(tmp_path):
    assert main(["gen-dup", "--n", "5", "--k", "1", "--out", str(tmp_path / "x")]) == 2


def test_gen_dup_minimal(tmp_path):
    out = tmp_path / "m.dupg"
    assert main(["gen-dup", "--ell", "1", "--d", "1", "--k", "1", "--out", str(out)]) == 0
    assert main(["verify", "--in", str(out)]) == 0


def test_verify_catches_mutation(tmp_path, capsys):
    out = tmp_path / "g.dupg"
    main(["gen-dup", "--ell", "2", "--d", "1", "--k", "1", "--out", str(out)])
    lines = out.read_text().splitlines()
    vals = lines[1].split()
    vals[-1] = str(int(vals[-1]) + 1)  # bend one path endpoint
    lines[1] = " ".join(vals)
    bad = tmp_path / "bad.dupg"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["verify", "--in", str(bad)])
    text = capsys.readouterr().out
    assert rc in (1, 2)
    if rc == 1:
        assert "FAIL" in text


def test_verify_rejects_layers_below_the_construction(tmp_path):
    # layer size 4 is below ((k+2) * ell)^d = 6, so the pads would be negative
    bad = tmp_path / "small.dupg"
    bad.write_text("dupg 1 2 4 1 2 2 1\nupc 1 1 1 2\nupc 2 1 2 3\npad -2\npad -2\n")
    assert main(["verify", "--in", str(bad)]) == 2


def test_verify_budget_exceeded(tmp_path, monkeypatch):
    out = tmp_path / "g.dupg"
    main(["gen-dup", "--ell", "2", "--d", "2", "--k", "1", "--out", str(out)])
    monkeypatch.setenv("MISFORGE_BUDGET", "4")
    assert main(["verify", "--in", str(out)]) == 3


def test_verify_path_count_table_over_budget(tmp_path, capsys):
    out = tmp_path / "g.dupg"
    main(["gen-dup", "--ell", "5", "--d", "3", "--k", "1", "--out", str(out)])
    assert main(["verify", "--in", str(out), "--path-budget", "4500"]) == 0
    assert main(["verify", "--in", str(out), "--path-budget", "2000"]) == 3
    assert "table" in capsys.readouterr().err


def test_verify_refuses_an_over_cap_header_before_its_path_lines(tmp_path, capsys):
    """q * p * p = 4 * 2 * 2 is over a path budget of 15: exit 3 from the
    header alone, though no line after it is a path line."""
    bad = tmp_path / "g.dupg"
    bad.write_text("dupg 1 2 36 2 4 2 2\nnot a path line\n")
    assert main(["verify", "--in", str(bad), "--path-budget", "15"]) == 3
    assert "path-count table needs 16 entries, cap is 15" in capsys.readouterr().err
    assert main(["verify", "--in", str(bad), "--path-budget", "16"]) == 2


def test_gen_instance_deterministic(tmp_path):
    a, b = tmp_path / "a.misr", tmp_path / "b.misr"
    args = ["gen-instance", "--r", "1", "--n0", "4", "--toy", "2,1", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_instance_subprocess_matches_inprocess(tmp_path):
    out1 = tmp_path / "sub.misr"
    out2 = tmp_path / "inp.misr"
    args = ["gen-instance", "--r", "1", "--n0", "4", "--toy", "1,1", "--seed", "5"]
    proc = subprocess.run(
        [sys.executable, "-m", "misforge.cli"] + args + ["--out", str(out1)],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_instance_formula_too_small(tmp_path):
    rc = main(["gen-instance", "--r", "2", "--n", "100", "--n0", "4",
               "--seed", "1", "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("n", [64, 96, 256, 1024, 4096])
def test_gen_instance_formula_r1_checks(tmp_path, capsys, n):
    out = tmp_path / "f.misr"
    assert main(["gen-instance", "--r", "1", "--n0", "4", "--n", str(n),
                 "--seed", "1", "--out", str(out)]) == 0
    assert re.search(r"level 1: declared p=\d+ q=\d+; built ell=\d+ d=\d+ p=\d+ q=[1-9]\d*\n",
                     capsys.readouterr().err)
    assert main(["check-instance", "--in", str(out)]) == 0


def test_gen_instance_base(tmp_path, capsys):
    out = tmp_path / "b.misr"
    assert main(["gen-instance", "--r", "0", "--n0", "4", "--seed", "3",
                 "--out", str(out)]) == 0
    assert main(["check-instance", "--in", str(out)]) == 0
    meta = json.loads(out.read_text().splitlines()[1])
    assert meta["r"] == 0 and meta["mode"] == "base"


def test_check_instance_roundtrip(tmp_path):
    out = tmp_path / "t.misr"
    main(["gen-instance", "--r", "1", "--n0", "4", "--toy", "2,1",
          "--seed", "9", "--out", str(out)])
    assert main(["check-instance", "--in", str(out)]) == 0


def test_check_instance_flags_tampering(tmp_path, capsys):
    out = tmp_path / "t.misr"
    main(["gen-instance", "--r", "1", "--n0", "4", "--toy", "1,1",
          "--seed", "9", "--out", str(out)])
    lines = out.read_text().splitlines()
    idx = next(i for i, ln in enumerate(lines)
               if ln and ln.split()[0].isdigit())
    u, v = map(int, lines[idx].split())
    lines[idx] = f"{u} {v - 1 if v - 1 > u else v + 1}"
    bad = tmp_path / "bad.misr"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["check-instance", "--in", str(bad)]) == 1
    assert "FAIL stored_sections_match" in capsys.readouterr().out


@pytest.mark.parametrize("old, new", [("player 2", "player x"),
                                      ("player 1\n", "player 1\na b\n")])
def test_check_instance_non_integer_fields_exit_2(tmp_path, capsys, old, new):
    out = tmp_path / "t.misr"
    main(["gen-instance", "--r", "1", "--n0", "4", "--toy", "1,1",
          "--seed", "9", "--out", str(out)])
    bad = tmp_path / "bad.misr"
    bad.write_text(out.read_text().replace(old, new, 1))
    assert main(["check-instance", "--in", str(bad)]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_predicate_eval_and_cross_check(tmp_path, capsys):
    out = tmp_path / "t.misr"
    main(["gen-instance", "--r", "1", "--n0", "4", "--toy", "1,1",
          "--seed", "7", "--out", str(out)])
    assert main(["predicate", "--in", str(out), "--K", "1"]) == 0
    bits = capsys.readouterr().out.strip()
    assert len(bits) == 2 and set(bits) <= {"0", "1"}
    assert main(["predicate", "--in", str(out), "--cross-check"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_predicate_k_out_of_range(tmp_path):
    out = tmp_path / "t.misr"
    main(["gen-instance", "--r", "1", "--n0", "4", "--toy", "1,1",
          "--seed", "7", "--out", str(out)])
    assert main(["predicate", "--in", str(out), "--K", "5"]) == 2


def test_predicate_cross_check_cap(tmp_path, capsys):
    """A cap below the vertex count is a budget overrun (exit 3); a negative
    cap is invalid input (exit 2)."""
    out = tmp_path / "t.misr"
    main(["gen-instance", "--r", "1", "--n0", "4", "--toy", "1,1",
          "--seed", "7", "--out", str(out)])
    capsys.readouterr()
    assert main(["predicate", "--in", str(out), "--cross-check", "--max-vertices", "1"]) == 3
    assert "exceed the enumeration cap 1" in capsys.readouterr().err
    assert main(["predicate", "--in", str(out), "--cross-check", "--max-vertices", "-1"]) == 2
    assert "invalid input: the enumeration cap -1 is negative" in capsys.readouterr().err


def test_bench_row_count(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "instances": [{"kind": "gnp", "n": 24, "p": 0.25, "graph_seed": 0}],
        "algorithms": ["luby", "greedy", "residual:b=4"],
        "seeds": [1, 2, 3, 4, 5],
    }))
    out = tmp_path / "rows.csv"
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 16  # header + 3 algorithms x 5 seeds


GNP_8 = [{"kind": "gnp", "n": 8, "p": 0.3}]


@pytest.mark.parametrize("spec", [
    {"instances": GNP_8, "algorithms": ["luby", "residual:b=x"], "seeds": [1]},
    {"instances": GNP_8, "algorithms": ["luby"], "seeds": [1, -1]},
    {"instances": [{"kind": "hard", "n0": 4, "toy": [[1, 1]]}], "algorithms": ["luby"],
     "seeds": [-1]},
    {"instances": [{"kind": "gnp", "n": 6, "p": 5}], "algorithms": ["luby"], "seeds": [1]},
    {"instances": [{"kind": "gnp", "n": 6, "p": 0.5, "graph_seed": -1}],
     "algorithms": ["luby"], "seeds": [1]},
    {"instances": [{"kind": "hard", "n0": 4, "toy": [[1, 1]], "graph_seed": -1}],
     "algorithms": ["luby"], "seeds": [1]},
])
def test_failed_bench_writes_no_csv(tmp_path, spec):
    path, out = tmp_path / "spec.json", tmp_path / "o.csv"
    path.write_text(json.dumps(spec))
    assert main(["bench", "--spec", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    out.write_bytes(b"kept\n")
    assert main(["bench", "--spec", str(path), "--out", str(out)]) == 2
    assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("argv", [["--r", "0", "--n0", "4"],
                                  ["--r", "1", "--n0", "4", "--toy", "1,1"]])
def test_gen_instance_negative_seed_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "neg.misr"
    assert main(["gen-instance", *argv, "--seed", "-1", "--out", str(out)]) == 2
    assert "-1" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_is_invalid_input():
    assert main(["verify", "--in", "/nonexistent/x.dupg"]) == 2


def test_bad_bench_spec(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("{not json")
    assert main(["bench", "--spec", str(spec), "--out", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize("spec, field", [
    ({"instances": [{"kind": "gnp"}], "algorithms": ["luby"], "seeds": [1]}, "'n'"),
    ([1, 2], "JSON object"),
    ({"instances": [{"kind": "gnp", "n": 8, "p": 0.3}], "algorithms": ["luby"],
      "seeds": ["a"]}, "'seeds'"),
    ({"instances": [{"kind": "hard", "n0": 4, "toy": [[1, "x"]]}], "algorithms": ["luby"],
      "seeds": [1]}, "'toy'"),
    # a bool is not a number, though Python counts it as an int
    ({"instances": [{"kind": "gnp", "n": True, "p": 0.3}], "algorithms": ["luby"],
      "seeds": [1]}, "'n'"),
    ({"instances": [{"kind": "gnp", "n": 8, "p": 0.3}], "algorithms": ["luby"],
      "seeds": [True]}, "'seeds'"),
    ({"instances": [{"kind": "gnp", "n": 8, "p": 0.3, "graph_seed": False}],
      "algorithms": ["luby"], "seeds": [1]}, "'graph_seed'"),
    ({"instances": [{"kind": "gnp", "n": 8, "p": True}], "algorithms": ["luby"],
      "seeds": [1]}, "'p'"),
    ({"instances": [{"kind": "hard", "n0": 4, "toy": [[True, 1]]}], "algorithms": ["luby"],
      "seeds": [1]}, "'toy'"),
    ({"instances": [{"kind": "hard", "n0": True, "toy": [[1, 1]]}], "algorithms": ["luby"],
      "seeds": [1]}, "'n0'"),
])
def test_bad_bench_spec_fields(tmp_path, capsys, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["bench", "--spec", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert field in capsys.readouterr().err


# 3^20 = 3 486 784 401 vertices per layer: two layers of that size have
# edge keys u * n + v past 2^63
HUGE_LAYER = 3**20


@pytest.mark.parametrize("argv", [["--ell", "1", "--d", "20", "--k", "1"],
                                  ["--n", "10000000000", "--k", "15"]])
def test_gen_dup_refuses_ids_past_int64_keys(tmp_path, capsys, argv):
    out = tmp_path / "huge.dupg"
    assert main(["gen-dup", *argv, "--out", str(out)]) == 2
    assert "overflow int64" in capsys.readouterr().err
    assert not out.exists()


def test_verify_refuses_a_header_past_int64_keys(tmp_path, capsys):
    # the one path of (ell, d) = (1, 20), k = 1: all coordinates 2, then all 3
    first, last = (HUGE_LAYER - 1) // 2, HUGE_LAYER - 1
    path = tmp_path / "huge.dupg"
    path.write_text(f"dupg 1 2 {HUGE_LAYER} 1 1 1 20\nupc 1 1 {first} {last}\npad 0\npad 0\n")
    assert main(["verify", "--in", str(path)]) == 2
    assert "overflow int64" in capsys.readouterr().err


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _edited_toy_misr(tmp_path, toy, level, **fields):
    """A toy misr file whose level entry number `level` (1-based) has fields replaced."""
    out = tmp_path / "t.misr"
    main(["gen-instance", "--r", str(toy.count(";") + 1), "--n0", "4", "--toy", toy,
          "--seed", "9", "--out", str(out)])
    head, meta, body = out.read_text().split("\n", 2)
    meta = json.loads(meta)
    meta["levels"][level - 1].update(fields)
    bad = tmp_path / "bad.misr"
    bad.write_text("\n".join([head, json.dumps(meta), body]))
    return bad


def test_gen_instance_refuses_ids_past_int64_keys(tmp_path):
    """Level 2's collection graph fits, but the instance on top of it has
    2 * 4 * 5^12 * 6 vertices; planning refuses before any join is built."""
    out = tmp_path / "huge.misr"
    proc = subprocess.run([sys.executable, "-m", "misforge.cli", "gen-instance", "--r", "2",
                           "--n0", "4", "--toy", "1,1;1,12", "--seed", "0", "--out", str(out)],
                          capture_output=True, timeout=30, preexec_fn=_limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert b"overflow int64" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("d", [70, 10**30])
def test_check_instance_refuses_a_huge_d_at_once(tmp_path, ell, d):
    """A level's d is bounded before ell^d or the grid is built, so the
    reader fails typed, in a 1 GB address space and 30 s."""
    bad = _edited_toy_misr(tmp_path, "1,1", 1, ell=ell, d=d)
    proc = subprocess.run([sys.executable, "-m", "misforge.cli", "check-instance", "--in", str(bad)],
                          capture_output=True, timeout=30, preexec_fn=_limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert b"1 <= d <= 63" in proc.stderr


@pytest.mark.parametrize("n, code", [(27648, 2), (65536, 2), (221184, 3)])
def test_gen_instance_formula_refuses_at_plan_time(tmp_path, n, code):
    """At r=2, n = 27648 and 65536 leave level 1 a budget of 6 and 8
    vertices, where every collection graph has q = 1; n = 221184 plans q >= 2
    at both levels, but the instance may hold about 1.2e10 edges."""
    out = tmp_path / "f.misr"
    proc = subprocess.run([sys.executable, "-m", "misforge.cli", "gen-instance", "--r", "2",
                           "--n0", "4", "--n", str(n), "--seed", "1", "--out", str(out)],
                          capture_output=True, timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == code, proc.stderr
    assert (b"q = 1" if code == 2 else b"may hold 12188424384 edges") in proc.stderr
    assert not out.exists()


def test_check_instance_refuses_an_oversized_b(tmp_path):
    """A level's b of 10^7 would make a join of 1.6e15 edges: refused when
    the levels are planned, in a 1 GB address space."""
    bad = _edited_toy_misr(tmp_path, "2,1", 1, b=10**7)
    proc = subprocess.run([sys.executable, "-m", "misforge.cli", "check-instance",
                           "--in", str(bad)],
                          capture_output=True, timeout=30, preexec_fn=_limit_memory)
    assert proc.returncode == 3, proc.stderr
    assert b"budget exceeded" in proc.stderr


@pytest.mark.parametrize("toy, level, fields", [
    ("2,1", 1, {"p": 14, "q": 14}),               # overstates what the level builds
    ("1,1;1,1", 2, {"j": 1, "k": 1}),             # j is not the entry's position
])
def test_check_instance_refuses_level_entries_unlike_the_build(tmp_path, capsys, toy, level,
                                                               fields):
    bad = _edited_toy_misr(tmp_path, toy, level, **fields)
    assert main(["check-instance", "--in", str(bad)]) == 2
    assert "are not the levels they build" in capsys.readouterr().err
