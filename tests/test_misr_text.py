"""misr v1 text: the formatter against per-line oracles, pinned file digests,
and the reader's fallback for text that is not as written.

``hardness._misr_blocks`` makes a Biclique's lines from numpy bytes (one
row template per L width run, head digits written through strided views)
and an array's with one str.join per run of equal u.  Both must give,
block for block in order, the text ``f"{u} {v}\\n"`` of every edge, and
the Biclique's must equal the str.join code it replaced
(``instance_oracle.join_blocks``), whatever the block size.
"""

import hashlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instance_oracle as oracle
from misforge import hardness, read_instance
from misforge.cli import main as cli_main
from misforge.dupgraph import Biclique, expand
from test_instance_arrays import build_both, misr_text, outcome

# ids on both sides of every decimal width boundary up to 10^12
NEAR_WIDTHS = [10**w + d for w in range(1, 13) for d in (-2, -1, 0, 1)]
BLOCK_ROWS = [1, 2, 3, 5, 7, 64, 1 << 16]


def ids(top=10**12 + 1):
    """Sorted distinct non-negative ids, many next to a width boundary."""
    near = st.sampled_from([x for x in NEAR_WIDTHS if x < top])
    return st.lists(near | st.integers(0, 20) | st.integers(0, top), max_size=12).map(
        lambda xs: np.array(sorted(set(xs)), dtype=np.int64))


def lines(section) -> str:
    return "".join(f"{u} {v}\n" for u, v in expand(section).tolist())


def blocks(section, rows):
    with mock.patch.object(hardness, "MISR_BLOCK_ROWS", rows):
        return list(hardness._misr_blocks(section))


@given(left=ids(), right=ids(), rows=st.sampled_from(BLOCK_ROWS))
@settings(deadline=None, max_examples=300)
def test_join_text_equals_the_line_oracle(left, right, rows):
    join = Biclique(left, right)
    got = blocks(join, rows)
    assert all(block.count("\n") <= rows and block for block in got)
    assert "".join(got) == lines(join) == "".join(oracle.join_blocks(join, rows))


@pytest.mark.parametrize("left, right", [
    ([7], [9, 10, 99, 100, 10**12 - 1, 10**12]),       # one row
    ([9, 10, 99, 100, 10**12 - 1, 10**12], [5]),       # one column
    ([], [1, 2]), ([3], []), ([], []),                 # empty
    ([0], [0]), ([10**18 - 1, 10**18, 2**63 - 1], [1, 2**63 - 1]),
])
@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_join_text_at_the_edges(left, right, rows):
    join = Biclique(np.array(left, dtype=np.int64), np.array(right, dtype=np.int64))
    assert "".join(blocks(join, rows)) == lines(join)


@given(us=ids(), vs=ids(), pick=st.integers(0, 10**6), rows=st.sampled_from(BLOCK_ROWS))
@settings(deadline=None, max_examples=100)
def test_array_text_equals_the_line_oracle(us, vs, pick, rows):
    """Sorted (m, 2) arrays, ids across widths up to 10^12 (an array's tail
    table holds one string per distinct id)."""
    grid = np.array([(u, v) for u in us.tolist() for v in vs.tolist()], dtype=np.int64)
    edges = grid[np.random.default_rng(pick).random(len(grid)) < 0.6].reshape(-1, 2)
    got = blocks(edges, rows)
    assert all(block.count("\n") <= rows for block in got)
    assert "".join(got) == lines(edges)


def mutants(text: str, cuts: list[int]):
    """Every one-byte change to text: a byte replaced, dropped or doubled,
    at every position of a short text, else at block boundaries and a spread."""
    spots = range(len(text)) if len(text) < 120 else sorted(
        {*cuts, *(c - 1 for c in cuts), *range(0, len(text), len(text) // 8), len(text) - 1})
    for i in spots:
        if 0 <= i < len(text):
            other = "1" if text[i] != "1" else "2"
            yield text[:i] + other + text[i + 1:]
            yield text[:i] + text[i + 1:]
            yield text[:i] + text[i] + text[i:]


@given(left=ids(), right=ids(), rows=st.sampled_from([1, 3, 7, 64]),
       kind=st.sampled_from(["biclique", "array"]))
@settings(deadline=None, max_examples=30)
def test_reader_compare_accepts_the_text_and_refuses_any_one_byte_change(
        left, right, rows, kind):
    """``_written_end``, the reader's in-place compare, on one section."""
    section = Biclique(left, right)
    if kind == "array":
        section = Biclique(left[left < 10**4], right[right < 10**4]).expand()
    got = blocks(section, rows)
    text = "".join(got)
    cuts = np.cumsum([0, *map(len, got)]).tolist()
    with mock.patch.object(hardness, "MISR_BLOCK_ROWS", rows):
        assert hardness._written_end(text, 0, len(text), section) == len(text)
        assert hardness._written_end("player 1\n" + text + "end", 9, len(text) + 9,
                                     section) == len(text) + 9
        for bad in mutants(text, cuts):
            assert hardness._written_end(bad, 0, len(bad), section) != len(bad)


# -- pinned files -----------------------------------------------------------------

# SHA-256 of the misr files gen-instance wrote before the join was formatted
# from numpy bytes; the formatter and the writer must keep them byte for byte.
PINNED = [
    (["--r", "1", "--n0", "8", "--toy", "3,2", "--seed", "0"],
     "c7998b5c1fdb4bca505556de48cf8927e5001194cdb574f2a8f6eca95f57af7c"),
    (["--r", "1", "--n0", "8", "--toy", "3,2", "--seed", "1"],
     "bbb6ee826cadad1c8bfea92c0e073d51253b92a517bb3857ec15b93b9aff6543"),
    (["--r", "1", "--n0", "8", "--toy", "3,2", "--seed", "2"],
     "6c1bda2a35024ecba6fb7f066ee532b2b95a5e4cc5b82b6ca9927e9db13fdd78"),
    (["--r", "2", "--n0", "4", "--toy", "2,1;2,1", "--seed", "0"],
     "86130b61927892531a440cfc1f7b77929486623896a73f7ce0d0bb2a787cb069"),
    (["--r", "2", "--n0", "4", "--toy", "2,1;2,1", "--seed", "1"],
     "6a717ff6e084b015cf9213a86f5a9de638fc0a6ba56289100143125d4d5449f8"),
    (["--r", "2", "--n0", "4", "--toy", "2,1;2,1", "--seed", "2"],
     "d7f478328ac827a865a61f8f4f30a8e62be7fc2d22cee8ba1b48ce361db77e61"),
    (["--r", "1", "--n0", "4", "--n", "4096", "--seed", "0"],
     "f14fe3c29c5da61166b696293b70976a8e345344763ce385c0de6ac957898c76"),
]


@pytest.mark.parametrize("args, sha256", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_misr_files_keep_their_digests(args, sha256, tmp_path):
    path = tmp_path / "inst.misr"
    assert cli_main(["gen-instance", *args, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


# -- the reader's fallback ----------------------------------------------------------


@pytest.fixture(scope="module")
def formula_file(tmp_path_factory):
    """formula r=1 n=4096 (4.1 M join edges) as written, and with one
    trailing space after "player 1"."""
    root = tmp_path_factory.mktemp("formula")
    written, spaced = root / "written.misr", root / "spaced.misr"
    assert cli_main(["gen-instance", "--r", "1", "--n0", "4", "--n", "4096", "--seed", "0",
                     "--out", str(written)]) == 0
    text = written.read_text(encoding="utf-8")
    assert text.count("\nplayer 1\n") == 1
    spaced.write_text(text.replace("\nplayer 1\n", "\nplayer 1 \n"), encoding="utf-8")
    return written, spaced


def test_fallback_parses_only_the_sections_that_differ(formula_file, monkeypatch):
    parsed = []
    real = hardness._parse_section

    def recording(text):
        parsed.append(text.count("\n"))
        return real(text)

    monkeypatch.setattr(hardness, "_parse_section", recording)
    with open(formula_file[1], encoding="utf-8") as fh:
        loaded = read_instance(fh)
    rebuilt = loaded.instance.player_edges
    assert loaded.matches and parsed == [len(rebuilt[0])]
    assert loaded.stored_players[1] is rebuilt[1]      # the join, compared in place
    assert np.array_equal(loaded.stored_players[0], rebuilt[0])


SECTION_ENDS = [
    ("\n", "\n0 1\n"),           # an extra edge line
    ("\n", "\n\n"),               # a blank line
    ("\n", "\n \t\n"),            # a line of blanks
    ("\n", "\nplayers 2\n"),      # a line that only looks like a header
    ("\n", "\n9\n"),              # half an edge
]


@pytest.mark.parametrize("old, new", SECTION_ENDS)
@pytest.mark.parametrize("before", ["player 2\n", "player 3\n", "end\n"])
def test_fallback_agrees_with_the_parsing_oracle_at_section_ends(old, new, before):
    """Damage right after a section's written lines: the section is then not
    as written, so it must be parsed, as the parsing reader does."""
    inst, _ = build_both((2, ((1, 1), (1, 1))), 5)
    text = misr_text(inst, 5)
    cut = text.index(before) - 1
    mangled = text[:cut] + text[cut:].replace(old, new, 1)
    assert mangled != text
    assert outcome(read_instance, mangled) == outcome(oracle.read_instance, mangled)


CHECK_RSS = ("import resource, sys\n"
             "from misforge.cli import main\n"
             "code = main(['check-instance', '--in', sys.argv[1]])\n"
             "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")


def test_fallback_peak_rss_near_the_written_file(formula_file):
    """check-instance on the spaced file peaks within 1.25x of the file as
    written (it had held the whole text's parsed copies on top)."""
    peaks = []
    for path in formula_file:
        proc = subprocess.run([sys.executable, "-c", CHECK_RSS, str(path)],
                              capture_output=True, text=True, check=True)
        code, peak = map(int, proc.stdout.split()[-2:])
        assert code == 0, proc.stderr
        peaks.append(peak)
    assert peaks[1] <= 1.25 * peaks[0]
