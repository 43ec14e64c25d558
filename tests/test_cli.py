import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramcode import aecc, graphs, lattice
from gramcode.cli import main, parse_set
from gramcode.codec import format_codebook_file, parse_codebook_file
from gramcode.grams import (
    build_weight_set, explicit_gram_set, format_profile_file, full_gram_set, gram_values,
)
from oracles import verify_min_distance


def run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(list(argv))
    return status, buffer.getvalue()


def grab(output, key):
    for line in output.splitlines():
        if line.startswith(key + " "):
            return line[len(key) + 1 :]
    raise KeyError(key)


def test_graph_info():
    status, out = run_cli("graph-info", "--set", "weight", "2", "4", "1", "2", "3")
    assert status == 0
    assert grab(out, "nodes") == "7"
    assert grab(out, "arcs") == "10"
    assert grab(out, "eulerian") == "true"
    assert grab(out, "cycle-lcm") == "60"


def test_enumerate_modes():
    status, out = run_cli("enumerate", "--set", "full", "2", "3", "--n", "14", "--mode", "E")
    assert status == 0 and grab(out, "count") == "14"
    status, out = run_cli(
        "enumerate", "--set", "full", "2", "2", "--n", "4", "--mode", "words"
    )
    assert status == 0 and grab(out, "count") == "12"
    status, out = run_cli(
        "enumerate", "--set", "full", "2", "2", "--n", "4", "--mode", "words", "--closed"
    )
    assert status == 0 and grab(out, "count") == "4"
    status, out = run_cli(
        "enumerate", "--set", "full", "2", "2", "--n", "4", "--points"
    )
    assert status == 0 and grab(out, "count") == "6"
    assert out.count("point ") == 6
    # 1024 arcs, one scan level each
    status, out = run_cli("enumerate", "--set", "full", "2", "10", "--n", "11")
    assert status == 0 and grab(out, "count") == "4"


def test_fit_command():
    status, out = run_cli(
        "fit", "--set", "full", "2", "2", "--degree", "2", "--lambda", "2"
    )
    assert status == 0
    assert grab(out, "leading-in-n") == "1/4"
    # samples at t = -2, -1, 0; the held-out count is at t = 1
    assert grab(out, "verified-at") == "1"


def test_fit_below_the_dimension_exits_3(capsys):
    # full 2 3 has dimension 4; the counts at t = -1, 0 are both 4, at t = 1 362
    status, out = run_cli("fit", "--set", "full", "2", "3", "--degree", "0",
                          "--lambda", "12", "--residue", "2")
    assert status == 3
    assert "coeff" not in out
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error degree 0 is below")


def test_fit_at_a_wrong_period_exits_3(tmp_path, capsys):
    # full 3 2 less the gram 12 has period 6; at lambda 5 the held-out
    # count alone would pass a fit that is wrong at t = 3
    set_path = tmp_path / "set.txt"
    set_path.write_text("3 2\n00 01 02 10 11 20 21 22\n")
    status, out = run_cli("fit", "--set", "explicit", str(set_path), "--degree", "5",
                          "--lambda", "5", "--residue", "1")
    assert status == 3
    assert "coeff" not in out
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error lambda 5 is not a period")


def test_repeat_runs_are_byte_identical():
    args = ("enumerate", "--set", "weight", "2", "4", "1", "2", "3",
            "--n", "12", "--mode", "E", "--points")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second


def test_simulate_is_reproducible(tmp_path):
    trace_path = tmp_path / "trace.json"
    args = (
        "simulate", "--word", "0110100", "--q", "2", "--ell", "2",
        "--ssyn", "1", "--t", "1", "--sseq", "2", "--seed", "42",
        "--trace", str(trace_path),
    )
    status1, out1 = run_cli(*args)
    first_trace = trace_path.read_text()
    status2, out2 = run_cli(*args)
    assert status1 == status2 == 0
    assert out1 == out2
    assert trace_path.read_text() == first_trace
    total = sum(int(t) for t in grab(out1, "observed").split())
    assert total == 7 - 2 + 1 - 1


def test_simulate_requires_seed():
    with pytest.raises(SystemExit) as err:
        run_cli("simulate", "--word", "0101", "--q", "2", "--ell", "2")
    assert err.value.code == 2


def test_validation_error_exit_code(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("--threads", "1", "graph-info", "--set", "full", "2", "2")
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli(
            "grc-build", "--method", "systematic", "--set", "full", "2", "3",
            "--n", "20", "--m", "2", "--distance", "1",
        )
    assert err.value.code == 2

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    one_token = tmp_path / "one_token.txt"
    one_token.write_text("2\n00 01\n")
    grams_on_header = tmp_path / "grams_on_header.txt"
    grams_on_header.write_text("2 2 00 01\n11\n")
    short_header = tmp_path / "short_header.txt"
    short_header.write_text("2\n1 2 3\n")
    bare_p = tmp_path / "bare_p.txt"
    bare_p.write_text("p\nd 1\nbeta 0\nalphas 1 2 3\n")
    three_counts = tmp_path / "three_counts.txt"
    three_counts.write_text("2 2 weight 1 1 2 5\n0 0 1\n")
    code = tmp_path / "code.txt"
    run_cli("code-build", "--length", "3", "--d", "1", "--p", "5", "--out", str(code))
    negative3 = tmp_path / "negative3.txt"
    negative3.write_text("2 2 weight 1 1 2 5\n3 -1 3\n")
    negative8 = tmp_path / "negative8.txt"
    negative8.write_text("2 3 full 20\n12 1 0 2 1 1 2 -1\n")
    negative_rank = tmp_path / "negative_rank.txt"
    negative_rank.write_text("2 3 full 14\n7 1 1 2 1 1 3 -2\n")
    observed = tmp_path / "observed.txt"
    observed.write_text("2 3 full 20\n11 1 0 2 1 1 2 0\n")
    book = tmp_path / "book.txt"
    run_cli("grc-build", "--method", "systematic", "--set", "full", "2", "3",
            "--n", "20", "--m", "2", "--out", str(book))
    head, *rows = book.read_text().splitlines()
    negative_book = tmp_path / "negative_book.txt"
    negative_book.write_text("\n".join([head, "15 -1 0 2 1 1 2 0", *rows]) + "\n")
    # rows that no length-12 word has: they do not sum to 12 - 2 + 1
    sum3_book = tmp_path / "sum3_book.txt"
    sum3_book.write_text("12 2 2 full 2 intersection\n3 0 0 0\n")
    sum1_book = tmp_path / "sum1_book.txt"
    sum1_book.write_text("12 2 2 full 2 intersection\n0 1 0 0\n")
    observed4 = tmp_path / "observed4.txt"
    observed4.write_text("2 2 full 12\n0 1 1 0\n")
    # input that the checks refuse before any Hamiltonian search: a search
    # would run out of this budget and exit 3
    monkeypatch.setattr(graphs, "CYCLE_SEARCH_BUDGET", 5)
    for argv in (
        ("graph-info", "--set", "weight", "2", "4", "9", "2", "3"),
        ("graph-info", "--set", "full", "2"),
        ("graph-info", "--set", "explicit", str(empty)),
        ("graph-info", "--set", "explicit", str(one_token)),
        ("graph-info", "--set", "explicit", str(grams_on_header)),
        ("graph-info", "--set", "explicit", str(one_token), "extra"),
        ("graph-info", "--set", "full", "2", "2", "3"),
        ("code-check", "--code", str(code), "--profile", str(short_header)),
        ("decode", "--codebook", str(empty), "--profile", str(short_header)),
        ("code-check", "--code", str(bare_p), "--profile", str(short_header)),
        ("fit", "--set", "full", "2", "2", "--degree", "1", "--lambda", "0"),
        ("fit", "--set", "full", "2", "2", "--degree", "-1", "--lambda", "2"),
        ("fit", "--set", "full", "2", "2", "--degree", "2", "--lambda", "2", "--residue", "5"),
        ("fit", "--set", "full", "2", "2", "--degree", "2", "--lambda", "2", "--residue", "-3"),
        ("fit", "--set", "full", "2", "2", "--degree", "2", "--lambda", "2", "--residue", "2"),
        ("simulate", "--word", "0110", "--q", "2", "--ell", "-1", "--seed", "1"),
        ("simulate", "--word", "0110", "--q", "2", "--ell", "0", "--seed", "1"),
        ("code-decode", "--code", str(code), "--profile", str(three_counts),
         "--max-weight", "-1"),
        ("grc-build", "--method", "intersect", "--set", "full", "2", "3", "--n", "20"),
        ("enumerate", "--set", "full", "2", "3", "--n", "10", "--mode", "words",
         "--code", str(tmp_path / "missing.txt")),
        ("code-build", "--length", "3", "--d", "1", "--alphas", "1,2"),
        # flags the chosen mode would ignore
        ("enumerate", "--set", "full", "2", "2", "--n", "4", "--closed"),
        ("enumerate", "--set", "full", "2", "2", "--n", "4", "--mode", "E", "--closed"),
        ("grc-build", "--method", "systematic", "--set", "full", "2", "3",
         "--n", "20", "--m", "2", "--code", str(tmp_path / "missing.txt")),
        ("grc-build", "--method", "intersect", "--set", "full", "2", "3",
         "--n", "20", "--code", str(code), "--m", "2"),
        ("roundtrip", "--preset", "rank", "--message", "1,0,1"),
        ("roundtrip", "--preset", "systematic", "--perm", "0,1,2"),
        ("roundtrip", "--preset", "rank", "--seed", "5"),
        ("roundtrip", "--preset", "rank", "--ssyn", "1"),
        ("roundtrip", "--preset", "systematic", "--ssyn", "-1", "--seed", "5"),
        ("simulate", "--word", "0110", "--q", "2", "--ell", "2", "--seed", "1",
         "--trace", str(tmp_path)),
        ("enumerate", "--set", "full", "2", "2", "--n", "-1", "--mode", "words"),
        ("code-build", "--length", "0", "--d", "1"),
        ("code-build", "--length", "3", "--d", "2", "--p", "0"),
        # gram length 1: no de Bruijn graph
        ("graph-info", "--set", "full", "2", "1"),
        ("rank-encode", "--q", "2", "--ell", "1", "--n", "6", "--perm", "0"),
        # negative counts in a profile or codebook file
        ("code-check", "--code", str(code), "--profile", str(negative3)),
        ("code-decode", "--code", str(code), "--profile", str(negative3), "--max-weight", "2"),
        ("decode", "--codebook", str(book), "--profile", str(negative8)),
        ("rank-decode", "--q", "2", "--ell", "3", "--profile", str(negative_rank)),
        ("decode", "--codebook", str(negative_book), "--profile", str(observed)),
        # codebook rows that are not the profile of a length-n word
        ("decode", "--codebook", str(sum3_book), "--profile", str(observed4)),
        ("decode", "--codebook", str(sum1_book), "--profile", str(observed4)),
        # m = 0, no loop, or a bad message on graphs without a quick cycle
        ("encode", "--set", "weight", "3", "5", "2", "1", "3", "--n", "2000", "--m", "0",
         "--message", "0"),
        ("grc-build", "--method", "systematic", "--set", "weight", "3", "5", "2", "1", "3",
         "--n", "2000", "--m", "0"),
        ("encode", "--set", "weight", "2", "11", "1", "2", "9", "--n", "5000", "--m", "1",
         "--message", "x"),
        ("encode", "--set", "weight", "3", "5", "2", "1", "3", "--n", "2000", "--m", "1",
         "--message", "0"),
    ):
        capsys.readouterr()
        status, out = run_cli(*argv)
        assert status == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error ") and err.count("\n") == 1, (argv, err)
        # nothing but the config echo reaches stdout before the error
        for line in out.splitlines():
            assert line.startswith(("format ", "command ", "config ")), (argv, line)


def run_module(*argv):
    """`python -m gramcode.cli argv` on this checkout's src/, killed after 10 s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "gramcode.cli", *argv],
        capture_output=True, text=True, env=env, timeout=10,
    )


def test_module_entry_point_reports_bad_file(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    proc = run_module("graph-info", "--set", "explicit", str(empty))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error ")


def test_simulate_refuses_a_budget_past_2_64():
    # --at-most draws each budget b uniformly from 0..b, and no 64-bit
    # rejection draw covers more than 2**64 values
    argv = ["simulate", "--word", "0110", "--q", "2", "--ell", "2", "--seed", "1", "--at-most"]
    for budget in ("--t", "--ssyn", "--sseq"):
        proc = run_module(*argv, budget, str(2**64))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error ")


@pytest.mark.parametrize("argv", [
    ("graph-info", "--set", "full", "4", "12"),
    ("rank-encode", "--q", "7", "--ell", "13", "--n", "7", "--perm", "1,0"),
    ("enumerate", "--set", "full", "5", "9", "--n", "3"),
    ("graph-info", "--set", "weight", "4", "11", "2", "1", "3"),
    ("simulate", "--word", "ATGCATGCAATTGGCCATGCAATGC", "--q", "4", "--ell", "14", "--seed", "1"),
    # 2**31 messages: full 2 6 has 64 - 32 - 1 info arcs
    ("grc-build", "--method", "systematic", "--set", "full", "2", "6", "--n", "2000", "--m", "2",
     "--out", os.devnull),
])
def test_huge_cube_fails_fast(argv, capsys):
    start = time.perf_counter()
    status, _ = run_cli(*argv)
    assert time.perf_counter() - start < 1
    assert status == 3
    err = capsys.readouterr().err
    assert err.startswith("error ") and err.count("\n") == 1 and "cube guard" in err


def test_computation_error_exit_code(tmp_path, monkeypatch, capsys):
    code_path = tmp_path / "code.txt"
    run_cli("code-build", "--length", "3", "--d", "2", "--p", "5", "--out", str(code_path))
    profile_path = tmp_path / "profile.txt"
    profile_path.write_text("2 2 weight 1 1 2 5\n0 0 1\n")
    status, _ = run_cli(
        "code-decode", "--code", str(code_path), "--profile", str(profile_path),
        "--max-weight", "0",
    )
    assert status == 3
    # the cycle-length search gives up on its step budget
    monkeypatch.setattr(graphs, "CYCLE_SEARCH_BUDGET", 5)
    capsys.readouterr()
    status, _ = run_cli("graph-info", "--set", "weight", "2", "5", "1", "2", "3")
    assert status == 3
    assert "error cycle search exceeded 5 steps" in capsys.readouterr().err


def test_code_files_and_decoding(tmp_path):
    code_path = tmp_path / "code.txt"
    status, out = run_cli(
        "code-build", "--length", "3", "--d", "2", "--p", "5",
        "--alphas", "1,2,3", "--out", str(code_path),
    )
    assert status == 0 and grab(out, "design-distance") == "3"

    profile_path = tmp_path / "profile.txt"
    profile_path.write_text("2 2 full 4\n0 0 0 0\n")
    # the zero vector is shorter than the code: validation error
    status, _ = run_cli("code-check", "--code", str(code_path), "--profile", str(profile_path))
    assert status == 2

    profile_path.write_text("2 2 full 5\n1 2 0 1\n")
    code4 = tmp_path / "code4.txt"
    run_cli("code-build", "--length", "4", "--d", "1", "--p", "5", "--out", str(code4))
    status, out = run_cli("code-check", "--code", str(code4), "--profile", str(profile_path))
    assert status == 0
    member = grab(out, "member")
    status, out = run_cli(
        "code-decode", "--code", str(code4), "--profile", str(profile_path),
        "--max-weight", "2",
    )
    if member == "true":
        assert status == 0 and grab(out, "codeword") == "1 2 0 1"


def test_grc_build_systematic(tmp_path):
    book_path = tmp_path / "book.txt"
    status, out = run_cli(
        "grc-build", "--method", "systematic", "--set", "full", "2", "3",
        "--n", "20", "--m", "2", "--out", str(book_path),
    )
    assert status == 0 and grab(out, "codewords") == "8"
    assert "14 1 0 1 1 0 1 0" in book_path.read_text()
    # the header's d is the distance of [m]^k, and the codewords keep it
    for ell, n in ((3, 20), (4, 80)):
        status, out = run_cli(
            "grc-build", "--method", "systematic", "--set", "full", "2", str(ell),
            "--n", str(n), "--m", "2", "--out", str(book_path),
        )
        book = parse_codebook_file(book_path.read_text())
        assert status == 0 and grab(out, "distance") == "1" and book.distance == 1
        assert verify_min_distance(book.codewords) >= book.distance


def test_grc_build_and_decode(tmp_path):
    code_path = tmp_path / "code.txt"
    run_cli("code-build", "--length", "8", "--d", "1", "--p", "11", "--out", str(code_path))
    book_path = tmp_path / "book.txt"
    status, out = run_cli(
        "grc-build", "--method", "intersect", "--set", "full", "2", "3",
        "--n", "20", "--code", str(code_path), "--out", str(book_path),
    )
    assert status == 0 and grab(out, "codewords") == "25"

    first = book_path.read_text().splitlines()[1]
    profile_path = tmp_path / "observed.txt"
    profile_path.write_text(f"2 3 full 20\n{first}\n")
    status, out = run_cli("decode", "--codebook", str(book_path), "--profile", str(profile_path))
    assert status == 0
    assert grab(out, "index") == "0"
    assert grab(out, "distance") == "0"
    # same length, but the header names another alphabet: the gram set differs
    profile_path.write_text(f"3 2 explicit 00 01 02 10 11 12 20 21 99\n{first}\n")
    status, _ = run_cli("decode", "--codebook", str(book_path), "--profile", str(profile_path))
    assert status == 2


def test_weight_set_codebook_header_and_decode(tmp_path):
    code_path = tmp_path / "code.txt"
    run_cli("code-build", "--length", "10", "--d", "1", "--p", "11", "--out", str(code_path))
    book_path = tmp_path / "book.txt"
    status, _ = run_cli(
        "grc-build", "--method", "intersect", "--set", "weight", "2", "4", "1", "2", "3",
        "--n", "30", "--code", str(code_path), "--out", str(book_path),
    )
    assert status == 0
    header, first = book_path.read_text().splitlines()[:2]
    assert header.split()[3:7] == ["weight", "1", "2", "3"]

    cube = [0] * 16
    for g, c in zip(build_weight_set(2, 4, 1, 2, 3).grams, first.split()):
        cube[gram_values(g, 2, 4)[0]] = int(c)
    profile_path = tmp_path / "observed.txt"
    for text, expected in (
        (f"2 4 weight 1 2 3 30\n{first}\n", 0),
        (f"2 4 full 30\n{' '.join(map(str, cube))}\n", 0),
        (f"2 4 weight 1 2 3 31\n{first}\n", 2),  # another word length
        (f"2 4 weight 1 1 2 30\n{first}\n", 2),  # another ten-gram set
    ):
        profile_path.write_text(text)
        status, out = run_cli(
            "decode", "--codebook", str(book_path), "--profile", str(profile_path)
        )
        assert status == expected, text
        if expected == 0:
            assert grab(out, "index") == "0" and grab(out, "distance") == "0"


def test_encode_command():
    status, out = run_cli(
        "encode", "--set", "full", "2", "3", "--n", "20", "--m", "2",
        "--message", "0,0,0",
    )
    assert status == 0
    assert grab(out, "profile") == "14 1 0 1 1 0 1 0"
    assert grab(out, "word") == "0" * 16 + "1100"


def test_rank_commands(tmp_path):
    status, out = run_cli("rank-encode", "--q", "2", "--ell", "3", "--n", "14", "--perm", "0,1,2")
    assert status == 0
    assert grab(out, "profile") == "3 1 0 2 1 1 2 2"
    assert grab(out, "word") == "00000110111100"
    profile_path = tmp_path / "profile.txt"
    profile_path.write_text("2 3 full 14\n3 1 0 2 1 1 2 2\n")
    status, out = run_cli("rank-decode", "--q", "2", "--ell", "3", "--profile", str(profile_path))
    assert status == 0
    assert grab(out, "permutation") == "0 1 2"
    profile_path.write_text("2 3 weight 1 1 2 14\n3 1 0 2 1 1\n")
    status, _ = run_cli("rank-decode", "--q", "2", "--ell", "3", "--profile", str(profile_path))
    assert status == 2


def test_roundtrip_presets():
    status, out = run_cli("roundtrip", "--preset", "systematic", "--message", "1,0,1")
    assert status == 0 and grab(out, "roundtrip-ok") == "true"
    status, out = run_cli("roundtrip", "--preset", "rank")
    assert status == 0 and grab(out, "roundtrip-ok") == "true"
    status, out = run_cli(
        "roundtrip", "--preset", "rank", "--ssyn", "1", "--t", "0", "--sseq", "0",
    )
    assert status == 2  # noisy run without a seed
    status, out = run_cli(
        "roundtrip", "--preset", "rank", "--t", "1", "--seed", "7",
    )
    assert status == 0 and grab(out, "roundtrip-ok") == "true"


def test_tables_row_must_match(capsys):
    for table, row in (("I", "nosuchrow"), ("II", "nomatch"), ("III", "nomatch")):
        capsys.readouterr()
        status, out = run_cli("tables", "--id", table, "--row", row)
        assert status == 2, table
        assert "tables-ok" not in out
        assert capsys.readouterr().err == f"error --row {row!r} matches no row of table {table}\n"
    status, out = run_cli("tables", "--id", "III", "--row", "2 3 full d=1")
    assert status == 0 and grab(out, "tables-ok") == "true"


def test_tables_ii():
    status, out = run_cli("tables", "--id", "II")
    assert status == 0
    assert "computed 1/360 reference 1/360 PASS" in out
    for label, lam in (("c(2,5;1,[2,4])", 27720), ("c(2,6;1,[3,4])", 65520),
                       ("c(2,6;1,[3,5])", 5354228880)):
        assert grab(out, f"{label} lambda") == f"computed {lam} reference {lam} PASS"
    assert grab(out, "tables-ok") == "true"
    assert "SKIPPED" in out


# Stdout of `tables` and of the table rows' fits, recorded before the fit
# took its samples at t <= 0.
GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE_FIT_ROWS = (("full 2 2", 2, 2), ("full 2 3", 4, 12), ("full 3 2", 6, 6),
                  ("weight 2 4 1 2 3", 3, 60))


@pytest.mark.parametrize("table", ("I", "II"))
def test_tables_output_is_golden(table):
    status, out = run_cli("tables", "--id", table)
    assert status == 0
    assert out == (GOLDEN / f"tables_{table}.txt").read_text()


def test_grc_build_intersect_file_matches_the_bench_reference(tmp_path):
    """The bench's n=120 codebook file, byte for byte, and grc-build's stdout."""
    ref = json.loads((GOLDEN.parent.parent / "bench" / "reference.json").read_text())["codebook"]
    p, n = ref["params"], ref["full"]["n"]
    code_path, book_path = tmp_path / "code.txt", tmp_path / "book.txt"
    alphas = ",".join(map(str, p["alphas"]))
    run_cli("code-build", "--length", str(len(p["alphas"])), "--d", str(p["d"]),
            "--p", str(p["p"]), "--alphas", alphas, "--out", str(code_path))
    status, out = run_cli("grc-build", "--method", "intersect", "--set", "full", str(p["q"]),
                          str(p["ell"]), "--n", str(n), "--code", str(code_path),
                          "--out", str(book_path))
    assert status == 0
    assert out == (
        f"format gramcode/1\ncommand grc-build\nconfig method intersect\n"
        f"config set full {p['q']} {p['ell']}\nconfig n {n}\nconfig code {code_path}\n"
        f"codewords {ref['full']['size']}\ndistance {p['d'] + 1}\ncodebook-file {book_path}\n"
    )
    assert hashlib.sha256(book_path.read_bytes()).hexdigest() == ref["full"]["sha256"]


# Observations of the n=158 headline book (`full 2 3`, the mod-13 d=2
# code), each at distance 3 from its nearest codewords: two codewords tie
# for the first, the second has one.  The golden files name the directory
# of the input files TMP.
DECODE_OBSERVATIONS = {
    "tied": (33, 8, 7, 26, 8, 25, 26, 20),
    "untied": (22, 17, 11, 19, 18, 12, 18, 36),
}


@pytest.mark.parametrize("case", sorted(DECODE_OBSERVATIONS))
def test_decode_output_is_golden(case, headline_codebook, tmp_path):
    book_path, profile_path = tmp_path / "book.txt", tmp_path / "observed.txt"
    book_path.write_text(format_codebook_file(headline_codebook))
    profile_path.write_text(f"2 3 full 158\n{' '.join(map(str, DECODE_OBSERVATIONS[case]))}\n")
    status, out = run_cli("decode", "--codebook", str(book_path), "--profile", str(profile_path))
    assert status == 0
    assert out.replace(str(tmp_path), "TMP") == (GOLDEN / f"decode_158_{case}.txt").read_text()


@pytest.mark.parametrize("mode", "FE")
@pytest.mark.parametrize("row", TABLE_FIT_ROWS)
def test_fit_output_is_golden_but_for_the_held_out_t(row, mode):
    tokens, degree, lam = row
    status, out = run_cli("fit", "--set", *tokens.split(), "--degree", str(degree),
                          "--lambda", str(lam), "--mode", mode)
    assert status == 0
    golden = (GOLDEN / f"fit_{tokens.replace(' ', '_')}_{mode}.txt").read_text()

    def kept(text):
        return [ln for ln in text.splitlines() if not ln.startswith("verified-at ")]

    assert kept(out) == kept(golden)
    assert grab(golden, "verified-at") == str(degree + 2)
    # degree+2 dilations around zero, one step lower in mode F, and the
    # largest held out
    assert grab(out, "verified-at") == str(degree // 2 + (mode == "E"))


@st.composite
def set_tokens(draw, explicit_path):
    """--set tokens of a small full, weight or explicit set (the explicit
    one written to explicit_path), q <= 2 and ell <= 3, some of them
    refused."""
    kind = draw(st.sampled_from(["full", "weight", "explicit"]))
    ell = draw(st.sampled_from([2, 3, 1]))  # ell = 1 is refused
    if kind == "full":
        return ["full", str(draw(st.integers(1, 2))), str(ell)]
    if kind == "weight":
        w1 = draw(st.integers(0, ell))
        w2 = draw(st.integers(w1 - 1, ell + 1))
        return ["weight", "2", str(ell), str(draw(st.sampled_from([1, 1, 1, 0, 2]))),
                str(w1), str(w2)]
    cube = ["".join(map(str, g)) for g in product(range(2), repeat=ell)]
    picks = draw(st.lists(st.sampled_from(cube), max_size=len(cube), unique=True))
    if picks and not draw(st.integers(0, 9)):
        picks.append(picks[0])  # a duplicate gram is refused
    explicit_path.write_text(f"2 {ell}\n" + " ".join(picks) + "\n")
    return ["explicit", str(explicit_path)]


def arc_count(tokens):
    """|E| of the set the --set tokens name, or None for a set the commands refuse."""
    try:
        return len(parse_set(tokens).grams)
    except (ValueError, OSError, KeyError):
        return None


class Hung(Exception):
    """A command ran past its alarm; main() does not catch this."""


def _raise_hung(signum, frame):
    raise Hung


def assert_clean_exit(argv, alarm=5):
    """Run argv; the exit is 0, 2 or 3, and 2 or 3 print one `error` line.

    A fuzz's deadline only judges a call that returns, so a SIGALRM after
    alarm seconds raises Hung and turns a hang into a failure.
    """
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_hung)
    signal.setitimer(signal.ITIMER_REAL, alarm)
    try:
        with redirect_stderr(err):
            status, out = run_cli(*argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert status in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if status:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error ")
    return status, out


@st.composite
def fit_argvs(draw, explicit_path):
    """A `fit` argv over a set_tokens set, degree 0..6 or far above any
    set's |E| - 1, lambda 1..12, a residue inside or outside [0, lambda)
    and either mode."""
    tokens = draw(set_tokens(explicit_path))
    lam = draw(st.integers(1, 12))
    residue = draw(st.integers(0, lam - 1))
    if draw(st.integers(0, 3)) == 3:
        residue = draw(st.sampled_from([-residue - 1, residue + lam]))
    degree = draw(st.one_of(st.integers(0, 6), st.sampled_from([10**6, 10**18])))
    return ["fit", "--set", *tokens, "--degree", str(degree),
            "--lambda", str(lam), f"--residue={residue}",
            "--mode", draw(st.sampled_from("FE"))]


def test_fit_fuzz_exits_cleanly(tmp_path_factory):
    explicit_path = tmp_path_factory.mktemp("fit-fuzz") / "set.txt"

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=timedelta(seconds=5))
    @given(fit_argvs(explicit_path))
    def run(argv):
        status, _ = assert_clean_exit(argv)
        # no flow polytope on |E| arcs has dimension |E| or more
        at = argv.index("--degree")
        arcs = arc_count(argv[2:at])
        if arcs is not None and int(argv[at + 1]) >= arcs:
            assert status == 2
        if status == 0:
            assert int(argv[at + 1]) < arcs

    run()


def test_a_hung_fit_fails_its_fuzz(monkeypatch):
    # a count that never returns raises Hung at the alarm, where the
    # fuzz's deadline would wait for it
    def hung_count(graph, samples):
        while True:
            pass

    monkeypatch.setattr(lattice, "_count_samples", hung_count)
    with pytest.raises(Hung):
        assert_clean_exit(["fit", "--set", "full", "2", "2", "--degree", "2", "--lambda", "2"],
                          alarm=0.2)


@st.composite
def enumerate_argvs(draw, explicit_path, code_path):
    """An `enumerate` argv over a set_tokens set: n in -3..60 (at most 14
    for words), mode F, E or words, --closed and --points, and a --code
    file whose length is the set's |E| or not."""
    tokens = draw(set_tokens(explicit_path))
    mode = draw(st.sampled_from(["F", "E", "words"]))
    n = draw(st.integers(-3, 14 if mode == "words" else 60))
    argv = ["enumerate", "--set", *tokens, "--n", str(n), "--mode", mode]
    # --closed and --code outside the modes they apply to are refused
    if not draw(st.integers(0, 1 if mode == "words" else 9)):
        argv.append("--closed")
    if draw(st.booleans()):
        argv.append("--points")
    if not draw(st.integers(0, 9 if mode == "words" else 2)):
        length = arc_count(tokens)
        if length is None or not draw(st.integers(0, 3)):
            length = draw(st.integers(1, 9))
        d = draw(st.integers(1, 2))
        p = aecc.choose_prime(length, d)
        beta = tuple(draw(st.integers(0, p - 1)) for _ in range(d))
        code = aecc.build_code(p, range(1, length + 1), d, beta)
        code_path.write_text(aecc.format_code_file(code))
        argv += ["--code", str(code_path)]
    return argv


def test_enumerate_fuzz_exits_cleanly(tmp_path_factory):
    folder = tmp_path_factory.mktemp("enumerate-fuzz")

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=timedelta(seconds=5))
    @given(enumerate_argvs(folder / "set.txt", folder / "code.txt"))
    def run(argv):
        status, out = assert_clean_exit(argv)
        if status == 0 and "--points" in argv:
            assert out.count("\npoint ") == int(grab(out, "count"))

    run()


@st.composite
def simulate_argvs(draw):
    """A `simulate` argv: a digit word of length 1..12 over q in 1..5 (a
    symbol sometimes out of range), ell mostly inside the word, budgets
    mostly 0..3, else up to 2**70 or next to 2**64 (some negative), and
    --at-most or not."""
    q = draw(st.sampled_from([2, 2, 3, 4, 5, 1]))
    top = q if not draw(st.integers(0, 9)) else q - 1
    word = draw(st.lists(st.integers(0, top), min_size=1, max_size=12))
    ell = draw(st.one_of(st.integers(1, len(word)), st.integers(-1, 14)))
    budgets = []
    for flag in ("--ssyn", "--t", "--sseq"):
        kind = draw(st.integers(0, 5))
        if kind < 4:
            value = draw(st.integers(0, 3))
        elif kind == 4:
            value = draw(st.integers(0, 2**70))
        else:
            value = draw(st.sampled_from([2**64 - 2, 2**64 - 1, 2**64, 2**64 + 1, -1]))
        budgets += [flag, str(value)]
    argv = ["simulate", "--word", "".join(map(str, word)), "--q", str(q),
            "--ell", str(ell), *budgets, "--seed", str(draw(st.integers(-(2**70), 2**70)))]
    if draw(st.booleans()):
        argv.append("--at-most")
    return argv


def test_simulate_fuzz_exits_cleanly():
    @settings(derandomize=True, database=None, max_examples=150,
              deadline=timedelta(seconds=5))
    @given(simulate_argvs())
    def run(argv):
        status, out = assert_clean_exit(argv)
        budgets = [int(argv[argv.index(flag) + 1]) for flag in ("--ssyn", "--t", "--sseq")]
        if max(budgets) >= 2**64:
            assert status == 2
        if status == 0 and "--at-most" not in argv:
            ell = int(argv[argv.index("--ell") + 1])
            assert int(grab(out, "observed-sum")) == len(argv[2]) - ell + 1 - budgets[1]

    run()


@st.composite
def code_decode_argvs(draw, code_path, profile_path):
    """A `code-build` argv of length 1..12 and d 1..3 at the smallest prime
    above both or a larger one, with its own beta at times, and a
    `code-decode` argv of a profile of that length or another one, with
    --max-weight in -1..40."""
    length = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    build = ["code-build", "--length", str(length), "--d", str(d), "--out", str(code_path)]
    p = aecc.choose_prime(length, d)
    if draw(st.booleans()):
        p = draw(st.sampled_from([1000003, 1009, 101, p]))
        build += ["--p", str(p)]
    if draw(st.booleans()):
        build += ["--beta", ",".join(str(draw(st.integers(0, p - 1))) for _ in range(d))]
    size = draw(st.integers(1, 12)) if draw(st.integers(0, 3)) == 3 else length
    s = explicit_gram_set(2, 4, list(product(range(2), repeat=4))[:size])
    counts = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    profile_path.write_text(format_profile_file(counts, s, sum(counts) + 3))
    decode = ["code-decode", "--code", str(code_path), "--profile", str(profile_path),
              "--max-weight", str(draw(st.integers(-1, 40)))]
    return build, decode


def test_code_decode_fuzz_exits_cleanly(tmp_path_factory, monkeypatch):
    folder = tmp_path_factory.mktemp("code-decode-fuzz")
    # a search up to the full guard of 2**20 patterns takes ~3 s; the next
    # test runs one at full size, so here the guard is 2**16
    monkeypatch.setattr(aecc, "MAX_CUBE", 2**16)

    @settings(derandomize=True, database=None, max_examples=100,
              deadline=timedelta(seconds=10))
    @given(code_decode_argvs(folder / "code.txt", folder / "profile.txt"))
    def run(argvs):
        build, decode = argvs
        assert assert_clean_exit(build, alarm=5)[0] == 0
        status, out = assert_clean_exit(decode, alarm=5)
        if status == 0:
            code = aecc.parse_code_file((folder / "code.txt").read_text())
            received = [int(c) for c in (folder / "profile.txt").read_text().split("\n")[1].split()]
            codeword = [int(c) for c in grab(out, "codeword").split()]
            assert code.is_member(codeword)
            errors = [c - r for c, r in zip(codeword, received)]
            assert min(errors) >= 0 and sum(errors) <= int(decode[-1])

    run()


def test_code_decode_past_the_guard_exits_3(tmp_path):
    # a 256-symbol code whose syndrome no error of weight <= 2 reaches: the
    # C(259, 3) - C(257, 1) patterns past weight 1 through weight 3 exceed
    # the cube guard, so weight 3 is refused instead of searched
    code_path = tmp_path / "code.txt"
    run_cli("code-build", "--length", "256", "--d", "1", "--p", "1000003",
            "--out", str(code_path))
    rng = random.Random(1)
    counts = [rng.randint(0, 2) for _ in range(256)]
    profile_path = tmp_path / "profile.txt"
    profile_path.write_text(format_profile_file(counts, full_gram_set(2, 8), 300))
    argv = ["code-decode", "--code", str(code_path), "--profile", str(profile_path)]
    assert assert_clean_exit(argv + ["--max-weight", "2"], alarm=5)[0] == 3
    status, out = assert_clean_exit(argv + ["--max-weight", "5"], alarm=5)
    assert status == 3 and "codeword" not in out
