import contextlib
import errno
import functools
import hashlib
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thetachi.cli as cli
import thetachi.formulas as formulas
import thetachi.pairs as pairs
from thetachi.cli import MAX_BOX_VOLUME, MAX_TRIALS, main
from thetachi.identities import ALL_IDENTITIES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_all_theorems(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--n", "1", "--v", "1,0,-1", "--w", "2,3,2", "--theorem", "all"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["main"]["value"] == "9"
    assert payload["results"]["two"]["value"] == "9"
    assert payload["results"]["three"]["value"] == "1"
    assert payload["d_v"] == "1" and payload["d_w"] == "5"
    assert payload["admissibility"]["v"]["primitive"] is True
    assert "conventions" in payload


def test_eval_degenerate_branch_metadata(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--n", "2", "--v", "2,1,1", "--w", "2,1,-3", "--theorem", "main"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["main"]["branch"] == "special_dv0"
    assert payload["results"]["main"]["cross_check"] == {"r^2": "4"}


def test_eval_non_orthogonal_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--n", "1", "--v", "1,0,-1", "--w", "2,4,3")
    assert code == 2
    assert "chi(v (x) w) = 1" in err


def test_eval_malformed_vector_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--n", "1", "--v", "1,0", "--w", "2,3,2")
    assert code == 2
    assert "r,k,chi" in err


def test_eval_negative_rank_vector_given_with_equals(capsys):
    # argparse reads "-1,0,1" after a space as an option; "--w=-1,0,1" is a value
    code, out, err = run_cli(capsys, "eval", "--n", "1", "--v", "1,0,1", "--w", "-1,0,1")
    assert (code, out) == (2, "")
    assert "expected one argument" in err
    code, out, _ = run_cli(capsys, "eval", "--n", "1", "--v", "1,0,1", "--w=-1,0,1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["v"], payload["w"], payload["orthogonal"]) == ("1,0,1", "-1,0,1", True)


@pytest.mark.parametrize("argv", [
    ("eval", "--n", "20000", "--v", "1,0,-40000", "--w", "0,1,0"),
    ("kummer", "--n", "20000", "--chiD", "20000", "--r", "0"),
])
def test_value_past_digit_limit_exits_2(capsys, argv):
    # the exact value has more digits than int -> str allows; the limit is
    # process-wide, so the command reports it instead of raising
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than {limit} decimal digits" in err
    assert sys.get_int_max_str_digits() == limit  # left alone


@pytest.mark.parametrize("argv", [
    ("eval", "--n", "1", "--v", "1,0,-100000", "--w", "0,1000,0"),
    ("eval", "--n", "1", "--v", "1,0,-1000000", "--w", "0,1000,0", "--theorem", "two"),
    ("kummer", "--n", "200000", "--chiD", "600000", "--r", "0"),
    ("kummer", "--n", "1000000", "--chiD", "3000000", "--r", "0"),
    ("kummer", "--n", "1000000", "--chiD", "-5000000", "--r", "2"),  # negative top
])
def test_oversized_binomial_refused_before_it_is_built(capsys, monkeypatch, argv):
    # building these binomials takes seconds to minutes, only for the value
    # to be refused when printed; the refusal must come first
    real_comb = math.comb

    def comb(n, k):
        if min(k, n - k) > 10_000:
            raise AssertionError(f"math.comb built binom({n}, {k})")
        return real_comb(n, k)

    monkeypatch.setattr(math, "comb", comb)
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: a value has more than {limit} decimal digits and cannot be printed\n"


def test_eval_non_orthogonal_past_digit_limit_exits_2(capsys):
    # chi(v (x) w) of these vectors has more digits than int -> str allows;
    # the message leaves the value out instead of dying while formatting it
    big = "9" * 2500
    result = subprocess.run(
        [sys.executable, "-m", "thetachi.cli", "eval", "--n", big,
         "--v", f"{big},{big},{big}", "--w", f"{big},{big},1"],
        capture_output=True, text=True,
    )
    limit = sys.get_int_max_str_digits()
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr == (
        "error: vectors are not orthogonal: chi(v (x) w) has more than "
        f"{limit} decimal digits (must be 0)\n"
    )
    # small values keep the message with the value in it
    code, out, err = run_cli(capsys, "eval", "--n", "1", "--v", "1,0,-1", "--w", "2,4,3")
    assert (code, out) == (2, "")
    assert err == "error: vectors are not orthogonal: chi(v (x) w) = 1 (must be 0)\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_value_past_digit_limit_exits_2(capsys, monkeypatch, tmp_path, fmt):
    # at n = 10^9 some pairs' Euler characteristics have more digits than
    # int -> str allows; the command refuses them and writes no file.  The
    # largest binomial of this box has 17,351 bits, 5,223 digits, which the
    # bound proves too long, so the refusal takes one partner search and
    # builds none of its 8,005 rows
    built = []
    monkeypatch.setattr(pairs, "build_row", lambda v, w: built.append((v, w)))
    out_file = tmp_path / f"pairs.{fmt}"
    start = time.perf_counter_ns()
    code, out, err = run_cli(
        capsys, "enumerate", "--n", "1000000000", "--max-rank", "1", "--max-k", "1",
        "--max-chi", "800", "--out", str(out_file), "--format", fmt,
    )
    elapsed_ns = time.perf_counter_ns() - start
    limit = sys.get_int_max_str_digits()
    assert (code, out) == (2, "")
    assert err == f"error: a value has more than {limit} decimal digits and cannot be written\n"
    assert built == []
    assert elapsed_ns < 1_000_000_000
    assert not out_file.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_value_past_digit_limit_refused_when_written(capsys, monkeypatch, tmp_path,
                                                                 fmt):
    # the largest value of this box has 14,322 bits, past 4,300 digits, but
    # the bound j * floor(log2(m // j)) falls short of it: the search
    # passes, and the value is refused while the output is formatted.  The
    # rows stream, so the run stops at the first row with such a value,
    # row 1,300 of 6,505 in both formats
    real_build_row = pairs.build_row
    built = []

    def build_row(v, w):
        built.append((v, w))
        return real_build_row(v, w)

    monkeypatch.setattr(pairs, "build_row", build_row)
    out_file = tmp_path / f"pairs.{fmt}"
    code, out, err = run_cli(
        capsys, "enumerate", "--n", "1000000000", "--max-rank", "1", "--max-k", "1",
        "--max-chi", "650", "--out", str(out_file), "--format", fmt,
    )
    limit = sys.get_int_max_str_digits()
    assert limit == 4300
    assert (code, out) == (2, "")
    assert err == f"error: a value has more than {limit} decimal digits and cannot be written\n"
    assert len(built) == {"csv": 1300, "json": 1300}[fmt]
    assert not out_file.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_stops_at_first_oversized_row(capsys, monkeypatch, tmp_path, fmt):
    # 9,096 values of this box are past the digit limit; building all 17,991
    # rows before refusing took seconds.  No binomial that b = j * floor(log2(m
    # // j)) bits, j = min(k, m - k), already proves too long (3 b > 10 limit,
    # as log10 2 > 3/10) may be built.
    limit = sys.get_int_max_str_digits()
    real_comb = math.comb

    def comb(n, k):
        j = min(k, n - k)
        if j > 0 and 3 * j * ((n // j).bit_length() - 1) > 10 * limit:
            raise AssertionError(f"math.comb built binom({n}, {k})")
        return real_comb(n, k)

    monkeypatch.setattr(math, "comb", comb)
    out_file = tmp_path / f"pairs.{fmt}"
    code, out, err = run_cli(
        capsys, "enumerate", "--n", "1000000000", "--max-rank", "1", "--max-k", "2",
        "--max-chi", "999", "--out", str(out_file), "--format", fmt,
    )
    assert (code, out) == (2, "")
    assert err == f"error: a value has more than {limit} decimal digits and cannot be written\n"
    assert not out_file.exists()


def test_eval_verbose_banner(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--n", "1", "--v", "1,0,-1", "--w", "2,3,2", "--verbose"
    )
    assert code == 0
    assert "conventions in use" in err


def test_eval_all_with_undefined_theorem_reports_error_field(capsys):
    # d_v = 0 pair: theorem three is outside its domain but main/two evaluate
    code, out, _ = run_cli(
        capsys, "eval", "--n", "2", "--v", "2,1,1", "--w", "2,1,-3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["main"]["value"] == "4"
    assert payload["results"]["two"]["value"] == "1"
    assert "error" in payload["results"]["three"]


def test_enumerate_csv_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["enumerate", "--n", "1", "--max-rank", "2", "--max-k", "3",
            "--max-chi", "4", "--format", "csv"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("n,v_r,v_k,v_chi")
    assert any(line.startswith("1,1,0,-1,2,3,2,1,5,9,9,1") for line in lines)


def test_enumerate_json_format(tmp_path, capsys):
    out = tmp_path / "pairs.json"
    code = main(["enumerate", "--n", "1", "--max-rank", "1", "--max-k", "1",
                 "--max-chi", "2", "--format", "json", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["nonintegral_rows"] == []
    for row in payload["rows"]:
        for field in ("n", "d_v", "d_w"):
            assert isinstance(row[field], str)


def test_enumerate_zero_bounds(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    code = main(["enumerate", "--n", "1", "--max-rank", "0", "--max-k", "1",
                 "--max-chi", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header + summary line
    assert "pairs=0" in lines[1]


@pytest.mark.parametrize("rank,k,chi,vectors,pairs", [
    ("2", "0", "3", 11, 11),  # only c1 = 0 vectors
    ("0", "2", "3", 10, 0),  # only rank-0 vectors, none orthogonal
])
def test_enumerate_single_zero_bound_keeps_box(tmp_path, capsys, rank, k, chi, vectors,
                                               pairs):
    out = tmp_path / "box.csv"
    code = main(["enumerate", "--n", "1", "--max-rank", rank, "--max-k", k,
                 "--max-chi", chi, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert f"wrote {pairs} pairs ({vectors} vectors)" in captured.out
    lines = out.read_text().splitlines()
    assert len(lines) == pairs + 2
    assert lines[-1] == f"# pairs={pairs} vectors={vectors} nonintegral=0"


@pytest.mark.parametrize("flag,value", [
    ("--n", "0"), ("--n", "-2"),
    ("--max-rank", "-1"), ("--max-k", "-1"), ("--max-chi", "-3"),
])
def test_enumerate_bad_bounds_exit_2(tmp_path, capsys, flag, value):
    out = tmp_path / "never.csv"
    argv = {"--n": "1", "--max-rank": "1", "--max-k": "1", "--max-chi": "1"}
    argv[flag] = value
    code = main(["enumerate", *(x for kv in argv.items() for x in kv), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not out.exists()


def assert_refused(captured, out=None):
    """Exit-2 contract of a cap: one error line, nothing written."""
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert out is None or not out.exists()


@pytest.mark.parametrize("box", [
    (1, 4, 4, 6), (2, 4, 4, 6), (3, 4, 4, 6),  # AC-8
    (2, 5, 5, 8),  # the larger perfbench box (the AC-8 boxes are the others)
    (6, 12, 12, 24),  # integrality audit, n <= 6 and rank <= 12
    (1, 31, 12, 12),  # 32 * 25 * 25 cells, exactly the cap
])
def test_enumerate_box_cap_accepts(tmp_path, capsys, monkeypatch, box):
    assert (box[1] + 1) * (2 * box[2] + 1) * (2 * box[3] + 1) <= MAX_BOX_VOLUME
    seen = []

    def fake_find_partners(*args):
        seen.append(args)
        return [], []

    # the cap is checked before any work; only the refusal is under test
    monkeypatch.setattr(cli, "find_partners", fake_find_partners)
    out = tmp_path / "box.csv"
    code = main(["enumerate", *(x for flag, value in zip(
        ("--n", "--max-rank", "--max-k", "--max-chi"), box) for x in (flag, str(value))),
        "--out", str(out)])
    capsys.readouterr()
    assert code == 0 and seen == [box] and out.exists()


@pytest.mark.parametrize("rank,k,chi", [
    ("1000", "1000", "1000"),  # about 4 * 10^9 cells
    ("31", "12", "13"),  # max-chi one past the box that is exactly the cap
    ("0", "0", "10000"),  # 20,001 cells in one column
])
def test_enumerate_box_cap_refuses_fast(tmp_path, capsys, rank, k, chi):
    out = tmp_path / "never.csv"
    start = time.perf_counter_ns()
    code = main(["enumerate", "--n", "1", "--max-rank", rank, "--max-k", k,
                 "--max-chi", chi, "--out", str(out)])
    elapsed_ns = time.perf_counter_ns() - start
    captured = capsys.readouterr()
    assert code == 2
    assert elapsed_ns < 1_000_000_000
    assert_refused(captured, out)
    assert f"at most {MAX_BOX_VOLUME}" in captured.err


@pytest.mark.parametrize("trials,code", [("200", 0), (str(MAX_TRIALS), 0),
                                         (str(MAX_TRIALS + 1), 2), ("10000000", 2)])
def test_verify_trials_cap(capsys, monkeypatch, trials, code):
    seen = []
    monkeypatch.setattr(cli, "report_blocks", lambda seed, n, only: seen.append(n) or [])
    assert main(["verify", "--only", "llp", "--trials", trials]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert seen == [int(trials)]
    else:
        assert seen == []
        assert_refused(captured)
        assert f"at most {MAX_TRIALS}" in captured.err


def test_enumerate_unwritable_path(capsys):
    code = main(["enumerate", "--n", "1", "--max-rank", "1", "--max-k", "1",
                 "--max-chi", "1", "--out", "/nonexistent-dir/x.csv"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: cannot write /nonexistent-dir/x.csv: No such file or directory\n"


# the three AC-8 boxes and the larger box of the benchmark's enumerate pass
PERFBENCH_BOXES = ((1, 4, 4, 6), (2, 4, 4, 6), (3, 4, 4, 6), (2, 5, 5, 8))


def enumerate_argv(box, out, fmt="csv"):
    n, max_rank, max_k, max_chi = box
    return ["enumerate", "--n", str(n), "--max-rank", str(max_rank), "--max-k", str(max_k),
            "--max-chi", str(max_chi), "--format", fmt, "--out", str(out)]


def wrapper_text(box, fmt="csv"):
    """The output of ``box`` through the list API: ``enumerate_rows`` and
    ``rows_to_csv`` or ``rows_to_json``."""
    rows, summary = pairs.enumerate_rows(*box)
    return (pairs.rows_to_csv if fmt == "csv" else pairs.rows_to_json)(rows, summary)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("box", PERFBENCH_BOXES)
def test_enumerate_streams_the_wrapper_text(tmp_path, capsys, box, fmt):
    out = tmp_path / f"pairs.{fmt}"
    assert main(enumerate_argv(box, out, fmt)) == 0
    capsys.readouterr()
    assert out.read_bytes() == wrapper_text(box, fmt).encode()
    assert list(tmp_path.iterdir()) == [out]


def traced_peak(fn) -> int:
    """The ``tracemalloc`` peak, in bytes, of ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_holds_a_block_of_rows_not_all_of_them(tmp_path, capsys, fmt):
    # the command builds and writes the rows a block at a time, so its
    # peak is a fraction of that of the whole row list and its text
    box = PERFBENCH_BOXES[-1]
    argv = enumerate_argv(box, tmp_path / f"pairs.{fmt}", fmt)
    assert main(argv) == 0  # fills the caches both sides share
    streamed = traced_peak(lambda: main(argv))
    whole = traced_peak(lambda: wrapper_text(box, fmt))
    capsys.readouterr()
    assert streamed < whole / 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("error,message", [
    (OSError(errno.ENOSPC, "No space left on device"), "cannot write {out}: No space left on device"),
    (ValueError("Exceeds the limit"), "a value has more than {limit} decimal digits and cannot be written"),
], ids=["write-error", "digit-limit"])
def test_enumerate_failure_mid_stream_keeps_the_old_out(tmp_path, capsys, monkeypatch, fmt,
                                                       error, message):
    # the renderer fails after more chunks than one block, so some of the
    # text was written before the failure: none of it reaches --out
    name = "csv_lines" if fmt == "csv" else "json_chunks"
    render = getattr(cli, name)
    written = cli.WRITE_BLOCK + 5

    def failing(rows, summary):
        yield from itertools.islice(render(rows, summary), written)
        raise error

    monkeypatch.setattr(cli, name, failing)
    out = tmp_path / f"pairs.{fmt}"
    out.write_bytes(b"old bytes\n")
    code, stdout, err = run_cli(capsys, *enumerate_argv(PERFBENCH_BOXES[-1], out, fmt))
    assert (code, stdout) == (2, "")
    assert err == "error: " + message.format(out=out, limit=sys.get_int_max_str_digits()) + "\n"
    assert out.read_bytes() == b"old bytes\n"
    assert list(tmp_path.iterdir()) == [out]


def test_enumerate_writes_through_a_symlink(tmp_path, capsys):
    # the new text replaces the link's target, in the target's directory;
    # the link stays a link
    (tmp_path / "links").mkdir()
    (tmp_path / "files").mkdir()
    target = tmp_path / "files" / "pairs.csv"
    target.write_text("old\n")
    link = tmp_path / "links" / "pairs.csv"
    link.symlink_to(Path("..") / "files" / "pairs.csv")
    box = PERFBENCH_BOXES[0]
    assert main(enumerate_argv(box, link)) == 0
    capsys.readouterr()
    assert link.is_symlink() and os.readlink(link) == str(Path("..") / "files" / "pairs.csv")
    assert target.read_text() == wrapper_text(box)
    assert list((tmp_path / "links").iterdir()) == [link]
    assert list((tmp_path / "files").iterdir()) == [target]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_enumerate_modes_of_new_and_existing_files(tmp_path, capsys, umask):
    # a new file gets 0o666 less the umask, as open(path, "w") gives it; an
    # existing one keeps its permission bits
    new, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
    kept.write_text("old\n")
    kept.chmod(0o640)
    before = os.umask(umask)
    try:
        assert main(enumerate_argv(PERFBENCH_BOXES[0], new)) == 0
        assert main(enumerate_argv(PERFBENCH_BOXES[0], kept)) == 0
    finally:
        os.umask(before)
    capsys.readouterr()
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert kept.read_text() == new.read_text() == wrapper_text(PERFBENCH_BOXES[0])


def test_enumerate_writes_into_a_fifo(tmp_path, capsys):
    # a FIFO cannot be replaced, so the text is written into it.  The read
    # end and a spare write end are open before the command runs: the
    # command's open does not block, the reader sees end of file only once
    # the spare end is closed, and a FIFO replaced by a regular file would
    # leave the reader with no bytes rather than hang it.  The box's text is
    # larger than a pipe's buffer, so the reader drains it as it comes.
    fifo = tmp_path / "pairs.csv"
    os.mkfifo(fifo)
    read_end = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    os.set_blocking(read_end, True)
    spare = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
    received = []

    def drain():
        with open(read_end, "rb") as handle:
            received.append(handle.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    box = PERFBENCH_BOXES[0]
    try:
        assert main(enumerate_argv(box, fifo)) == 0
    finally:
        os.close(spare)
        reader.join(timeout=30)
    capsys.readouterr()
    assert received == [wrapper_text(box).encode()]
    assert len(received[0]) > 65536
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_verify_subset_and_exit_code(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "sec4_lemma", "--trials", "2",
                             "--seed", "1")
    assert code == 0
    reports = json.loads(out)  # stdout is a pure JSON array
    assert len(reports) == 3  # one symbolic + two numeric
    assert {rep["mode"] for rep in reports} == {"symbolic", "numeric"}
    assert all(rep["pass"] for rep in reports)
    assert "3/3 passed" in err


def test_verify_symbolic_only_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "llp", "--trials", "0")
    assert code == 0
    reports = json.loads(out)
    assert [rep["mode"] for rep in reports] == ["symbolic"]


def test_verify_failure_exit_code(capsys, phi_hat_minus):
    with phi_hat_minus():
        code, out, err = run_cli(capsys, "verify", "--only", "fmtl", "--trials", "1")
    assert code == 1
    assert not any(rep["pass"] for rep in json.loads(out))


def test_verify_repeated_id_runs_once(capsys):
    # a repeated --only id is one identity: the same reports, once each
    code1, out1, err1 = run_cli(capsys, "verify", "--only", "llp", "llp", "--trials", "1")
    code2, out2, err2 = run_cli(capsys, "verify", "--only", "llp", "--trials", "1")
    assert code1 == code2 == 0
    assert out1 == out2 and err1 == err2
    assert len(json.loads(out1)) == 2


def test_verify_unknown_identity_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "not_a_check")
    assert code == 2
    assert "unknown identities" in err


def test_verify_deterministic_stdout(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--only", "fmp", "--trials", "3",
                             "--seed", "5")
    code2, out2, _ = run_cli(capsys, "verify", "--only", "fmp", "--trials", "3",
                             "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_stdout_matches_golden(capsys):
    # the exact report JSON of a small full run, so a refactor of the checks
    # or of the driver cannot change labels, instantiations or residuals
    golden = Path(__file__).parent / "golden" / "verify_seed42_trials2.json"
    code, out, _ = run_cli(capsys, "verify", "--all", "--seed", "42", "--trials", "2")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


# sha256 of ``verify --all --seed 42 --trials T`` stdout, per T
VERIFY_STDOUT_SHA256 = {
    0: "2bbc3d27d8f3dc0614407d09dd441b5bb06887353107b5c7e9983a2894269f03",
    2: "58eb5cc4fb61dd6e482c4d3b37ea66f72f86772751c22c48c83c32db34b3a536",
    200: "b72ae539260db6921a3af1fbfc50071aa7c33e46fb5f7cbc83afa48db9e66f18",
}


@pytest.mark.parametrize("trials", sorted(VERIFY_STDOUT_SHA256))
def test_verify_stdout_sha256_pinned(capsys, trials):
    code, out, _ = run_cli(capsys, "verify", "--all", "--seed", "42", "--trials", str(trials))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[trials]


def test_eval_and_kummer_stdout_match_grid_golden(capsys):
    # exact stdout of eval (every theorem choice, every row branch, results
    # with an {"error": ...} entry) and kummer (n >= 3 carries bb_cross_value)
    grid = json.loads((Path(__file__).parent / "golden" / "eval_kummer_grid.json")
                      .read_text(encoding="utf-8"))
    assert any('"error": ' in case["stdout"] for case in grid)
    assert any('"bb_cross_value": ' in case["stdout"] for case in grid)
    for case in grid:
        code, out, _ = run_cli(capsys, *case["argv"])
        assert (code, out) == (case["code"], case["stdout"]), case["argv"]


def test_kummer_output(capsys):
    code, out, _ = run_cli(capsys, "kummer", "--n", "2", "--chiD", "3", "--r", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["kummer"]["value"] == "8"
    assert payload["pull1_residual"] == "0"
    assert "bb_cross_value" not in payload  # n < 3

    code, out, _ = run_cli(capsys, "kummer", "--n", "1", "--chiD", "7", "--r", "5")
    payload = json.loads(out)
    assert payload["kummer"]["value"] == "1"

    code, out, _ = run_cli(capsys, "kummer", "--n", "5", "--chiD", "7", "--r", "2")
    payload = json.loads(out)
    assert payload["kummer"]["value"] == str(5 * 495)
    assert "bb_cross_value" in payload


@pytest.mark.parametrize("n", [1, 2, 5])
def test_kummer_builds_each_binomial_once(capsys, monkeypatch, n):
    # one binom(top, n - 1) for the Kummer value and one for the Hilbert
    # value; the residual and the n >= 3 Beauville-Bogomolov value reuse them
    calls = []
    original = formulas.binom

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(formulas, "binom", counting)
    code, out, _ = run_cli(capsys, "kummer", "--n", str(n), "--chiD", "7", "--r", "2")
    assert code == 0
    assert ("bb_cross_value" in json.loads(out)) == (n >= 3)
    top = 7 - 3 * n - 1
    assert calls == [(top, n - 1)] * 2


def test_kummer_bad_n(capsys):
    code, _, err = run_cli(capsys, "kummer", "--n", "0", "--chiD", "3", "--r", "0")
    assert code == 2


def test_usage_error_missing_subcommand(capsys):
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [("--all", "--only", "llp"), ("--only", "llp", "--all")])
def test_verify_all_and_only_together_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv, "--trials", "0")
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err


def test_verify_negative_trials_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "llp", "--trials", "-1")
    assert code == 2
    assert "nonnegative" in err


def test_eval_single_theorem_out_of_domain_exits_2(capsys):
    # d_v = 0 pair: the Albanese-fiber formula alone is an input error
    code, _, err = run_cli(
        capsys, "eval", "--n", "2", "--v", "2,1,1", "--w", "2,1,-3",
        "--theorem", "three",
    )
    assert code == 2
    assert "d_v" in err


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "thetachi.cli", "eval", "--n", "1",
         "--v", "1,0,-1", "--w", "2,3,2", "--theorem", "main"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["results"]["main"]["value"] == "9"


def test_closed_stdout_exits_141_without_traceback():
    # the reader keeps 100 bytes of about a megabyte of reports and closes
    # the pipe, as ``| head -c 100`` does; the writer stops with the status
    # of a process killed by SIGPIPE and prints nothing to stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "thetachi.cli", "verify", "--all", "--trials", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert "Traceback" not in err
    assert err == ""



def run_child(argv, **kwargs):
    """``thetachi <argv>`` in a child process, stdout captured as bytes."""
    return subprocess.run([sys.executable, "-m", "thetachi.cli", *argv],
                          stdout=subprocess.PIPE, timeout=120, **kwargs)


@pytest.mark.parametrize("argv,code", [
    (("verify", "--only", "llp", "--trials", "1"), 0),  # the summary line is lost
    (("eval", "--n", "1", "--v", "1,0,-1", "--w", "2,4,3"), 2),  # not orthogonal
    (("eval", "--n", "1", "--v", "1,0,-1", "--w", "2,3,2", "--verbose"), 0),  # the banner
    (("kummer", "--n", "0", "--chiD", "1", "--r", "0"), 2),
], ids=["verify", "eval-refused", "eval-verbose", "kummer-refused"])
@pytest.mark.parametrize("fd2", ["closed", "read-only"])
def test_closed_stderr_keeps_stdout_and_exit_status(argv, code, fd2):
    # a closed stderr loses the messages and changes nothing else
    opened = run_child(argv, stderr=subprocess.PIPE)
    if fd2 == "closed":
        # CPython sets sys.stderr to None, and print(file=None) writes to stdout
        closed = run_child(argv, preexec_fn=lambda: os.close(2))
    else:
        # every write to stderr raises OSError
        with open(os.devnull, "rb") as read_only:
            closed = run_child(argv, stderr=read_only)
    assert opened.returncode == closed.returncode == code
    assert closed.stdout == opened.stdout


def test_no_floats_in_interfaces(tmp_path, capsys):
    out = tmp_path / "x.json"
    main(["enumerate", "--n", "2", "--max-rank", "2", "--max-k", "2",
          "--max-chi", "3", "--format", "json", "--out", str(out)])
    capsys.readouterr()

    def assert_no_floats(node):
        if isinstance(node, dict):
            for value in node.values():
                assert_no_floats(value)
        elif isinstance(node, list):
            for value in node:
                assert_no_floats(value)
        else:
            assert not isinstance(node, float)

    assert_no_floats(json.loads(out.read_text()))


# -- exit contract under drawn argv ----------------------------------------------

# values a call may not take: not a number, not a vector, 0 or negative, or
# past a cap or a digit limit (2001 trials, 20000 as a bound, n at 10^9 and up)
_JUNK = st.sampled_from(["x", "", "1.5", "0", "-1", "1,0", "a,b,c", "2001", "20000",
                         "1000000000", "99999999999999999999"])
_VECTOR = st.tuples(*[st.integers(-3, 3)] * 3).map(lambda v: "{},{},{}".format(*v))
CALL_DEADLINE_NS = 5 * 10**9
# binom(m, j) with j <= m - j is at least 2^j, so one with j past this has more
# than 30,000 digits, past the print limit: a call refuses it before building it
LARGEST_BUILT_BINOMIAL_INDEX = 100_000


@functools.lru_cache(maxsize=None)
def _orthogonal_pairs(n):
    rows, _ = pairs.enumerate_rows(n, 2, 1, 2)
    return tuple((row.v.text(), row.w.text()) for row in rows)


@st.composite
def _eval_options(draw):
    n = draw(st.integers(1, 3))
    orthogonal = draw(st.integers(0, 3)) > 0  # mostly; two drawn vectors rarely are
    v, w = draw(st.sampled_from(_orthogonal_pairs(n)) if orthogonal else st.tuples(_VECTOR, _VECTOR))
    options = [("--n", str(n)), ("--v", v), ("--w", w),
               ("--theorem", draw(st.sampled_from(["main", "two", "three", "all"])))]
    return options + [("--verbose", None)] * draw(st.integers(0, 1))


@st.composite
def _enumerate_options(draw):
    bound = st.integers(0, 3).map(str)
    return [("--n", str(draw(st.integers(1, 3)))), ("--max-rank", draw(bound)),
            ("--max-k", draw(bound)), ("--max-chi", draw(bound)),
            ("--format", draw(st.sampled_from(["csv", "json"]))),
            ("--out", draw(st.sampled_from(["box.out", "missing/box.out"])))]


@st.composite
def _verify_options(draw):
    # --trials is small; only a dropped --trials runs the default of 200
    options = [("--trials", str(draw(st.integers(0, 2)))),
               ("--seed", str(draw(st.integers(-2, 50))))]
    scope = draw(st.sampled_from(["default", "--all", "--only"]))
    if scope == "--all":
        options.append(("--all", None))
    elif scope == "--only":
        ids = st.lists(st.sampled_from(ALL_IDENTITIES), min_size=1, max_size=2)
        options.append(("--only", draw(ids)))
    return options


@st.composite
def _kummer_options(draw):
    return [("--n", str(draw(st.integers(1, 5)))), ("--chiD", str(draw(st.integers(-6, 12)))),
            ("--r", str(draw(st.integers(-2, 3))))]


_OPTIONS = {"eval": _eval_options, "enumerate": _enumerate_options,
            "verify": _verify_options, "kummer": _kummer_options}


@st.composite
def cli_argv(draw, out_dir):
    """argv of one subcommand with its options in any order, each written
    as ``--flag value`` or ``--flag=value``, and at most one fault: an
    option dropped, an option given a value it may not take, or a stray
    token."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = draw(st.permutations(draw(_OPTIONS[command]())))
    fault = draw(st.sampled_from(["none", "drop", "value", "token"]))
    if fault in ("drop", "value"):
        i = draw(st.integers(0, len(options) - 1))
        if fault == "drop":
            del options[i]
        else:
            options[i] = (options[i][0], draw(_JUNK))
    argv = [command]
    for flag, value in options:
        if flag == "--out":  # a drawn file name, so every write lands in out_dir
            value = str(out_dir / value)
        if value is None:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, *value]
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    if fault == "token":
        token = draw(st.sampled_from(["--bogus", "7", "-h", "eval"]))
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=150)
@given(st.data())
def test_drawn_argv_keeps_the_exit_contract(tmp_path_factory, data):
    # whatever the argv, main exits 0, 1 or 2 without a traceback, prints
    # nothing to stdout on a usage error, and returns promptly.  A binomial
    # that would take minutes to build fails the call at once instead of
    # outliving the deadline.
    argv = data.draw(cli_argv(tmp_path_factory.mktemp("argv")), label="argv")
    real_comb = math.comb

    def comb(n, k):
        assert min(k, n - k) <= LARGEST_BUILT_BINOMIAL_INDEX, f"math.comb built binom({n}, {k})"
        return real_comb(n, k)

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    with mock.patch.object(math, "comb", comb), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter_ns() - start
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    assert elapsed < CALL_DEADLINE_NS
