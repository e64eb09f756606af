"""Smoke tests: the scripts under ``scripts/`` run end to end and exit 0."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thetachi.pairs import enumerate_rows, rows_to_csv, rows_to_json

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_run_identity_suite_script():
    result = run_script("run_identity_suite.py", "--trials", "1")
    assert result.returncode == 0, result.stderr
    assert "residual exactly zero" in result.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_diffs_against_the_highest_numbered_earlier_record(tmp_path):
    bench = load_script("bench")

    def record(head, wall_ns):
        sides = {side: dict.fromkeys(bench.MEDIANS, 100) for side in ("base", "change")}
        sides["change"]["wall_ns"] = wall_ns
        return {"trees": {"change": {"head": head}}, "workloads": {"verify": sides}}

    for name, head, wall_ns in (("BENCH_9.json", "nine", 400), ("BENCH_12.json", "twelve", 200),
                                ("BENCH_2.json", "two", 800), ("BENCH_x.json", "x", 1)):
        (tmp_path / name).write_text(json.dumps(record(head, wall_ns)), encoding="utf-8")
    out = tmp_path / "BENCH_13.json"
    out.write_text("{}", encoding="utf-8")  # --out itself is never the earlier record
    diff = bench.previous_diff(record("new", 150), tmp_path, out)
    assert (diff["file"], diff["head"]) == ("BENCH_12.json", "twelve")
    assert diff["workloads"]["verify"]["wall_ns"] == {
        "previous": 200, "now": 150, "change_permille": -250}
    assert diff["workloads"]["verify"]["ops_per_s"]["change_permille"] == 0
    assert bench.previous_diff(record("new", 150), tmp_path / "empty", out) is None


def test_bench_audit_counts_pairs_in_a_child_process():
    # a small box stands in for AUDIT_BOX: the counts of the CLI children,
    # summed over every n up to the first entry, are those of enumerate_rows
    bench = load_script("bench")
    assert bench.AUDIT_BOX == (6, 12, 12, 24)
    record = bench.audit_record({"base": ROOT, "change": ROOT}, (2, 2, 1, 3), runs=1)
    expected = sum(len(enumerate_rows(n, 2, 1, 3)[0]) for n in (1, 2))
    assert expected > 0
    for side in ("base", "change"):
        (audit,) = record[side]["runs"]
        assert (audit["pairs"], audit["nonintegral"]) == (expected, 0)
        assert audit["wall_ns"] > 0 and audit["peak_rss_kib"] > 0
        n1 = audit.pop("n1")
        assert n1["pairs"] == len(enumerate_rows(1, 2, 1, 3)[0])
        assert all(type(value) is int for value in audit.values())


def test_bench_stream_names_the_tree_of_a_failed_child(tmp_path):
    bench = load_script("bench")
    package = tmp_path / "src" / "thetachi"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "cli.py").write_text("raise ImportError('no cli in this tree')\n", encoding="utf-8")
    with pytest.raises(RuntimeError, match="no cli in this tree") as failed:
        bench.run_stream(tmp_path, "csv", (1, 1, 1, 2))
    assert f"failed in {tmp_path}" in str(failed.value)


def test_mutation_gate_patterns_occur_once():
    # the gate itself runs Tier-1 once per mutant; this keeps its table from
    # rotting as the source changes
    gate = load_script("mutation_gate")
    counts = gate.pattern_counts(ROOT)
    assert len(counts) == len(gate.MUTANTS) == 41
    assert counts == {name: 1 for name in counts}


def test_bench_child_env_gives_each_run_its_own_bytecode_cache(monkeypatch, tmp_path):
    # a stray __pycache__ in one checkout, or PYTHONDONTWRITEBYTECODE, must
    # not change one side's setup_s: the child writes and reads its
    # bytecode under the given directory only
    bench = load_script("bench")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = bench.child_env(tmp_path)
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path)
    assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1"
    module = tmp_path / "src" / "probe_module.py"
    module.parent.mkdir()
    module.write_text("VALUE = 1\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, probe_module; "
         "print(sys.pycache_prefix, sys.dont_write_bytecode)"],
        cwd=module.parent, env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.split() == [str(tmp_path), "False"]
    assert not (module.parent / "__pycache__").exists()
    assert list(tmp_path.rglob("probe_module*.pyc"))


def test_bench_audit_alternates_the_trees_and_keeps_each_run(monkeypatch):
    # run_stream stubbed: each child reports which tree it ran on and when;
    # a tree-run is six CSV children, n = 1..6, and keeps its n = 1 child
    bench = load_script("bench")
    assert bench.RUNS == 3
    calls = []
    walls = {"base": [30, 10, 20], "change": [5, 9, 7]}

    def fake_stream(tree, fmt, box):
        calls.append((tree, fmt, box))
        wall = walls[tree.name][(sum(c[0] == tree for c in calls) - 1) // 6]
        return {"wall_ns": wall, "peak_rss_kib": 100 + wall + box[0], "pairs": box[0],
                "nonintegral": 0, "sha256": "digest", "bytes": 1}

    monkeypatch.setattr(bench, "run_stream", fake_stream)
    record = bench.audit_record({"base": Path("base"), "change": Path("change")})
    assert [tree.name for tree, _, _ in calls] == [
        name for name in ("base", "change", "change", "base", "base", "change") for _ in range(6)]
    assert [(fmt, box) for _, fmt, box in calls] == [
        ("csv", (n, 12, 12, 24)) for n in range(1, 7)] * 6
    assert record["box"] == {"n": "1..6", "max_rank": 12, "max_k": 12, "max_chi": 24}
    assert record["base"]["runs"] == [
        {"wall_ns": 6 * w, "peak_rss_kib": 106 + w, "pairs": 21, "nonintegral": 0,
         "n1": {"wall_ns": w, "peak_rss_kib": 101 + w, "pairs": 1, "nonintegral": 0,
                "sha256": "digest", "bytes": 1}}
        for w in (30, 10, 20)]
    assert {k: v for k, v in record["base"].items() if k != "runs"} == {
        "wall_ns": 120, "peak_rss_kib": 126, "pairs": 21, "nonintegral": 0}
    assert (record["change"]["wall_ns"], record["change"]["peak_rss_kib"]) == (42, 113)
    # the stream box adds one JSON child per tree-run; its CSV runs are the
    # audit's n = 1 children
    calls.clear()
    stream = bench.stream_record({"base": Path("base"), "change": Path("change")}, record)
    assert [(tree.name, fmt, box) for tree, fmt, box in calls] == [
        (name, "json", (1, 12, 12, 24)) for name in ("base", "change", "change", "base", "base",
                                                     "change")]
    assert stream["csv"]["base"]["runs"] == [run["n1"] for run in record["base"]["runs"]]
    assert stream["csv"]["base"]["wall_ns"] == 20


def test_bench_workloads_alternate_the_trees_and_keep_every_run(monkeypatch):
    # run_once stubbed: base runs 101..110 ns, the change 105 ns each, so
    # the change wins the pairs where base ran 106 ns or more
    bench = load_script("bench")
    calls = []

    def fake_once(tree, workload):
        calls.append((tree.name, workload))
        i = sum(name == tree.name for name, _ in calls)
        wall = 100 + i if tree.name == "base" else 105
        return {"wall_ns": wall, "raw_wall_ns": 2 * wall, "setup_ns": 30 + i,
                "raw_setup_ns": 20 + i, "ops_per_s": 1000 - wall, "peak_rss_kib": 500 + i,
                "failed": i % 2, "attempted": 10}

    monkeypatch.setattr(bench, "run_once", fake_once)
    record = bench.workload_record({"base": Path("base"), "change": Path("change")}, "oracle")
    assert calls == [(side, "oracle") for side in ("base", "change", "change", "base")] * 5
    assert record["change_wins_wall"] == 5
    base = record["base"]
    assert [run["wall_ns"] for run in base["runs"]] == list(range(101, 111))
    assert [run["peak_rss_kib"] for run in base["runs"]] == list(range(501, 511))
    assert all(set(bench.MEDIANS) <= set(run) for run in base["runs"])
    assert [base[key] for key in (*bench.MEDIANS, "failed", "attempted")] == [
        106, 211, 36, 26, 894, 506, 5, 100]
    assert (record["change"]["wall_ns"], record["change"]["wall_q1_ns"]) == (105, 105)


def test_bench_stream_runs_the_cli_per_format_in_child_processes(monkeypatch):
    # a small box stands in for STREAM_BOX: each run writes the bytes of the
    # list API, and every field is recorded per run and per side; the CSV
    # runs are the audit's n = 1 children, so only the JSON runs are new
    bench = load_script("bench")
    assert bench.STREAM_BOX == (1, 12, 12, 24)
    box = (1, 1, 1, 2)
    trees = {"base": ROOT, "change": ROOT}
    audit = bench.audit_record(trees, box, runs=2)
    real_run_stream = bench.run_stream
    calls = []

    def counted_stream(tree, fmt, box):
        calls.append(fmt)
        return real_run_stream(tree, fmt, box)

    monkeypatch.setattr(bench, "run_stream", counted_stream)
    record = bench.stream_record(trees, audit, box, runs=2)
    assert calls == ["json"] * 4
    assert record["box"] == {"n": 1, "max_rank": 1, "max_k": 1, "max_chi": 2}
    rows, summary = enumerate_rows(*box)
    for fmt, render in (("csv", rows_to_csv), ("json", rows_to_json)):
        text = render(rows, summary).encode()
        for side in ("base", "change"):
            result = record[fmt][side]
            assert result["sha256"] == hashlib.sha256(text).hexdigest()
            assert len(result["runs"]) == 2
            if fmt == "csv":
                assert result["runs"] == [run["n1"] for run in audit[side]["runs"]]
            for run in result["runs"]:
                assert run["bytes"] == len(text) and run["sha256"] == result["sha256"]
                assert run["wall_ns"] > 0 and run["peak_rss_kib"] > 0
            assert result["wall_ns"] > 0 and result["peak_rss_kib"] > 0
