"""Smoke tests: the scripts under ``scripts/`` run end to end and exit 0."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

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
    # a small box stands in for AUDIT_BOX: the child's counts are those of
    # enumerate_rows for every n up to the first entry
    bench = load_script("bench")
    assert bench.AUDIT_BOX == (6, 12, 12, 24)
    audit = bench.run_audit(ROOT, (2, 2, 1, 3))
    expected = sum(len(enumerate_rows(n, 2, 1, 3)[0]) for n in (1, 2))
    assert (audit["pairs"], audit["nonintegral"]) == (expected, 0)
    assert expected > 0 and audit["wall_ns"] > 0 and audit["peak_rss_kib"] > 0
    assert audit["scaled_wall_ns"] > 0
    assert all(type(value) is int for value in audit.values())


def test_bench_audit_scales_each_n_by_the_probes_around_it(monkeypatch, tmp_path):
    # a stand-in probe that reads half the nominal time on every call: the
    # host runs at twice the nominal speed, so each n's time doubles
    bench = load_script("bench")
    (tmp_path / "hostspeed.py").write_text(
        "NOMINAL_S = 0.014\n"
        "def probe():\n    return 0.007\n"
        "def scaled(seconds, probe_seconds):\n    return seconds * NOMINAL_S / probe_seconds\n",
        encoding="utf-8")
    monkeypatch.setattr(bench, "HOSTSPEED_DIR", tmp_path)
    audit = bench.run_audit(ROOT, (3, 1, 1, 2))
    assert abs(audit["scaled_wall_ns"] - 2 * audit["wall_ns"]) <= 3  # one rounding per n


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
    # run_audit stubbed: each run reports which tree it ran on and when
    bench = load_script("bench")
    assert bench.AUDIT_RUNS == 3
    calls = []
    walls = {"base": [30, 10, 20], "change": [5, 9, 7]}

    def fake_audit(tree):
        calls.append(tree)
        wall = walls[tree.name][sum(c == tree for c in calls) - 1]
        return {"wall_ns": wall, "scaled_wall_ns": 3 * wall, "pairs": 4, "nonintegral": 0,
                "peak_rss_kib": 100 + wall}

    monkeypatch.setattr(bench, "run_audit", fake_audit)
    trees = {"base": Path("base"), "change": Path("change")}
    record = bench.audit_record(trees)
    assert [tree.name for tree in calls] == ["base", "change", "change", "base", "base", "change"]
    assert record["box"] == {"n": "1..6", "max_rank": 12, "max_k": 12, "max_chi": 24}
    assert record["base"]["runs"] == [
        {"wall_ns": w, "scaled_wall_ns": 3 * w, "pairs": 4, "nonintegral": 0,
         "peak_rss_kib": 100 + w} for w in (30, 10, 20)]
    assert {k: v for k, v in record["base"].items() if k != "runs"} == {
        "wall_ns": 20, "scaled_wall_ns": 60, "pairs": 4, "nonintegral": 0, "peak_rss_kib": 120}
    assert (record["change"]["wall_ns"], record["change"]["scaled_wall_ns"],
            record["change"]["peak_rss_kib"]) == (7, 21, 107)


def test_bench_stream_runs_the_cli_per_format_in_child_processes():
    # a small box stands in for STREAM_BOX: each run writes the bytes of the
    # list API, and every field is recorded per run and per side
    bench = load_script("bench")
    assert bench.STREAM_BOX == (1, 12, 12, 24)
    box = (1, 1, 1, 2)
    record = bench.stream_record({"base": ROOT, "change": ROOT}, box, runs=2)
    assert record["box"] == {"n": 1, "max_rank": 1, "max_k": 1, "max_chi": 2}
    rows, summary = enumerate_rows(*box)
    for fmt, render in (("csv", rows_to_csv), ("json", rows_to_json)):
        text = render(rows, summary).encode()
        for side in ("base", "change"):
            result = record[fmt][side]
            assert result["sha256"] == hashlib.sha256(text).hexdigest()
            assert len(result["runs"]) == 2
            for run in result["runs"]:
                assert run["bytes"] == len(text) and run["sha256"] == result["sha256"]
                assert run["wall_ns"] > 0 and run["peak_rss_kib"] > 0
            assert result["wall_ns"] > 0 and result["peak_rss_kib"] > 0
