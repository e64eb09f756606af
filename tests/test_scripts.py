"""Smoke tests: the scripts under ``scripts/`` run end to end and exit 0."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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


def test_tabulate_theorem_values_script(tmp_path):
    result = run_script(
        "tabulate_theorem_values.py", "--n-max", "1", "--max-rank", "1",
        "--max-k", "1", "--max-chi", "2", "--outdir", str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "pairs_n1.csv").is_file()


def test_mutation_gate_patterns_occur_once():
    # the gate itself runs Tier-1 once per mutant; this keeps its table from
    # rotting as the source changes
    spec = importlib.util.spec_from_file_location(
        "mutation_gate", ROOT / "scripts" / "mutation_gate.py"
    )
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    counts = gate.pattern_counts(ROOT)
    assert len(counts) == len(gate.MUTANTS) == 17
    assert counts == {name: 1 for name in counts}
