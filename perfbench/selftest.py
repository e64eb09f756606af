"""Self-test of the benchmark's gates and of its per-layer counts.

Run from the repository root (takes about a minute and a half):

    python3 perfbench/selftest.py

1. The gates cannot pass vacuously: a corrupted CSV byte, a forged nonzero
   residual, a transform mismatch and a ``LatticeError`` are each counted
   as a failed operation, so each raises the fail ratio above zero.
2. The per-layer counts repeat exactly: two traced runs of each workload
   with the same seed report identical counts.
3. ``BENCHMARK.json`` lists exactly the workloads and metrics that
   ``run.py`` reports.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from thetachi import mukai  # noqa: E402

SEED = 7


def expect(label: str, attempted: int, failed: int, want_failed: int) -> bool:
    ok = failed == want_failed and attempted > 0
    status = "ok" if ok else "FAIL"
    print(f"{status}: {label}: failed {failed}/{attempted} "
          f"(fail_ratio {failed / attempted:.3g}), expected {want_failed} failed")
    return ok


def check_verify_gate() -> list:
    trials = 1
    code, stdout = workloads.run_cli(["verify", "--all", "--seed", str(SEED),
                                      "--trials", str(trials)])
    results = [expect("verify as produced", *workloads.check_verify(code, stdout, trials), 0)]
    forged = json.loads(stdout)
    forged[3]["residual"] = "1"  # "pass" still says true
    results.append(expect("verify with one forged nonzero residual",
                          *workloads.check_verify(code, json.dumps(forged), trials), 1))
    short = json.loads(stdout)[1:]
    results.append(expect("verify missing one report",
                          *workloads.check_verify(code, json.dumps(short), trials), 1))
    for ident in ("sec4_table", "assembly_main"):  # with and without a symbolic report
        code, stdout = workloads.run_cli(["verify", "--only", ident, "--seed", str(SEED),
                                          "--trials", str(trials)])
        results.append(expect(f"verify --only {ident} as produced",
                              *workloads.check_verify(code, stdout, trials, ident), 0))
        forged = json.loads(stdout)
        forged[-1]["pass"] = False
        results.append(expect(f"verify --only {ident} with one failed report",
                              *workloads.check_verify(code, json.dumps(forged), trials, ident), 1))
    _, attempted, failed = workloads.Verify(SEED, ROOT).run()
    results.append(expect("verify pass of one --only unit per identity", attempted, failed, 0)
                   and attempted == workloads.expected_reports(workloads.VERIFY_TRIALS))
    return results


def check_enumerate_gate(tmp: Path) -> list:
    box = workloads.ENUMERATE_BOXES[0]
    name = workloads.box_name(box)
    golden, digest = workloads.load_golden()[name]
    workload = workloads.Enumerate(SEED, tmp)
    emitted, attempted, failed = workload.run_box(box)
    results = [expect("enumerate as produced", attempted, failed, 0)]
    data = (tmp / name).read_bytes()
    row_byte = data.index(b"\n") + 1 + 2  # a digit inside the first data row
    trailer_byte = data.rindex(b"#") + 3
    for label, position in (("data row", row_byte), ("trailer", trailer_byte)):
        corrupted = bytearray(data)
        corrupted[position] ^= 0x01
        _, attempted, failed = workloads.check_enumerate(0, bytes(corrupted), golden, digest)
        results.append(expect(f"enumerate with one corrupted {label} byte",
                              attempted, failed, 1))
    flagged = data.replace(b",h2_pos\n", b",nonintegral_main;h2_pos\n", 1)
    _, attempted, failed = workloads.check_enumerate(0, flagged, flagged, digest)
    results.append(expect("enumerate with one row flagged nonintegral", attempted, failed, 1))
    return results


def check_oracle_gate() -> list:
    workload = workloads.Oracle(SEED, ROOT)
    workload.vectors = workload.vectors[:20]
    original = mukai.fm_vector_via_engine
    bad_lattice, bad_value = workload.vectors[4], workload.vectors[9]

    def faulty(v):
        if v is bad_lattice:
            raise mukai.LatticeError("injected")
        if v is bad_value:
            return original(v).dual()
        return original(v)

    results = [expect("oracle as produced", *workload.run()[1:], 0)]
    mukai.fm_vector_via_engine = faulty
    try:
        _, attempted, failed = workload.run()
    finally:
        mukai.fm_vector_via_engine = original
    results.append(expect("oracle with one LatticeError and one mismatch",
                          attempted, failed, 2))
    return results


def traced_counts(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise RuntimeError(f"traced {workload} run exited {done.returncode}: {done.stderr}")
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name, _, _ in tracing.COUNT_METRICS}


def check_counts_repeat() -> list:
    results = []
    for workload in workloads.WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        differ = sorted(name for name in first if first[name] != second[name])
        ok = not differ
        nonzero = sum(1 for value in first.values() if value)
        print(f"{'ok' if ok else 'FAIL'}: {workload}: {nonzero} nonzero counts "
              f"repeat across two traced runs" + (f"; differ: {differ}" if differ else ""))
        results.append(ok)
    return results


def check_benchmark_json() -> list:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checks = (
        ("workloads", [w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS)),
        ("end_to_end", [(m["name"], m["unit"]) for m in bench["end_to_end"]],
         list(run.END_TO_END)),
        ("per_layer", [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
         tracing.metric_specs()),
    )
    results = []
    for key, listed, reported in checks:
        ok = listed == reported
        print(f"{'ok' if ok else 'FAIL'}: BENCHMARK.json {key} match run.py ({len(listed)})")
        results.append(ok)
    return results


def main() -> int:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    results = check_benchmark_json()
    results += check_verify_gate() + check_enumerate_gate(out) + check_oracle_gate()
    results += check_counts_repeat()
    print(f"selftest: {sum(results)}/{len(results)} checks hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
