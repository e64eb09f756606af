#!/usr/bin/env python3
"""Paired benchmark record: ``perfbench/run.py --trace 0`` on two trees.

Runs every workload on a base tree and a changed tree, ``PAIRS`` times
each, alternating which tree runs first, and writes one JSON record with,
per workload and side, the median and quartiles of the scaled ``wall_s``
and the medians of the raw ``wall_s`` and of the scaled and raw
``setup_s``, all in integer nanoseconds, plus ``ops_per_s``, ``peak_rss``
in KiB, how many operations failed and how many pairs the change won on
scaled ``wall_s``.  The record also holds the host-speed probe (median of
five runs before and after, in ns, against its nominal time), the Python
version, ``nproc``, and for each tree its HEAD commit and the git tree
SHA of its ``src/`` as measured, which equals ``git rev-parse
<commit>:src`` of the commit that holds that source.
Each run gets a fresh bytecode cache of its own (``child_env``), so both
trees time the same cached import in ``setup_s``.

The record also holds ``AUDIT_RUNS`` runs per tree of the
integrality-audit box (``AUDIT_BOX``: every n up to 6 with rank <= 12,
|k| <= 12, |chi| <= 24), alternating which tree runs first as the
workloads do, each in a child process of its own: its wall time in ns,
that time scaled by the host-speed probe (``scaled_wall_ns``), the pairs
found, how many rows the audit flagged nonintegral, and the child's peak
RSS in KiB.  The child runs the probe before the first n and after each
n, and scales each n's time by the mean of the probes on either side, as
``perfbench/run.py`` scales a workload's units.  Each side keeps every run
and the median of each field.  It is a measurement, not a gate.

The record also holds ``STREAM_RUNS`` runs per tree and format of
``thetachi enumerate`` on the 15,925-cell box ``STREAM_BOX`` (n = 1, rank
<= 12, |k| <= 12, |chi| <= 24), in CSV and in JSON, alternating which tree
runs first, each in a child process of its own that runs the CLI's
``main`` on that tree's ``src/``: the raw wall time of ``main`` in ns (not
scaled: at this noise the probe's scaling can reverse the raw order), the
child's peak RSS in KiB, and the size and sha256 of the file written.
Each side keeps every run, the medians of the time and the peak RSS, and
the sha256 when every run wrote the same bytes.

When the repository root holds an earlier record (the highest-numbered
``BENCH_<n>.json`` other than ``--out``), the new record gains a
``previous`` section: that file's name and change-side HEAD, and per
workload and median metric the earlier change-side value, the new one and
the change between them in per mille.

Usage:
    python scripts/bench.py --base DIR --change DIR --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify", "symbolic", "oracle", "enumerate")
PAIRS = 10  # perfbench/README.md: ten or more runs per side
SECONDS = 25  # BENCHMARK.json run_seconds
SEED = 1
NS = 1_000_000_000
# the change-side medians that ``previous`` compares
MEDIANS = ("wall_ns", "raw_wall_ns", "setup_ns", "raw_setup_ns", "ops_per_s", "peak_rss_kib")
# the integrality-audit box: (largest n, max_rank, max_k, max_chi), every n from 1
AUDIT_BOX = (6, 12, 12, 24)
AUDIT_RUNS = 3  # per tree: one unpaired run moved by 17% on untouched code
# where the audit child imports the host-speed probe from: this checkout's,
# whichever tree it measures
HOSTSPEED_DIR = ROOT / "perfbench"
_AUDIT_CHILD = """\
import json, resource, sys, time
import hostspeed
from thetachi.pairs import enumerate_rows
n_max, max_rank, max_k, max_chi = map(int, sys.argv[1:])
pairs = nonintegral = wall_ns = 0
scaled_s = 0.0
before = hostspeed.probe()
for n in range(1, n_max + 1):
    start = time.perf_counter_ns()
    rows, summary = enumerate_rows(n, max_rank, max_k, max_chi)
    pairs += len(rows)
    nonintegral += len(summary["nonintegral_rows"])
    del rows, summary
    elapsed_ns = time.perf_counter_ns() - start
    after = hostspeed.probe()
    wall_ns += elapsed_ns
    scaled_s += hostspeed.scaled(elapsed_ns / 1e9, (before + after) / 2)
    before = after
print(json.dumps({"wall_ns": wall_ns, "scaled_wall_ns": round(scaled_s * 1e9), "pairs": pairs,
                  "nonintegral": nonintegral,
                  "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""
# the largest n = 1 box in the enumerate cap, 323,471 rows:
# (n, max_rank, max_k, max_chi)
STREAM_BOX = (1, 12, 12, 24)
STREAM_RUNS = 3  # per tree and format
_STREAM_CHILD = """\
import contextlib, json, os, resource, sys, time
from thetachi.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    start = time.perf_counter_ns()
    code = main(sys.argv[1:])
    wall_ns = time.perf_counter_ns() - start
print(json.dumps({"code": code, "wall_ns": wall_ns,
                  "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def git(tree: Path, *args, env=None) -> str:
    done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                          text=True, check=True, env=env)
    return done.stdout.strip()


def src_tree(tree: Path) -> str:
    """Git tree SHA of ``tree/src`` as it is on disk, committed or not."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git(tree, "add", "src", env=env)
        return git(tree, "write-tree", "--prefix=src/", env=env)


def child_env(pycache: Path) -> dict:
    """This process's environment for a ``perfbench/run.py`` child, with
    its bytecode cache under ``pycache`` and bytecode writing on.

    ``perfbench/run.py`` times a fresh interpreter's import after one
    untimed import that writes the cache.  With the cache in a fresh
    directory of its own, every run of either tree times the same cached
    import, whatever ``__pycache__`` a checkout holds and whatever
    ``PYTHONDONTWRITEBYTECODE`` says.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_once(tree: Path, workload: str) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; the values it recorded."""
    path = tree / ".perfbench_out" / f"result-{workload}-s{SEED}-t0.json"
    path.unlink(missing_ok=True)
    with tempfile.TemporaryDirectory(prefix="bench_pycache_") as pycache:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
             "--seconds", str(SECONDS), "--trace", "0"],
            cwd=tree, env=child_env(Path(pycache)), capture_output=True, text=True,
            check=False,
        )
    if done.returncode not in (0, 1):  # 1: some operation failed its gate
        raise RuntimeError(f"perfbench/run.py failed in {tree}:\n{done.stderr}")
    detail = json.loads(path.read_text(encoding="utf-8"))
    metrics = {name: m["value"] for name, m in detail["result"]["metrics"].items()}
    return {
        "wall_ns": round(metrics["wall_s"] * NS),
        "raw_wall_ns": round(detail["raw_wall_s"] * NS),
        "setup_ns": round(metrics["setup_s"] * NS),
        "raw_setup_ns": round(detail["raw_setup_s"] * NS),
        "ops_per_s": round(metrics["ops_per_s"]),
        "peak_rss_kib": round(metrics["peak_rss_mib"] * 1024),
        "failed": detail["result"]["failed"],
        "attempted": detail["result"]["attempted"],
    }


def run_audit(tree: Path, box: tuple = AUDIT_BOX) -> dict:
    """The audit ``box`` on ``tree``'s ``src/``, in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(tree / "src"), str(HOSTSPEED_DIR), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", _AUDIT_CHILD, *map(str, box)], cwd=tree,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def run_stream(tree: Path, fmt: str, box: tuple = STREAM_BOX) -> dict:
    """``thetachi enumerate`` of ``box`` in ``fmt`` on ``tree``'s ``src/``,
    in a child process: the raw wall time of ``main`` in ns, the child's
    peak RSS in KiB, and the size and sha256 of the file it wrote."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(tree / "src"), env.get("PYTHONPATH"))))
    n, max_rank, max_k, max_chi = box
    with tempfile.TemporaryDirectory(prefix="bench_stream_") as tmp:
        out = Path(tmp) / f"pairs.{fmt}"
        done = subprocess.run(
            [sys.executable, "-c", _STREAM_CHILD, "enumerate", "--n", str(n),
             "--max-rank", str(max_rank), "--max-k", str(max_k), "--max-chi", str(max_chi),
             "--format", fmt, "--out", str(out)],
            cwd=tree, env=env, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout)
        if result.pop("code") != 0:
            raise RuntimeError(f"enumerate failed in {tree}:\n{done.stderr}")
        digest = hashlib.sha256()
        with open(out, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        result["sha256"] = digest.hexdigest()
        result["bytes"] = out.stat().st_size
    return result


def paired_order(pair: int) -> tuple:
    """The sides in the order they run in pair ``pair``: base first in even pairs."""
    return ("base", "change") if pair % 2 == 0 else ("change", "base")


def alternating_runs(trees: dict, runs: int, run, label: str) -> dict:
    """Per side, ``runs`` results of ``run(tree)``, the sides alternating
    which runs first."""
    done = {side: [] for side in trees}
    for pair in range(runs):
        for side in paired_order(pair):
            done[side].append(run(trees[side]))
            print(label, side, done[side][-1], file=sys.stderr)
    return done


def audit_record(trees: dict) -> dict:
    """``AUDIT_RUNS`` audit runs per tree in alternating order; per side
    every run and the median of each of its fields."""
    n_max, max_rank, max_k, max_chi = AUDIT_BOX
    record = {"box": {"n": f"1..{n_max}", "max_rank": max_rank, "max_k": max_k,
                      "max_chi": max_chi}}
    done = alternating_runs(trees, AUDIT_RUNS, run_audit, "audit")
    for side, results in done.items():
        record[side] = {key: round(median(run[key] for run in results)) for key in results[0]}
        record[side]["runs"] = results
    return record


def stream_record(trees: dict, box: tuple = STREAM_BOX, runs: int = STREAM_RUNS) -> dict:
    """``runs`` runs of ``run_stream`` per tree and format in alternating
    order; per format and side every run, the medians of the wall time and
    the peak RSS, and the sha256 when every run wrote the same bytes."""
    n, max_rank, max_k, max_chi = box
    record = {"box": {"n": n, "max_rank": max_rank, "max_k": max_k, "max_chi": max_chi}}
    for fmt in ("csv", "json"):
        done = alternating_runs(trees, runs, lambda tree: run_stream(tree, fmt, box),
                                f"stream {fmt}")
        record[fmt] = {}
        for side, results in done.items():
            digests = {run["sha256"] for run in results}
            record[fmt][side] = {
                "wall_ns": round(median(run["wall_ns"] for run in results)),
                "peak_rss_kib": round(median(run["peak_rss_kib"] for run in results)),
                "sha256": digests.pop() if len(digests) == 1 else None,
                "runs": results,
            }
    return record


def summary(runs: list) -> dict:
    wall = [run["wall_ns"] for run in runs]
    q1, _, q3 = quantiles(wall, n=4) if len(wall) > 1 else (wall[0],) * 3
    out = {"wall_ns": round(median(wall)), "wall_q1_ns": round(q1), "wall_q3_ns": round(q3)}
    for key in ("raw_wall_ns", "setup_ns", "raw_setup_ns", "ops_per_s", "peak_rss_kib"):
        out[key] = round(median(run[key] for run in runs))
    out["failed"] = sum(run["failed"] for run in runs)
    out["attempted"] = sum(run["attempted"] for run in runs)
    out["runs_wall_ns"] = wall
    return out


def previous_diff(record: dict, root: Path, out: Path) -> dict | None:
    """Change-side medians of the highest-numbered ``root/BENCH_<n>.json``
    other than ``out`` against those of ``record``; None if there is none."""
    numbered = [
        (int(match.group(1)), path) for path in root.glob("BENCH_*.json")
        if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
        and path.resolve() != out.resolve()
    ]
    if not numbered:
        return None
    path = max(numbered)[1]
    earlier = json.loads(path.read_text(encoding="utf-8"))
    workloads = {}
    for workload, sides in record["workloads"].items():
        if workload not in earlier["workloads"]:
            continue
        before, now = earlier["workloads"][workload]["change"], sides["change"]
        workloads[workload] = {
            metric: {"previous": before[metric], "now": now[metric],
                     "change_permille": round(1000 * (now[metric] - before[metric])
                                              / before[metric])}
            for metric in MEDIANS
        }
    return {"file": path.name, "head": earlier["trees"]["change"]["head"],
            "workloads": workloads}


def probe_ns(hostspeed) -> int:
    return round(median(hostspeed.probe() for _ in range(5)) * NS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import hostspeed

    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": SEED,
        "seconds": SECONDS,
        "pairs": PAIRS,
        "trees": {side: {"head": git(tree, "rev-parse", "HEAD"), "src_tree": src_tree(tree)}
                  for side, tree in trees.items()},
        "probe_nominal_ns": round(hostspeed.NOMINAL_S * NS),
        "probe_before_ns": probe_ns(hostspeed),
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = {"base": [], "change": []}
        for pair in range(PAIRS):
            for side in paired_order(pair):
                runs[side].append(run_once(trees[side], workload))
            print(workload, pair, {side: r[-1]["wall_ns"] for side, r in runs.items()},
                  file=sys.stderr)
        wins = sum(c["wall_ns"] < b["wall_ns"] for b, c in zip(runs["base"], runs["change"]))
        record["workloads"][workload] = {
            "base": summary(runs["base"]),
            "change": summary(runs["change"]),
            "change_wins_wall": wins,
        }
    record["audit"] = audit_record(trees)
    record["stream"] = stream_record(trees)
    record["probe_after_ns"] = probe_ns(hostspeed)
    previous = previous_diff(record, ROOT, args.out)
    if previous is not None:
        record["previous"] = previous
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
