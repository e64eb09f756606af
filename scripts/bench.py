#!/usr/bin/env python3
"""Paired benchmark record: ``perfbench/run.py --trace 0`` on two trees.

Runs every workload on a base tree and a changed tree, ``PAIRS`` times
each, alternating which tree runs first, and writes one JSON record with,
per workload and side, every run and the medians of its metrics: the
``wall_s`` that ``perfbench/run.py`` scales by its host-speed probe (with
quartiles), the raw ``wall_s`` and the scaled and raw ``setup_s``, all in
integer nanoseconds, ``ops_per_s`` and ``peak_rss`` in KiB; plus how many
operations failed and how many pairs the change won on scaled ``wall_s``.
The record also holds the host-speed probe (median of five runs before and
after, in ns, against its nominal time), the Python version, ``nproc``,
and for each tree its HEAD commit and the git tree SHA of its ``src/`` as
measured, which equals ``git rev-parse <commit>:src`` of the commit that
holds that source.  Each run gets a fresh bytecode cache of its own
(``child_env``), so both trees time the same cached import in ``setup_s``.

The larger boxes run through one child program, ``run_stream``: ``thetachi
enumerate --out`` on that tree's ``src/``, ``RUNS`` times per tree in
alternating order.  Each child reports the raw wall time of the CLI's
``main`` in ns (not scaled: at this noise the probe's scaling can reverse
the raw order), its peak RSS in KiB, the pairs and nonintegral rows the CLI
reports, and the size and sha256 of the file written.  ``audit`` is the
box ``AUDIT_BOX`` (n = 1..6, rank <= 12, |k| <= 12, |chi| <= 24) in CSV,
one child per n, summed; ``stream`` is the 15,925-cell n = 1 box
``STREAM_BOX`` in CSV and in JSON.  The stream box is the audit's n = 1
slice, so its CSV runs are the audit's n = 1 children, which each audit
run keeps as its entry ``n1``; only its JSON runs are children of their
own.  Each side keeps every run, the median of each numeric field and the
sha256 when every run wrote the same bytes.  These are measurements, not
gates.

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
# the audit box: (largest n, max_rank, max_k, max_chi), every n from 1
AUDIT_BOX = (6, 12, 12, 24)
# the audit's n = 1 slice, the largest n = 1 box in the enumerate cap,
# 323,471 rows: (n, max_rank, max_k, max_chi)
STREAM_BOX = (1, *AUDIT_BOX[1:])
RUNS = 3  # per tree, of the audit and of the JSON stream: one unpaired run moved by 17%
_STREAM_CHILD = """\
import contextlib, io, json, resource, sys, time
from thetachi.cli import main
with contextlib.redirect_stdout(io.StringIO()) as said:
    start = time.perf_counter_ns()
    code = main(sys.argv[1:])
    wall_ns = time.perf_counter_ns() - start
print(json.dumps({"said": said.getvalue(), "wall_ns": wall_ns,
                  "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
sys.exit(code)
"""
# the line ``thetachi enumerate --out`` prints once the file is written
_WROTE = re.compile(r"wrote (\d+) pairs \(\d+ vectors\) to .*; nonintegral: (\d+)\n")


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


def run_stream(tree: Path, fmt: str, box: tuple = STREAM_BOX) -> dict:
    """``thetachi enumerate`` of ``box`` in ``fmt`` on ``tree``'s ``src/``,
    in a child process: the raw wall time of ``main`` in ns, the child's
    peak RSS in KiB, the pairs and nonintegral rows the CLI reports, and
    the size and sha256 of the file it wrote."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(tree / "src"), env.get("PYTHONPATH"))))
    n, max_rank, max_k, max_chi = box
    with tempfile.TemporaryDirectory(prefix="bench_stream_") as tmp:
        out = Path(tmp) / f"pairs.{fmt}"
        done = subprocess.run(
            [sys.executable, "-c", _STREAM_CHILD, "enumerate", "--n", str(n),
             "--max-rank", str(max_rank), "--max-k", str(max_k), "--max-chi", str(max_chi),
             "--format", fmt, "--out", str(out)],
            cwd=tree, env=env, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"thetachi enumerate failed in {tree}:\n{done.stderr}")
        result = json.loads(done.stdout)
        pairs, nonintegral = _WROTE.fullmatch(result.pop("said")).groups()
        result["pairs"], result["nonintegral"] = int(pairs), int(nonintegral)
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


def side_record(runs: list) -> dict:
    """The median of each int field of ``runs``, each str field's value
    when every run has the same one (else None), and every run."""
    out = {}
    for key, value in runs[0].items():
        values = [run[key] for run in runs]
        if type(value) is int:
            out[key] = round(median(values))
        elif type(value) is str:
            out[key] = values[0] if len(set(values)) == 1 else None
    out["runs"] = runs
    return out


def summary(runs: list) -> dict:
    """``side_record`` of workload ``runs``, with the quartiles of
    ``wall_ns`` and the failed and attempted operations of all runs."""
    wall = [run["wall_ns"] for run in runs]
    q1, _, q3 = quantiles(wall, n=4) if len(wall) > 1 else (wall[0],) * 3
    out = side_record(runs)
    out.update(wall_q1_ns=round(q1), wall_q3_ns=round(q3),
               failed=sum(run["failed"] for run in runs),
               attempted=sum(run["attempted"] for run in runs))
    return out


def workload_record(trees: dict, workload: str) -> dict:
    """``PAIRS`` runs of ``workload`` per tree in alternating order: per side
    their ``summary``, and how many pairs the change won on ``wall_ns``."""
    done = alternating_runs(trees, PAIRS, lambda tree: run_once(tree, workload), workload)
    wins = sum(c["wall_ns"] < b["wall_ns"] for b, c in zip(done["base"], done["change"]))
    return {"base": summary(done["base"]), "change": summary(done["change"]),
            "change_wins_wall": wins}


def audit_record(trees: dict, box: tuple = AUDIT_BOX, runs: int = RUNS) -> dict:
    """``runs`` audit runs per tree in alternating order, each a CSV
    ``run_stream`` for every n from 1 to ``box[0]``; per side every run and
    the median of each of its int fields.  Each run keeps its n = 1 child
    as its entry ``n1``."""
    n_max, max_rank, max_k, max_chi = box

    def audit(tree: Path) -> dict:
        done = [run_stream(tree, "csv", (n, max_rank, max_k, max_chi))
                for n in range(1, n_max + 1)]
        total = {key: sum(run[key] for run in done) for key in ("wall_ns", "pairs", "nonintegral")}
        return dict(total, peak_rss_kib=max(run["peak_rss_kib"] for run in done), n1=done[0])

    record = {"box": {"n": f"1..{n_max}", "max_rank": max_rank, "max_k": max_k,
                      "max_chi": max_chi}}
    for side, results in alternating_runs(trees, runs, audit, "audit").items():
        record[side] = side_record(results)
    return record


def stream_record(trees: dict, audit: dict, box: tuple = STREAM_BOX, runs: int = RUNS) -> dict:
    """The runs of ``box`` per format and side: every run, the median of
    each numeric field, and the sha256 when every run wrote the same bytes.
    The CSV runs are the ``n1`` children of ``audit``, an ``audit_record``
    whose n = 1 slice is ``box``; the JSON runs are ``runs`` ``run_stream``
    children per tree in alternating order."""
    n, max_rank, max_k, max_chi = box
    done = alternating_runs(trees, runs, lambda tree: run_stream(tree, "json", box),
                            "stream json")
    return {
        "box": {"n": n, "max_rank": max_rank, "max_k": max_k, "max_chi": max_chi},
        "csv": {side: side_record([run["n1"] for run in audit[side]["runs"]]) for side in trees},
        "json": {side: side_record(results) for side, results in done.items()},
    }


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
        "workloads": {workload: workload_record(trees, workload) for workload in WORKLOADS},
        "audit": audit_record(trees),
    }
    record["stream"] = stream_record(trees, record["audit"])
    record["probe_after_ns"] = probe_ns(hostspeed)
    previous = previous_diff(record, ROOT, args.out)
    if previous is not None:
        record["previous"] = previous
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
