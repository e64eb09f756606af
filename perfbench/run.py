"""Benchmark of the thetachi CLI and library: four single-threaded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
times are scaled to a nominal host speed by ``hostspeed.probe()``, run
between the timed units.
``--trace 1`` runs the traced passes and reports the per-layer metrics and
the tracing overhead.  Either way the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric with its unit, the
fail ratio and the environment.  Spans, per-pass times and the
environment are also written under ``.perfbench_out/``.  The exit status
is 0 when every operation passed its gate, 1 when any failed, and 2 when
the benchmark could not run (for example, without ``src/``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# fresh interpreters timed per run for setup_s; the median is reported.
# Each times its import, then runs the host-speed probe.
SETUP_SAMPLES = 15
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import thetachi.cli; "
    "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
    "import hostspeed; print(t, hostspeed.probe())"
)
# share of --seconds given to traced passes in a --trace 1 run; the rest
# measures untraced passes for the overhead ratio
TRACED_SHARE = 0.7

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "symbolic", "oracle", "enumerate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> tuple:
    """Median time for a fresh interpreter to import thetachi.cli.

    Returns (scaled median, raw median).  Each import is scaled by the
    host-speed probe run after it in the same interpreter.  One untimed
    import first writes the bytecode cache, which an installed package
    has too.
    """
    env = _child_env()
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE)], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            seconds, probe_seconds = map(float, done.stdout.split())
            raw.append(seconds)
            scaled.append(hostspeed.scaled(seconds, probe_seconds))
    return median(scaled), median(raw)


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
    }


def timed_passes(run, deadline: float) -> list:
    """Run passes until the next one would end after the deadline.

    At least one pass runs.  Returns [(seconds, (ops, attempted, failed))].
    """
    passes = []
    while True:
        start = time.perf_counter()
        result = run()
        passes.append((time.perf_counter() - start, result))
        typical = median(seconds for seconds, _ in passes)
        if time.perf_counter() + typical > deadline:
            return passes


def scaled_passes(units, deadline: float) -> list:
    """Like ``timed_passes``, but time each unit of a pass on its own.

    The host-speed probe runs before the first unit and after each unit,
    and a unit's time is scaled by the mean of the probes on either side
    of it.  Returns [(scaled seconds, raw seconds, (ops,
    attempted, failed))], one entry per pass, summed over its units.
    """
    passes, elapsed = [], []
    while True:
        begin = time.perf_counter()
        scaled = raw = 0.0
        total = [0, 0, 0]
        before = hostspeed.probe()
        for unit in units:
            start = time.perf_counter()
            result = unit()
            seconds = time.perf_counter() - start
            after = hostspeed.probe()
            scaled += hostspeed.scaled(seconds, (before + after) / 2)
            before = after
            raw += seconds
            for i, value in enumerate(result):
                total[i] += value
        passes.append((scaled, raw, tuple(total)))
        elapsed.append(time.perf_counter() - begin)
        if time.perf_counter() + median(elapsed) > deadline:
            return passes


def totals(passes) -> tuple:
    attempted = sum(result[1] for _, result in passes)
    failed = sum(result[2] for _, result in passes)
    return attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "thetachi" / "cli.py").is_file():
        print(f"perfbench: no thetachi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    env = environment(args)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        setup_s, raw_setup_s = measure_setup() if args.trace == 0 else (None, None)
        workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    workload.warm()

    start = time.perf_counter()
    if args.trace == 0:
        scaled = scaled_passes(workload.units(), start + args.seconds)
        values = {
            "setup_s": setup_s,
            "wall_s": median(seconds for seconds, _, _ in scaled),
            "ops_per_s": median(result[0] / seconds for seconds, _, result in scaled),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        passes = [(raw, result) for _, raw, result in scaled]
        raw_wall = median(raw for raw, _ in passes)
        print(f"{args.workload} raw: setup_s {raw_setup_s:.6g} s, wall_s "
              f"{raw_wall:.6g} s, over {len(passes)} passes")
        extra = {"raw_setup_s": raw_setup_s, "raw_wall_s": raw_wall,
                 "scaled_pass_seconds": [seconds for seconds, _, _ in scaled]}
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_passes(lambda: tracer.run_pass(workload.run),
                                  start + TRACED_SHARE * args.seconds)
        finally:
            tracer.uninstall()
        untraced = timed_passes(workload.run, start + args.seconds)
        values = tracing.combine([snapshot for _, (_, snapshot) in traced])
        traced_wall = median(seconds for seconds, _ in traced)
        values["trace.overhead_ratio"] = traced_wall / median(s for s, _ in untraced)
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        passes = [(seconds, result) for seconds, (result, _) in traced] + untraced
        extra = {"traced_wall_s": traced_wall, "spans": len(tracer.spans),
                 "spans_dropped": tracer.spans_dropped}
        tracer.write_spans(OUT_DIR / f"spans-{tag}.jsonl")

    attempted, failed = totals(passes)
    fail_ratio = failed / attempted if attempted else 1.0
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} fail_ratio {fail_ratio:.6g} ratio ({failed}/{attempted})")
    print("env " + json.dumps(env))
    detail = {
        "env": env,
        "pass_seconds": [seconds for seconds, _ in passes],
        "pass_results": [list(result) for _, result in passes],
        "fail_ratio": fail_ratio,
        **extra,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({**detail, "result": result}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
