#!/usr/bin/env python3
"""Run the full identity-verification suite and print a summary table.

Usage: python scripts/run_identity_suite.py [--seed 42] [--trials 200]
"""

import argparse
import sys
import time
from collections import Counter

from thetachi.identities import run_suite, suite_passed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trials", type=int, default=200)
    args = parser.parse_args()

    start = time.perf_counter_ns()
    reports = run_suite(args.seed, args.trials)
    elapsed_ms = (time.perf_counter_ns() - start) // 1_000_000

    by_id = Counter(r.identity_id for r in reports)
    failed = Counter(r.identity_id for r in reports if not r.passed)
    width = max(len(name) for name in by_id)
    for name in sorted(by_id):
        status = "ok" if not failed[name] else f"{failed[name]} FAILED"
        print(f"{name:<{width}}  {by_id[name]:>4} runs  {status}")
    print(f"\n{len(reports)} reports in {elapsed_ms} ms")
    if not suite_passed(reports):
        print("SUITE FAILED")
        return 1
    print("all identities hold with residual exactly zero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
