"""Smoke check of the benchmark itself: every workload at its smallest size.

    python3 perfbench/smoke.py

Runs each workload for one second (one round of its item list), untraced
and traced, and fails unless every metric named in BENCHMARK.json is
present and no item failed.
"""
from __future__ import annotations

import sys

import report

if __name__ == "__main__":
    problems = report.report(seed=7, seconds=1,
                             workloads=report.run.WORKLOADS)
    print("smoke: FAIL" if problems else "smoke: ok")
    sys.exit(1 if problems else 0)
