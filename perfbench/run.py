"""finsym benchmark: one workload, one run.

    python3 perfbench/run.py --workload verify-table --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout of the repository and imports finsym
from its ``src`` directory.  Each workload runs in a fresh worker process
with BLAS pinned to one thread; the run's processes share one CPU.
Set-up time is measured from starting a worker to its ``READY`` line, in
SETUP_RUNS workers that stop there.
Timings are reported at reference speed (see ``common.reference_s``):
the host's speed swings with other tenants' load, so each item's time is
scaled by how fast a fixed kernel ran next to it, and the median set-up
time by the kernel's median time around the set-ups.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it, prefixed ``info:``, carries details such as the tail percentile and
the times as measured.
Exits non-zero, printing no result, when the run cannot be completed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from common import REFERENCE_S, reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-table", "fd-oracle", "cli-cold")
#: set-up-only workers per untraced run; the median is reported, so one
#: slow start does not move it
SETUP_RUNS = 7
#: reference kernels timed before each set-up and after the last
SETUP_REFERENCES = 5
#: how long set-up may take before the run is abandoned
SETUP_TIMEOUT_S = 60
#: time allowed beyond --seconds for a traced run's rounds of the other
#: workloads
EXTRA_TIMEOUT_S = 90
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class RunError(RuntimeError):
    pass


def _start(argv, env):
    """Start a worker and wait for READY; returns (process, set-up s)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             *argv], stdout=subprocess.PIPE, env=env,
                            text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup = perf_counter() - start
        if line.strip() != "READY":
            raise RunError("worker did not finish set-up")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup


def _finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def setup_times(argv, env):
    """Set-up times of SETUP_RUNS set-up-only workers, as measured, and the
    reference kernel's median time around them."""
    wall, refs = [], []
    for _ in range(SETUP_RUNS):
        refs += [reference_s() for _ in range(SETUP_REFERENCES)]
        proc, setup = _start(argv + ["--setup-only"], env)
        _finish(proc, SETUP_TIMEOUT_S)
        wall.append(setup)
    refs += [reference_s() for _ in range(SETUP_REFERENCES)]
    return wall, statistics.median(refs)


def run(workload, seed, seconds, trace):
    if not os.path.isdir(os.path.join(ROOT, "src", "finsym")):
        raise RunError(f"no finsym sources under {ROOT}/src")
    # this process, its workers and their children share one CPU, so that
    # the reference kernel and the work it scales run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, **PINNED)
    argv = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if not trace:
        wall, ref = setup_times(argv, env)
    proc, _ = _start(argv, env)
    out = _finish(proc, seconds + SETUP_TIMEOUT_S + EXTRA_TIMEOUT_S)
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    info = result["info"]
    if not trace:
        info["wall_setup_s"] = sorted(wall)
        info["setup_reference_ms"] = 1e3 * ref
        setup_s = statistics.median(wall) * REFERENCE_S / ref
        metrics = {name: {"value": value, "unit": unit} for name, value, unit in (
            ("setup_s", setup_s, "s"),
            ("items_per_s", metrics["items_per_s"], "1/s"),
            ("latency_p50_ms", metrics["latency_p50_ms"], "ms"),
            ("latency_tail_ms", metrics["latency_tail_ms"], "ms"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        )}
    attempted, failed = result["attempted"], result["failed"]
    info["failed_share"] = failed / attempted
    return info, {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        info, result = run(args.workload, args.seed, args.seconds, args.trace)
    except (RunError, OSError, ValueError, KeyError, IndexError,
            subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print("info: " + json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
