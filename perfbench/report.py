"""Print every benchmark metric by name and unit, workload by workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload W ...]

For each workload it makes one untraced run (end-to-end metrics) and one
traced run (per-layer metrics) through run.py, then prints the seed and
the environment.  It checks that every metric named in BENCHMARK.json is
present, and exits non-zero when any metric is missing or any workload's
failed_share is above 0.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
from importlib import metadata

import run

LAYERS = os.path.join(run.HERE, "layers.json")


def _environment():
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": ", ".join(f"{k}={v}" for k, v in run.PINNED.items()
                                  if k.endswith("THREADS")),
        "git_commit": commit,
    }


def _expected():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench, ([m["name"] for m in bench["end_to_end"]],
                   [m["name"] for m in bench["per_layer"]])


def report(seed, seconds, workloads, out=sys.stdout):
    """Run and print; returns the list of problems found (empty if none)."""
    bench, (e2e_names, layer_names) = _expected()
    with open(LAYERS, encoding="utf-8") as fh:
        layers = json.load(fh)["metrics"]
    homes = {name: m["home"] for name, m in layers.items()}
    problems = []
    print(f"seed {seed}, {seconds} s per run", file=out)
    for key, value in _environment().items():
        print(f"  {key}: {value}", file=out)
    for workload in workloads:
        why = next(w["why"] for w in bench["workloads"]
                   if w["name"] == workload)
        print(f"\n== {workload}: {why}", file=out)
        for trace, names in ((0, e2e_names), (1, layer_names)):
            try:
                info, result = run.run(workload, seed, seconds, trace)
            except (run.RunError, OSError, ValueError, KeyError, IndexError,
                    subprocess.TimeoutExpired) as exc:
                problems.append(f"{workload} trace={trace}: {exc}")
                continue
            metrics = result["metrics"]
            for name in names:
                if name not in metrics:
                    problems.append(f"{workload}: metric {name} missing")
                    continue
                m = metrics[name]
                extra = ""
                if name == "latency_tail_ms":
                    extra = (f"  (p{info['tail_percentile']:.2f}, "
                             f"{info['tail_beyond']} of {info['samples']} "
                             f"samples beyond)")
                elif trace and homes.get(name) not in (workload, None):
                    extra = f"  (from one traced round of {homes[name]})"
                print(f"  {name:48s} {m['value']:14.6g} {m['unit']}{extra}",
                      file=out)
            if not trace:
                print(f"  {'(as measured, not at reference speed)':48s} "
                      f"{info['wall_items_per_s']:.6g} items/s, p50 "
                      f"{info['wall_latency_p50_ms']:.6g} ms, reference "
                      f"kernel {info['reference_ms']:.6g} ms", file=out)
            share = info["failed_share"]
            print(f"  {'failed_share' + (' (traced run)' if trace else ''):48s}"
                  f" {share:14.6g} ratio  ({result['failed']} of "
                  f"{result['attempted']} items)", file=out)
            if share > 0:
                problems.append(f"{workload} trace={trace}: failed_share "
                                f"{share:.4g}")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=out)
    return problems


def main(argv=None):
    bench, _ = _expected()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)
    return 1 if report(args.seed, args.seconds, args.workload or names) else 0


if __name__ == "__main__":
    sys.exit(main())
