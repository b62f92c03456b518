"""One workload in one fresh process; started by run.py.

Set-up (imports, input generation, warm-up) ends with a line ``READY``
on stdout, which run.py times.  The timed phase is a closed loop with one
caller: it runs whole rounds of the workload's fixed item list until
``--seconds`` have passed, then prints one JSON line with its figures.
The reference kernel of ``common.reference_s`` runs between items, and
each item's latency is reported at reference speed.
With ``--trace 1`` the first half of the time runs untraced and the
second half traced; one traced round of each other workload follows, so
that every per-layer metric is present, and the spans are written to a
trace file from which the per-layer figures are computed.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import traceback
from time import perf_counter

from common import (PROCESS_SCRATCH, REFERENCE_S, ROOT, SCRATCH,
                    reference_s)
from spans import OFF, Tracer, load_profile

MODULES = {"verify-table": "verify_table", "fd-oracle": "fd_oracle",
           "cli-cold": "cli_cold"}
#: latency samples beyond the reported tail percentile
TAIL_BEYOND = 10
#: a run's rounds are split into this many blocks of consecutive rounds,
#: and a latency sample is one item's median over one block: a stall of
#: the host must hit most of an item's runs in a block to move the tail,
#: and every run of at least BLOCKS rounds has the same sample count.
#: Twice TAIL_BEYOND, so that when one item is much slower than the rest
#: the tail falls amid its samples rather than on the largest of the others
BLOCKS = 20
LAYERS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "layers.json")


def _import_finsym():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import finsym
    src = os.path.join(ROOT, "src", "finsym")
    if os.path.dirname(os.path.abspath(finsym.__file__)) != src:
        raise ImportError(f"finsym imported from {finsym.__file__}, "
                          f"not from {src}")


class Round:
    """Latencies of the rounds run so far in one phase, with outcomes."""

    def __init__(self):
        #: one list of item latencies per round, at reference speed
        self.passes: list = []
        #: the same latencies as measured, and the reference kernel's times
        self.raw: list = []
        self.reference: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def typical(self):
        """Each item's median latency over the rounds, in item-list order."""
        return [median(lat) for lat in zip(*self.passes)]

    def samples(self):
        """Each item's median latency over each block of rounds."""
        n = len(self.passes)
        blocks = min(BLOCKS, n)
        edges = [round(k * n / blocks) for k in range(blocks + 1)]
        return [median(lat) for lo, hi in zip(edges, edges[1:])
                for lat in zip(*self.passes[lo:hi])]


def run_round(wl, tr, tally: Round):
    latencies, raw = [], []
    before = reference_s()
    tally.reference.append(before)
    for item in wl.items:
        tr.item = item.id
        start = perf_counter()
        try:
            with tr.span("item"):
                good = bool(item.run(tr))
            problem = f"{item.id}: wrong answer"
        except Exception:  # a raising item is a failed item; keep going
            good = False
            problem = f"{item.id}: {traceback.format_exc()}"
        elapsed = perf_counter() - start
        after = reference_s()
        tally.reference.append(after)
        raw.append(elapsed)
        latencies.append(elapsed * REFERENCE_S / (0.5 * (before + after)))
        before = after
        tally.attempted += 1
        if not good:
            tally.failed += 1
            if len(tally.errors) < 5:
                tally.errors.append(problem)
    tally.passes.append(latencies)
    tally.raw.append(raw)


def run_for(wl, tr, seconds, tally, after_round=None):
    start = perf_counter()
    while True:
        run_round(wl, tr, tally)
        tr.counting = False
        if after_round is not None:
            tr.item = f"{wl.name}/probe"
            after_round(tr)
        if perf_counter() - start >= seconds:
            return perf_counter() - start


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it; the slowest when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def end_to_end(name, tally, elapsed):
    """Figures at reference speed (see ``common.reference_s``).

    Throughput is one round of each item at its median latency; the
    median and the tail are taken over the latency samples of
    ``Round.samples``.
    """
    typical, samples = tally.typical(), tally.samples()
    tail_s, pct, beyond = tail(samples)
    correct = 1.0 - tally.failed / tally.attempted
    usage = resource.getrusage(resource.RUSAGE_CHILDREN
                               if name == "cli-cold" else
                               resource.RUSAGE_SELF)
    metrics = {
        "items_per_s": len(typical) * correct / sum(typical),
        "latency_p50_ms": 1e3 * median(samples),
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    raw = [lat for one in tally.raw for lat in one]
    info = {"tail_percentile": pct, "tail_beyond": beyond,
            "samples": len(samples), "rounds": len(tally.passes),
            "elapsed_s": elapsed,
            "wall_items_per_s": len(raw) * correct / sum(raw),
            "wall_latency_p50_ms": 1e3 * median(raw),
            "reference_ms": 1e3 * median(tally.reference)}
    return metrics, info


def per_layer(path, home, overhead):
    with open(LAYERS, encoding="utf-8") as fh:
        how = json.load(fh)["metrics"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        named = json.load(fh)["per_layer"]
    totals, counts = load_profile(path)

    def pick(table, key, metric_home):
        # the run's own workload first, then the metric's home workload
        for workload in (home, metric_home):
            if (workload, key) in table:
                return workload, table[(workload, key)]
        raise KeyError(f"no {key!r} recorded in the trace")

    out = {}
    for metric in named:
        spec = how[metric["name"]]
        stat = spec["stat"]
        if stat == "trace_overhead":
            value = overhead
        elif stat == "count":
            _, value = pick(counts, spec["counter"], spec["home"])
        else:
            workload, entry = pick(totals, spec["span"], spec["home"])
            per_call_ms = entry["self_ms"] / entry["calls"]
            if stat == "us_per_call":
                value = 1e3 * per_call_ms
            elif stat == "ms_per_call":
                value = per_call_ms
            elif stat == "us_per_work":
                value = 1e3 * entry["self_ms"] / entry["work"]
            elif stat == "self_share":
                value = entry["self_ms"] / totals[(workload, "item")]["total_ms"]
            elif stat == "ms_above_interpreter":
                _, floor = pick(totals, "cli.interpreter", spec["home"])
                value = per_call_ms - floor["self_ms"] / floor["calls"]
            else:
                raise ValueError(f"unknown stat {stat!r}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def set_up(workload, seed):
    """Build the workload's inputs from the seed and run its warm-up."""
    wl = importlib.import_module(MODULES[workload]).build(seed)
    for item in wl.warmup:
        try:
            item.run(OFF)
        except Exception:  # counted when the timed phase meets it
            pass
    return wl


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_finsym()
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        wl = set_up(args.workload, args.seed)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        result = {"workload": args.workload, "seed": args.seed}
        if not args.trace:
            tally = Round()
            elapsed = run_for(wl, OFF, args.seconds, tally)
            result["metrics"], result["info"] = end_to_end(
                args.workload, tally, elapsed)
        else:
            plain, traced, coverage = Round(), Round(), Round()
            run_for(wl, OFF, args.seconds / 2, plain)
            tr = Tracer()
            tr.counting = True
            run_for(wl, tr, args.seconds / 2, traced, wl.probe)
            for other in sorted(MODULES):
                if other != args.workload:
                    owl = set_up(other, args.seed)
                    tr.counting = True
                    run_for(owl, tr, 0.0, coverage, owl.probe)
            path = os.path.join(
                SCRATCH, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tr.write(path)
            # the same item list, traced against untraced
            overhead = sum(traced.typical()) / sum(plain.typical()) - 1.0
            tally = Round()
            for part in (plain, traced, coverage):
                tally.attempted += part.attempted
                tally.failed += part.failed
                tally.errors += part.errors
            result["metrics"] = per_layer(path, args.workload, overhead)
            result["info"] = {"trace_file": os.path.relpath(path, ROOT)}
        result["attempted"] = tally.attempted
        result["failed"] = tally.failed
        for err in tally.errors:
            print(err, file=sys.stderr)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(PROCESS_SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
