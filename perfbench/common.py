"""Pieces shared by the workload modules: items, workloads, tree counts."""
from __future__ import annotations

import gc
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

#: root of the checkout the benchmark runs in
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: everything the benchmark writes goes below this ignored directory
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")
#: a directory private to this process; the worker removes it at exit
PROCESS_SCRATCH = os.path.join(SCRATCH, f"proc-{os.getpid()}")


@dataclass
class Item:
    """One timed unit of work.

    ``run(tracer)`` returns True when the result matches the known answer
    written in the benchmark; an exception also counts as a failure.
    """
    id: str
    run: Callable


@dataclass
class Workload:
    name: str
    items: list = field(default_factory=list)
    #: items run once during set-up so that lazy imports and first-call
    #: costs are paid before timing starts: the first item of each kind
    warmup: list = field(default_factory=list)
    #: traced-only calls into the expression engine (and, for cli-cold,
    #: the start-up probes), run after every traced round
    probe: Callable | None = None
    #: objects recorded by items during the counting round, for the probe
    seen: dict = field(default_factory=dict)

    def add(self, kind: str, k: int, run: Callable, warm: bool = True):
        item = Item(f"{self.name}/{kind}-{k}", run)
        prefix = f"{self.name}/{kind}-"
        if warm and not any(w.id.startswith(prefix) for w in self.warmup):
            self.warmup.append(item)
        self.items.append(item)


#: seconds one :func:`reference_s` kernel typically took on the development
#: host (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6); it only sets the
#: scale of the reported times
REFERENCE_S = 4e-4
_REF_X = np.linspace(0.5, 2.0, 50)


def reference_s() -> float:
    """Wall time of a fixed kernel that runs no finsym code.

    The host's speed swings by up to 2x within seconds with other tenants'
    load, and CPU time swings with it, so timings are reported at
    reference speed: each raw time is scaled by ``REFERENCE_S`` over the
    kernel's time measured next to it.  The kernel mixes interpreter work
    with small numpy calls, as the workloads do.  The garbage collector is
    held off while it runs, so that it never pays for collecting the
    garbage of the item before it.
    """
    gc.disable()
    try:
        start = perf_counter()
        acc, table = 0.0, {}
        for i in range(1500):
            table[i % 31] = acc
            acc += (i * 0.5) % 7.0
        y = _REF_X
        for _ in range(20):
            y = np.exp(-y) * y + 0.5
        return perf_counter() - start
    finally:
        gc.enable()


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Independent stream per workload, reproducible from the seed."""
    return np.random.default_rng([seed, sum(map(ord, name))])


def tree_counts(roots) -> tuple[int, int]:
    """(nodes counted as a tree, distinct node objects) below ``roots``."""
    size: dict = {}
    stack = [(r, False) for r in roots]
    while stack:  # iterative post-order: derivative trees can be deep
        e, expanded = stack.pop()
        if expanded:
            size[id(e)] = 1 + sum(size[id(c)] for c in e.children())
        elif id(e) not in size:
            stack.append((e, True))
            stack.extend((c, False) for c in e.children())
    return sum(size[id(r)] for r in roots), len(size)


def close(got, want, rel) -> bool:
    """Elementwise |got - want| <= rel * (1 + |want|), all finite."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return bool(np.all(np.isfinite(got)) and np.all(np.isfinite(want))
                and np.all(np.abs(got - want) <= rel * (1.0 + np.abs(want))))


def r3(rng, lo, hi) -> float:
    """A uniform draw rounded to three decimals, so specs print tidily."""
    return round(float(rng.uniform(lo, hi)), 3)
