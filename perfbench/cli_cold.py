"""cli-cold: one `python -m finsym.cli <subcommand>` process per item.

A call costs about 0.3 s, almost all of it interpreter start-up and the
numpy and finsym imports, so start-up and import changes show here and
nowhere else.  Items cycle through all nine subcommands on equation files
written during set-up; each checks the exit code and the output fields
against answers written here, and repeated calls must print the same
bytes as the first call.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

from common import PROCESS_SCRATCH, ROOT, Workload, r3, rng_for
from verify_table import EXPECTED_DIM, TABLE, case4_amplitude

NAME = "cli-cold"
#: a cold call that has not exited after this long counts as failed
CALL_TIMEOUT_S = 60


def build(seed: int) -> Workload:
    rng = rng_for(seed, NAME)
    os.makedirs(PROCESS_SCRATCH, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    wl = Workload(NAME)
    first_output: dict = {}

    def write(name, doc):
        path = os.path.join(PROCESS_SCRATCH, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def command(kind, argv, check):
        def run(tr):
            proc = subprocess.run(
                [sys.executable, "-m", "finsym.cli", *argv], env=env,
                capture_output=True, timeout=CALL_TIMEOUT_S)
            if proc.returncode != 0:
                return False
            # seeded calls are byte-identical across repeats
            if first_output.setdefault(kind, proc.stdout) != proc.stdout:
                return False
            return check(proc.stdout.decode())
        # nothing in-process to warm: every call is a fresh interpreter
        wl.add(kind, 0, run, warm=False)
        wl.seen.setdefault("argv", []).append(argv)

    cli_seed = str(int(rng.integers(0, 2 ** 31 - 1)))
    n, q = r3(rng, 0.5, 2.0), r3(rng, 0.5, 2.0)
    case4 = write("case4.json", {"D": {"family": "power_u", "n": n},
                                 "h": {"family": "power_x", "q": q,
                                       "eps": -1}})

    def classify_ok(out):
        doc = json.loads(out)
        return (doc["case"] == 4 and len(doc["basis"]) == 2
                and doc["params"] == {"n": n, "q": q, "eps": -1})
    command("classify", ["classify", "--eq", case4, "--json",
                         "--seed", cli_seed], classify_ok)

    row = int(rng.integers(0, len(TABLE)))
    case, d, h, _ = TABLE[row]
    table_row = write("row.json", {"D": d, "h": h})
    command("symmetries", ["symmetries", "--eq", table_row, "--json",
                           "--seed", cli_seed],
            lambda out: len(json.loads(out)["basis"]) == EXPECTED_DIM[case])

    field = f"{-q * n!r}*t;{n!r}*x;{q + 2.0!r}*u"  # the case-4 scaling
    command("verify-symmetry",
            ["verify-symmetry", "--eq", case4, f"--field={field}", "--json",
             "--seed", cli_seed],
            lambda out: json.loads(out)["passed"] is True)

    q6 = r3(rng, 0.5, 3.0)
    case6p0 = write("case6p0.json", {
        "D": {"family": "power_u", "n": -4.0 / 3.0},
        "h": {"family": "h1", "p": 0, "q": q6, "eps": 1}})

    def transform_ok(out):
        doc = json.loads(out)
        return doc["target_case"] == 5 and doc["classified_case"] == 5
    command("transform", ["transform", "--eq", case6p0, "--map", "6p0-to-5",
                          "--json", "--seed", cli_seed], transform_ok)

    def reduce_ok(out):
        doc = json.loads(out)
        return doc["label"] == "4.1" and doc["case"] == 4
    command("reduce", ["reduce", "--eq", case4, "--sub", "1", "--json",
                       "--seed", cli_seed], reduce_ok)

    n5 = r3(rng, 0.5, 2.0)
    case5 = write("case5.json", {"D": {"family": "power_u", "n": n5},
                                 "h": {"family": "exp_x", "eps": -1}})

    def exact_ok(out):
        doc = json.loads(out)
        return doc["case"] == 5 and doc["max_residual"] <= 1e-10
    command("exact", ["exact", "--eq", case5, "--json", "--seed", cli_seed],
            exact_ok)

    const_h = write("consth.json", {
        "D": {"family": "power_u", "n": r3(rng, 0.5, 2.0)},
        "h": {"family": "constant", "c": r3(rng, 0.5, 2.0)}})

    def conserve_ok(out):
        doc = json.loads(out)
        return doc["count"] == 2 and all(law["divergence_ok"]
                                         for law in doc["laws"])
    command("conserve", ["conserve", "--eq", const_h, "--json",
                         "--seed", cli_seed], conserve_ok)

    # steady state u = c x^a of case 4 on [1, 2]; 300 steps stored as 11
    # levels of m nodes
    c, a, m = case4_amplitude(n, q), (q + 2.0) / n, 41
    dx = 1.0 / (m - 1)
    dt = 0.5 * 0.45 * dx * dx / max(c ** n, (c * 2.0 ** a) ** n)

    def simulate_ok(out):
        lines = out.splitlines()
        if lines[0] != "t,x,u" or len(lines) != 1 + 11 * m:
            return False
        last = np.array([[_csv_float(v) for v in line.split(",")]
                         for line in lines[-m:]])
        err = np.max(np.abs(last[:, 2] - c * last[:, 1] ** a))
        return bool(err <= 0.5 * dx * dx * c * 2.0 ** a)
    command("simulate", ["simulate", "--eq", case4, "--initial",
                         f"{c!r}*x^{a!r}", "--left", repr(c),
                         "--right", repr(c * 2.0 ** a), "--xa", "1",
                         "--xb", "2", "--m", str(m), "--t-final",
                         repr(300 * dt), "--dt", repr(dt)], simulate_ok)

    big_c = r3(rng, 0.5, 3.0)
    nonclassical = write("nonclassical.json", {
        "D": {"family": "power_u", "n": -1}, "h": {"expr": "x"}})
    command("residual", ["residual", "--eq", nonclassical, "--solution",
                         f"{big_c!r}*exp(t*x)", "--json", "--seed", cli_seed],
            lambda out: json.loads(out)["max_residual"] <= 1e-10)

    wl.probe = lambda tr: _probe(tr, env, wl.seen["argv"])
    return wl


def _csv_float(text):
    """A CSV field as a float.

    ``Field.to_csv`` writes ``repr`` of numpy scalars, which numpy 2
    prints as ``np.float64(...)``; both forms are read so that the values
    are still checked.
    """
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _probe(tr, env, argvs):
    """Cold-start floors from outside, then each command in-process."""
    for name, code in (("cli.interpreter", "pass"),
                       ("cli.numpy_import", "import numpy"),
                       ("cli.import", "import finsym")):
        with tr.span(name):
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           timeout=CALL_TIMEOUT_S)
    from finsym.cli import main
    for argv in argvs:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), tr.span("cli.main_inprocess"):
            main(argv)
