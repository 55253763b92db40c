"""Smoke test of the benchmark itself, on a small slice of every workload.

    python3 bench/selftest.py

For each workload it checks that

* the same seed generates the same inputs (the same hash, across fresh
  imports of idealreg) and another seed other inputs;
* an untraced pass over the slice gives no failures, and a traced pass
  gives the same answers, patches the names other modules imported by
  name, reports every per-layer metric of BENCHMARK.json and keeps the
  layer isolation of the workload;
* the known-answer gate trips on a wrong answer injected into idealreg,
  and reports the seed and the input.

It also checks that the benchmark exits with code 2 and prints no result
where the idealreg sources are missing.  Exits 1 at the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5

# a few cheap items of each workload
SLICES = {
    "linforms-qq": lambda it: it.input["nvars"] <= 3,
    "monomial-betti": lambda it: it.label.startswith(("plane", "chain n3")),
    "certificates": lambda it: it.label in (
        "poly bin0", "poly bin1", "search bin0", "chain n6 t311",
        "chain n6 t33"),
}

# names bound by `from module import name`, which tracing must patch too
BY_NAME = [("betti", "degree_piece"), ("betti", "quotient_basis"),
           ("linforms", "degree_piece"), ("chains", "check_order"),
           ("polymatroid", "check_order")]

# layer metric -> value every traced pass of the workload must show
ISOLATION = {
    "certificates": {"linalg.calls": 0, "graded.calls": 0, "betti.calls": 0},
    "monomial-betti": {"graded.degree_piece.calls": 0, "betti.strand.calls": 0,
                       "betti.tables_per_result": 2},
}


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)
    print(f"  ok  {what}")


def inject_wrong_answer(ir, name):
    """Make idealreg answer wrongly for the workload; returns an undo."""
    if name == "certificates":
        mod, attr = ir.quotients, "verify_certificate"
        wrong = lambda cert: False  # noqa: E731
    else:
        mod, attr = ir.betti, "regularity"
        right = ir.betti.regularity

        def wrong(I, cap=None):
            res = right(I, cap)
            return dataclasses.replace(res, value=res.value + 1)

    original = getattr(mod, attr)
    setattr(mod, attr, wrong)
    return lambda: setattr(mod, attr, original)


def check_workload(name, spec):
    print(name)
    wl = WORKLOADS[name]
    ir = run.load_idealreg()
    items = wl.generate(ir, SEED)
    again = wl.generate(run.load_idealreg(), SEED)
    other = wl.generate(run.load_idealreg(), SEED + 1)
    expect(run.input_hash(items) == run.input_hash(again),
           "same seed, same input hash across imports")
    expect(run.input_hash(items) != run.input_hash(other),
           "another seed, another input hash")

    ir = run.load_idealreg()
    items = [it for it in wl.generate(ir, SEED) if SLICES[name](it)]
    untraced = run.run_pass(ir, wl, items)
    expect(items and not any(untraced.errors),
           f"untraced pass over {len(items)} items passes the gate")

    tracer = Tracer()
    tracer.install(ir)
    try:
        expect(all(hasattr(getattr(getattr(ir, m), a), "__wrapped__")
                   for m, a in BY_NAME), "by-name imports are traced")
        traced = run.run_pass(ir, wl, items, tracer)
    finally:
        tracer.uninstall()
    expect(not any(hasattr(getattr(getattr(ir, m), a), "__wrapped__")
                   for m, a in BY_NAME), "uninstall restores the originals")
    expect(traced.answers == untraced.answers,
           "traced pass gives the untraced answers")
    metrics = layer_metrics(tracer, traced.caches, traced.seconds,
                            untraced.seconds)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in metrics]
    expect(not missing, f"every per-layer metric is reported {missing or ''}")
    for metric, value in ISOLATION.get(name, {}).items():
        expect(metrics[metric] == value, f"{metric} = {value}")

    undo = inject_wrong_answer(ir, name)
    try:
        broken = run.run_pass(ir, wl, items)
    finally:
        undo()
    args = type("Args", (), {"seed": SEED})
    lines = run.failures(args, items, [broken])
    expect(any(broken.errors), "gate trips on an injected wrong answer")
    expect(all(f"seed={SEED}" in ln and "input:" in ln for ln in lines),
           "failures name the seed and the input")


def check_missing_sources(spec):
    print("missing sources")
    where = os.path.join(run.OUT, "selftest-no-src")
    shutil.rmtree(where, ignore_errors=True)
    os.makedirs(where)
    with open(os.path.join(where, "BENCHMARK.json"), "w") as fh:
        json.dump(spec, fh)
    shutil.copytree(run.BENCH, os.path.join(where, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certificates",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=where, capture_output=True, text=True, timeout=180)
    shutil.rmtree(where)
    expect(proc.returncode == 2 and not proc.stdout,
           "exit code 2 and no result without src/")


def main():
    spec = run.benchmark_spec()
    try:
        for name in WORKLOADS:
            check_workload(name, spec)
        check_missing_sources(spec)
    except CheckFailed as exc:
        print(f"  FAILED  {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
