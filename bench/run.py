"""Benchmark of idealreg: sweep throughput, item latency, set-up time and
memory on three workloads, and per-layer numbers from a traced pass.

    python3 bench/run.py --workload linforms-qq --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all

Run it from anywhere; it imports idealreg from the ``src/`` directory next
to ``bench/``.  With ``--trace 0`` it warms up on the first items, then
times passes over the workload's items while the next pass would end
within ``--seconds``, at least one pass.  With ``--trace 1`` it makes one
untraced and one traced pass over every third item and reports the
per-layer metrics.  Times are rescaled for the host's speed, measured by
a probe between items (see PROBE_LOOPS).  Every item is checked against a
known answer.  Human-readable lines come first; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 when every answer is right, 1 when
one is wrong or raised, and 2 when idealreg cannot be loaded.  A full
record of the run (environment, every metric, per-item latencies, and
the spans of a traced pass) is written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

from tracing import Tracer, cache_stats, clear_caches, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = [
    "betti", "chains", "cli", "fields", "graded", "ideals", "linalg",
    "linforms", "monomials", "parsing", "polymatroid", "quotients",
    "samplers",
]

# set-up (import plus input generation) is repeated and its median kept
SETUP_REPEATS = 5

# untimed items run before the first timed pass, for about this long
WARMUP_S = 1.0

# a traced run makes its two passes over every TRACE_STRIDE-th item, so that
# both fit in one run
TRACE_STRIDE = 3

# another timed pass starts only if it would end within --seconds even at
# this multiple of the last pass's wall time, as when the host slows down
NEXT_PASS_MARGIN = 1.5

# the tail latency is read at the highest percentile with this many items
# beyond it
TAIL_BEYOND = 10

# The host's speed drifts by up to half within seconds when other tenants
# load the machine.  A pass therefore times a fixed loop of PROBE_LOOPS
# steps of integer arithmetic (the probe) every PROBE_EVERY_S seconds,
# between items, and every time it reports is rescaled by PROBE_NOMINAL_S
# over the median probe time within PROBE_WINDOW_S of the timed interval: it
# reads as the time on a host where the probe takes PROBE_NOMINAL_S.  The
# probe uses no idealreg code, so a change to idealreg cannot move it.  The
# raw wall times are kept in the run's record.
PROBE_LOOPS = 30_000
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 1.0
PROBE_NOMINAL_S = 0.0025


def load_idealreg():
    """Import idealreg afresh from src/; a namespace of its modules."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == "idealreg" or m.startswith("idealreg.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"idealreg.{m}") for m in MODULES})


def input_hash(items):
    text = json.dumps([it.input for it in items], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class HostSpeed:
    """Probe times taken during a pass, and the scale they give."""

    def __init__(self):
        self.probes = []  # (midpoint, duration)

    def probe(self):
        perf = time.perf_counter
        t0 = perf()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i % 7
        t1 = perf()
        self.probes.append(((t0 + t1) / 2, t1 - t0))

    def maybe_probe(self):
        if not self.probes or (time.perf_counter() - self.probes[-1][0]
                               >= PROBE_EVERY_S):
            self.probe()

    def scale(self, t0, t1):
        """PROBE_NOMINAL_S over the median probe near [t0, t1]."""
        near = [d for t, d in self.probes
                if t0 - PROBE_WINDOW_S <= t <= t1 + PROBE_WINDOW_S]
        return PROBE_NOMINAL_S / statistics.median(near)


def setup(workload, seed):
    """Import and generate SETUP_REPEATS times; the last copy is used.
    Returns the set-up times, rescaled by probes around each set-up."""
    times, hashes = [], set()
    speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        for _ in range(3):
            speed.probe()
        t0 = time.perf_counter()
        ir = load_idealreg()
        items = workload.generate(ir, seed)
        t1 = time.perf_counter()
        for _ in range(3):
            speed.probe()
        times.append((t1 - t0) * speed.scale(t0, t1))
        hashes.add(input_hash(items))
    if len(hashes) != 1:
        raise RuntimeError("the same seed generated different inputs")
    return ir, items, times


def warm_up(ir, workload, items):
    """Run items untimed and unchecked for about WARMUP_S."""
    end = time.perf_counter() + WARMUP_S
    for item in items:
        if time.perf_counter() >= end:
            break
        try:
            workload.run(ir, item)
        except (Exception, SystemExit):  # the timed pass reports it
            pass


def run_pass(ir, workload, items, tracer=None):
    """One cold pass over the items: latencies rescaled by the host's speed
    (and the raw wall times), answers, failure reasons."""
    clear_caches(ir)
    gc.collect()
    spans, answers, errors = [], [], []
    speed = HostSpeed()
    perf = time.perf_counter
    start = perf()
    for k, item in enumerate(items):
        speed.maybe_probe()
        t0 = perf()
        try:
            if tracer is None:
                answer = workload.run(ir, item)
            else:
                answer = tracer.run_item(k, workload.run, ir, item)
            reason = workload.check(item, answer)
        except (Exception, SystemExit) as exc:  # a raising item is a failure
            answer, reason = None, f"{type(exc).__name__}: {exc}"
        spans.append((t0, perf()))
        answers.append(answer)
        errors.append(reason)
    wall_seconds = perf() - start
    speed.probe()
    latencies = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans]
    return SimpleNamespace(seconds=sum(latencies), wall_seconds=wall_seconds,
                           latencies=latencies,
                           wall_latencies=[t1 - t0 for t0, t1 in spans],
                           answers=answers, errors=errors,
                           caches=cache_stats(ir))


def tail(values):
    """(percentile, value): the highest whole percentile that has at least
    TAIL_BEYOND values beyond it."""
    s = sorted(values)
    n = len(s)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, s[rank - 1]
    return 0, s[0]


def environment(ir, args, items):
    rat = ir.fields._rat
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "idealreg_version": sys.modules["idealreg"].__version__,
        "rational_backend": f"{rat.__module__}.{rat.__qualname__}",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": len(items),
        "input_sha256": input_hash(items),
    }


def failures(args, items, passes):
    """One line per failed item run, and per answer that differs from the
    first pass's, each with the seed and the item's input."""
    bad = []
    for p, rec in enumerate(passes):
        for k, reason in enumerate(rec.errors):
            if reason is None and rec.answers[k] != passes[0].answers[k]:
                reason = "answer differs from pass 0"
            if reason is not None:
                bad.append((p, k, reason))
    return [f"FAIL seed={args.seed} pass {p} item {k} ({items[k].label}): "
            f"{reason}\n  input: {json.dumps(items[k].input, sort_keys=True)}"
            for p, k, reason in bad]


def end_to_end(items, passes, setup_times):
    n = len(items)
    per_item = [statistics.median(rec.latencies[k] for rec in passes)
                for k in range(n)]
    pct, tail_value = tail(per_item)
    return {
        "items_per_s": (statistics.median(n / rec.seconds for rec in passes),
                        f"median of {len(passes)} passes of {n} items"),
        "item_p50_ms": (1000 * statistics.median(per_item), f"{n} items"),
        "item_tail_ms": (1000 * tail_value, f"p{pct} of {n} items, "
                         f"{n - math.ceil(pct * n / 100)} beyond"),
        "setup_s": (statistics.median(setup_times),
                    f"median of {len(setup_times)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "1 process"),
    }


def per_layer(ir, workload, items, args):
    untraced = run_pass(ir, workload, items)
    tracer = Tracer()
    tracer.install(ir)
    try:
        origin = time.perf_counter()
        traced = run_pass(ir, workload, items, tracer)
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(
        os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"), origin)
    metrics = layer_metrics(tracer, traced.caches, traced.seconds,
                            untraced.seconds)
    # span times are wall times: rescale them as the pass was rescaled
    scale = traced.seconds / sum(traced.wall_latencies)
    for name in metrics:
        if name.endswith(".self_s"):
            metrics[name] *= scale
    return [untraced, traced], metrics


def run_all(args):
    """Run every workload in its own process, one after the other."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        code = max(code, proc.returncode)
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isdir(os.path.join(SRC, "idealreg")):
        print(f"idealreg sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ir, items, setup_times = setup(workload, args.seed)
    env = environment(ir, args, items)

    if args.trace:
        items = items[::TRACE_STRIDE]
        passes, layer = per_layer(ir, workload, items, args)
        metrics = {k: (v, "1 traced pass") for k, v in layer.items()}
    else:
        warm_up(ir, workload, items)
        start = time.perf_counter()
        passes = [run_pass(ir, workload, items)]
        while (time.perf_counter() - start
               + NEXT_PASS_MARGIN * passes[-1].wall_seconds <= args.seconds):
            passes.append(run_pass(ir, workload, items))
        metrics = end_to_end(items, passes, setup_times)

    fails = failures(args, items, passes)
    attempted = len(items) * len(passes)
    failed = len(fails)
    for line in fails:
        print(line, file=sys.stderr)
    if not args.trace:
        metrics["error_rate"] = (failed / attempted,
                                 f"{failed} of {attempted} item runs")

    spec = benchmark_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["error_rate"] = "ratio"
    print(f"idealreg benchmark: {args.workload}, seed {args.seed}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, (value, samples) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} ({samples})")
    print("passes, rescaled / wall seconds: " + ", ".join(
        f"{rec.seconds:.3f} / {rec.wall_seconds:.3f}" for rec in passes))

    os.makedirs(OUT, exist_ok=True)
    record = {
        "environment": env, "attempted": attempted, "failed": failed,
        "failures": fails,
        "metrics": {k: v[0] for k, v in metrics.items()},
        "passes": [{"seconds": rec.seconds, "wall_seconds": rec.wall_seconds}
                   for rec in passes],
        "items": [{"label": it.label,
                   "latency_s": [rec.latencies[k] for rec in passes],
                   "wall_latency_s": [rec.wall_latencies[k] for rec in passes]}
                  for k, it in enumerate(items)],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
              for m in spec[kind]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


def benchmark_spec():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
