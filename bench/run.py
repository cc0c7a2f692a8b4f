"""nodalq benchmark: one workload per run, measured from outside the package.

Run from the repository root:

    python3 bench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Each run is a closed loop: one client, single-threaded in this process,
running the workload's jobs one after another.  Set-up (importing the
package, building the seeded inputs, parsing, building catalogs) is
repeated and reported as its median.  The timed
phase then runs whole passes over the jobs for about ``--seconds``
seconds, checking every answer.

With ``--trace 0`` the end-to-end metrics are reported: median pass wall
time, set-up time, peak resident memory and percentiles across the jobs
of their latency, each job's latency being its median over the passes.
With ``--trace 1`` the first variant runs a third of the time untraced
and the rest with wrappers around every layer, reporting per-layer
calls, counters and self time per pass plus the tracing overhead; traced
and untraced passes must give identical answers and traced passes
identical counts.

Every metric is printed as ``name value unit`` and the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the checkout holding this file;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# set-up runs at least SETUP_REPEATS times and for at least
# SETUP_SECONDS in all, so that its median spans more than one short
# burst of contention from other tenants of the machine
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
SPAN_DIR = ROOT / ".bench_out"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
)
LAYERS = (
    ("linalg.rref", ("calls", "self_s", "cells")),
    ("linalg.mul", ("calls", "self_s", "mac")),
    ("linalg.nullspace", ("calls", "self_s")),
    ("linalg.all_matrices", ("yielded", "self_s")),
    ("linalg.shape_ops", ("calls", "self_s")),
    ("quiver.lookup", ("calls", "self_s")),
    ("reps.hom_space", ("calls", "self_s", "unknowns")),
    ("reps.has_summand", ("calls", "hits", "self_s")),
    ("reps.has_simple_summand_at", ("calls", "hits", "self_s")),
    ("reps.check_relations", ("calls", "rejects", "self_s")),
    ("reps.enumerate", ("calls", "self_s")),
    ("reps.direct_sum", ("calls", "self_s")),
    ("reps.decompose", ("calls", "self_s")),
    ("reps.split_summand", ("calls", "self_s")),
    ("reps.induce", ("calls", "self_s")),
    ("reps.is_isomorphic", ("calls", "refused", "self_s")),
    ("construct.build_presentation", ("calls", "self_s")),
    ("construct.dimension", ("calls", "self_s", "total")),
    ("classify.classify", ("calls", "self_s")),
    ("dsl.parse_datum", ("calls", "self_s")),
    ("dsl.emit_presentation", ("calls", "self_s", "bytes")),
    ("cli.run_cli", ("calls", "self_s")),
)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{group}.{part}", "s" if part == "self_s" else "count")
           for group, parts in LAYERS for part in parts]
    for job in workloads.enumeration_jobs():
        out.append((f"reps.enumerate.examined.{job}", "count"))
        out.append((f"reps.enumerate.classes.{job}", "count"))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def import_program():
    """A fresh import of nodalq from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "nodalq" or m.startswith("nodalq.")]:
        del sys.modules[name]
    nq = importlib.import_module("nodalq")
    importlib.import_module("nodalq.cli")
    if Path(nq.__file__).resolve().parent != SRC / "nodalq":
        raise ImportError(f"nodalq was imported from {nq.__file__}, not from {SRC}")
    return nq


def set_up(workload, seed, workdir):
    times = []
    states = None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        states = None
        start = time.perf_counter()
        nq = import_program()
        states = workload.setup(nq, seed, workdir)
        times.append(time.perf_counter() - start)
    return nq, states, statistics.median(times)


def run_pass(state):
    results = []
    start = time.perf_counter()
    for name, thunk in state.jobs:
        t0 = time.perf_counter()
        try:
            answer = thunk()
        except Exception as e:  # a job that raises is a wrong answer, not a crash
            answer = workloads.Raised(type(e).__name__, str(e))
        results.append((name, time.perf_counter() - t0, answer))
    return time.perf_counter() - start, results


class Tally:
    """Pass walls, job latencies and graded answers of a phase.

    A job fails on a wrong answer, or on an answer that differs from the
    same job's answer in the run's first pass over the same variant."""

    def __init__(self, first=None) -> None:
        self.walls: list[float] = []
        self.jobs_ms: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.first = first if first is not None else {}

    def add(self, workload, states, variant, wall, results) -> None:
        answers = [answer for _, _, answer in results]
        before = self.first.setdefault(variant, answers)
        ok = workload.check(states[variant], results)
        self.walls.append(wall)
        for name, t, _ in results:
            self.jobs_ms.setdefault(name, []).append(t * 1e3)
        self.attempted += len(results)
        self.failed += sum(not (good and answer == prior)
                           for good, answer, prior in zip(ok, answers, before))


def run_passes(workload, states, seconds, min_passes, first=None, after_pass=None):
    """Whole passes, cycling through the variants, until the next pass
    would end past ``seconds``."""
    tally = Tally(first)
    start = time.perf_counter()
    while True:
        variant = len(tally.walls) % len(states)
        wall, results = run_pass(states[variant])
        if after_pass is not None:
            after_pass()
        tally.add(workload, states, variant, wall, results)
        elapsed = time.perf_counter() - start
        if (len(tally.walls) >= min_passes
                and elapsed + statistics.median(tally.walls) > seconds):
            return tally


def end_to_end(tally, setup_s):
    # a job's latency is its median over the passes, which damps bursts
    # of contention; the percentiles are taken across the jobs
    latencies = [statistics.median(times) for times in tally.jobs_ms.values()]
    return {
        "wall_s": statistics.median(tally.walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "job_ms.p50": statistics.median(latencies),
        "job_ms.p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
    }


def traced_run(workload, nq, state, seconds, tag):
    """Untraced passes, then traced ones, all over one variant; per-layer
    values per pass."""
    plain = run_passes(workload, [state], seconds / 3, 1)
    tracer = Tracer()
    snapshots = []

    def after_pass():
        snapshots.append(tracer.snapshot())
        tracer.reset()

    tracer.install(nq)
    try:
        traced = run_passes(workload, [state], 2 * seconds / 3, 2, plain.first, after_pass)
    finally:
        tracer.uninstall()
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write_spans(SPAN_DIR / f"spans-{tag}.tsv")

    counts = [{k: v for k, v in s.items() if not k.endswith(".self_s")}
              for s in snapshots]
    repeat = all(c == counts[0] for c in counts[1:])
    values = {}
    for name, _ in per_layer_metrics():
        if name.endswith(".self_s"):
            values[name] = statistics.median(s.get(name, 0.0) for s in snapshots)
        elif name.startswith("reps.enumerate.") and name.count(".") == 3:
            _, _, kind, job = name.split(".")
            examined, classes = state.enum_jobs.get(job, (0, 0))
            values[name] = examined if kind == "examined" else classes
        elif name != "trace.overhead_ratio":
            values[name] = counts[0].get(name, 0)
    values["trace.overhead_ratio"] = (
        statistics.median(traced.walls) / statistics.median(plain.walls))
    return (plain.attempted + traced.attempted, plain.failed + traced.failed,
            len(plain.walls) + len(traced.walls), values, repeat)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    try:
        with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as workdir:
            nq, states, setup_s = set_up(workload, args.seed, workdir)
            if args.trace:
                attempted, failed, passes, values, repeat = traced_run(
                    workload, nq, states[0], args.seconds, f"{args.workload}-{args.seed}")
                units = dict(per_layer_metrics())
            else:
                tally = run_passes(workload, states, args.seconds, 1)
                attempted, failed, passes = tally.attempted, tally.failed, len(tally.walls)
                values, units, repeat = end_to_end(tally, setup_s), dict(END_TO_END), True
    except ImportError as e:
        print(f"error: cannot import the program: {e}", file=sys.stderr)
        return 2
    checks = [ok for state in states for _, ok in state.setup_checks]
    attempted += len(checks)
    failed += checks.count(False)

    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(f"passes {passes} count")
    if args.trace:
        print(f"trace.counts_repeat {int(repeat)} bool")
    else:
        print(f"job_ms.samples {len(tally.jobs_ms)} jobs")
    print(f"error_rate {failed / attempted} ratio ({failed} of {attempted} jobs)")
    result = {
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
