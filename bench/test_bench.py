"""Tests of the benchmark itself: generators, oracles, checker, tracer.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import data  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def nq():
    return run.import_program()


def _shape(d):
    return (len(d.vertices), len(d.arrows), len(d.glues), len(d.blows),
            oracles.dimension_law(d), oracles.presentation_shape(d))


def test_relabel_is_deterministic_per_seed():
    for name in data.CORPUS:
        d = data.corpus(name)
        a = data.relabel(d, random.Random(7))
        b = data.relabel(d, random.Random(7))
        c = data.relabel(d, random.Random(8))
        assert a == b
        assert data.to_text(a[0]) != data.to_text(c[0])


def test_relabel_keeps_counts_across_seeds():
    items = workloads.algebra_items()
    for seed in range(5):
        rng = random.Random(seed)
        for _, d, _ in items:
            relabelled, _, _ = data.relabel(d, rng)
            assert _shape(relabelled) == _shape(d)


def test_program_answers_do_not_depend_on_the_seed(nq):
    for seed in range(3):
        rng = random.Random(seed)
        d, _, _ = data.relabel(data.corpus("except_100"), rng)
        pres = workloads._presentation(nq, d)
        r = nq.enumerate_indecomposables(pres, nq.GF(2), 5, budget=64, method="closure")
        assert (r.count, r.examined) == (15, 456)
        for (_, d, verdict) in workloads.algebra_items():
            if verdict[0] == 0:
                relabelled, _, _ = data.relabel(d, rng)
                text = data.to_text(relabelled)
                assert nq.classify(nq.parse_datum(text)).verdict == verdict[1]


def test_frozen_counts_agree_between_methods(nq):
    # the counts not frozen by the test suite must agree between scan and
    # closure at a bound both reach
    cases = (("super_00", 2, 4, 28), ("blown_chain", 2, 4, 11),
             ("kronecker_glue", 3, 4, 15))
    for dataset, p, bound, want in cases:
        pres = workloads._presentation(nq, data.corpus(dataset))
        got = {method: nq.enumerate_indecomposables(
            pres, nq.GF(p), bound, budget=64, method=method).count
            for method in ("scan", "closure")}
        assert got == {"scan": want, "closure": want}


def test_interval_oracle_counts_classes():
    # A2 up to total 2: S_x, S_y, S_x^2, S_y^2, S_x+S_y and the interval xy
    assert oracles.count_iso_classes("a2", 2) == 6
    # with the two simples identified, S_x + S_y and S_x^2 coincide
    assert oracles.count_iso_classes("a2", 2, ("x", "y")) == 3
    mult = oracles.interval_multiplicities(
        "zigzag", {"x": 1, "m": 1, "y": 1}, {"a": [[1]], "b": [[1]]}, 2)
    assert mult == {"x": 0, "m": 0, "y": 0, "xm": 0, "my": 0, "xmy": 1}


def test_checker_raises_error_rate_on_a_wrong_expected_value(nq):
    work = workloads.Workload(
        "tiny", "", workloads._catalog_setup("closure", (("except_100", 2, 4, 14),), 64),
        workloads._catalog_check)
    states = work.setup(nq, 1, None)
    tally = run.Tally()
    tally.add(work, states, 0, *run.run_pass(states[0]))
    assert (tally.attempted, tally.failed) == (1, 1)

    right = workloads.Workload(
        "tiny", "", workloads._catalog_setup("closure", (("except_100", 2, 4, 13),), 64),
        workloads._catalog_check)
    states = right.setup(nq, 1, None)
    tally = run.Tally()
    tally.add(right, states, 0, *run.run_pass(states[0]))
    assert (tally.attempted, tally.failed) == (1, 0)


def test_algebra_checker_rejects_a_wrong_dimension(nq, tmp_path):
    state = workloads.WORKLOADS["algebra"].setup(nq, 3, str(tmp_path))[0]
    keep = [k for k, (name, _) in enumerate(state.jobs)
            if name.startswith("corpus-") and name.endswith("-dimension")]
    state.jobs = [state.jobs[k] for k in keep]
    state.extra["expected"] = [state.extra["expected"][k] for k in keep]
    _, results = run.run_pass(state)
    assert all(workloads._algebra_check(state, results))
    cmd, (code, value) = state.extra["expected"][0]
    state.extra["expected"][0] = (cmd, (code, value + 1 if code == 0 else value))
    ok = workloads._algebra_check(state, results)
    assert ok.count(False) == (1 if code == 0 else 0)


def test_traced_answers_match_and_counts_repeat(nq, tmp_path):
    for name in ("algebra", "closure"):
        work = workloads.WORKLOADS[name]
        if name == "closure":
            work = workloads.Workload(
                "small", "", workloads._catalog_setup(
                    "closure", (("except_100", 2, 5, 15), ("super_00", 2, 4, 28)), 64),
                workloads._catalog_check)
        state = work.setup(nq, 5, str(tmp_path))[0]
        _, plain = run.run_pass(state)
        tracer = Tracer()
        tracer.install(nq)
        try:
            counts = []
            for _ in range(2):
                _, traced = run.run_pass(state)
                assert [a for _, _, a in traced] == [a for _, _, a in plain]
                snap = tracer.snapshot()
                counts.append({k: v for k, v in snap.items() if not k.endswith("self_s")})
                tracer.reset()
        finally:
            tracer.uninstall()
        assert counts[0] == counts[1]
        assert any(v for v in counts[0].values())
        # every recorded span closes after it opens, inside its parent
        for sid in range(len(tracer.span_name)):
            start, end, parent = (tracer.span_start[sid], tracer.span_end[sid],
                                  tracer.span_parent[sid])
            assert start <= end
            if parent >= 0:
                assert tracer.span_start[parent] <= start <= end <= tracer.span_end[parent]
    assert nq.reps.hom_space.__module__ == "nodalq.reps"
    assert not hasattr(nq.reps.hom_space, "__wrapped__")


def test_metric_names_units_and_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == run.per_layer_metrics()
    for name, unit in e2e + layers:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    assert len({n for n, _ in e2e + layers}) == len(e2e) + len(layers)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}


def test_run_without_the_program_fails(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "closure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
