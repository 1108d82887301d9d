"""Tests of the benchmark harness itself: ``python -m pytest bench/tests``."""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent


def test_self_time_on_a_synthetic_nest():
    # r covers 0..10; a and b overlap (b ran in a worker), d runs past r's
    # end, and c is nested in a.
    spans = [
        ("r", None, "cli", "main", 0, 10),
        ("a", "r", "processes", "simulate", 1, 4),
        ("b", "r", "batch", "batch_finals", 3, 6),
        ("c", "a", "families", "descent_triangle", 2, 3),
        ("d", "r", "processes", "reconstruct", 8, 12),
    ]
    assert tracing.self_times(spans) == {"r": 3, "a": 2, "b": 3, "c": 1, "d": 4}
    totals = tracing.summarize(spans, {"rng.draws": 6})
    assert totals["cli.self_s"] == pytest.approx(3e-9)
    assert totals["processes.self_s"] == pytest.approx(6e-9)
    assert totals["calls.processes.simulate"] == 1
    assert totals["root_s"] == pytest.approx(10e-9)
    assert totals["rng.draws"] == 6


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(5, 7), (0, 2), (1, 3), (6, 9)], 0, 8) == 6
    assert tracing.covered([], 0, 8) == 0


def _without_seeds(steps):
    return [(s.name, [t for i, t in enumerate(s.argv) if s.argv[i - 1] != "--seed"])
            for s in steps]


def test_steps_are_a_pure_function_of_the_seed():
    for name in workloads.WORKLOADS:
        first = workloads.steps(name, 11)
        random.seed(99)  # global state must not leak in
        assert workloads.steps(name, 11) == first
        # only the master seeds move; sizes, and so the work, stay
        assert _without_seeds(workloads.steps(name, 12)) == _without_seeds(first)
    assert workloads.steps("mc_batch", 11) != workloads.steps("mc_batch", 12)


def test_expected_digests_cover_the_default_seed():
    expected = json.loads(run.EXPECTED.read_text())
    for name in workloads.WORKLOADS:
        for step in workloads.steps(name, workloads.DEFAULT_SEED):
            assert step.digest_key() in expected


def _tiny(expected, tmp_path, traced=False):
    step = workloads.Step(
        "tiny", ("simulate", "--process", "derangement", "--n", "6", "--replicates",
                 "50", "--seed", "3", "--threads", "1", "--record", workloads.AUDIT),
        replicates=50)
    runner = harness.Runner(ROOT, tmp_path, time.monotonic() + 120, expected)
    return step, runner.run_pass([step], traced)


def test_a_corrupted_expected_digest_raises_failed_frac(tmp_path):
    step, clean = _tiny({}, tmp_path)
    assert clean.failed == 0 and clean.attempted == 1 + 4
    key = step.digest_key()
    _, matched = _tiny({key: clean.steps[0].digest}, tmp_path)
    assert matched.failed == 0
    assert "tiny:expected_digest" in [label for label, _ in matched.checks]
    _, corrupted = _tiny({key: "0" * 64}, tmp_path)
    assert corrupted.failed / corrupted.attempted > 0
    assert [label for label, ok in corrupted.checks if not ok] == ["tiny:expected_digest"]


def test_twins_with_different_digests_fail():
    one = workloads.Step("x.t1", ("simulate",))
    two = workloads.Step("x.t2", ("simulate",), twin="x.t1")
    results = [harness.StepResult(one, 1.0, 1, 0, "a", 1, []),
               harness.StepResult(two, 1.0, 1, 0, "b", 1, [])]
    assert harness.check_pass(results) == [("x.t2:digest_equals_x.t1", False)]


def test_traced_step_counts_and_accounts_for_its_time(tmp_path):
    _, p = _tiny({}, tmp_path, traced=True)
    assert p.failed == 0
    t = p.steps[0].trace
    assert t["compositions.discard_maps"] == 50
    assert t["processes.simulate_recorded"] == 50
    assert t["rng.draws"] == 2 * 50 * (6 - 2)  # two draws per stage 3..6
    assert t["families.rows_built"] == 5  # exact means build rows 2..6 once
    assert 0 < t["root_s"] <= p.steps[0].wall_s
    selfs = sum(v for k, v in t.items() if k.endswith(".self_s"))
    assert selfs == pytest.approx(t["root_s"], rel=1e-6)  # one process: a partition
    assert harness.layer_metrics(p)["cli.out_bytes"] == p.steps[0].out_bytes


def test_worker_spans_of_a_pooled_batch_step(tmp_path):
    step = workloads.Step("pool", ("simulate", "--process", "derangement", "--n", "4",
                                   "--replicates", "60000", "--seed", "1",
                                   "--threads", "2"), replicates=60000)
    runner = harness.Runner(ROOT, tmp_path, time.monotonic() + 120, {})
    p = runner.run_pass([step], traced=True)
    assert p.failed == 0
    t = p.steps[0].trace
    assert t["calls.cli._sim_chunk"] == 2  # one chunk per worker, both recorded
    assert t["batch.replicate_stages"] == 60000 * 2
    assert t["rng.draws"] == 2 * 60000 * 2
    assert t["probe.batch_setup_s"] > 0


def test_compare_verdicts():
    lower = {"better": "lower", "bound": 0.1}
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert run.verdict(lower, steady, [1.25] * 5) == "regressed"
    assert run.verdict(lower, steady, [1.05] * 5) == "within bound"
    wide = [0.5, 1.0, 1.5, 0.7, 1.3]
    assert run.verdict(lower, wide, [1.2] * 5) == "unresolved"
    assert run.verdict(lower, wide, [0.4] * 5) == "better in every run"
    assert run.verdict({"better": "higher"}, steady, [2.0]) == ""
