"""Self-tests of the benchmark.  Run with:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import netdesign as nd  # noqa: E402

import run  # noqa: E402
from checks import (oracle_errors, oracle_value, pinned_errors,  # noqa: E402
                    report_errors)
from spans import Tracer, layer_stats, percentile, self_times  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, manifest  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_units_and_reasons_are_well_formed():
    names = [n for n, *_ in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit, *_ in END_TO_END + PER_LAYER:
        assert UNIT.fullmatch(unit), unit
    for name, wl in WORKLOADS.items():
        assert 0 < len(wl["why"]) <= 200 and "\n" not in wl["why"], name
    assert any(n == "setup_s" and u == "s" and b == "lower"
               for n, u, b, _ in END_TO_END)
    assert all(0 < bound <= 0.25 for *_, bound in END_TO_END)


def test_checked_in_manifest_matches_the_tables():
    on_disk = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert on_disk == manifest()


def test_oracle_accepts_the_pinned_best_and_rejects_a_perturbed_one():
    wl = WORKLOADS["blocks4x3-m3"]
    net = nd.augment_blocks([3, 3, 3, 3], 3)
    best = (1, 2, 3) * 4
    value = wl["pinned"]["best_value"]
    assert oracle_errors(net, 3, best, value) == []
    assert oracle_errors(net, 3, best, value * (1 + 1e-8)) != []
    assert oracle_errors(net, 3, best, value + 2e-9) != []


def test_oracle_agrees_with_the_library_and_flags_non_estimable_designs():
    net = nd.example_network(2)
    spec = nd.ModelSpec.for_network(net, 3)
    for x in [(1, 2, 3, 1, 2, 3, 1, 2, 3, 1), (1, 1, 2, 2, 3, 3, 1, 1, 2, 3)]:
        expected = nd.criterion_for_design(net, x, spec)
        assert oracle_value(net, 3, x) == pytest.approx(expected, abs=1e-9)
    assert oracle_value(net, 3, (1,) * 10) is None


def _report(**changes) -> dict:
    d = {"num_considered": 10, "num_eval": 6, "num_skipped_noncanonical": 2,
         "num_invalid": 1, "num_cache_hits": 1, "partial": False,
         "best_design": [1, 2], "best_value": 0.5}
    d.update(changes)
    return d


def test_report_checks():
    assert report_errors(_report()) == []
    assert report_errors(_report(num_eval=7)) != []
    assert report_errors(_report(partial=True)) != []
    pinned = {"considered": 10, "evaluated": 6, "skipped": 2, "invalid": 1,
              "cache_hits": 1, "best_value": 0.5}
    assert pinned_errors(_report(), pinned) == []
    assert pinned_errors(_report(best_value=0.5000000000000001), pinned) != []
    assert pinned_errors(_report(num_invalid=2), pinned) != []


def test_self_time_on_a_synthetic_span_tree():
    #  0 root [0, 10]
    #  1   a  [1, 3]      overlaps b: the union [1, 5] counts once for root
    #  2   b  [2, 5]
    #  3   c  [6, 9]
    #  4     d [7, 8]
    #  5     e [8.5, 12]  runs past its parent: only [8.5, 9] is covered
    starts = [0.0, 1.0, 2.0, 6.0, 7.0, 8.5]
    ends = [10.0, 3.0, 5.0, 9.0, 8.0, 12.0]
    parents = [-1, 0, 0, 0, 3, 3]
    assert self_times(starts, ends, parents) == pytest.approx(
        [10 - 4 - 3, 2, 3, 3 - 1 - 0.5, 1, 3.5])


def test_tracer_records_nesting_and_layer_stats():
    tracer = Tracer("t")
    inner = tracer.wrap("inner", lambda v: v + 1)
    outer = tracer.wrap("outer", lambda v: inner(v) * 2)
    with tracer.span("root"):
        assert outer(1) == 4
        assert inner(0) == 1
    assert tracer.names == ["root", "outer", "inner", "inner"]
    assert tracer.parents == [-1, 0, 1, 0]
    stats = layer_stats(tracer)
    assert stats["inner"]["calls"] == 2
    assert stats["root"]["self_s"] <= stats["root"]["total_s"]
    assert percentile([3, 1, 2], 50) == 2 and percentile([], 99) == 0.0


def _fake_child(fail_rep: int | None):
    """A stand-in for `run_child` that fails the wall job of one rep."""
    def child(workload, mode, seed, rep, timeout, spans=None):
        job = {"errors": [], "job_s": 0.0, "env": {}}
        if mode == "setup":
            job["setup_s"] = 0.1
        else:
            job.update(wall_s=1.0 + rep, peak_rss_mb=50.0, report_json="{}")
            if rep == fail_rep:
                job["errors"].append("pinned count mismatch")
                job["wall_s"] = 1000.0
        return job
    return child


def test_a_failed_run_counts_against_the_result_and_is_not_dropped():
    good = run.Runner(0, _fake_child(None))
    res = run.summarize(good.jobs, run.measure_end_to_end("ex2-m4", 0, good),
                        END_TO_END)
    assert res["correct"] and res["failed"] == 0

    bad = run.Runner(0, _fake_child(1))
    measured = run.measure_end_to_end("ex2-m4", 0, bad)
    res = run.summarize(bad.jobs, measured, END_TO_END)
    assert res["attempted"] == len(bad.jobs) == run.SETUP_REPS + run.MIN_REPS
    assert res["failed"] == 1 and not res["correct"]
    # the failed job's time does not enter the median
    assert measured["wall_s"][0] == 2.0


def test_a_report_that_differs_from_the_serial_one_fails():
    def child(workload, mode, seed, rep, timeout, spans=None):
        job = _fake_child(None)(workload, mode, seed, rep, timeout, spans)
        if workload == "ex2-m4-w2" and mode == "wall" and rep == 2:
            job["report_json"] = '{"seed": 1}'
        return job
    runner = run.Runner(0, child)
    run.measure_end_to_end("ex2-m4-w2", 0, runner)
    res = run.summarize(runner.jobs, {}, END_TO_END)
    assert res["failed"] == 1 and not res["correct"]


def test_a_metric_that_could_not_be_measured_makes_the_run_incorrect():
    res = run.summarize([{"errors": []}], {"wall_s": (1.0, 3)}, END_TO_END)
    assert list(res["metrics"]) == ["wall_s"] and not res["correct"]


def test_a_job_that_prints_no_result_comes_back_failed():
    job = run.run_child("no-such-workload", "wall", 0, 0, timeout=60)
    assert job["errors"] and "no result" in job["errors"][0]
