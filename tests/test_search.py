from __future__ import annotations

import dataclasses
import json
import time
from bisect import bisect_left
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netdesign as nd
from netdesign import search
from netdesign.lnem import DesignEvaluator, ModelSpec
from netdesign.search import SearchConfig, _start_design

from helpers import oracle_outcomes, oracle_report, report_fields, stirling2


def cfg(**kw) -> SearchConfig:
    return SearchConfig(**kw)


def assert_counter_identity(report, count_invalid_as_eval=False):
    total = (report.num_eval + report.num_skipped_noncanonical
             + report.num_cache_hits)
    if not count_invalid_as_eval:
        total += report.num_invalid
    assert report.num_considered == total


# ---------------------------------------------------------------- enumeration

def test_enumerate_all_designs_lexicographic():
    designs = list(nd.enumerate_designs(3, 2, use_label_symmetry=False))
    assert designs == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2),
                       (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2)]


def test_enumerate_label_canonical():
    designs = list(nd.enumerate_designs(3, 2))
    assert designs == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]
    assert all(x[0] == 1 for x in nd.enumerate_designs(4, 3))


def test_enumerate_is_sorted_and_canonical():
    designs = list(nd.enumerate_designs(5, 3))
    assert designs == sorted(designs)
    for x in designs:
        seen_max = 0
        for t in x:
            assert t <= seen_max + 1  # first occurrences in label order
            seen_max = max(seen_max, t)


@pytest.mark.parametrize("n,m", [(3, 2), (5, 2), (7, 3), (9, 3), (10, 4), (6, 6)])
def test_enumerate_count_is_stirling_sum(n, m):
    count = sum(1 for _ in nd.enumerate_designs(n, m))
    assert count == sum(stirling2(n, k) for k in range(1, m + 1))


def test_enumerate_validation():
    with pytest.raises(ValueError):
        list(nd.enumerate_designs(3, 1))
    with pytest.raises(ValueError):
        list(nd.enumerate_designs(0, 2))


# ----------------------------------------------------------------- exhaustive

def test_path_canonicity_walkthrough(path312):
    spec = ModelSpec.for_network(path312, 2)
    report = nd.exhaustive_search(path312, spec, cfg(use_label_symmetry=False))
    assert report.num_considered == 8
    assert report.num_skipped_noncanonical == 2
    assert report.num_considered - report.num_skipped_noncanonical == 6
    assert_counter_identity(report)


def test_example2_exact_counts(report_cache):
    for arm in (False, True):
        report = report_cache.exhaustive(("ex", 2), 2, arm)
        assert report.num_eval == 511
        assert report.num_considered == 512
        assert_counter_identity(report)


def test_example1_counts_and_tie(report_cache):
    without = report_cache.exhaustive(("ex", 1), 2, False)
    with_ = report_cache.exhaustive(("ex", 1), 2, True)
    assert without.num_considered == with_.num_considered == 512
    assert with_.num_eval <= without.num_eval
    assert with_.best_value == without.best_value
    assert_counter_identity(without)
    assert_counter_identity(with_)


def test_trivial_group_arms_identical(report_cache):
    without = report_cache.exhaustive(("ex", 2), 2, False)
    with_ = report_cache.exhaustive(("ex", 2), 2, True)
    assert without.to_json(exclude_wall_time=True) == \
        with_.to_json(exclude_wall_time=True)


def test_pruning_never_increases_evals(report_cache):
    for key, m in [(("ex", 1), 2), (("ex", 4), 2), (("blocks", (3, 3), 2), 2)]:
        without = report_cache.exhaustive(key, m, False)
        with_ = report_cache.exhaustive(key, m, True)
        assert with_.num_eval <= without.num_eval


def test_tie_break_earliest_design(path312):
    spec = ModelSpec.for_network(path312, 2)
    report = nd.exhaustive_search(path312, spec, cfg(use_label_symmetry=False,
                                                     use_automorphisms=False))
    ev = DesignEvaluator(path312, spec)
    minima = [x for x in product((1, 2), repeat=3)
              if ev.value(x) is not None and ev.value(x) == report.best_value]
    assert report.best_design == min(minima)


def test_best_value_matches_direct_evaluation(report_cache):
    report = report_cache.exhaustive(("ex", 1), 2, True)
    net = report_cache.network(("ex", 1))
    spec = ModelSpec.for_network(net, 2)
    assert nd.criterion_for_design(net, report.best_design, spec) == report.best_value


def test_budget_flags_partial(examples):
    spec = ModelSpec.for_network(examples[1], 2)
    report = nd.exhaustive_search(examples[1], spec, cfg(max_designs=5))
    assert report.partial
    assert report.num_considered == 5
    full = nd.exhaustive_search(examples[1], spec, cfg(max_designs=512))
    assert not full.partial
    assert full.num_considered == 512


def test_count_invalid_as_eval_flag(examples):
    spec = ModelSpec.for_network(examples[1], 2)
    base = nd.exhaustive_search(examples[1], spec, cfg())
    folded = nd.exhaustive_search(examples[1], spec, cfg(count_invalid_as_eval=True))
    assert folded.num_eval == base.num_eval + base.num_invalid
    assert folded.num_invalid == base.num_invalid
    assert_counter_identity(folded, count_invalid_as_eval=True)


def test_workers_bit_identical_exhaustive(examples):
    spec = ModelSpec.for_network(examples[1], 2)
    reports = [nd.exhaustive_search(examples[1], spec, cfg(workers=w, seed=3))
               for w in (1, 2, 4)]
    blobs = {r.to_json(exclude_wall_time=True) for r in reports}
    assert len(blobs) == 1


def test_workers_bit_identical_with_budget(examples):
    spec = ModelSpec.for_network(examples[1], 2)
    r1 = nd.exhaustive_search(examples[1], spec, cfg(workers=1, max_designs=100))
    r2 = nd.exhaustive_search(examples[1], spec, cfg(workers=3, max_designs=100))
    assert r1.to_json(exclude_wall_time=True) == r2.to_json(exclude_wall_time=True)
    assert r1.partial


@pytest.mark.parametrize("key,m,budgets", [
    (("blocks", (3, 3, 3), 3), 3, (None, 500)),
    # two canonical designs tie at the optimum, 296 stream places apart
    (("ex", 1), 3, (None,)),
])
def test_workers_bit_identical_nontrivial_group(report_cache, monkeypatch,
                                                key, m, budgets):
    net = report_cache.network(key)
    spec = ModelSpec.for_network(net, m)
    # many small subtree tasks make the pool merge many results
    monkeypatch.setattr(search, "_TASKS_PER_WORKER", 64)
    for budget in budgets:
        blobs = {nd.exhaustive_search(net, spec, cfg(workers=w, max_designs=budget))
                 .to_json(exclude_wall_time=True) for w in (1, 2, 3)}
        assert len(blobs) == 1


def _sleep_then_echo(state, task):
    time.sleep(task)
    return task


def test_run_tasks_yields_in_task_order():
    # on the pool the later, shorter tasks finish first
    tasks = [0.3, 0.0, 0.1, 0.0]
    for workers in (1, 3):
        assert list(search._run_tasks({}, _sleep_then_echo, tasks,
                                      workers)) == tasks


def test_spawn_pool_matches_one_worker(report_cache, monkeypatch):
    # a spawned worker gets the caller's state by pickling, not by fork
    monkeypatch.setattr(search, "_START_METHOD", "spawn")
    blocks = report_cache.network(("blocks", (3, 3, 3), 3))
    rc = report_cache.network(("rowcol", 3, 3, 3))
    for net, extra in [(blocks, {}),
                       (rc, {"algorithm": "coordinate_descent", "restarts": 6})]:
        spec = ModelSpec.for_network(net, 3)
        a, b = (nd.run_search(net, spec, cfg(workers=w, **extra))
                for w in (1, 2))
        assert a.to_json(exclude_wall_time=True) == b.to_json(exclude_wall_time=True)


def _label_canonical(x) -> bool:
    top = 0
    for t in x:
        if t > top + 1:
            return False
        top = max(top, t)
    return True


@pytest.mark.parametrize("n,m,symmetry", [(9, 3, True), (3, 2, False)],
                         ids=["blocks333-m3", "path312-no-label-symmetry"])
def test_plan_covers_the_first_budget_designs(n, m, symmetry):
    # the stream of blocks [3,3,3] at m=3 (9 design nodes) and of path312
    # without label symmetry, rebuilt from itertools.product
    designs = [x for x in product(range(1, m + 1), repeat=n)
               if not symmetry or _label_canonical(x)]
    for workers in (1, 2, 3, 4):
        for budget in (None, *range(1, len(designs) + 1)):
            tasks, partial = search._plan(n, m, symmetry, workers, budget)
            # the tasks' designs, concatenated, are designs[:budget]: each
            # subtree is a non-empty run of the sorted stream that starts
            # where the one before ended, and only the last one is cut
            end = 0
            for i, (prefix, local) in enumerate(tasks):
                lo = bisect_left(designs, prefix)
                hi = bisect_left(designs, prefix + (m + 1,))
                assert lo == end < hi
                if local is not None:
                    assert i == len(tasks) - 1 and 0 < local < hi - lo
                    hi = lo + local
                end = hi
            assert end == (len(designs) if budget is None else budget)
            assert partial == (budget is not None and budget < len(designs))
            if workers == 1:
                assert [prefix for prefix, _ in tasks] == [()]
            else:
                assert (len(tasks) >= search._TASKS_PER_WORKER * workers
                        or all(len(prefix) == n for prefix, _ in tasks))


# ------------------------------------------- pruned walk vs an independent loop

@pytest.mark.parametrize("key,m", [
    (("blocks", (3, 3, 3), 3), 3), (("rowcol", 3, 3, 3), 3),
    (("ex", 1), 2), (("ex", 4), 2),
])
def test_pruned_search_matches_oracle(report_cache, key, m):
    expected = oracle_report(oracle_outcomes(report_cache.network(key), m, True))
    assert report_fields(report_cache.exhaustive(key, m, True)) == expected


def test_pruned_search_matches_oracle_without_label_symmetry(path312):
    spec = ModelSpec.for_network(path312, 2)
    report = nd.exhaustive_search(path312, spec, cfg(use_label_symmetry=False))
    assert report_fields(report) == oracle_report(
        oracle_outcomes(path312, 2, False))


def test_pruned_search_every_budget_matches_oracle(report_cache, monkeypatch):
    # budgets 1..3281 cover every cut point of the stream, including cuts
    # inside subtrees closed by a prefix test, once as the one root task and
    # once as the subtree tasks planned for 4 workers (run in this process).
    # The group, its prefix test and the criterion of each design are
    # memoized across the runs; the unbudgeted comparison above checks their
    # answers against the oracle.
    key = ("blocks", (3, 3, 3), 3)
    net = report_cache.network(key)
    spec = ModelSpec.for_network(net, 3)
    outcomes = oracle_outcomes(net, 3, True)
    group = nd.find_automorphisms(net)
    prefix_test = group.prefix_has_smaller_image
    evaluate = DesignEvaluator.values
    run_tasks = search._run_tasks
    tested: dict = {}
    values: dict = {}

    def memo_prefix_test(x, length):
        key = tuple(x[:length])
        if key not in tested:
            tested[key] = prefix_test(x, length)
        return tested[key]

    def memo_values(self, designs):
        missing = [x for x in designs if x not in values]
        if missing:
            values.update(zip(missing, evaluate(self, missing)))
        return [values[x] for x in designs]

    def in_process(state, fn, tasks, workers):
        return run_tasks(state, fn, tasks, 1)

    group.prefix_has_smaller_image = memo_prefix_test
    monkeypatch.setattr(search, "find_automorphisms", lambda net, cap: group)
    monkeypatch.setattr(DesignEvaluator, "values", memo_values)
    monkeypatch.setattr(search, "_run_tasks", in_process)
    for budget in range(1, len(outcomes) + 1):
        expected = oracle_report(outcomes, budget)
        for workers in (1, 4):
            report = nd.exhaustive_search(net, spec, cfg(max_designs=budget,
                                                         workers=workers))
            assert report_fields(report) == expected, (budget, workers)


@st.composite
def small_networks(draw):
    """(network, m): a one-way block layout or a graph on at most 6 nodes."""
    m = draw(st.integers(2, 3))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        return nd.augment_blocks(sizes, m), m
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return nd.parse_edge_list(", ".join(f"{i}-{j}" for i, j in edges), n), m


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_networks(), st.booleans(), st.integers(1, 300) | st.none())
def test_pruned_search_matches_oracle_on_random_networks(case, symmetry, budget):
    net, m = case
    spec = ModelSpec.for_network(net, m)
    report = nd.exhaustive_search(net, spec, cfg(use_label_symmetry=symmetry,
                                                 max_designs=budget))
    assert report_fields(report) == oracle_report(
        oracle_outcomes(net, m, symmetry), budget)
    assert_counter_identity(report)


# ---------------------------------------------------------- coordinate descent

def test_cd_from_optimum_stops_after_one_sweep(examples, report_cache):
    net = examples[1]
    spec = ModelSpec.for_network(net, 2)
    optimum = report_cache.exhaustive(("ex", 1), 2, True).best_design
    from netdesign.search import _CachedCall, _descend
    call = _CachedCall(DesignEvaluator(net, spec), None)
    value, design = _descend(optimum, call, net.n_design, spec.m)
    assert design == optimum
    assert call.considered <= net.n_design * (spec.m - 1) + 1


def test_cd_finds_example1_optimum(examples, report_cache):
    net = examples[1]
    spec = ModelSpec.for_network(net, 2)
    reference = report_cache.exhaustive(("ex", 1), 2, True).best_value
    report = nd.coordinate_descent(net, spec, cfg(
        algorithm="coordinate_descent", restarts=100, seed=0,
        reference_value=reference))
    assert report.efficiency == 1.0
    assert_counter_identity(report)


def test_cd_deterministic_same_seed(examples):
    spec = ModelSpec.for_network(examples[4], 2)
    a = nd.coordinate_descent(examples[4], spec, cfg(seed=5, restarts=10))
    b = nd.coordinate_descent(examples[4], spec, cfg(seed=5, restarts=10))
    assert a.to_json(exclude_wall_time=True) == b.to_json(exclude_wall_time=True)


def test_cd_workers_bit_identical(examples, report_cache):
    # with 3 or more restarts per worker, the workers' caches carry entries
    # from one restart to the next
    for net, m, restarts in [(examples[4], 2, 9),
                             (report_cache.network(("rowcol", 3, 3, 3)), 3, 12)]:
        spec = ModelSpec.for_network(net, m)
        a, b = (nd.coordinate_descent(net, spec, cfg(seed=7, restarts=restarts,
                                                     workers=w))
                for w in (1, 3))
        assert a.to_json(exclude_wall_time=True) == b.to_json(exclude_wall_time=True)


def test_cd_reports_canonical_representative(examples):
    net = examples[1]
    spec = ModelSpec.for_network(net, 2)
    group = nd.find_automorphisms(net)
    report = nd.coordinate_descent(net, spec, cfg(seed=2, restarts=5))
    assert group.is_canonical(report.best_design)
    assert nd.criterion_for_design(net, report.best_design, spec) == report.best_value


def test_cd_cache_dedups_orbit_mates(path312):
    spec = ModelSpec.for_network(path312, 2)
    report = nd.coordinate_descent(path312, spec, cfg(seed=1, restarts=50))
    # only 6 orbits exist, of which evaluations can touch at most all of them
    assert report.num_eval + report.num_invalid <= 6
    assert report.num_cache_hits > 0
    assert_counter_identity(report)


def test_cd_start_designs_are_seed_and_index_determined():
    a = _start_design(123, 4, 10, 3)
    b = _start_design(123, 4, 10, 3)
    c = _start_design(123, 5, 10, 3)
    assert a == b != c
    assert all(1 <= t <= 3 for t in a)


# ----------------------------------------------------------------- plugin loop

def lex_stream_next(n, m, symmetry=False):
    it = nd.enumerate_designs(n, m, use_label_symmetry=symmetry)
    def next_fn(xs, ds):
        return next(it, None)
    return next_fn


def test_plugin_walkthrough_stop_at_last_design(path312):
    spec = ModelSpec.for_network(path312, 2)
    stop = lambda xs, ds, num_eval: xs[-1] == (2, 2, 2)
    report = nd.run_with_plugins(path312, spec, lex_stream_next(3, 2), stop,
                                 cfg(use_label_symmetry=False))
    assert report.num_considered == 8
    assert report.num_skipped_noncanonical == 2
    assert report.best_value == 2.0


def test_plugin_stop_after_first_evaluation(path312):
    spec = ModelSpec.for_network(path312, 2)
    stop = lambda xs, ds, num_eval: num_eval >= 1
    report = nd.run_with_plugins(path312, spec, lex_stream_next(3, 2), stop,
                                 cfg(use_label_symmetry=False))
    assert report.num_eval == 1


def test_plugin_matches_exhaustive(examples, report_cache):
    net = examples[1]
    spec = ModelSpec.for_network(net, 2)
    plugin = nd.run_with_plugins(net, spec, lex_stream_next(10, 2, symmetry=True),
                                 None, cfg())
    direct = report_cache.exhaustive(("ex", 1), 2, True)
    pd_, dd = plugin.to_dict(), direct.to_dict()
    for skip in ("wall_time", "algorithm"):
        pd_.pop(skip), dd.pop(skip)
    assert pd_ == dd


def test_plugin_random_next_deterministic(examples):
    net = examples[1]
    spec = ModelSpec.for_network(net, 2)

    def random_next(seed):
        rng = np.random.default_rng(seed)
        def next_fn(xs, ds):
            return tuple(int(v) for v in rng.integers(1, 3, size=10))
        return next_fn

    stop = lambda xs, ds, num_eval: len(xs) >= 40
    a = nd.run_with_plugins(net, spec, random_next(99), stop, cfg())
    b = nd.run_with_plugins(net, spec, random_next(99), stop, cfg())
    assert a.to_json(exclude_wall_time=True) == b.to_json(exclude_wall_time=True)


def test_plugin_safety_budget(path312):
    spec = ModelSpec.for_network(path312, 2)
    constant_next = lambda xs, ds: (1, 1, 2)
    report = nd.run_with_plugins(path312, spec, constant_next, None,
                                 cfg(max_designs=25))
    assert report.partial
    assert report.num_considered == 25


def test_plugin_cd_formulation_matches_cd(path312):
    # drive the framework with a stateful rule that replays cyclic coordinate
    # descent from the same start; trajectories and the result must agree
    net = path312
    spec = ModelSpec.for_network(net, 2)
    n, m = net.n_design, spec.m
    start = _start_design(11, 0, n, m)

    def cd_gen():
        x = list(start)
        vx = yield tuple(x)
        while True:
            improved = False
            for node in range(n):
                current = x[node]
                for t in range(1, m + 1):
                    if t == current:
                        continue
                    x[node] = t
                    cand = tuple(x)
                    x[node] = current
                    vy = yield cand
                    if vy is not None and (vx is None or vy < vx):
                        x[node] = t
                        vx = vy
                        improved = True
                        break
                if improved:
                    break
            if not improved:
                return

    gen = cd_gen()

    def next_fn(xs, ds):
        try:
            return gen.send(None if not xs else ds[-1])
        except StopIteration:
            return None

    plugin = nd.run_with_plugins(net, spec, next_fn, None,
                                 cfg(use_automorphisms=False))
    direct = nd.coordinate_descent(net, spec, cfg(
        seed=11, restarts=1, use_automorphisms=False))
    assert plugin.best_value == direct.best_value
    assert plugin.best_design == direct.best_design
    assert plugin.num_considered == direct.num_considered


# -------------------------------------------------------------------- reports

def test_report_json_round_trip(examples):
    spec = ModelSpec.for_network(examples[1], 2)
    report = nd.exhaustive_search(examples[1], spec, cfg())
    blob = report.to_json()
    parsed = json.loads(blob)
    assert json.dumps(parsed, indent=2, sort_keys=True) == blob
    assert parsed["num_eval"] == report.num_eval
    assert parsed["best_design"] == list(report.best_design)
    assert set(parsed) == {f.name for f in dataclasses.fields(nd.SearchReport)}


def test_run_search_dispatch(examples):
    spec = ModelSpec.for_network(examples[1], 2)
    assert nd.run_search(examples[1], spec, cfg(algorithm="exhaustive")).algorithm == "exhaustive"
    assert nd.run_search(examples[1], spec, cfg(algorithm="cd", restarts=2)).algorithm == "coordinate_descent"
    with pytest.raises(ValueError):
        nd.run_search(examples[1], spec, cfg(algorithm="annealing"))


def test_config_validation():
    for bad in ({"restarts": 0}, {"workers": 0}, {"max_designs": 0},
                {"max_designs": -3}, {"max_group_size": 0},
                {"max_group_size": -1}):
        with pytest.raises(ValueError):
            SearchConfig(**bad)
    SearchConfig(max_designs=1, max_group_size=1)
