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
from netdesign import lnem, search
from netdesign.lnem import DesignEvaluator, ModelSpec
from netdesign.search import SearchConfig, _start_design

from helpers import (cycle_network, force_screen_off,
                     oracle_coordinate_descent, oracle_outcomes,
                     oracle_report, report_fields, stirling2)


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


def _stream_budgets(total: int, blocks: list[int]) -> list[int | None]:
    """Every budget of a short stream; of a long one, the ends, the first
    block boundaries and the rows either side of them, and a spread of
    budgets that cut blocks mid-table."""
    if total <= 300:
        return [None, *range(1, total + 1)]
    edges = np.cumsum(blocks)[:4].tolist()
    picked = {1, 2, total - 1, total, *(e + k for e in edges for k in (-1, 0, 1))}
    picked |= set(np.random.default_rng(total).integers(1, total, 12).tolist())
    return [None, *sorted(b for b in picked if 0 < b <= total)]


@pytest.mark.parametrize("symmetry", [True, False])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_block_stream_matches_product_oracle(m, symmetry):
    # the group-free `_stream` of every task `_plan` makes, for every design
    # count up to 8 and the budgets above, joined in task order, is the
    # first `budget` designs of the stream rebuilt from itertools.product,
    # all of them live; each task's chunks hold at least _CHUNK_DESIGNS
    # rows but its last, and enumerate_designs yields the same designs as
    # tuples
    full_prefixes = 0
    for n in range(1, 9):
        designs = [x for x in product(range(1, m + 1), repeat=n)
                   if not symmetry or _label_canonical(x)]
        assert list(nd.enumerate_designs(n, m, symmetry)) == designs
        expected = np.array(designs, dtype=np.int64)
        blocks = [size for size, _ in
                  search._stream(None, (), n, m, symmetry, None)]
        for budget in _stream_budgets(len(designs), blocks):
            for workers in (1, 2, 3):
                tasks, _ = search._plan(n, m, symmetry, workers, budget)
                got, counters = [], search._Counters()
                for prefix, local in tasks:
                    chunks = list(search._chunks(search._stream(
                        None, prefix, n, m, symmetry, local), counters))
                    assert all(len(c) >= search._CHUNK_DESIGNS
                               for c in chunks[:-1])
                    got += chunks
                    full_prefixes += len(prefix) == n
                got = np.concatenate(got)
                assert got.dtype == np.int64
                assert np.array_equal(got, expected[:budget]), (n, budget,
                                                                workers)
                assert counters == search._Counters(considered=len(got))
    assert full_prefixes  # tasks with no position left to fill


_GATED_CASES = {
    "path312": ("path312", 2), "ex1-m2": (("ex", 1), 2),
    "blocks22-m3": (("blocks", (2, 2), 3), 3),
    "rc3x3-m3": (("rowcol", 3, 3, 3), 3), "cycle7-m2": ("cycle7", 2),
}


@pytest.mark.parametrize("case", sorted(_GATED_CASES))
def test_gated_stream_matches_oracle(report_cache, path312, monkeypatch,
                                     case):
    # under a group, the live rows of every `_plan` task's `_stream`, joined
    # in task order, are the designs among the first `budget` that no
    # element maps to a smaller one (images applied in pure Python), and
    # the counters tell considered and skipped designs as the oracle does.
    # At 8 designs per chunk the root stream of rc 3x3 (z = 72) takes s = 0
    # and walks to the leaves, with no table; every other root stream gates
    # tables of s >= 1 positions, and some budget cuts a gated table
    # mid-way.
    key, m = _GATED_CASES[case]
    net = {"path312": path312, "cycle7": cycle_network(7)}.get(key) \
        or report_cache.network(key)
    group = nd.find_automorphisms(net)
    n = net.n_design
    tail_table, fetched = search._tail_table, []

    def fetch(*args):
        fetched.append(tail_table(*args))
        return fetched[-1]

    monkeypatch.setattr(search, "_tail_table", fetch)

    def segments(prefix, budget):
        # (size, live, the tail table the segment came from, else None)
        for size, live in search._stream(group, prefix, n, m, True, budget):
            yield size, live, fetched.pop() if fetched else None

    outcomes = oracle_outcomes(net, m, True)
    widths, gated_cut = [], False
    for chunk in (256, 8):
        monkeypatch.setattr(search, "_CHUNK_DESIGNS", chunk)
        root = list(segments((), None))
        blocks = [size for size, _, _ in root]
        # the width of the root stream's tables, 0 when it has none (s = 0)
        widths.append(max((table.shape[1] for _, _, table in root
                           if table is not None), default=0))
        for budget in _stream_budgets(len(outcomes), blocks):
            cut = outcomes[:budget]
            expected = [x for x, value in cut if value != "skipped"]
            for workers in (1, 2, 3):
                tasks, _ = search._plan(n, m, True, workers, budget)
                got, counters = [], search._Counters()
                for prefix, local in tasks:
                    parts = list(segments(prefix, local))
                    size, live, table = parts[-1]
                    gated_cut |= (local is not None and table is not None
                                  and table.shape[1] > 0 and size < len(table))
                    chunks = list(search._chunks(
                        ((size, live) for size, live, _ in parts), counters))
                    assert all(len(c) >= chunk for c in chunks[:-1])
                    got += [tuple(x) for c in chunks for x in c.tolist()]
                assert got == expected, (chunk, budget, workers)
                assert counters == search._Counters(
                    considered=len(cut), skipped=len(cut) - len(expected))
    assert widths[0] >= 1 and gated_cut
    assert (widths[1] == 0) == (case == "rc3x3-m3")


def test_enumerate_validation():
    # the sizes are checked at the call, before the first design
    with pytest.raises(ValueError):
        nd.enumerate_designs(3, 1)
    with pytest.raises(ValueError):
        nd.enumerate_designs(0, 2)


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


@pytest.mark.parametrize("example,m,automorphisms,complete,screened", [
    (1, 3, False, 9330, 665), (1, 3, True, 3761, 347),
    (2, 4, True, 34105, 1524),
], ids=["ex1-m3-plain", "ex1-m3-group", "ex2-m4"])
def test_only_designs_using_every_treatment_reach_eigh(
        examples, monkeypatch, example, m, automorphisms, complete, screened):
    # a design that leaves a treatment unused is INVALID without an
    # eigendecomposition: of example 1's 9,842 label-canonical designs at
    # m = 3, S2(10, 3) = 9,330 use all three treatments (3,761 of them
    # canonical under its group), and of example 2's 43,947 at m = 4,
    # S2(10, 4) = 34,105 use all four.  With the screen off all of those
    # reach eigh; with it on, only the designs it does not certify and the
    # certified ones near a chunk's least bound or the best so far do
    net = examples[example]
    matrices = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        matrices.append(len(a))
        return eigh(a, *args, **kwargs)

    def search() -> str:
        del matrices[:]
        return nd.exhaustive_search(
            net, ModelSpec.for_network(net, m),
            cfg(use_automorphisms=automorphisms)).to_json(exclude_wall_time=True)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    report = search()
    assert sum(matrices) == screened
    force_screen_off(monkeypatch)
    assert search() == report
    assert sum(matrices) == complete


def _stream_chunks(net: nd.Network, m: int):
    """The chunks exhaustive search evaluates on `net` without a group."""
    stream = search._stream(None, (), net.n_design, m, True, None)
    return list(search._chunks(stream, search._Counters()))


@pytest.mark.parametrize("example,m,criterion", [
    (1, 2, "As"), (6, 2, "As"), (2, 4, "As"), (2, 4, "Ds"),
], ids=["ex1-m2", "ex6-m2", "ex2-m4", "ex2-m4-Ds"])
def test_chunk_best_matches_first_argmin(examples, monkeypatch, example, m,
                                         criterion):
    # on every chunk of the stream (example 6 at m = 2 has hundreds of
    # near-tied values): the screened kernel gives the valid count, first
    # least index and value of `_value_array`, bit for bit, with no best so
    # far and with a best just below, at and just above the chunk's least
    # value; with no best, a certified design reaches eigh only if its value
    # is within 2 SCREEN_WINDOW of the least
    net = examples[example]
    spec = ModelSpec.for_network(net, m, criterion=criterion)
    ev = DesignEvaluator(net, spec)
    assert not ev._always_singular
    kernel = lnem._criterion_values
    reached = []

    def counted(info, spec):
        reached.append(len(info))
        return kernel(info, spec)

    monkeypatch.setattr(lnem, "_criterion_values", counted)
    window = 1 + 2 * lnem.SCREEN_WINDOW
    for chunk in _stream_chunks(net, m):
        values = ev._value_array(chunk)
        valid = (~np.isnan(values)).nonzero()[0]
        if not len(valid):
            assert ev._chunk_best(chunk, None) == (0, None, None)
            continue
        i = int(valid[values[valid].argmin()])
        least = float(values[i])
        expected = (len(valid), i, least)
        for best in (None, np.nextafter(least, 0), least,
                     np.nextafter(least, np.inf)):
            del reached[:]
            got = ev._chunk_best(chunk, best)
            assert got == expected and got[2].hex() == least.hex(), best
            if best is None:
                rows = ev._using_every_treatment(chunk)
                certified, _ = lnem._screen(
                    ev._information_matrices(chunk[rows]), spec)
                near = int((values[rows][certified] <= least * window).sum())
                assert sum(reached) <= (~certified).sum() + near


@pytest.mark.parametrize("criterion", ["As", "Ds"])
def test_reports_identical_with_the_screen_off(report_cache, monkeypatch,
                                               criterion):
    # the screen changes which designs reach eigh, never a report:
    # examples 1-6 at m = 2 and example 2 at m = 3 and m = 4
    cases = [(k, 2) for k in range(1, 7)] + [(2, 3), (2, 4)]
    screened = {}
    for k, m in cases:
        net = report_cache.network(("ex", k))
        screened[k, m] = nd.exhaustive_search(
            net, ModelSpec.for_network(net, m, criterion=criterion), cfg())
    force_screen_off(monkeypatch)
    for k, m in cases:
        net = report_cache.network(("ex", k))
        report = nd.exhaustive_search(
            net, ModelSpec.for_network(net, m, criterion=criterion), cfg())
        assert report.to_json(exclude_wall_time=True) == \
            screened[k, m].to_json(exclude_wall_time=True), (k, m)


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
    # The group and the criterion of each design are memoized across the
    # runs; the unbudgeted comparison above checks their answers against the
    # oracle.
    key = ("blocks", (3, 3, 3), 3)
    net = report_cache.network(key)
    spec = ModelSpec.for_network(net, 3)
    outcomes = oracle_outcomes(net, 3, True)
    group = nd.find_automorphisms(net)
    evaluate = DesignEvaluator._value_array
    run_tasks = search._run_tasks
    values: dict = {}

    def memo_values(self, designs):
        designs = list(map(tuple, np.asarray(designs).tolist()))
        missing = [x for x in designs if x not in values]
        if missing:
            values.update(zip(missing, evaluate(self, missing).tolist()))
        return np.array([values[x] for x in designs])

    def in_process(state, fn, tasks, workers):
        return run_tasks(state, fn, tasks, 1)

    monkeypatch.setattr(search, "find_automorphisms", lambda net, cap: group)
    monkeypatch.setattr(DesignEvaluator, "_value_array", memo_values)
    monkeypatch.setattr(search, "_run_tasks", in_process)
    for budget in range(1, len(outcomes) + 1):
        expected = oracle_report(outcomes, budget)
        for workers in (1, 4):
            report = nd.exhaustive_search(net, spec, cfg(max_designs=budget,
                                                         workers=workers))
            assert report_fields(report) == expected, (budget, workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_pruned_search_past_the_int64_keys_matches_oracle(workers):
    # the walk packs labels 1..2 and the unassigned value in base 4: at
    # d = 40 that is 80 bits, past int64, so its keys are Python integers
    net = cycle_network(40)
    group = nd.find_automorphisms(net)
    assert group.base == 2 and group.walk_weights(2).dtype == object
    expected = oracle_report(oracle_outcomes(net, 2, True, limit=2000))
    expected["partial"] = True
    report = nd.exhaustive_search(net, ModelSpec.for_network(net, 2),
                                  cfg(max_designs=2000, workers=workers))
    assert report_fields(report) == expected
    assert report.num_skipped_noncanonical > 0


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n,m,dtype", [(15, 2, np.int32), (16, 2, np.int64),
                                       (13, 3, np.int32), (14, 3, np.int64)])
def test_pruned_search_at_the_int32_walk_keys_edge_matches_oracle(
        n, m, dtype, workers, monkeypatch):
    # the walk's keys lie below (m+2)^n, which straddles 2^31 between each
    # pair of cases; the 3-worker plan starts tasks below the root, so
    # sibling steps also run after a prefix
    net = cycle_network(n)
    group = nd.find_automorphisms(net)
    monkeypatch.setattr(search, "find_automorphisms", lambda net, cap: group)
    expected = oracle_report(oracle_outcomes(net, m, True, limit=2000))
    expected["partial"] = True
    report = nd.exhaustive_search(net, ModelSpec.for_network(net, m),
                                  cfg(max_designs=2000, workers=workers))
    assert report_fields(report) == expected
    assert report.num_skipped_noncanonical > 0
    assert group.walk_weights(m).dtype == dtype


def test_searches_build_their_key_tables_before_the_pool(examples,
                                                         monkeypatch):
    # exhaustive search reads the walk's W alone; coordinate descent reads
    # `weights` and its float halves.  Each is built before tasks run, so
    # pool workers inherit it instead of building their own.
    net = examples[4]
    spec = ModelSpec.for_network(net, 2)
    run_tasks = search._run_tasks
    built = []

    def record(state, fn, tasks, workers):
        group = state[1]
        built.append((group._weights is not None, group._halves is not None,
                      set(group._walk)))
        return run_tasks(state, fn, tasks, workers)

    monkeypatch.setattr(search, "_run_tasks", record)
    nd.exhaustive_search(net, spec, cfg(max_designs=1))
    nd.coordinate_descent(net, spec, cfg(algorithm="cd", restarts=1))
    assert built == [(False, False, {4}), (True, True, set())]


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
    cache, considered, finals = search._restart_task(
        (DesignEvaluator(net, spec), None), [optimum])
    assert finals[0][1] == optimum
    assert considered <= net.n_design * (spec.m - 1) + 1


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
    # each worker's block of 3 or more restarts shares one cache
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


_CD_ORACLE_CASES = {"ex4": (("ex", 4), 2), "rc3x3": (("rowcol", 3, 3, 3), 3),
                    "blocks333": (("blocks", (3, 3, 3), 3), 3)}
_cd_oracle_reports: dict = {}


def _report_without_wall_time(report) -> dict:
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
            if f.name != "wall_time"}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(_CD_ORACLE_CASES))
def test_cd_lockstep_matches_sequential_oracle(report_cache, monkeypatch,
                                               case, workers):
    # 7 restarts: three workers get blocks of 2, 2 and 3 descents
    key, m = _CD_ORACLE_CASES[case]
    net = report_cache.network(key)
    spec = ModelSpec.for_network(net, m)
    evaluated = []
    values = DesignEvaluator._value_array

    def counted(self, designs):
        evaluated.extend(designs)
        return values(self, designs)

    monkeypatch.setattr(DesignEvaluator, "_value_array", counted)
    for seed in range(5):
        if (case, seed) not in _cd_oracle_reports:
            _cd_oracle_reports[case, seed] = oracle_coordinate_descent(
                net, m, seed, 7)
        del evaluated[:]
        report = nd.coordinate_descent(net, spec, cfg(
            algorithm="coordinate_descent", seed=seed, restarts=7,
            workers=workers))
        assert _report_without_wall_time(report) == \
            _cd_oracle_reports[case, seed], seed
        if workers == 1:
            # every evaluation is of a new orbit: none speculative, none
            # repeated
            assert len(evaluated) == len(set(evaluated)) == \
                report.num_eval + report.num_invalid


def test_cd_lockstep_evaluates_in_chunks(examples, monkeypatch):
    # 300 live descents: the first step's start designs go to the kernel in
    # chunks of at most _CHUNK_DESIGNS, and the report still matches
    net, m, restarts = examples[2], 3, 300
    sizes = []
    values = DesignEvaluator._value_array

    def counted(self, designs):
        sizes.append(len(designs))
        return values(self, designs)

    monkeypatch.setattr(DesignEvaluator, "_value_array", counted)
    report = nd.coordinate_descent(net, ModelSpec.for_network(net, m), cfg(
        algorithm="coordinate_descent", seed=3, restarts=restarts))
    assert sizes[0] == max(sizes) == search._CHUNK_DESIGNS
    assert _report_without_wall_time(report) == \
        oracle_coordinate_descent(net, m, 3, restarts)


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


def test_trivial_group_is_never_consulted(examples, monkeypatch):
    # example 2 has only the identity: coordinate descent and the plugin
    # loop give the reports they give without automorphisms, and neither
    # asks the group for a representative or a canonicity test
    net = examples[2]
    spec = ModelSpec.for_network(net, 2)
    calls = []

    def spy(name):
        method = getattr(nd.AutomorphismGroup, name)
        def called(self, *args):
            calls.append(name)
            return method(self, *args)
        monkeypatch.setattr(nd.AutomorphismGroup, name, called)

    spy("canonical_representatives")
    spy("is_canonical")

    def reports(use):
        cd = nd.coordinate_descent(net, spec, cfg(
            algorithm="coordinate_descent", seed=5, restarts=6,
            use_automorphisms=use))
        plugin = nd.run_with_plugins(net, spec,
                                     lex_stream_next(10, 2, symmetry=True),
                                     None, cfg(use_automorphisms=use))
        return [r.to_json(exclude_wall_time=True) for r in (cd, plugin)]

    assert reports(True) == reports(False)
    assert calls == []


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
