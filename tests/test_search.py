from __future__ import annotations

import dataclasses
import functools
import itertools
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
                     oracle_report, report_fields, screened_networks,
                     stirling2)


def cfg(**kw) -> SearchConfig:
    return SearchConfig(**kw)


def assert_counter_identity(report):
    assert report.num_considered == (report.num_eval + report.num_invalid
                                     + report.num_skipped_noncanonical
                                     + report.num_cache_hits)


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
                tasks, _, _ = search._plan(n, m, symmetry, workers, budget)
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
                tasks, _, _ = search._plan(n, m, True, workers, budget)
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


@pytest.mark.parametrize("example,m,automorphisms,complete,screened,calls", [
    (1, 3, False, 9330, 669, 3), (1, 3, True, 3761, 353, 2),
    (2, 4, True, 34105, 1552, 6),
], ids=["ex1-m3-plain", "ex1-m3-group", "ex2-m4"])
def test_only_designs_using_every_treatment_reach_eigh(
        examples, monkeypatch, example, m, automorphisms, complete, screened,
        calls):
    # a design that leaves a treatment unused is INVALID without an
    # eigendecomposition: of example 1's 9,842 label-canonical designs at
    # m = 3, S2(10, 3) = 9,330 use all three treatments (3,761 of them
    # canonical under its group), and of example 2's 43,947 at m = 4,
    # S2(10, 4) = 34,105 use all four.  With the screen off all of those
    # reach eigh; with it on, only the designs it does not certify and the
    # certified ones near a chunk's least bound or the best the kernel has
    # resolved so far do.  Those wait in a queue that the kernel values at
    # least _CHUNK_DESIGNS at a time, so `calls` eigh calls value them all
    net = examples[example]
    matrices = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        matrices.append(len(a))
        return eigh(a, *args, **kwargs)

    def run() -> str:
        del matrices[:]
        return nd.exhaustive_search(
            net, ModelSpec.for_network(net, m),
            cfg(use_automorphisms=automorphisms)).to_json(exclude_wall_time=True)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    report = run()
    assert sum(matrices) == screened
    assert len(matrices) == calls
    assert min(matrices[:-1]) >= search._CHUNK_DESIGNS
    force_screen_off(monkeypatch)
    assert run() == report
    assert sum(matrices) == complete


def _stream_chunks(net: nd.Network, m: int):
    """The chunks exhaustive search evaluates on `net` without a group."""
    stream = search._stream(None, (), net.n_design, m, True, None)
    return list(search._chunks(stream, search._Counters()))


def _screened_best(ev: DesignEvaluator, chunk: np.ndarray, best):
    """`_bounds` of a chunk and `_needs_kernel` on its intervals, then
    `_value_array` on the designs the rule sends to the kernel: the chunk's
    valid count and the index and value of the first least kernel value
    among them (None, None if none is valid)."""
    rows, bounds = ev._bounds(chunk)
    sent = rows[search._needs_kernel(bounds, best)]
    values = ev._value_array(chunk[sent])
    valid = len(rows) - len(sent)
    ok = (~np.isnan(values)).nonzero()[0]
    if not len(ok):
        return valid, None, None
    i = ok[values[ok].argmin()]
    return valid + len(ok), int(sent[i]), float(values[i])


@pytest.mark.parametrize("key,m,criterion", [
    (("ex", 1), 2, "As"), (("ex", 6), 2, "As"), (("ex", 2), 4, "As"),
    (("ex", 2), 4, "Ds"), (("blocks", (3, 3, 3), 3), 3, "As"),
    (("rowcol", 3, 3, 3), 3, "As"), (("rowcol", 3, 3, 3), 3, "Ds"),
], ids=["ex1-m2", "ex6-m2", "ex2-m4", "ex2-m4-Ds", "blocks333-m3",
        "rc3x3-m3", "rc3x3-m3-Ds"])
def test_chunk_best_matches_first_argmin(report_cache, key, m, criterion):
    # on every chunk of the stream (example 6 at m = 2 has hundreds of
    # near-tied values; on the block networks F'F is singular for every
    # design, and many designs tie): the designs `_needs_kernel` sends to
    # the kernel on `_bounds`'s intervals, valued there, give the valid
    # count, first least index and value of `_value_array`, bit for bit,
    # with no best so far and with a best one ulp below, at and one ulp
    # above the chunk's least value.  With no best, a certified design with
    # bound b reaches the kernel only if b (1 - W) <= b* (1 + W), W =
    # SCREEN_WINDOW and b* the least bound; its value is at most b (1 + W),
    # and b* is at most the least value (a lower bound), so its value is
    # within a factor (1 + W)^2 / (1 - W), about 1 + 3 W, of the least
    net = report_cache.network(key)
    spec = ModelSpec.for_network(net, m, criterion=criterion)
    ev = DesignEvaluator(net, spec)
    window = (1 + lnem.SCREEN_WINDOW) ** 2 / (1 - lnem.SCREEN_WINDOW)
    for chunk in _stream_chunks(net, m):
        values = ev._value_array(chunk)
        valid = (~np.isnan(values)).nonzero()[0]
        if not len(valid):
            assert _screened_best(ev, chunk, None) == (0, None, None)
            continue
        i = int(valid[values[valid].argmin()])
        least = float(values[i])
        expected = (len(valid), i, least)
        for best in (None, np.nextafter(least, 0), least,
                     np.nextafter(least, np.inf)):
            got = _screened_best(ev, chunk, best)
            assert got == expected and got[2].hex() == least.hex(), best
        rows, bounds = ev._bounds(chunk)
        certified = bounds[:, 0] == bounds[:, 0]
        near = int((values[rows][certified] <= least * window).sum())
        assert (search._needs_kernel(bounds, None).sum()
                <= (~certified).sum() + near)


PARTIAL_BLOCKS = """n=8 directed=1
1->2, 1->7, 2->3, 2->7, 3->7, 4->6, 4->8, 5->8, 6->1, 7->1, 7->2, 7->3, 8->4, 8->5
B7: class=0 fixed=4 units=1,2,3
B8: class=0 fixed=5 units=4,5
"""


def test_chunk_best_of_a_chunk_with_no_design_using_every_treatment(
        monkeypatch):
    # two block nodes that do not cover every unit: in a chunk in which no
    # design uses all three treatments `_bounds` returns no rows and builds
    # no model matrix, and the chunk holds no valid design, whatever the
    # best so far
    net = nd.parse_network(PARTIAL_BLOCKS)
    ev = DesignEvaluator(net, ModelSpec.for_network(net, 3))
    chunk = np.array([[1] * 6, [1] * 5 + [2], [1, 2] * 3])
    p = ev.spec.n_params
    built = []
    monkeypatch.setattr(DesignEvaluator, "_model_matrices",
                        lambda self, xs: built.append(len(xs)))
    rows, bounds = ev._bounds(chunk)
    assert len(rows) == 0 and bounds.shape == (0, 2) and built == []
    assert np.isnan(ev._value_array(chunk)).all() and built == []
    monkeypatch.undo()
    for best in (None, 1.0):
        assert _screened_best(ev, chunk, best) == (0, None, None)
    empty = np.empty((0, p, p))
    assert lnem._canonicalize_nuisance(empty, ev.spec).shape == (0, p, p)


def _screened_runs(report_cache, criterion: str) -> dict:
    """Reports, wall time excluded, of the runs the screen must leave as
    they are: exhaustive search on examples 1-6 at m = 2, example 2 at
    m = 3 and 4, and at m = 3 on blocks [3,3,3] and [3,3,3,3], row-column
    3x3 and crossover 4x3 with and without period blocks; coordinate
    descent from 7 restarts, seeds 0-4, on example 4 at m = 2 and on
    row-column 3x3 and blocks [3,3,3] at m = 3."""
    exhaustive = {f"ex{k}-m2": (report_cache.network(("ex", k)), 2)
                  for k in range(1, 7)}
    exhaustive.update({
        "ex2-m3": (report_cache.network(("ex", 2)), 3),
        "ex2-m4": (report_cache.network(("ex", 2)), 4),
        "blocks333": (report_cache.network(("blocks", (3, 3, 3), 3)), 3),
        "blocks3333": (nd.augment_blocks([3, 3, 3, 3], 3), 3),
        "rc3x3": (report_cache.network(("rowcol", 3, 3, 3)), 3),
        "crossover4x3": (nd.augment_crossover(4, 3, 3), 3),
        "crossover4x3-periods": (
            nd.augment_crossover(4, 3, 3, period_blocks=True), 3),
    })
    descents = {"ex4-m2": (report_cache.network(("ex", 4)), 2),
                "rc3x3": (report_cache.network(("rowcol", 3, 3, 3)), 3),
                "blocks333": (report_cache.network(("blocks", (3, 3, 3), 3)),
                              3)}
    runs = {}
    for name, (net, m) in exhaustive.items():
        spec = ModelSpec.for_network(net, m, criterion=criterion)
        runs[name] = nd.exhaustive_search(net, spec, cfg())
    for name, (net, m) in descents.items():
        spec = ModelSpec.for_network(net, m, criterion=criterion)
        for seed in range(5):
            runs[f"cd-{name}-{seed}"] = nd.coordinate_descent(net, spec, cfg(
                algorithm="coordinate_descent", seed=seed, restarts=7))
    return {name: report.to_json(exclude_wall_time=True)
            for name, report in runs.items()}


@pytest.mark.parametrize("criterion", ["As", "Ds"])
def test_reports_identical_with_the_screen_off(report_cache, monkeypatch,
                                               criterion):
    # the screen changes which designs reach eigh, never a report
    screened = _screened_runs(report_cache, criterion)
    force_screen_off(monkeypatch)
    assert _screened_runs(report_cache, criterion) == screened


# runs whose reports the kernel queue must keep at any chunk size: example
# 4 at m = 3, where the pruned best ties the unpruned one exactly and the
# unpruned stream reaches that value 24 times (the budget keeps the first
# ten and cuts a tail table); label symmetry off; and two workers, on a
# network with a group and on one without
_QUEUE_RUNS = {
    "ex4-m3": (("ex", 4), 3, {}),
    "ex4-m3-plain": (("ex", 4), 3, {"use_automorphisms": False,
                                    "max_designs": 20_300}),
    "ex1-m3-labels-off": (("ex", 1), 3, {"use_label_symmetry": False,
                                         "max_designs": 3000}),
    "rc3x3-m3-w2": (("rowcol", 3, 3, 3), 3, {"workers": 2}),
    "ex2-m3-w2": (("ex", 2), 3, {"workers": 2}),
}


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_reports_identical_at_any_chunk_size(report_cache, monkeypatch,
                                             chunk):
    # chunks of 1, 2 and 7 designs, and tail tables 0-2 positions wide:
    # the queue then takes the kernel's values at least that many at a
    # time, over many more chunks, and the reports stay byte for byte
    # those at the default size
    def reports() -> dict:
        out = {}
        for name, (key, m, options) in _QUEUE_RUNS.items():
            net = report_cache.network(key)
            out[name] = nd.exhaustive_search(
                net, ModelSpec.for_network(net, m),
                cfg(**options)).to_json(exclude_wall_time=True)
        return out

    default = reports()
    ex4 = report_cache.network(("ex", 4))
    assert json.loads(default["ex4-m3"])["best_value"] == \
        json.loads(default["ex4-m3-plain"])["best_value"]
    ends = itertools.accumulate(
        size for size, _ in search._stream(None, (), ex4.n_design, 3, True,
                                           None))
    assert 20_300 not in set(ends)  # the budget cuts a table
    monkeypatch.setattr(search, "_CHUNK_DESIGNS", chunk)
    for group in (None, nd.find_automorphisms(ex4)):
        for m in (2, 3):
            stream = search._stream(group, (), ex4.n_design, m, True, None)
            assert all(len(live) <= chunk
                       for _, live in itertools.islice(stream, 2000)
                       if live is not None)
    assert reports() == default


def test_a_one_candidate_run_builds_no_table_and_screens_nothing(
        examples, monkeypatch):
    # a run cut to one design takes it from a walk to the leaf, not from a
    # tail table, and values it with the kernel alone: no table and no
    # screen, at one worker or two
    calls = []

    def record(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(search, "_tail_table",
                        record("table", search._tail_table))
    monkeypatch.setattr(lnem, "_screen", record("screen", lnem._screen))
    for net, m in ((examples[2], 4), (nd.augment_blocks([3, 3, 3, 3], 3), 3)):
        for workers in (1, 2):
            report = nd.exhaustive_search(net, ModelSpec.for_network(net, m),
                                          cfg(max_designs=1, workers=workers))
            assert report.num_considered == 1 and report.partial
    assert calls == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: relabeling a "
                   "design changes the last bits of its value, so the "
                   "pruned best misses the unpruned one by an ulp or two")
def test_pruned_best_ties_unpruned_at_ex4_m4(report_cache):
    # the pruned best is 0.8333333333333321 and the unpruned best
    # 0.8333333333333316; the fix of ROADMAP item 4 turns this test green
    pruned = report_cache.exhaustive(("ex", 4), 4, True)
    unpruned = report_cache.exhaustive(("ex", 4), 4, False)
    assert pruned.best_value == unpruned.best_value


def test_tie_break_earliest_design(path312):
    spec = ModelSpec.for_network(path312, 2)
    report = nd.exhaustive_search(path312, spec, cfg(use_label_symmetry=False,
                                                     use_automorphisms=False))
    ev = DesignEvaluator(path312, spec)
    minima = [x for x in product((1, 2), repeat=3)
              if ev.value(x) is not None and ev.value(x) == report.best_value]
    assert report.best_design == min(minima)


def test_best_value_matches_direct_evaluation(report_cache, path312):
    # every search reports the value that `values` gives its best design,
    # bit for bit: exhaustive search on example 1 at m = 2, on example 6 at
    # m = 2 (hundreds of near-ties) and on blocks [3,3,3,3] at m = 3 (F'F
    # singular for every design), each at one worker and two; coordinate
    # descent on rc 4x4 at m = 4; and the plugin loop on path312
    report = report_cache.exhaustive(("ex", 1), 2, True)
    net = report_cache.network(("ex", 1))
    spec = ModelSpec.for_network(net, 2)
    assert nd.criterion_for_design(net, report.best_design, spec) == report.best_value
    runs = [(net, 2, nd.exhaustive_search, cfg())]
    for net, m in ((report_cache.network(("ex", 6)), 2),
                   (nd.augment_blocks([3, 3, 3, 3], 3), 3)):
        runs += [(net, m, nd.exhaustive_search, cfg(workers=w))
                 for w in (1, 2)]
    runs.append((nd.augment_row_column(4, 4, 4), 4, nd.coordinate_descent,
                 cfg(algorithm="coordinate_descent", restarts=20)))
    plugin = functools.partial(nd.run_with_plugins,
                               next_fn=lex_stream_next(3, 2), stop_fn=None)
    runs.append((path312, 2, plugin, cfg(use_label_symmetry=False)))
    for net, m, run, config in runs:
        spec = ModelSpec.for_network(net, m)
        report = run(net, spec, config=config)
        direct = DesignEvaluator(net, spec).values([report.best_design])[0]
        assert report.best_value.hex() == direct.hex(), (run, net.n_design)


def test_budget_flags_partial(examples):
    spec = ModelSpec.for_network(examples[1], 2)
    report = nd.exhaustive_search(examples[1], spec, cfg(max_designs=5))
    assert report.partial
    assert report.num_considered == 5
    full = nd.exhaustive_search(examples[1], spec, cfg(max_designs=512))
    assert not full.partial
    assert full.num_considered == 512


def test_library_default_is_one_worker(examples, monkeypatch):
    # a library call that names no worker count runs at one; None lets the
    # search choose: by stream size for exhaustive search, all cores for
    # coordinate descent
    seen = []
    run_tasks = search._run_tasks

    def record(state, fn, tasks, workers):
        seen.append(workers)
        return run_tasks(state, fn, tasks, 1)

    monkeypatch.setattr(search, "_run_tasks", record)
    monkeypatch.setattr(search, "_usable_cores", lambda: 4)
    net = examples[3]
    spec = ModelSpec.for_network(net, 2)
    for workers in (SearchConfig.workers, None):
        nd.exhaustive_search(net, spec, cfg(max_designs=16_384,
                                            workers=workers))
        nd.coordinate_descent(net, spec, cfg(algorithm="cd", restarts=2,
                                             workers=workers))
    assert seen == [1, 1, 4, 4]


def test_default_workers_count_the_cores_this_process_may_use(examples,
                                                             monkeypatch):
    # four CPUs on the machine but an affinity of one: workers=None hands
    # one worker to the runner, from `_plan` and from coordinate descent;
    # where the platform reports no affinity, every CPU counts.  The runner
    # only records, so no process starts and no task runs
    seen = []
    monkeypatch.setattr(search, "_run_tasks",
                        lambda state, fn, tasks, workers:
                            seen.append(workers) or iter(()))
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    net = examples[3]  # 524,288 designs at m = 2, over _SERIAL_DESIGNS
    spec = ModelSpec.for_network(net, 2)

    def both() -> list[int]:
        del seen[:]
        nd.exhaustive_search(net, spec, cfg(workers=None))
        nd.coordinate_descent(net, spec, cfg(algorithm="cd", restarts=4,
                                             workers=None))
        return seen

    assert search._plan(net.n_design, 2, True, None, None)[1] == 1
    assert both() == [1, 1]
    monkeypatch.delattr(search.os, "sched_getaffinity")
    assert search._usable_cores() == 4
    assert both() == [4, 4]


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


_ORDER_CASES = {
    "blocks3333-m3": (nd.augment_blocks([3, 3, 3, 3], 3), 3, None),
    "rc4x4-m3": (nd.augment_row_column(4, 4, 3), 3, 20_000),
    "ex4-m3": (nd.example_network(4), 3, None),
    "crossover3x3-period-blocks": (
        nd.augment_crossover(3, 3, 3, period_blocks=True), 3, None),
}


@pytest.mark.parametrize("name", sorted(_ORDER_CASES))
def test_reports_do_not_depend_on_the_element_order(monkeypatch, name):
    # the chain-product table against two other orders of the same
    # elements: the sorted table the public constructor keeps of a shuffled
    # listing (on some networks the chain order is sorted already), and a
    # random order with the identity first; the identity is key 0 of each,
    # and a least key names one image whichever element reaches it
    net, m, budget = _ORDER_CASES[name]
    spec = ModelSpec.for_network(net, m)
    chain = nd.find_automorphisms(net)
    elements = chain.elements
    order = np.random.default_rng(0).permutation(chain.size)
    rebuilt = nd.AutomorphismGroup([elements[i] for i in order], net)
    assert rebuilt.elements == elements
    rows = np.concatenate([[0], order[order != 0]])
    shuffled = nd.AutomorphismGroup._from_chain(chain._table[rows], net)
    assert shuffled.elements == elements
    assert not np.array_equal(shuffled._table, chain._table)
    d = net.n_design
    identity = [(m + 2) ** (d - 1 - p) for p in range(d)]
    for group in (chain, rebuilt, shuffled):
        assert group.weights(m)[:, 0].tolist() == identity

    xs = np.random.default_rng(1).integers(1, m + 1, size=(200, d))
    least = chain.canonical_representatives(xs)
    for group in (rebuilt, shuffled):
        assert np.array_equal(group.canonical_representatives(xs), least)
        for x in [*xs[:50], *least[:50]]:
            assert group.is_canonical(x) == chain.is_canonical(x)
    assert all(chain.is_canonical(x) for x in least[:50])

    def reports():
        return [*(nd.exhaustive_search(net, spec,
                                       cfg(workers=w, max_designs=budget))
                  .to_json(exclude_wall_time=True) for w in (1, 2)),
                nd.coordinate_descent(net, spec, cfg(restarts=6, seed=3))
                .to_json(exclude_wall_time=True)]

    expected = reports()
    for group in (rebuilt, shuffled):
        monkeypatch.setattr(search, "find_automorphisms",
                            lambda *args, group=group: group)
        assert reports() == expected


def test_searches_never_build_the_sorted_listing(monkeypatch):
    # the listing is for `elements`, iteration and `design_images`; every
    # search reads the chain-product table
    groups = []

    def spy(*args):
        groups.append(nd.find_automorphisms(*args))
        return groups[-1]

    monkeypatch.setattr(search, "find_automorphisms", spy)
    net = nd.augment_blocks([3, 3, 3, 3], 3)
    spec = ModelSpec.for_network(net, 3)
    assert nd.exhaustive_search(net, spec, cfg(max_designs=5_000)).partial
    nd.coordinate_descent(net, spec, cfg(restarts=2, seed=0))
    assert len(groups) == 2
    assert not any("_perms" in vars(group) for group in groups)


def _label_canonical(x) -> bool:
    top = 0
    for t in x:
        if t > top + 1:
            return False
        top = max(top, t)
    return True


@pytest.mark.parametrize("n,m,symmetry", [(9, 3, True), (3, 2, False)],
                         ids=["blocks333-m3", "path312-no-label-symmetry"])
def test_plan_covers_the_first_budget_designs(n, m, symmetry, monkeypatch):
    # the stream of blocks [3,3,3] at m=3 (9 design nodes, 3,281 designs)
    # and of path312 without label symmetry, rebuilt from itertools.product
    designs = [x for x in product(range(1, m + 1), repeat=n)
               if not symmetry or _label_canonical(x)]
    monkeypatch.setattr(search, "_usable_cores", lambda: 3)
    for workers in (1, 2, 3, 4, None):
        for budget in (None, *range(1, len(designs) + 1)):
            tasks, planned, partial = search._plan(n, m, symmetry, workers,
                                                   budget)
            # None: one worker for a cut stream of fewer than
            # _SERIAL_DESIGNS designs, else all cores
            cut = len(designs) if budget is None else budget
            assert planned == (workers or (
                1 if cut < search._SERIAL_DESIGNS else 3))
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
            if planned == 1:
                assert [prefix for prefix, _ in tasks] == [()]
            else:
                assert (len(tasks) >= search._TASKS_PER_WORKER * planned
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
    # The group, each chunk's `_bounds` answer and the kernel's values of
    # each queue are memoized across the runs; the unbudgeted comparison
    # above checks their answers against the oracle.
    key = ("blocks", (3, 3, 3), 3)
    net = report_cache.network(key)
    spec = ModelSpec.for_network(net, 3)
    outcomes = oracle_outcomes(net, 3, True)
    group = nd.find_automorphisms(net)
    run_tasks = search._run_tasks
    answers: dict = {}

    def memoized(name):
        real = getattr(DesignEvaluator, name)

        def memo(self, xs):
            key = name, xs.shape, xs.tobytes()
            if key not in answers:
                answers[key] = real(self, xs)
            return answers[key]
        return memo

    def in_process(state, fn, tasks, workers):
        return run_tasks(state, fn, tasks, 1)

    monkeypatch.setattr(search, "find_automorphisms", lambda net, cap: group)
    for name in ("_bounds", "_value_array"):
        monkeypatch.setattr(DesignEvaluator, name, memoized(name))
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
    assert group.weights(2).dtype == object
    expected = oracle_report(oracle_outcomes(net, 2, True, limit=2000))
    expected["partial"] = True
    report = nd.exhaustive_search(net, ModelSpec.for_network(net, 2),
                                  cfg(max_designs=2000, workers=workers))
    assert report_fields(report) == expected
    assert report.num_skipped_noncanonical > 0


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n,m,dtype", [(15, 2, np.int32), (16, 2, np.float64),
                                       (26, 2, np.float64), (27, 2, np.int64),
                                       (13, 3, np.int32), (14, 3, np.float64)])
def test_pruned_search_at_the_int32_walk_keys_edge_matches_oracle(
        n, m, dtype, workers, monkeypatch):
    # the walk's keys lie below (m+2)^n, which straddles 2^31 between 15
    # and 16 and between 13 and 14, and 2^53 between 26 (4^26 = 2^52) and
    # 27; the 3-worker plan starts tasks below the root, so sibling steps
    # also run after a prefix
    net = cycle_network(n)
    group = nd.find_automorphisms(net)
    monkeypatch.setattr(search, "find_automorphisms", lambda net, cap: group)
    expected = oracle_report(oracle_outcomes(net, m, True, limit=2000))
    expected["partial"] = True
    report = nd.exhaustive_search(net, ModelSpec.for_network(net, m),
                                  cfg(max_designs=2000, workers=workers))
    assert report_fields(report) == expected
    assert report.num_skipped_noncanonical > 0
    assert group.weights(m).dtype == dtype


def test_searches_build_their_key_tables_before_the_pool(examples,
                                                         monkeypatch):
    # every search reads `weights(m)` alone, and it is built before tasks
    # run, so pool workers inherit it instead of building their own; the
    # plugin loop reads it too
    net = examples[4]
    spec = ModelSpec.for_network(net, 2)
    run_tasks = search._run_tasks
    built = []

    def record(state, fn, tasks, workers):
        built.append(list(state[1]._weights))
        return run_tasks(state, fn, tasks, workers)

    monkeypatch.setattr(search, "_run_tasks", record)
    nd.exhaustive_search(net, spec, cfg(max_designs=1))
    nd.coordinate_descent(net, spec, cfg(algorithm="cd", restarts=1))
    assert built == [[2], [2]]
    groups = []

    def find(net, cap):
        groups.append(nd.find_automorphisms(net, cap))
        return groups[-1]

    monkeypatch.setattr(search, "find_automorphisms", find)
    nd.run_with_plugins(net, spec, lex_stream_next(net.n_design, 2), None,
                        cfg(max_designs=50))
    assert list(groups[0]._weights) == [2]


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


def _count_evaluator_calls(monkeypatch) -> dict[str, list]:
    """Patch `_bounds` and `_value_array` to record, per method, the designs
    of each call as a list of tuples."""
    calls: dict[str, list] = {"_bounds": [], "_value_array": []}
    for name, seen in calls.items():
        def counted(self, designs, _real=getattr(DesignEvaluator, name),
                    _seen=seen):
            _seen.append(list(map(tuple, np.asarray(designs).tolist())))
            return _real(self, designs)
        monkeypatch.setattr(DesignEvaluator, name, counted)
    return calls


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(_CD_ORACLE_CASES))
def test_cd_lockstep_matches_sequential_oracle(report_cache, monkeypatch,
                                               case, workers):
    # 7 restarts: three workers get blocks of 2, 2 and 3 descents
    key, m = _CD_ORACLE_CASES[case]
    net = report_cache.network(key)
    spec = ModelSpec.for_network(net, m)
    calls = _count_evaluator_calls(monkeypatch)
    for seed in range(5):
        if (case, seed) not in _cd_oracle_reports:
            orbits: set = set()
            _cd_oracle_reports[case, seed] = (
                oracle_coordinate_descent(net, m, seed, 7, orbits), orbits)
        oracle, orbits = _cd_oracle_reports[case, seed]
        for seen in calls.values():
            del seen[:]
        report = nd.coordinate_descent(net, spec, cfg(
            algorithm="coordinate_descent", seed=seed, restarts=7,
            workers=workers))
        assert _report_without_wall_time(report) == oracle, seed
        if workers == 1:
            # one task: each orbit is screened at most once and valued by
            # the kernel at most once, and every orbit a descent reached,
            # num_eval + num_invalid of them, was screened or valued
            screened = [x for call in calls["_bounds"] for x in call]
            valued = [x for call in calls["_value_array"] for x in call]
            assert len(screened) == len(set(screened))
            assert len(valued) == len(set(valued))
            assert len(orbits) == report.num_eval + report.num_invalid
            assert orbits <= set(screened) | set(valued)
            # a round values only orbits that a descent reaches
            assert set(valued) <= orbits


def test_cd_lockstep_evaluates_in_chunks(examples, monkeypatch):
    # 300 live descents: the first round screens their start designs in
    # calls of at most _CHUNK_DESIGNS, and the report still matches
    net, m, restarts = examples[2], 3, 300
    calls = _count_evaluator_calls(monkeypatch)
    report = nd.coordinate_descent(net, ModelSpec.for_network(net, m), cfg(
        algorithm="coordinate_descent", seed=3, restarts=restarts))
    sizes = {name: [len(call) for call in seen] for name, seen in calls.items()}
    assert sizes["_bounds"][0] == search._CHUNK_DESIGNS
    assert max(sizes["_bounds"] + sizes["_value_array"]) <= search._CHUNK_DESIGNS
    assert _report_without_wall_time(report) == \
        oracle_coordinate_descent(net, m, 3, restarts)


def test_cd_values_few_orbits_in_few_calls(monkeypatch):
    # rc 4x4 at m = 4, 20 restarts: the descents reach 4,644 orbits; the
    # kernel values few of them, and the evaluator is called in few batches
    net = nd.augment_row_column(4, 4, 4)
    calls = _count_evaluator_calls(monkeypatch)
    report = nd.coordinate_descent(net, ModelSpec.for_network(net, 4), cfg(
        algorithm="coordinate_descent", seed=0, restarts=20))
    assert (report.num_eval, report.num_invalid) == (4631, 13)
    valued = [x for call in calls["_value_array"] for x in call]
    assert len(valued) == len(set(valued)) <= 150
    assert len(calls["_bounds"]) + len(calls["_value_array"]) <= 200


def test_cd_refuses_a_design_budget(examples):
    # a descent has no stream to cut: a budget is an error, not ignored
    spec = ModelSpec.for_network(examples[1], 2)
    config = cfg(algorithm="coordinate_descent", restarts=3, max_designs=5)
    for run in (nd.coordinate_descent, nd.run_search):
        with pytest.raises(ValueError, match="exhaustive search only"):
            run(examples[1], spec, config)


def _assert_interval_rule_matches_kernel(ev: DesignEvaluator, designs) -> int:
    """For every ordered pair of `designs` and every interval a descent can
    hold for each (the kernel's value as a point, and the certified bound's
    interval), `_better_by` agrees with `_better` on `_value_array` values
    wherever it decides, and leaves every tie to the kernel unless both
    sides are points.  Returns how many decisions it checked."""
    xs = np.array(designs, dtype=np.int64)
    values = ev._value_array(xs).tolist()
    held = [[(v, v)] for v in values]
    rows, bounds = ev._bounds(xs)
    # the designs `_bounds` leaves out leave a treatment unused: INVALID
    assert all(v != v for i, v in enumerate(values) if i not in set(rows))
    for row, (lo, hi) in zip(rows.tolist(), bounds.tolist()):
        if lo == lo:  # certified
            assert lo <= held[row][0][0] <= hi
            held[row].append((lo, hi))
    decided = 0
    for vy, ys in zip(values, held):
        for vx, xs_ in zip(values, held):
            exact = search._better(vy, vx)
            for y in ys:
                for x in xs_:
                    rule = search._better_by(y, x)
                    if vy == vx and (y[0] < y[1] or x[0] < x[1]):
                        assert rule is None, (vy, y, x)
                    if rule is not None:
                        assert rule == exact, (vy, vx, y, x)
                        decided += 1
    return decided


@st.composite
def _screened_pairs(draw):
    """(network, m, x, y, criterion): x from `screened_networks`, and y
    x with up to two labels redrawn, which may leave a treatment unused."""
    net, m, x, criterion = draw(screened_networks())
    y = list(x)
    for _ in range(draw(st.integers(0, 2))):
        y[draw(st.integers(0, len(y) - 1))] = draw(st.integers(1, m))
    return net, m, x, tuple(y), criterion


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_screened_pairs())
def test_interval_rule_matches_kernel_on_random_networks(case):
    net, m, x, y, criterion = case
    ev = DesignEvaluator(net, ModelSpec.for_network(net, m, criterion=criterion))
    _assert_interval_rule_matches_kernel(ev, [x, y])


# distinct orbits of rc 4x4 at m = 4 whose kernel values are all
# 0.5555555555555557, and one just above it
_RC4X4_TIES = [(1, 1, 3, 4, 2, 3, 4, 1, 3, 4, 1, 2, 4, 2, 2, 3),
               (1, 2, 3, 3, 2, 3, 1, 4, 3, 1, 4, 2, 4, 4, 2, 1),
               (1, 2, 3, 3, 2, 3, 1, 4, 3, 4, 2, 1, 4, 1, 4, 2)]
_RC4X4_NEAR_TIE = (1, 2, 2, 4, 2, 1, 4, 3, 3, 4, 1, 2, 4, 3, 3, 1)


@pytest.mark.parametrize("criterion", ["As", "Ds"])
def test_interval_rule_matches_kernel_on_rc4x4(criterion):
    net = nd.augment_row_column(4, 4, 4)
    ev = DesignEvaluator(net, ModelSpec.for_network(net, 4, criterion=criterion))
    group = nd.find_automorphisms(net)
    # certified, so that each tie meets the rule as two bound intervals
    rows, bounds = ev._bounds(np.array(_RC4X4_TIES))
    assert rows.tolist() == [0, 1, 2] and not np.isnan(bounds).any()
    if criterion == "As":
        values = ev._value_array(np.array(_RC4X4_TIES)).tolist()
        assert values == [0.5555555555555557] * 3
        assert len({tuple(r) for r in group.canonical_representatives(
            _RC4X4_TIES).tolist()}) == 3
    # seeded start designs, each with its first few sweep neighbours
    designs = list(_RC4X4_TIES) + [_RC4X4_NEAR_TIE]
    for restart in range(8):
        x = _start_design(11, restart, net.n_design, 4)
        designs.append(x)
        designs += [x[:i] + (x[i] % 4 + 1,) + x[i + 1:] for i in range(4)]
    assert _assert_interval_rule_matches_kernel(ev, designs) > len(designs) ** 2


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


def test_plugin_reports_the_same_design_whatever_its_container(examples):
    # the first 300 stream designs of example 1 at m = 2, handed back as
    # int tuples, lists, int64 arrays and tuples of whole-number floats:
    # one JSON report, with the best design an int tuple
    net = examples[1]
    spec = ModelSpec.for_network(net, 2)
    designs = list(itertools.islice(nd.enumerate_designs(10, 2), 300))

    def stream(convert):
        it = map(convert, designs)
        return lambda xs, ds: next(it, None)

    reports = [nd.run_with_plugins(net, spec, stream(convert), None, cfg())
               for convert in (tuple, list, np.array,
                               lambda x: tuple(map(float, x)))]
    assert type(reports[0].best_design) is tuple
    assert all(type(v) is int for v in reports[0].best_design)
    assert len({r.to_json(exclude_wall_time=True) for r in reports}) == 1


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


@pytest.mark.parametrize("use", [True, False])
@pytest.mark.parametrize("bad,match", [
    ((1, 1, 1, 1, 1, 2, 1, 3, 1, 1), r"treatments must lie in 1\.\.2"),
    ((1, 2, 1), "design length 3 does not match"),
], ids=["label", "length"])
def test_plugin_rejects_a_malformed_candidate_with_or_without_a_group(
        examples, use, bad, match):
    # a candidate is checked before the canonicity gate: the label case is
    # not canonical under example 1's group, and is refused all the same
    net = examples[1]
    if len(bad) == net.n_design:
        assert not nd.find_automorphisms(net).is_canonical(bad)
    with pytest.raises(ValueError, match=match):
        nd.run_with_plugins(net, ModelSpec.for_network(net, 2),
                            lambda xs, ds: None if xs else bad, None,
                            cfg(use_automorphisms=use))


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
    # non-integer counts are refused up front, not deep in the run; True
    # would otherwise be a budget of 1
    for bad in ({"max_designs": 2.5}, {"restarts": 2.5}, {"workers": 1.5},
                {"seed": 1.5}, {"max_group_size": 10.0}, {"max_designs": True},
                {"workers": True}, {"restarts": True}, {"seed": False},
                {"max_group_size": np.True_}, {"seed": None}, {"restarts": "3"}):
        with pytest.raises(ValueError, match="must be an integer"):
            SearchConfig(**bad)
    SearchConfig(max_designs=1, max_group_size=1)
    config = SearchConfig(restarts=np.int64(2), seed=np.int64(3),
                          max_designs=np.int64(5), workers=np.int32(1),
                          max_group_size=np.uint8(9))
    assert [type(getattr(config, f)) for f in ("restarts", "seed", "max_designs",
                                              "workers", "max_group_size")] \
        == [int] * 5
    # a reference value must be a finite positive number: NaN or inf would
    # put NaN or Infinity, which is not JSON, in the report, and "0.5"
    # would fail only after the whole search
    for bad in (np.nan, np.inf, -np.inf, 0, -1.0, "0.5", True, np.True_):
        with pytest.raises(ValueError, match="reference_value"):
            SearchConfig(reference_value=bad)
    config = SearchConfig(reference_value=np.float32(0.5))
    assert type(config.reference_value) is float and config.reference_value == 0.5
    # a switch must be a bool: "no" would run as True
    for name in ("use_automorphisms", "use_label_symmetry"):
        for bad in ("no", 0, 1, 1.0, None):
            with pytest.raises(ValueError, match=f"{name} must be a bool"):
                SearchConfig(**{name: bad})
        assert getattr(SearchConfig(**{name: np.False_}), name) is False
