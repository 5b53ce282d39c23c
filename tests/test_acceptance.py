"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.
"""

from __future__ import annotations

import json
import time
from itertools import combinations, product

import numpy as np
import pytest

import netdesign as nd
from netdesign.lnem import DesignEvaluator, ModelSpec
from netdesign.search import SearchConfig

from helpers import burnside_orbit_count


def _report_line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_c1_automorphism_counts():
    cases = [
        ("example 1", nd.example_network(1), 8),
        ("example 2", nd.example_network(2), 1),
        ("example 3", nd.example_network(3), 8),
        ("example 4", nd.example_network(4), 384),
        ("example 5", nd.example_network(5), 2),
        ("example 6", nd.example_network(6), 6),
        ("blocks 3x3", nd.augment_blocks([3, 3, 3], 3), 1296),
        ("row-column 4x4", nd.augment_row_column(4, 4, 4), 1152),
    ]
    failures = []
    worst = 0.0
    for label, net, expected in cases:
        t0 = time.perf_counter()
        z = nd.find_automorphisms(net).size
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        if z != expected or elapsed >= 5.0:
            failures.append(f"{label}: z={z} (want {expected}) {elapsed:.2f}s")
    _report_line("criterion 1 (automorphism counts)", not failures,
                 failures or f"8/8 exact, slowest {worst:.2f}s")


# ---------------------------------------------------------------- criterion 2

# arms compared at these (fixture, m) points; appendix examples 3, 5, 6 at
# m=3 are left out (3^19 designs for example 3; 2.4M-design arms for 5 and 6
# do not fit the criterion's 10-minute budget)
_C2_TIE_CASES = [
    (("ex", 1), 2), (("ex", 2), 2), (("ex", 3), 2), (("ex", 4), 2),
    (("ex", 5), 2), (("ex", 6), 2),
    (("ex", 1), 3), (("ex", 2), 3), (("ex", 4), 3),
    (("blocks", (3, 3, 3), 2), 2), (("blocks", (3, 3, 3), 3), 3),
    (("blocks", (3, 3, 3, 3), 2), 2), (("blocks", (3, 3, 3, 3), 3), 3),
    (("rowcol", 3, 3, 2), 2), (("rowcol", 3, 3, 3), 3),
]
# canonical-design count vs brute-force orbit count, where m^d fits the
# oracle's space cap
_C2_ORBIT_CASES = [
    (("ex", 1), 2), (("ex", 1), 3), (("ex", 2), 2), (("ex", 2), 3),
    (("ex", 3), 2), (("ex", 4), 2), (("ex", 4), 3), (("ex", 5), 2),
    (("ex", 6), 2),
    (("blocks", (3, 3, 3), 2), 2), (("blocks", (3, 3, 3), 3), 3),
    (("rowcol", 3, 3, 2), 2), (("rowcol", 3, 3, 3), 3),
    (("blocks", (3, 3, 3, 3), 2), 2),
]


# designs per batch of `_count_canonical`
_C2_BLOCK = 65_536


def _count_canonical(group: nd.AutomorphismGroup, m: int) -> int:
    """How many of the m^d designs `group` calls canonical: one
    `is_canonical` call per design when they fit in one _C2_BLOCK, else
    whole blocks of consecutive designs, each design canonical iff it is
    its own `canonical_representatives` row."""
    d = group.network.n_design
    total = m ** d
    if total <= _C2_BLOCK:
        return sum(1 for x in product(range(1, m + 1), repeat=d)
                   if group.is_canonical(x))
    powers = m ** np.arange(d - 1, -1, -1)
    count = 0
    for start in range(0, total, _C2_BLOCK):
        index = np.arange(start, min(start + _C2_BLOCK, total))
        block = index[:, None] // powers % m + 1
        count += int((group.canonical_representatives(block) == block)
                     .all(axis=1).sum())
    return count


def test_c2_orbit_pruning_soundness(report_cache):
    t_start = time.perf_counter()
    problems = []
    for key, m in _C2_TIE_CASES:
        without = report_cache.exhaustive(key, m, False)
        with_ = report_cache.exhaustive(key, m, True)
        if without.best_value != with_.best_value:
            problems.append(f"{key} m={m}: {without.best_value!r} != {with_.best_value!r}")
        if with_.num_eval > without.num_eval:
            problems.append(f"{key} m={m}: pruning increased evals")
        for report in (without, with_):
            if report.num_considered != (report.num_eval + report.num_invalid
                                         + report.num_skipped_noncanonical
                                         + report.num_cache_hits):
                problems.append(f"{key} m={m}: counter identity fails")
    # the paper's t1 row for example 3 at m = 2, matched exactly
    without = report_cache.exhaustive(("ex", 3), 2, False)
    with_ = report_cache.exhaustive(("ex", 3), 2, True)
    counts = (without.num_eval, with_.num_eval, with_.num_skipped_noncanonical)
    if counts != (524_287, 221_183, 303_104):
        problems.append(f"ex3 m=2: evals/evals/skipped {counts}, "
                        f"not 524287/221183/303104")
    for key, m in _C2_ORBIT_CASES:
        net = report_cache.network(key)
        group = nd.find_automorphisms(net)
        orbits = nd.count_orbits_bruteforce(net, m, group=group)
        canonical = _count_canonical(group, m)
        if canonical != orbits:
            problems.append(f"{key} m={m}: canonical {canonical} != orbits {orbits}")
        if burnside_orbit_count(group, m) != orbits:
            problems.append(f"{key} m={m}: burnside disagrees with partition")
    elapsed = time.perf_counter() - t_start
    if elapsed >= 600:
        problems.append(f"over budget: {elapsed:.0f}s")
    _report_line("criterion 2 (orbit-pruning soundness)", not problems,
                 problems or f"{len(_C2_TIE_CASES)} exact ties, "
                             f"{len(_C2_ORBIT_CASES)} orbit-count matches, "
                             f"{elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 3

def test_c3_evaluation_counts(report_cache):
    e2_without = report_cache.exhaustive(("ex", 2), 2, False)
    e2_with = report_cache.exhaustive(("ex", 2), 2, True)
    ok2 = e2_without.num_eval == 511 and e2_with.num_eval == 511
    without = report_cache.exhaustive(("ex", 1), 2, False)
    with_ = report_cache.exhaustive(("ex", 1), 2, True)
    exact = without.num_eval == 507 and with_.num_eval == 236
    detail = (f"ex2 511/511; ex1 {without.num_eval}/{with_.num_eval} "
              f"(published 507/236)")
    if not exact:
        # decomposition must reconcile the counts and the pruning ratio must
        # stay within 5% of the published 236/507
        for rep in (without, with_):
            assert rep.num_considered == (rep.num_eval
                                          + rep.num_skipped_noncanonical
                                          + rep.num_invalid
                                          + rep.num_cache_hits)
        ratio = with_.num_eval / without.num_eval
        ok_ratio = abs(ratio - 236 / 507) <= 0.05 * (236 / 507)
        detail += (f"; decomposition 512 = {without.num_eval}+0+"
                   f"{without.num_invalid} and 512 = {with_.num_eval}+"
                   f"{with_.num_skipped_noncanonical}+{with_.num_invalid}; "
                   f"ratio {ratio:.4f} vs 0.4655 (+/-5%)")
    else:
        ok_ratio = True
    _report_line("criterion 3 (evaluation counts)", ok2 and ok_ratio, detail)


# ---------------------------------------------------------------- criterion 4

def test_c4_walkthrough(path312):
    spec = ModelSpec.for_network(path312, 2)
    report = nd.exhaustive_search(
        path312, spec, SearchConfig(use_label_symmetry=False))
    passed = report.num_considered - report.num_skipped_noncanonical
    ok = report.num_considered == 8 and passed == 6
    _report_line("criterion 4 (3-node walkthrough)", ok,
                 f"{passed} of {report.num_considered} pass the canonicity check")


# ---------------------------------------------------------------- criterion 5

def _is_latin_square(design, size):
    rows = [design[size * r:size * r + size] for r in range(size)]
    want = list(range(1, size + 1))
    return (all(sorted(r) == want for r in rows)
            and all(sorted(r[c] for r in rows) == want for c in range(size)))


def test_c5_known_optimal_block_structures(report_cache):
    t_start = time.perf_counter()
    problems = []

    best = report_cache.exhaustive(("blocks", (3, 3, 3), 3), 3, True).best_design
    if not all(sorted(best[3 * b:3 * b + 3]) == [1, 2, 3] for b in range(3)):
        problems.append(f"blocks 3x3 optimum {best} is not a complete block design")

    best = report_cache.exhaustive(("rowcol", 3, 3, 3), 3, True).best_design
    if not _is_latin_square(best, 3):
        problems.append(f"row-column 3x3 optimum {best} is not a Latin square")

    best = report_cache.exhaustive(("blocks", (3, 3, 3, 3), 4), 4, True).best_design
    blocks = [best[3 * b:3 * b + 3] for b in range(4)]
    concurrences = {pair: 0 for pair in combinations(range(1, 5), 2)}
    binary = all(len(set(b)) == 3 for b in blocks)
    for b in blocks:
        for pair in combinations(sorted(set(b)), 2):
            concurrences[pair] += 1
    balanced = len(set(concurrences.values())) == 1
    if not (binary and balanced):
        problems.append(f"blocks 4-of-3 optimum {best} is not a BIBD "
                        f"(concurrences {concurrences})")

    elapsed = time.perf_counter() - t_start
    if elapsed >= 900:
        problems.append(f"over budget: {elapsed:.0f}s")
    _report_line("criterion 5 (known-optimal block structures)", not problems,
                 problems or f"RCBD, Latin square, BIBD (lambda = "
                             f"{next(iter(concurrences.values()))}) in {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 6

def test_c6_coordinate_descent_efficiency(report_cache):
    t_start = time.perf_counter()
    floors = {1: 1.0, 2: 0.944, 3: 0.989, 4: 0.873, 5: 0.931, 6: 1.0}
    problems = []
    seen = {}
    for k in range(1, 7):
        reference = report_cache.exhaustive(("ex", k), 2, True).best_value
        net = report_cache.network(("ex", k))
        spec = ModelSpec.for_network(net, 2)
        report = nd.coordinate_descent(net, spec, SearchConfig(
            algorithm="coordinate_descent", restarts=100, seed=0,
            reference_value=reference))
        seen[k] = report.efficiency
        if report.efficiency is None or report.efficiency < floors[k] - 1e-12:
            problems.append(f"ex{k}: efficiency {report.efficiency} < {floors[k]}")
    for k in (1, 6):
        if seen[k] != 1.0:
            problems.append(f"ex{k}: efficiency {seen[k]} != 1.0")
    elapsed = time.perf_counter() - t_start
    if elapsed >= 300:
        problems.append(f"over budget: {elapsed:.0f}s")
    detail = ", ".join(f"ex{k}={seen[k]:.4f}" for k in seen)
    _report_line("criterion 6 (coordinate descent efficiency)", not problems,
                 problems or f"{detail} ({elapsed:.0f}s)")


# ---------------------------------------------------------------- criterion 7

_C7_FIXTURES = [
    (("ex", 1), 2), (("ex", 2), 2), (("ex", 3), 2),
    (("ex", 4), 3), (("ex", 5), 3), (("ex", 6), 3),
    (("blocks", (3, 3, 3), 3), 3), (("rowcol", 3, 3, 3), 3),
    (("blocks", (2, 2), 2), 2),
]


def test_c7_invariance_suite(report_cache):
    rng = np.random.default_rng(2024)
    problems = []
    for key, m in _C7_FIXTURES:
        net = report_cache.network(key)
        group = nd.find_automorphisms(net)
        spec = ModelSpec.for_network(net, m)
        ev = DesignEvaluator(net, spec)
        element_ids = (range(group.size) if group.size <= 400
                       else rng.choice(group.size, size=16, replace=False))
        for _ in range(100):
            x = tuple(int(v) for v in rng.integers(1, m + 1, size=net.n_design))
            vx = ev.value(x)
            images = group.design_images(x)
            for e in element_ids:
                vy = ev.value(tuple(int(v) for v in images[e]))
                if (vx is None) != (vy is None) or (
                        vx is not None and abs(vx - vy) > 1e-9 * abs(vx)):
                    problems.append(f"{key} m={m}: automorphism changed value")
                    break
            rho = list(rng.permutation(range(1, m + 1)))
            vz = ev.value(tuple(rho[t - 1] for t in x))
            if (vx is None) != (vz is None) or (
                    vx is not None and abs(vx - vz) > 1e-9 * abs(vx)):
                problems.append(f"{key} m={m}: relabeling changed value")
            f = ev.model_matrix(x)
            info = f.T @ f
            w = np.linalg.eigvalsh(info)
            if w.min() < -1e-9 * max(w.max(), 1.0):
                problems.append(f"{key} m={m}: information matrix not PSD")
        if problems:
            break
    # generalized inverse vs plain inverse on nonsingular instances
    net = report_cache.network(("ex", 2))
    spec = ModelSpec.for_network(net, 2)
    ev = DesignEvaluator(net, spec)
    checked = 0
    while checked < 100:
        x = tuple(int(v) for v in rng.integers(1, 3, size=10))
        f = ev.model_matrix(x)
        info = f.T @ f
        if np.linalg.cond(info) > 1e8:
            continue
        c = np.zeros(info.shape[0])
        c[1] = 1.0
        direct = float(c @ np.linalg.inv(info) @ c)
        value = ev.value(x)
        if value is None or abs(value - direct) > 1e-9 * direct:
            problems.append(f"ginv vs inv mismatch on {x}")
            break
        checked += 1
    _report_line("criterion 7 (invariance suite)", not problems,
                 problems or f"{len(_C7_FIXTURES)} fixtures x 100 designs, "
                             f"plus {checked} inverse cross-checks, all <= 1e-9")


# ---------------------------------------------------------------- criterion 8

def test_c8_determinism(report_cache):
    net = report_cache.network(("ex", 1))
    spec = ModelSpec.for_network(net, 2)
    blobs = set()
    for workers in (1, 2, 4):
        report = nd.exhaustive_search(net, spec,
                                      SearchConfig(seed=1234, workers=workers))
        blobs.add(report.to_json(exclude_wall_time=True))
    ok_ex = len(blobs) == 1

    net4 = report_cache.network(("ex", 4))
    spec4 = ModelSpec.for_network(net4, 2)
    blobs_cd = set()
    for workers in (1, 3):
        for _ in range(2):
            report = nd.coordinate_descent(net4, spec4, SearchConfig(
                algorithm="coordinate_descent", restarts=20, seed=77,
                workers=workers))
            blobs_cd.add(report.to_json(exclude_wall_time=True))
    ok_cd = len(blobs_cd) == 1

    # distinct seeds are not required to differ, but identical seeds must
    # round-trip through JSON bytes identically
    parsed = json.loads(next(iter(blobs)))
    ok_rt = json.dumps(parsed, indent=2, sort_keys=True) == next(iter(blobs))
    ok = ok_ex and ok_cd and ok_rt
    _report_line("criterion 8 (determinism)", ok,
                 f"exhaustive workers 1/2/4 identical: {ok_ex}; "
                 f"cd workers 1/3 twice identical: {ok_cd}; json stable: {ok_rt}")
