from __future__ import annotations

from itertools import islice, product

import numpy as np
import pytest

import netdesign as nd
from netdesign.lnem import DesignEvaluator, ModelSpec, _canonicalize_nuisance

from helpers import (exact_estimable, frozen_criterion, oracle_model_matrix,
                     oracle_value)


def test_model_matrix_path_worked_example(path312):
    spec = ModelSpec.for_network(path312, 2)
    f = nd.build_model_matrix(path312, (1, 2, 2), spec)
    expected = np.array([
        [1, 1, 0, 2],
        [1, 0, 1, 0],
        [1, 0, 1, 0],
    ], dtype=float)
    assert np.array_equal(f, expected)
    info = f.T @ f
    assert info[0, 0] == 3 and info[3, 3] == 4
    assert np.array_equal(info, info.T)
    assert np.array_equal(info, info.astype(int))


def test_model_matrix_shapes(examples):
    spec = ModelSpec.for_network(examples[1], 2)
    f = nd.build_model_matrix(examples[1], (1,) * 10, spec)
    assert f.shape == (10, 4)  # intercept, tau_1, gamma_1, gamma_2

    b4 = nd.augment_blocks([4, 4, 4, 4], 2)
    spec4 = ModelSpec.for_network(b4, 2)
    f4 = nd.build_model_matrix(b4, (1, 2) * 8, spec4)
    assert f4.shape == (16, 8)  # 16 measured rows, 1 + 1 + 6 columns


def test_block_rows_excluded_from_model_matrix():
    net = nd.augment_blocks([2, 2], 2)
    spec = ModelSpec.for_network(net, 2)
    f = nd.build_model_matrix(net, (1, 2, 1, 2), spec)
    assert f.shape == (4, 1 + 1 + 4)
    # every unit sees exactly its own block's pseudo-treatment effect
    assert np.array_equal(f[:, 4], np.array([1, 1, 0, 0.]))
    assert np.array_equal(f[:, 5], np.array([0, 0, 1, 1.]))


def test_single_treatment_design_invalid(examples):
    spec = ModelSpec.for_network(examples[1], 2)
    assert nd.criterion_for_design(examples[1], (1,) * 10, spec) is None
    assert nd.criterion_for_design(examples[1], (2,) * 10, spec) is None


def test_rank_deficient_but_estimable_design(examples):
    # only isolated node 8 differs: the information matrix is singular, yet
    # the treatment contrast is estimable through the generalized inverse
    x = tuple(2 if i == 7 else 1 for i in range(10))
    spec = ModelSpec.for_network(examples[1], 2)
    ev = DesignEvaluator(examples[1], spec)
    f = ev.model_matrix(x)
    info = f.T @ f
    assert np.linalg.matrix_rank(info) < info.shape[0]
    value = ev.value(x)
    assert value is not None
    ref = oracle_value(examples[1], x, 2)
    assert ref is not None and abs(value - ref) <= 1e-9 * ref


def test_m2_criterion_is_single_contrast_variance(path312):
    spec = ModelSpec.for_network(path312, 2)
    f = nd.build_model_matrix(path312, (1, 1, 2), spec)
    info = f.T @ f
    value = nd.evaluate_criterion(info, spec)
    c = np.array([0.0, 1.0, 0.0, 0.0])
    assert abs(value - c @ np.linalg.pinv(info) @ c) <= 1e-12


def test_example1_matches_pinv_oracle_everywhere(examples):
    net = examples[1]
    spec = ModelSpec.for_network(net, 2)
    ev = DesignEvaluator(net, spec)
    best_mine = None
    best_oracle = None
    for x in product((1, 2), repeat=10):
        mine = ev.value(x)
        ref = oracle_value(net, x, 2)
        assert (mine is None) == (ref is None), x
        if mine is None:
            continue
        assert abs(mine - ref) <= 1e-9 * abs(ref), x
        if best_mine is None or mine < best_mine:
            best_mine = mine
        if best_oracle is None or ref < best_oracle:
            best_oracle = ref
    assert abs(best_mine - best_oracle) <= 1e-9 * best_oracle


def test_automorphism_invariance_plain_network_bit_exact(examples, groups):
    net, group = examples[1], groups[1]
    ev = DesignEvaluator(net, ModelSpec.for_network(net, 2))
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = tuple(int(v) for v in rng.integers(1, 3, size=10))
        vx = ev.value(x)
        image = tuple(int(v) for v in
                      group.design_images(x)[rng.integers(0, group.size)])
        vy = ev.value(image)
        assert (vx is None) == (vy is None)
        if vx is not None:
            assert vx == vy  # identical integer info matrices


def test_automorphism_invariance_augmented_network():
    net = nd.augment_blocks([3, 3, 3], 3)
    group = nd.find_automorphisms(net)
    ev = DesignEvaluator(net, ModelSpec.for_network(net, 3))
    rng = np.random.default_rng(23)
    for _ in range(100):
        x = tuple(int(v) for v in rng.integers(1, 4, size=9))
        vx = ev.value(x)
        image = tuple(int(v) for v in
                      group.design_images(x)[rng.integers(0, group.size)])
        vy = ev.value(image)
        assert (vx is None) == (vy is None)
        if vx is not None:
            assert abs(vx - vy) <= 1e-9 * abs(vx)


def test_path_equivalent_designs_equal(path312):
    spec = ModelSpec.for_network(path312, 2)
    assert nd.criterion_for_design(path312, (1, 1, 2), spec) == \
        nd.criterion_for_design(path312, (1, 2, 1), spec)


def test_treatment_relabel_invariance(examples):
    rng = np.random.default_rng(29)
    for net, m in [(examples[1], 2), (examples[4], 3)]:
        spec = ModelSpec.for_network(net, m)
        ev = DesignEvaluator(net, spec)
        labels = list(range(1, m + 1))
        for _ in range(100):
            x = tuple(int(v) for v in rng.integers(1, m + 1, size=net.n_design))
            rho = list(rng.permutation(labels))
            y = tuple(rho[t - 1] for t in x)
            vx, vy = ev.value(x), ev.value(y)
            assert (vx is None) == (vy is None)
            if vx is not None:
                assert abs(vx - vy) <= 1e-9 * abs(vx)


def test_information_matrix_psd(examples):
    rng = np.random.default_rng(31)
    for net, m in [(examples[2], 2), (examples[5], 3),
                   (nd.augment_row_column(3, 3, 3), 3)]:
        spec = ModelSpec.for_network(net, m)
        ev = DesignEvaluator(net, spec)
        for _ in range(50):
            x = tuple(int(v) for v in rng.integers(1, m + 1, size=net.n_design))
            f = ev.model_matrix(x)
            info = f.T @ f
            w = np.linalg.eigvalsh(info)
            assert w.min() >= -1e-9 * max(w.max(), 1.0)


def test_generalized_inverse_matches_plain_inverse(examples):
    # on designs with nonsingular information, the eigendecomposition path
    # must agree with a direct inverse
    net = examples[2]
    spec = ModelSpec.for_network(net, 2)
    ev = DesignEvaluator(net, spec)
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 50:
        x = tuple(int(v) for v in rng.integers(1, 3, size=10))
        f = ev.model_matrix(x)
        info = f.T @ f
        if np.linalg.cond(info) > 1e8:
            continue
        inv = np.linalg.inv(info)
        c = np.array([0.0, 1.0, 0.0, 0.0])
        direct = float(c @ inv @ c)
        value = ev.value(x)
        assert value is not None
        assert abs(value - direct) <= 1e-9 * direct
        checked += 1


def test_duplicated_runs_halve_the_criterion(examples):
    spec = ModelSpec.for_network(examples[1], 2)
    f = nd.build_model_matrix(examples[1], (1, 1, 2, 2, 1, 2, 1, 1, 2, 1), spec)
    single = nd.evaluate_criterion(f.T @ f, spec)
    doubled = nd.evaluate_criterion(np.vstack([f, f]).T @ np.vstack([f, f]), spec)
    assert doubled == single / 2


def test_rcbd_beats_every_other_design_on_3_blocks_of_3():
    # exhaustive oracle over all 3^9 raw assignments
    net = nd.augment_blocks([3, 3, 3], 3)
    spec = ModelSpec.for_network(net, 3)
    ev = DesignEvaluator(net, spec)
    best_rcbd = None
    best_other = None
    for x in product((1, 2, 3), repeat=9):
        value = ev.value(x)
        if value is None:
            continue
        is_rcbd = all(sorted(x[3 * b:3 * b + 3]) == [1, 2, 3] for b in range(3))
        if is_rcbd:
            best_rcbd = value if best_rcbd is None else min(best_rcbd, value)
        else:
            best_other = value if best_other is None else min(best_other, value)
    assert best_rcbd is not None and best_other is not None
    assert best_rcbd < best_other


def test_ds_criterion(path312):
    spec = ModelSpec.for_network(path312, 2, criterion="Ds")
    f = nd.build_model_matrix(path312, (1, 1, 2), spec)
    info = f.T @ f
    value = nd.evaluate_criterion(info, spec)
    # m=2: determinant of a 1x1 covariance = the contrast variance itself
    as_value = nd.evaluate_criterion(info, ModelSpec.for_network(path312, 2))
    assert abs(value - as_value) <= 1e-12
    f = nd.build_model_matrix(path312, (1, 1, 1), spec)
    assert nd.evaluate_criterion(f.T @ f, spec) is None


def test_ds_criterion_m3_matches_pinv_determinant(examples):
    net = examples[2]
    spec = ModelSpec.for_network(net, 3, criterion="Ds")
    ev = DesignEvaluator(net, spec)
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 20:
        x = tuple(int(v) for v in rng.integers(1, 4, size=10))
        value = ev.value(x)
        if value is None:
            continue
        f = ev.model_matrix(x)
        info = f.T @ f
        cov = np.linalg.pinv(info)[1:3, 1:3]
        assert abs(value - np.linalg.det(cov)) <= 1e-9 * abs(value)
        checked += 1


def test_nuisance_canonicalization_is_value_neutral():
    net = nd.augment_row_column(3, 3, 3)
    spec = ModelSpec.for_network(net, 3)
    ev = DesignEvaluator(net, spec)
    rng = np.random.default_rng(41)
    for _ in range(20):
        x = tuple(int(v) for v in rng.integers(1, 4, size=9))
        f = ev.model_matrix(x)
        info = f.T @ f
        sorted_info = _canonicalize_nuisance(info, spec)
        # symmetric permutation of nuisance coordinates only
        assert np.array_equal(np.sort(np.linalg.eigvalsh(info)),
                              np.sort(np.linalg.eigvalsh(sorted_info))) or \
            np.allclose(np.linalg.eigvalsh(info), np.linalg.eigvalsh(sorted_info))
        assert np.array_equal(sorted_info[:6, :6], info[:6, :6])


def test_model_spec_validation(path312):
    with pytest.raises(ValueError):
        ModelSpec(m=1, total_treatments=1)
    with pytest.raises(ValueError):
        ModelSpec(m=3, total_treatments=2)
    with pytest.raises(ValueError):
        ModelSpec(m=2, total_treatments=2, criterion="E")
    net = nd.augment_blocks([2, 2], 2)
    with pytest.raises(ValueError):
        ModelSpec.for_network(net, 3)  # block fixed treatments start at 3, not 4
    spec = ModelSpec.for_network(path312, 2)
    with pytest.raises(ValueError):
        nd.criterion_for_design(path312, (1, 2), spec)
    with pytest.raises(ValueError):
        nd.criterion_for_design(path312, (1, 2, 5), spec)


def _bits(value):
    return None if value is None else value.hex()


@pytest.mark.parametrize("key,m,criterion", [
    (("ex", 2), 4, "As"),
    (("blocks", (3, 3, 3), 3), 3, "As"),
    (("rowcol", 3, 3, 3), 3, "As"),
    (("ex", 1), 3, "Ds"),
])
def test_batched_values_match_frozen_per_design_path(report_cache, key, m,
                                                     criterion):
    # every label-canonical design gets the frozen per-design value bit for
    # bit, alone, in chunks of 7 and in shuffled chunks of 256
    net = report_cache.network(key)
    spec = ModelSpec.for_network(net, m, criterion=criterion)
    ev = DesignEvaluator(net, spec)
    designs = list(nd.enumerate_designs(net.n_design, m))
    infos = []
    ranks = []
    for x in designs:
        f = oracle_model_matrix(net, x, m)
        infos.append(f.T @ f)
        ranks.append(np.linalg.matrix_rank(f))
    expected = [_bits(frozen_criterion(info, spec)) for info in infos]
    assert [_bits(ev.value(x)) for x in designs] == expected
    sevens = [range(i, min(i + 7, len(designs)))
              for i in range(0, len(designs), 7)]
    order = np.random.default_rng(53).permutation(len(designs)).tolist()
    shuffled = [order[i:i + 256] for i in range(0, len(designs), 256)]
    for chunks in (sevens, shuffled):
        got = [None] * len(designs)
        mixed = 0
        for chunk in chunks:
            for i, value in zip(chunk, ev.values([designs[i] for i in chunk])):
                got[i] = _bits(value)
            mixed += (len({ranks[i] for i in chunk}) > 1
                      and any(expected[i] is None for i in chunk))
        assert got == expected
        # chunks holding designs of several ranks, some of them invalid, so
        # the kernel's grouping by rank is exercised
        assert mixed > 0


@pytest.mark.parametrize("key,m", [
    ("path312", 2), (("ex", 1), 2), (("blocks", (3, 3, 3), 3), 3),
    (("rowcol", 3, 3, 3), 3),
])
def test_kernel_invalid_exactly_when_not_estimable(report_cache, path312,
                                                   key, m):
    # audits every RANK_TOL decision against exact rational arithmetic
    net = path312 if key == "path312" else report_cache.network(key)
    ev = DesignEvaluator(net, ModelSpec.for_network(net, m))
    designs = nd.enumerate_designs(net.n_design, m)
    invalid = 0
    while chunk := list(islice(designs, 256)):
        for x, value in zip(chunk, ev.values(chunk)):
            assert (value is None) == (not exact_estimable(net, x, m)), x
            invalid += value is None
    assert invalid > 0


@pytest.mark.parametrize("net", [
    nd.parse_edge_list("1-2, 1-3", 3),
    nd.augment_blocks([3, 3], 2),
    nd.augment_row_column(3, 3, 2),
], ids=["path312", "blocks33", "rc3x3"])
def test_values_of_an_empty_chunk(net):
    ev = DesignEvaluator(net, ModelSpec.for_network(net, 2))
    assert ev.values([]) == []


@pytest.mark.parametrize("x,message", [
    ((0, 2, 1, 2, 1, 2), "treatments must lie in 1..2"),
    ((1, 2, 1, 2, 1, 3), "treatments must lie in 1..2"),
    ((1, 2, 1, 2, 1), "design length 5 does not match 6 design nodes"),
], ids=["label0", "label-m-plus-1", "short"])
@pytest.mark.parametrize("call", ["value", "values", "model_matrix"])
def test_evaluator_rejects_malformed_designs(x, message, call):
    # on a block network, label 0 would wrap to the last block
    # pseudo-treatment and label m+1 would be the first one
    net = nd.augment_blocks([3, 3], 2)
    ev = DesignEvaluator(net, ModelSpec.for_network(net, 2))
    with pytest.raises(ValueError, match=message):
        if call == "values":
            ev.values([(1, 2, 1, 2, 1, 2), x] if len(x) == 6 else [x])
        else:
            getattr(ev, call)(x)
