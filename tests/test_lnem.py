from __future__ import annotations

from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netdesign as nd
from netdesign import search
from netdesign.lnem import (CRITERIA, RANK_TOL, SCREEN_CERTIFY, SCREEN_RIDGE,
                            SCREEN_WINDOW, DesignEvaluator, ModelSpec,
                            _canonicalize_nuisance, _design_batch, _screen)

from helpers import (_echelon, cycle_network, exact_estimable, exact_rank,
                     frozen_canonicalize_nuisance, frozen_criterion,
                     oracle_model_matrix, oracle_value, pinv_criterion,
                     screened_networks)


def test_model_matrix_path_worked_example(path312):
    spec = ModelSpec.for_network(path312, 2)
    f = DesignEvaluator(path312, spec).model_matrix((1, 2, 2))
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
    f = DesignEvaluator(examples[1], spec).model_matrix((1,) * 10)
    assert f.shape == (10, 4)  # intercept, tau_1, gamma_1, gamma_2

    b4 = nd.augment_blocks([4, 4, 4, 4], 2)
    spec4 = ModelSpec.for_network(b4, 2)
    f4 = DesignEvaluator(b4, spec4).model_matrix((1, 2) * 8)
    assert f4.shape == (16, 8)  # 16 measured rows, 1 + 1 + 6 columns


def test_block_rows_excluded_from_model_matrix():
    net = nd.augment_blocks([2, 2], 2)
    spec = ModelSpec.for_network(net, 2)
    f = DesignEvaluator(net, spec).model_matrix((1, 2, 1, 2))
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
    f = DesignEvaluator(path312, spec).model_matrix((1, 1, 2))
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
    f = DesignEvaluator(examples[1], spec).model_matrix(
        (1, 1, 2, 2, 1, 2, 1, 1, 2, 1))
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
    f = DesignEvaluator(path312, spec).model_matrix((1, 1, 2))
    info = f.T @ f
    value = nd.evaluate_criterion(info, spec)
    # m=2: determinant of a 1x1 covariance = the contrast variance itself
    as_value = nd.evaluate_criterion(info, ModelSpec.for_network(path312, 2))
    assert abs(value - as_value) <= 1e-12
    f = DesignEvaluator(path312, spec).model_matrix((1, 1, 1))
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
        sorted_info = _canonicalize_nuisance(info[None], spec)[0]
        # symmetric permutation of nuisance coordinates only
        assert np.array_equal(np.sort(np.linalg.eigvalsh(info)),
                              np.sort(np.linalg.eigvalsh(sorted_info))) or \
            np.allclose(np.linalg.eigvalsh(info), np.linalg.eigvalsh(sorted_info))
        assert np.array_equal(sorted_info[:6, :6], info[:6, :6])


@st.composite
def nuisance_stacks(draw):
    """(stack, spec): 1-20 symmetric matrices (coordinate descent's
    batches) with 2-6 block coordinates of random classes.  Entries come
    from a small alphabet, small integers in some stacks and arbitrary
    floats, negative and non-integral, in others (`evaluate_criterion`
    accepts any finite matrix); in some stacks every block coordinate
    copies the first one's row against the 2m fixed coordinates and its
    diagonal (so that the initial keys tie within a class and only
    refinement separates them, as on row-column layouts), and some block
    coordinates are made twins of others."""
    m = draw(st.integers(2, 3))
    nb = draw(st.integers(2, 6))
    classes = draw(st.lists(st.integers(0, 1), min_size=nb, max_size=nb))
    spec = ModelSpec(m=m, total_treatments=m + nb, block_classes=tuple(classes))
    p = spec.n_params
    if draw(st.booleans()):
        alphabet = list(range(draw(st.integers(1, 3)) + 1))
    else:
        alphabet = draw(st.lists(st.floats(-3, 3), min_size=1, max_size=4))
    tied = draw(st.booleans())
    upper = np.triu_indices(p)
    stack = []
    for _ in range(draw(st.integers(1, 20))):
        a = np.zeros((p, p))
        a[upper] = draw(st.lists(st.sampled_from(alphabet),
                                 min_size=len(upper[0]), max_size=len(upper[0])))
        a += np.triu(a, 1).T
        if tied:
            first = 2 * m
            for c in range(first, p):
                a[c, :first] = a[:first, c] = a[first, :first]
                a[c, c] = a[first, first]
        twins = st.tuples(st.integers(0, nb - 1), st.integers(0, nb - 1))
        for i, j in draw(st.lists(twins, max_size=3)):
            a[2 * m + j] = a[2 * m + i]
            a[:, 2 * m + j] = a[:, 2 * m + i]
        stack.append(a)
    return np.array(stack), spec


def _frozen_stack(infos, spec) -> np.ndarray:
    return np.array([frozen_canonicalize_nuisance(a, spec) for a in infos])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(nuisance_stacks())
def test_batched_canonicalization_matches_frozen_on_random_stacks(case):
    infos, spec = case
    got = _canonicalize_nuisance(infos, spec)
    assert got.tobytes() == _frozen_stack(infos, spec).tobytes()


@pytest.mark.parametrize("net,m", [
    (nd.augment_row_column(3, 3, 3), 3),
    (nd.augment_row_column(4, 4, 4), 4),
    (nd.augment_blocks([3, 3, 3, 3], 3), 3),
    (nd.augment_crossover(4, 3, 3, period_blocks=True), 3),
], ids=["rc3x3", "rc4x4", "blocks3333", "crossover4x3"])
def test_batched_canonicalization_matches_frozen_on_random_designs(net, m):
    # the square row-column layouts are where refinement splits classes that
    # the initial keys tie
    spec = ModelSpec.for_network(net, m)
    xs = np.random.default_rng(59).integers(1, m + 1, size=(2000, net.n_design))
    f = DesignEvaluator(net, spec)._model_matrices(xs)
    infos = f.transpose(0, 2, 1) @ f
    got = np.concatenate([_canonicalize_nuisance(infos[i:i + 256], spec)
                          for i in range(0, len(infos), 256)])
    assert got.tobytes() == _frozen_stack(infos, spec).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("blocked", [False, True])
def test_criterion_rejects_non_finite_matrices(path312, bad, blocked):
    # NaN stands for INVALID in the kernel's arrays, so a matrix that holds
    # NaN or inf is an error, not a value
    net = nd.augment_blocks([3, 3], 2) if blocked else path312
    spec = ModelSpec.for_network(net, 2)
    info = np.eye(spec.n_params)
    assert nd.evaluate_criterion(info, spec) is not None
    for i, j in [(0, 0), (spec.n_params - 1, 1)]:
        info = np.eye(spec.n_params)
        info[i, j] = bad
        with pytest.raises(ValueError, match="must be finite"):
            nd.evaluate_criterion(info, spec)


def test_criterion_rejects_non_symmetric_matrices(path312):
    # the eigendecomposition reads one triangle, so 3 I with one entry
    # above the diagonal changed would get the value of 3 I; it is an
    # error, and so is a change below the diagonal; a symmetric change is
    # not
    spec = ModelSpec(m=2, total_treatments=2)
    info = 3 * np.eye(4)
    assert nd.evaluate_criterion(info, spec) == 1 / 3
    for i, j in [(0, 3), (3, 0), (1, 2)]:
        bad = info.copy()
        bad[i, j] = 100.0
        with pytest.raises(ValueError, match="must be symmetric"):
            nd.evaluate_criterion(bad, spec)
    info[1, 2] = info[2, 1] = 1.0
    assert nd.evaluate_criterion(info, spec) is not None


def test_model_spec_validation(path312):
    with pytest.raises(ValueError):
        ModelSpec(m=1, total_treatments=1)
    with pytest.raises(ValueError):
        ModelSpec(m=3, total_treatments=2)
    with pytest.raises(ValueError):
        ModelSpec(m=2, total_treatments=2, criterion="E")
    # a variance scale that is not finite and positive would turn the
    # search for the least variance upside down, or into NaN
    for sigma2 in (-1.0, 0.0, -0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="sigma2"):
            ModelSpec(m=2, total_treatments=2, sigma2=sigma2)
    assert ModelSpec(m=2, total_treatments=2, sigma2=1e-300).sigma2 == 1e-300
    net = nd.augment_blocks([2, 2], 2)
    with pytest.raises(ValueError):
        ModelSpec.for_network(net, 3)  # block fixed treatments start at 3, not 4
    spec = ModelSpec.for_network(path312, 2)
    with pytest.raises(ValueError):
        nd.criterion_for_design(path312, (1, 2), spec)
    with pytest.raises(ValueError):
        nd.criterion_for_design(path312, (1, 2, 5), spec)


def test_evaluator_rejects_a_spec_that_contradicts_its_network():
    # other block classes than the network's would let automorphic designs'
    # nuisance coordinates sort apart, so their values could differ in the
    # last bits; a block pinned past m + 1, m + 2, ... has no column of F.
    # Both are errors when the evaluator is built, not wrong bits or an
    # IndexError at the first value
    net = nd.augment_blocks([2, 2, 2], 2)
    own = ModelSpec.for_network(net, 2)
    ev = DesignEvaluator(net, own)
    images = nd.find_automorphisms(net).design_images((1, 2, 1, 1, 2, 2))
    assert len({ev.value(x).hex() for x in images.tolist()}) == 1
    for classes in [(0, 1, 2), (0, 0, 1)]:
        with pytest.raises(ValueError, match="block classes"):
            DesignEvaluator(net, ModelSpec(m=2, total_treatments=5,
                                           block_classes=classes))
    roles = [None, None, nd.BlockRole(0, 7)]
    pinned = nd.Network([[0, 0, 1], [0, 0, 1], [1, 1, 0]], False, roles)
    with pytest.raises(ValueError, match="fixed treatments"):
        DesignEvaluator(pinned, ModelSpec(m=2, total_treatments=3,
                                          block_classes=(0,)))
    roles[2] = nd.BlockRole(0, 3)
    net = nd.Network([[0, 0, 1], [0, 0, 1], [1, 1, 0]], False, roles)
    # pinned to m + 1, the same network evaluates
    assert DesignEvaluator(net, ModelSpec(m=2, total_treatments=3,
                                          block_classes=(0,))).value((1, 2)) \
        is not None


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


def _stream_sample(n: int, m: int, count: int, seed: int) -> list[tuple]:
    """`count` seeded label-canonical designs on n nodes that use every one
    of the m treatments: random labels renamed in first-occurrence order."""
    rng = np.random.default_rng(seed)
    designs = []
    while len(designs) < count:
        names: dict = {}
        x = tuple(names.setdefault(t, len(names) + 1)
                  for t in rng.integers(1, m + 1, n).tolist())
        if len(names) == m:
            designs.append(x)
    return designs


@pytest.mark.parametrize("key,m", [
    ("path312", 2), (("ex", 1), 2), (("blocks", (3, 3, 3), 3), 3),
    (("rowcol", 3, 3, 3), 3), (("ex", 4), 4), (("ex", 6), 3),
])
def test_kernel_invalid_exactly_when_not_estimable(report_cache, path312,
                                                   key, m):
    # audits every RANK_TOL decision against exact rational arithmetic: on
    # the whole stream of the small cases, and on 300 seeded stream designs
    # that use every treatment for the two t1 rows whose counts differ from
    # the reference (examples 4 and 6)
    net = path312 if key == "path312" else report_cache.network(key)
    ev = DesignEvaluator(net, ModelSpec.for_network(net, m))
    sampled = key in (("ex", 4), ("ex", 6))
    designs = (iter(_stream_sample(net.n_design, m, 300, seed=m)) if sampled
               else nd.enumerate_designs(net.n_design, m))
    invalid = 0
    while chunk := list(islice(designs, 256)):
        for x, value in zip(chunk, ev.values(chunk)):
            assert (value is None) == (not exact_estimable(net, x, m)), x
            invalid += value is None
    # example 6's sample holds no design that is not estimable: about 0.2%
    # of its stream designs that use every treatment are not
    assert invalid > 0 or key == ("ex", 6)


@pytest.mark.parametrize("net", [
    nd.parse_edge_list("1-2, 1-3", 3),
    nd.augment_blocks([3, 3], 2),
    nd.augment_row_column(3, 3, 2),
], ids=["path312", "blocks33", "rc3x3"])
def test_values_of_an_empty_chunk(net):
    ev = DesignEvaluator(net, ModelSpec.for_network(net, 2))
    assert ev.values([]) == []


@pytest.mark.parametrize("x,message,lead", [
    ((0, 2, 1, 2, 1, 2), "treatments must lie in 1..2", [(1, 2, 1, 2, 1, 2)]),
    ((1, 2, 1, 2, 1, 3), "treatments must lie in 1..2", [(1, 2, 1, 2, 1, 2)]),
    ((1, 2, 1, 2, 1), "design length 5 does not match 6 design nodes", []),
    ((1, 2, 1), "design length 3 does not match 6 design nodes",
     [(1, 2, 1, 2, 1, 2)]),
    ((1, 2, 1.5, 2, 1, 2), "treatments must be whole numbers",
     [(1, 2, 1, 2, 1, 2)]),
], ids=["label0", "label-m-plus-1", "short", "ragged", "fractional"])
@pytest.mark.parametrize("call", ["value", "values", "model_matrix"])
def test_evaluator_rejects_malformed_designs(x, message, lead, call):
    # on a block network, label 0 would wrap to the last block
    # pseudo-treatment and label m+1 would be the first one; `lead` are the
    # designs before x in the chunk given to values, so a valid first design
    # makes the "ragged" chunk one that numpy cannot stack; a fractional
    # label would otherwise be truncated to a whole one
    net = nd.augment_blocks([3, 3], 2)
    ev = DesignEvaluator(net, ModelSpec.for_network(net, 2))
    with pytest.raises(ValueError, match=message):
        if call == "values":
            ev.values(lead + [x])
        else:
            getattr(ev, call)(x)


def test_values_of_a_label_array(examples):
    # a (B, d) integer array is a chunk as a list of designs is; one design
    # as a 1-d array is not a chunk
    net = examples[2]
    ev = DesignEvaluator(net, ModelSpec.for_network(net, 3))
    xs = np.random.default_rng(61).integers(1, 4, size=(40, net.n_design))
    assert ev.values(xs) == ev.values(list(map(tuple, xs.tolist())))
    assert ev.values(xs[:0]) == []
    with pytest.raises(ValueError, match="not a"):
        ev.values(xs[0])


def test_whole_number_float_labels_are_labels(examples):
    # 1.0 and 2.0 are labels 1 and 2; 1.5 and 2.5 are errors, not the
    # truncated design (1, 2, 1, 2, ...), and so are NaN and text labels
    net = examples[1]
    ev = DesignEvaluator(net, ModelSpec.for_network(net, 2))
    x = (1, 2, 1, 2, 2, 1, 1, 2, 1, 1)
    y = tuple(map(float, x))
    assert ev.value(y) == ev.value(x) is not None
    assert ev.values([y, x]) == ev.values([x, x])
    assert np.array_equal(ev.model_matrix(y), ev.model_matrix(x))
    for bad in [(1.5, 2.5) * 5, (1, 2) * 4 + (1, float("nan")), ("1", "2") * 5]:
        with pytest.raises(ValueError, match="treatments must be whole numbers"):
            ev.value(bad)


_SCREEN_NETWORKS = {
    "path312": nd.parse_edge_list("1-2, 1-3", 3),
    "blocks22": nd.augment_blocks([2, 2], 3),
    "rc2x3": nd.augment_row_column(2, 3, 3),
    "crossover3x2": nd.augment_crossover(3, 2, 3, period_blocks=True),
}


def _oracle_info(net, x, m) -> np.ndarray:
    f = oracle_model_matrix(net, x, m)
    return f.T @ f


@pytest.mark.parametrize("criterion", ["As", "Ds"])
@pytest.mark.parametrize("name", sorted(_SCREEN_NETWORKS))
def test_designs_missing_a_treatment_are_invalid_by_the_oracles(name,
                                                                criterion):
    # every design of the stream without label symmetry, so that any label,
    # the middle one too, can be the unused one: `values` answers None for
    # each design that leaves a treatment unused, exact arithmetic finds a
    # contrast that is not estimable, and the frozen per-design kernel says
    # INVALID too; the other designs of the same chunk keep its values bit
    # for bit
    net, m = _SCREEN_NETWORKS[name], 3
    spec = ModelSpec.for_network(net, m, criterion=criterion)
    designs = list(nd.enumerate_designs(net.n_design, m,
                                        use_label_symmetry=False))
    unused = set()
    for x, value in zip(designs, DesignEvaluator(net, spec).values(designs)):
        frozen = frozen_criterion(_oracle_info(net, x, m), spec)
        missing = set(range(1, m + 1)) - set(x)
        if missing:
            assert value is None and frozen is None, x
            assert not exact_estimable(net, x, m), x
            unused |= missing
        else:
            assert _bits(value) == _bits(frozen), x
    assert unused == {1, 2, 3}


@pytest.mark.parametrize("m", [2, 4, 62, 63, 70])
def test_rows_using_every_treatment_match_a_set_oracle(m):
    # while m <= 62 the labels are OR-ed as the bits of one int64, past that
    # a table marks them; rows leave out nothing, label 1, label m or a
    # random label in turn, so both ends of the bit range are reached
    net = cycle_network(m + 3)
    ev = DesignEvaluator(net, ModelSpec.for_network(net, m))
    rng = np.random.default_rng(m)
    designs = []
    for i in range(40):
        gone = (0, 1, m, int(rng.integers(1, m + 1)))[i % 4]
        labels = [t for t in range(1, m + 1) if t != gone]
        extra = rng.choice(labels, net.n_design - len(labels)).tolist()
        designs.append(rng.permutation(labels + extra).tolist())
    every = set(range(1, m + 1))
    expected = [i for i, x in enumerate(designs) if set(x) == every]
    assert len(expected) == 10
    xs = _design_batch(designs, net.n_design, m)
    assert ev._using_every_treatment(xs).tolist() == expected


@st.composite
def designs_missing_a_treatment(draw):
    """(network, m, design, criterion): a one-way block layout or a graph
    on at most 8 nodes, and a design over all but one of m treatments."""
    m = draw(st.integers(2, 4))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        net = nd.augment_blocks(sizes, m)
    else:
        n = draw(st.integers(1, 8))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        net = nd.parse_edge_list(", ".join(f"{i}-{j}" for i, j in edges), n)
    gone = draw(st.integers(1, m))
    labels = [t for t in range(1, m + 1) if t != gone]
    x = draw(st.lists(st.sampled_from(labels), min_size=net.n_design,
                      max_size=net.n_design))
    return net, m, tuple(x), draw(st.sampled_from(CRITERIA))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(designs_missing_a_treatment())
def test_screened_designs_are_invalid_on_random_networks(case):
    net, m, x, criterion = case
    spec = ModelSpec.for_network(net, m, criterion=criterion)
    assert DesignEvaluator(net, spec).value(x) is None
    assert not exact_estimable(net, x, m)
    assert frozen_criterion(_oracle_info(net, x, m), spec) is None


# ------------------------------------------------------ the screen's oracles

def _assert_screen_sound(info: np.ndarray, spec: ModelSpec, designs=None,
                         net=None, kept=None) -> int:
    """Every matrix `_screen` certifies on `kept` (the pivot columns of
    every matrix of the stack, p - k of them; None for k = 0) has rank
    p - k in exact integer arithmetic, so that its null space is the one
    they share, and its bound is at most the pseudoinverse's value times
    1 + 1e-9 and at least that value times 1 - SCREEN_WINDOW / 2.  With
    `designs` and `net` the certified designs are also estimable by
    `exact_estimable`, so they are valid.  Returns the number certified."""
    certified, bound = _screen(info, spec, kept)
    rank = spec.n_params if kept is None else len(kept)
    for i in certified.nonzero()[0]:
        assert exact_rank(info[i]) == rank, i
        if designs is not None:
            assert exact_estimable(net, designs[i], spec.m), designs[i]
    if certified.any():
        # the pseudoinverse's cut lies between the computed zero
        # eigenvalues (about 1e-15 of the largest) and the least nonzero
        # one of a certified matrix (at least 1e-6 of it)
        exact = pinv_criterion(info[certified], spec, rcond=1e-10)
        assert (bound[certified] <= exact * (1 + 1e-9)).all()
        assert (bound[certified] >= exact * (1 - SCREEN_WINDOW / 2)).all()
    return int(certified.sum())


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("m", [2, 3, 4])
def test_screen_certifies_only_valid_designs_with_tight_bounds(examples, m,
                                                               criterion):
    # every label-canonical design of example 2 at m = 2 and m = 3, and
    # 3,000 seeded ones at m = 4, those that leave a treatment unused too
    net = examples[2]
    spec = ModelSpec.for_network(net, m, criterion=criterion)
    if m < 4:
        xs = np.array(list(nd.enumerate_designs(net.n_design, m)))
    else:
        xs = np.random.default_rng(71).integers(1, m + 1, (3000, net.n_design))
    info = DesignEvaluator(net, spec)._information_matrices(xs)
    certified = _assert_screen_sound(info, spec)
    # most designs are certified: the screen is not vacuous
    assert certified > len(xs) / 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(screened_networks())
def test_screen_is_sound_on_random_networks(case):
    net, m, x, criterion = case
    spec = ModelSpec.for_network(net, m, criterion=criterion)
    f = oracle_model_matrix(net, x, m)
    _assert_screen_sound((f.T @ f)[None], spec, [x], net)


@pytest.mark.parametrize("p", [4, 6, 8, 12])
def test_screen_never_certifies_a_matrix_eigh_calls_singular(p):
    # symmetric positive semidefinite stacks whose smallest eigenvalues sit
    # 1e-5 .. 1e-12 (and exactly 0) below the largest, at several scales:
    # none that numpy's eigh finds rank deficient at RANK_TOL is certified,
    # and some of the best conditioned ones are
    rng = np.random.default_rng(p)
    stacks = []
    for ratio in [1e-5, 3e-6, 1e-6, 1e-7, 1e-8, 3e-9, 1e-9, 1e-10, 1e-11,
                  1e-12, 0.0]:
        for small in (1, 2):
            for scale in (1e-3, 1.0, 1e4):
                q = np.linalg.qr(rng.standard_normal((20, p, p)))[0]
                w = rng.uniform(0.5, 2.0, (20, p))
                w[:10, small:] = 1.0  # half with a flat top spectrum
                w[:, :small] = ratio * w[:, -1:]
                info = (q * (scale * w[:, None, :])) @ q.transpose(0, 2, 1)
                stacks.append((info + info.transpose(0, 2, 1)) / 2)
    info = np.concatenate(stacks)
    spec = ModelSpec(m=2, total_treatments=p - 2,
                     block_classes=(0,) * (p - 4))
    certified, _ = _screen(info, spec)
    w = np.linalg.eigh(info)[0]
    deficient = (w <= RANK_TOL * w[:, -1:]).any(axis=1)
    assert deficient.sum() > len(info) / 2
    assert not (certified & deficient).any()
    assert certified.any()


def test_screen_of_a_stack_that_cholesky_cannot_factor():
    # a zero matrix gets no ridge, and a negative definite one has no
    # Cholesky factor with it, so the batched factorization raises; the
    # screen then certifies nothing in the stack
    spec = ModelSpec(m=2, total_treatments=2)
    for bad in (np.zeros((4, 4)), -np.eye(4)):
        info = np.stack([np.eye(4), bad])
        certified, _ = _screen(info, spec)
        assert not certified.any()
    assert _screen(info[:1], spec)[0].all()


def _shared_rows(net: nd.Network, m: int) -> list[list[int]]:
    """The distinct rows of the oracle's F(x) over the all-ones design and
    each design one label away from it.  F(x) is F(1, ..., 1) plus, for
    each position k not labelled 1, the change F(1, .., x_k, .., 1) -
    F(1, ..., 1), so these rows span the rows of every F(x)."""
    d = net.n_design
    designs = [(1,) * d] + [(1,) * k + (l,) + (1,) * (d - k - 1)
                            for k in range(d) for l in range(2, m + 1)]
    rows = np.concatenate([oracle_model_matrix(net, x, m) for x in designs])
    return np.unique(np.rint(rows).astype(np.int64), axis=0).tolist()


def _oracle_complement(net: nd.Network, m: int) -> np.ndarray | None:
    """An orthonormal (p, p - k) basis Q of the complement of the null
    space N that every F(x) shares (None when k = 0): N from the exact
    echelon form of `_shared_rows`, one vector per free column solved
    row by row from the last, and Q the right singular vectors of N' past
    its rank."""
    rows = _shared_rows(net, m)
    echelon = _echelon(rows)
    p = 2 * m + net.n_blocks
    free = sorted(set(range(p)) - {pivot for pivot, _ in echelon})
    if not free:
        return None
    null = np.zeros((p, len(free)))
    for j, f in enumerate(free):
        v = [Fraction(0)] * p
        v[f] = Fraction(1)
        # each echelon row is zero at the pivots of the rows before it
        for pivot, entries in reversed(echelon):
            v[pivot] = -sum(value * v[c] for c, value in entries if c != pivot)
        assert not any(sum(a * b for a, b in zip(row, v)) for row in rows)
        null[:, j] = [float(x) for x in v]
    return np.linalg.svd(null.T)[2][len(free):].T


def _inverse_screen(info: np.ndarray, spec: ModelSpec, basis=None):
    """The screen's certificate and bound from a batched inverse of R + s I,
    R = Q'MQ on `basis` Q (M itself when None), in place of the Cholesky
    factor on M's kept columns: diag(G) > 0 and tr(R) tr(G) <=
    SCREEN_CERTIFY, with the treatment block C = Q_t G Q_t' read directly."""
    m = spec.m
    if basis is not None:
        info = basis.T @ info @ basis
    trace = np.trace(info, axis1=1, axis2=2)
    g = np.linalg.inv(info + (SCREEN_RIDGE * trace)[:, None, None]
                      * np.eye(info.shape[-1]))
    diag = g.diagonal(axis1=1, axis2=2)
    certified = ((diag > 0).all(axis=1)
                 & (trace * diag.sum(axis=1) <= SCREEN_CERTIFY))
    block = g[:, 1:m, 1:m] if basis is None else basis[1:m] @ g @ basis[1:m].T
    if spec.criterion == "As":
        bound = ((m * np.trace(block, axis1=1, axis2=2)
                  - block.sum(axis=(1, 2))) / (m * (m - 1) / 2))
    else:
        bound = np.linalg.det(block)
    return certified, bound * spec.sigma2 ** (1 if spec.criterion == "As"
                                              else m - 1)


# networks with block nodes or a constant degree, whose F'F is singular for
# every design, beside examples named by number
_SINGULAR_NETWORKS = {
    "rc4x4": nd.augment_row_column(4, 4, 4),
    "blocks3333": nd.augment_blocks([3, 3, 3, 3], 3),
    "crossover4x3-periods": nd.augment_crossover(4, 3, 3, period_blocks=True),
    "cycle7": cycle_network(7),
}


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("example,m", [(2, 4), (4, 4), (6, 3), ("rc4x4", 4),
                                       ("blocks3333", 3),
                                       ("crossover4x3-periods", 3),
                                       ("cycle7", 3)])
def test_screen_certifies_as_the_inverse_route(example, m, criterion):
    # on chunks of the stream after seeded prefixes, the Cholesky screen on
    # the kept columns certifies exactly the designs that a batched inverse
    # of R + s I certifies, R = F'F on the complement of the null space
    # that every design shares (F'F itself when that is zero), with bounds
    # that agree to 1e-11 (1e-10 on a complement)
    net = (nd.example_network(example) if isinstance(example, int)
           else _SINGULAR_NETWORKS[example])
    spec = ModelSpec.for_network(net, m, criterion=criterion)
    ev = DesignEvaluator(net, spec)
    basis = _oracle_complement(net, m)
    assert (basis is None) == isinstance(example, int)
    rtol = 1e-11 if basis is None else 1e-10
    rng = np.random.default_rng(example if basis is None else net.n_design)
    certified = 0
    for _ in range(4):
        prefix = [1]
        while len(prefix) < net.n_design - 5:
            prefix.append(int(rng.integers(1, min(max(prefix) + 1, m) + 1)))
        stream = search._stream(None, tuple(prefix), net.n_design, m, True,
                                None)
        for chunk in search._chunks(stream, search._Counters()):
            info = ev._information_matrices(
                chunk[ev._using_every_treatment(chunk)])
            got, bound = _screen(info, spec, ev._kept)
            expected, reference = _inverse_screen(info, spec, basis)
            assert np.array_equal(got, expected)
            assert np.allclose(bound[got], reference[got], rtol=rtol, atol=0)
            certified += int(got.sum())
    assert certified > 500


# linked design nodes (examples 2 and 4, a 40-node cycle), unlinked ones
# with block pseudo-treatments (rc 4x4, blocks) and a crossover layout
_GEMM_NETWORKS = {
    "ex2-m4": (nd.example_network(2), 4),
    "ex4-m3": (nd.example_network(4), 3),
    "rc4x4-m4": (nd.augment_row_column(4, 4, 4), 4),
    "blocks3333-m3": (nd.augment_blocks([3, 3, 3, 3], 3), 3),
    "crossover4x3-m3": (nd.augment_crossover(4, 3, 3), 3),
    "cycle40-m3": (cycle_network(40), 3),
}


def _assert_oracle_grams(net: nd.Network, m: int, xs: np.ndarray) -> None:
    """The GEMM model matrices and F'F of the batch equal the oracle's,
    byte for byte."""
    ev = DesignEvaluator(net, ModelSpec.for_network(net, m))
    f = ev._model_matrices(xs)
    info = ev._information_matrices(xs)
    for k, x in enumerate(xs):
        expected = oracle_model_matrix(net, x, m)
        assert f[k].tobytes() == expected.tobytes()
        assert info[k].tobytes() == (expected.T @ expected).tobytes()


@pytest.mark.parametrize("name", sorted(_GEMM_NETWORKS))
def test_information_matrices_equal_the_oracle_ones(name):
    # seeded designs, with every label used or not, one at a time and as
    # a batch of 64
    net, m = _GEMM_NETWORKS[name]
    xs = np.random.default_rng(net.n_design).integers(
        1, m + 1, size=(64, net.n_design))
    _assert_oracle_grams(net, m, xs)
    _assert_oracle_grams(net, m, xs[:1])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(screened_networks())
def test_information_matrices_on_random_networks(case):
    # the drawn design and its neighbours at each position: the GEMM F'F
    # equals the oracle's byte for byte
    net, m, x, _ = case
    xs = np.array([x] + [x[:k] + (x[k] % m + 1,) + x[k + 1:]
                         for k in range(len(x))])
    _assert_oracle_grams(net, m, xs)


# (network, m, k): k the dimension of the null space that F has whatever
# the design
_NULL_NETWORKS = {
    "blocks333": (nd.augment_blocks([3, 3, 3], 3), 3, 4),
    "blocks444-m4": (nd.augment_blocks([4, 4, 4], 4), 4, 5),
    "rc3x3": (nd.augment_row_column(3, 3, 3), 3, 5),
    "rc4x4-m4": (nd.augment_row_column(4, 4, 4), 4, 6),
    "crossover4x3": (nd.augment_crossover(4, 3, 3), 3, 1),
    "crossover4x3-periods": (nd.augment_crossover(4, 3, 3, period_blocks=True),
                             3, 3),
    "cycle7": (cycle_network(7), 3, 1),
    "cycle40": (cycle_network(40), 3, 1),
    "ex2": (nd.example_network(2), 3, 0),
}


def _assert_kept_columns(net: nd.Network, m: int, designs) -> np.ndarray:
    """The evaluator's kept columns are the pivot columns of the oracle's
    `_shared_rows` (None when that is every column), start with the
    intercept and the m - 1 indicators, and carry the whole exact rank of
    the oracle's F(x) for each design; returns those ranks."""
    ev = DesignEvaluator(net, ModelSpec.for_network(net, m))
    kept, p = ev._kept, ev.spec.n_params
    pivots = sorted(pivot for pivot, _ in _echelon(_shared_rows(net, m)))
    if kept is None:
        assert pivots == list(range(p))
        kept = np.arange(p)
    else:
        assert kept.tolist() == pivots and len(kept) < p
    assert kept[:m].tolist() == list(range(m))
    ranks = []
    for x in designs:
        f = np.rint(oracle_model_matrix(net, x, m)).astype(np.int64)
        ranks.append(exact_rank(f))
        assert exact_rank(f[:, kept]) == ranks[-1], x
    return np.array(ranks)


@pytest.mark.parametrize("name", sorted(_NULL_NETWORKS))
def test_null_basis_is_the_null_space_every_design_shares(name):
    # block indicators that sum to the intercept, treatments' network
    # columns with no two design nodes linked, or a constant degree make F
    # singular whatever the design: its columns past the kept ones are
    # combinations of those.  On seeded designs the kept columns carry
    # F's exact rank, and the largest such rank is their number, p - k.
    # They are not found when the evaluator is built or values designs.
    net, m, k = _NULL_NETWORKS[name]
    spec = ModelSpec.for_network(net, m)
    ev = DesignEvaluator(net, spec)
    ev.values([(tuple(range(1, m + 1)) * net.n_design)[:net.n_design]])
    assert "_kept" not in vars(ev)
    designs = np.random.default_rng(5).integers(1, m + 1, (20, net.n_design))
    ranks = _assert_kept_columns(net, m, designs)
    p = spec.n_params
    assert ranks.max() == (p if ev._kept is None else len(ev._kept)) == p - k


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(screened_networks())
def test_kept_columns_on_random_networks(case):
    net, m, x, _ = case
    _assert_kept_columns(net, m, [x])


_STREAM_NETWORKS = {
    "rc4x4-m4": (nd.augment_row_column(4, 4, 4), 4),
    "blocks4x3-m4": (nd.augment_blocks([3, 3, 3, 3], 4), 4),
    "crossover4x3-m3": (nd.augment_crossover(4, 3, 3), 3),
    "crossover4x3-periods-m3": (
        nd.augment_crossover(4, 3, 3, period_blocks=True), 3),
}


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("name", sorted(_STREAM_NETWORKS))
def test_screen_is_sound_on_stream_chunks_of_block_networks(name, criterion):
    # two chunks of the label-canonical stream after seeded prefixes: on
    # the kept columns, every design the screen certifies is valid by
    # exact arithmetic, with a tight bound, and most designs that use
    # every treatment are certified
    net, m = _STREAM_NETWORKS[name]
    spec = ModelSpec.for_network(net, m, criterion=criterion)
    ev = DesignEvaluator(net, spec)
    rng = np.random.default_rng(16)
    certified = screened = 0
    for _ in range(2):
        prefix = [1]
        while len(prefix) < net.n_design - 4:
            prefix.append(int(rng.integers(1, min(max(prefix) + 1, m) + 1)))
        stream = search._stream(None, tuple(prefix), net.n_design, m, True,
                                None)
        chunk = next(search._chunks(stream, search._Counters()))
        xs = chunk[ev._using_every_treatment(chunk)]
        certified += _assert_screen_sound(ev._information_matrices(xs), spec,
                                          xs, net, ev._kept)
        screened += len(xs)
    assert certified > screened / 2
