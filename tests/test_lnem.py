from __future__ import annotations

from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netdesign as nd
from netdesign.lnem import (CRITERIA, RANK_TOL, SCREEN_WINDOW,
                            DesignEvaluator, ModelSpec,
                            _canonicalize_nuisance, _screen)

from helpers import (cycle_network, exact_estimable, exact_full_rank,
                     frozen_canonicalize_nuisance, frozen_criterion,
                     oracle_model_matrix, oracle_value, pinv_criterion)


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
                         net=None) -> int:
    """Every matrix `_screen` certifies is nonsingular in exact integer
    arithmetic (so every contrast is estimable: the design is valid), and
    its bound is at most the pseudoinverse's value times 1 + 1e-9 and at
    least that value times 1 - SCREEN_WINDOW / 2.  With `designs` and `net`
    the certified designs are also estimable by `exact_estimable`.  Returns
    the number certified."""
    certified, bound = _screen(info, spec)
    for i in certified.nonzero()[0]:
        assert exact_full_rank(info[i]), i
        if designs is not None:
            assert exact_estimable(net, designs[i], spec.m), designs[i]
    if certified.any():
        exact = pinv_criterion(info[certified], spec)
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


@st.composite
def screened_networks(draw):
    """(network, m, design, criterion): a graph on at most 10 nodes and a
    design over its design nodes that uses every one of m treatments."""
    n = draw(st.integers(2, 10))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    net = nd.parse_edge_list(", ".join(f"{i}-{j}" for i, j in edges), n)
    m = draw(st.integers(2, min(4, n)))
    rest = draw(st.lists(st.integers(1, m), min_size=n - m, max_size=n - m))
    x = draw(st.permutations(list(range(1, m + 1)) + rest))
    return net, m, tuple(x), draw(st.sampled_from(CRITERIA))


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


def test_screen_of_a_stack_that_inv_cannot_factor():
    # a zero matrix gets no ridge, so the batched inverse meets an exact
    # zero pivot and raises; the screen then certifies nothing in the stack
    spec = ModelSpec(m=2, total_treatments=2)
    info = np.stack([np.eye(4), np.zeros((4, 4))])
    certified, _ = _screen(info, spec)
    assert not certified.any()
    assert _screen(info[:1], spec)[0].all()


@pytest.mark.parametrize("net,always", [
    (nd.augment_blocks([3, 3, 3], 3), True),
    (nd.augment_row_column(3, 3, 3), True),
    (nd.augment_crossover(4, 3, 3), True),
    (nd.augment_crossover(4, 3, 3, period_blocks=True), True),
    (cycle_network(7), True),
    (nd.example_network(2), False),
], ids=["blocks333", "rc3x3", "crossover4x3", "crossover4x3-periods",
        "cycle7", "ex2"])
def test_rank_rule_finds_networks_singular_for_every_design(net, always):
    # block indicators that sum to the intercept, or a constant degree,
    # make F singular whatever the design, so the screen is skipped; the
    # rule agrees with exact arithmetic on a few seeded designs
    spec = ModelSpec.for_network(net, 3)
    assert DesignEvaluator(net, spec)._always_singular is always
    xs = np.random.default_rng(5).integers(1, 4, (20, net.n_design))
    full = [exact_full_rank(_oracle_info(net, x, 3)) for x in xs]
    assert not any(full) if always else any(full)
