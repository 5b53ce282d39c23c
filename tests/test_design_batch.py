"""Every public call that takes designs, and the plugin loop, checks them
with one rule, once: each input gives the library's ValueError or the exact
answer, never numpy's message, a TypeError, or a truncated or wrapped
label."""

from __future__ import annotations

import numpy as np
import pytest

import netdesign as nd
from netdesign import automorph, lnem, search
from netdesign.lnem import DesignEvaluator, ModelSpec

from helpers import frozen_criterion, oracle_model_matrix, oracle_orbit_minima

NET = nd.augment_blocks((3, 3), 2)  # d = 6, two blocks of one class
M = 2
SPEC = ModelSpec.for_network(NET, M)
X = (1, 1, 2, 1, 2, 2)  # valid, and first in its orbit
SHORT = "design length 3 does not match 6 design nodes"
NOT_A_SEQUENCE = "is not a sequence of labels"
WHOLE = "treatments must be whole numbers"
SPAN = "span"
RANGE = r"treatments must lie in 1\.\.2"

# id: (batch, design, error); the batch goes to the calls that take a
# batch, the design to those that take one design (for the 1-D and 3-D
# cases, the design is one level down: a label, or a design of designs).
# The error is a regex of the library's message, or None for the exact
# answer; a pair is (evaluator's, group's) where the two rules differ.
CASES = {
    "ragged": ([X, (1, 2, 1)], (1, 2, 1), SHORT),
    "1-D": (X, 1, NOT_A_SEQUENCE),
    "1-D-array": (np.array(X), np.int64(1),
                  r"shape \(6,\), not a \(B, 6\)|" + NOT_A_SEQUENCE),
    "3-D": ([[X]], [X], NOT_A_SEQUENCE),
    "3-D-array": (np.array([[X]]), np.array([X]),
                  r"shape \(1, 1, 6\), not a \(B, 6\)|" + NOT_A_SEQUENCE),
    "fractional": ([(1, 2, 1.5, 2, 1, 2)], (1, 2, 1.5, 2, 1, 2), WHOLE),
    "nan": ([(1, 2, 1, 2, 1, np.nan)], (1, 2, 1, 2, 1, np.nan), WHOLE),
    "float-1e20": ([(1, 2, 1, 2, 1, 1e20)], (1, 2, 1, 2, 1, 1e20), WHOLE),
    "uint64-2^63+5": (np.array([(1, 2, 1, 2, 1, 2 ** 63 + 5)], np.uint64),
                      np.array((1, 2, 1, 2, 1, 2 ** 63 + 5), np.uint64), WHOLE),
    "plus-minus-2^62": ([(-2 ** 62, 2, 1, 2, 1, 2 ** 62)],
                        (-2 ** 62, 2, 1, 2, 1, 2 ** 62), (RANGE, SPAN)),
    "empty": ([], (), "design length 0 does not match 6 design nodes"),
    "scalar": (5, 5, r"is not a sequence of (designs|labels)"),
    "nested": ([[(1, 2), 1, 2, 1, 2, 1]], [(1, 2), 1, 2, 1, 2, 1],
               NOT_A_SEQUENCE),
    "tuple": ([X], X, None),
    "list": ([list(X)], list(X), None),
    "int64-array": (np.array([X]), np.array(X), None),
    "uint8-array": (np.array([X], np.uint8), np.array(X, np.uint8), None),
    "float-array": (np.array([X], float), np.array(X, float), None),
}


def _bits(value):
    return None if value is None else value.hex()


def _images(group, x) -> list[list[int]]:
    """x's image under each element of the listing, from the node
    permutations alone."""
    design = NET.design_nodes
    out = []
    for perm in group.elements:
        moved = dict(zip((perm[node] for node in design), x))
        out.append([moved[node] for node in design])
    return out


def _plugin(candidate, use_automorphisms):
    return nd.run_with_plugins(
        NET, SPEC, lambda xs, ds: None if xs else candidate, None,
        nd.SearchConfig(use_automorphisms=use_automorphisms))


@pytest.fixture(scope="module")
def group():
    return nd.find_automorphisms(NET)


ENTRIES = ["values", "value", "model_matrix", "is_canonical",
           "canonical_representative", "canonical_representatives",
           "design_images", "plugin", "plugin-without-group"]
GROUP_ENTRIES = {"is_canonical", "canonical_representative",
                 "canonical_representatives", "design_images"}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case", list(CASES))
def test_every_entry_point_checks_designs_by_one_rule(group, case, entry):
    batch, design, error = CASES[case]
    if isinstance(error, tuple):
        error = error[entry in GROUP_ENTRIES]
    empty_batch = case == "empty" and entry in ("values",
                                                "canonical_representatives")
    ev = DesignEvaluator(NET, SPEC)
    calls = {
        "values": lambda: ev.values(batch),
        "value": lambda: ev.value(design),
        "model_matrix": lambda: ev.model_matrix(design),
        "is_canonical": lambda: group.is_canonical(design),
        "canonical_representative":
            lambda: group.canonical_representative(design),
        "canonical_representatives":
            lambda: group.canonical_representatives(batch),
        "design_images": lambda: group.design_images(design),
        "plugin": lambda: _plugin(design, True),
        "plugin-without-group": lambda: _plugin(design, False),
    }
    if error is not None and not empty_batch:
        with pytest.raises(ValueError, match=error):
            calls[entry]()
        return
    out = calls[entry]()
    if empty_batch:
        assert out == [] if entry == "values" else \
            (out.shape, out.dtype) == ((0, NET.n_design), np.int64)
        return
    expected = frozen_criterion(
        oracle_model_matrix(NET, X, M).T @ oracle_model_matrix(NET, X, M), SPEC)
    assert expected is not None
    if entry == "values":
        assert [_bits(v) for v in out] == [_bits(expected)]
    elif entry == "value":
        assert _bits(out) == _bits(expected)
    elif entry == "model_matrix":
        assert np.array_equal(out, oracle_model_matrix(NET, X, M))
    elif entry == "is_canonical":
        assert out is True and oracle_orbit_minima(group, [X]) == [X]
    elif entry == "canonical_representative":
        assert out == oracle_orbit_minima(group, [X])[0]
        assert all(type(v) is int for v in out)
    elif entry == "canonical_representatives":
        assert out.dtype == np.int64
        assert list(map(tuple, out.tolist())) == oracle_orbit_minima(group, [X])
    elif entry == "design_images":
        assert out.dtype == np.int64 and out.tolist() == _images(group, X)
    else:  # the candidate is kept as the tuple of ints that its labels name
        assert out.best_design == X
        assert all(type(v) is int for v in out.best_design)
        assert _bits(out.best_value) == _bits(expected)
        assert (out.num_considered, out.num_eval) == (1, 1)


def test_representatives_of_labels_outside_one_to_m_are_the_orbit_minima(group):
    # the group reads any labels whose span in the batch fits in int64, 0
    # and negative ones too, and its keys stay exact at the top of that span
    rng = np.random.default_rng(7)
    designs = [tuple(row) for row in rng.integers(-3, 4, size=(30, 6)).tolist()]
    minima = oracle_orbit_minima(group, designs)
    assert list(map(tuple, group.canonical_representatives(designs).tolist())) \
        == minima
    assert [group.is_canonical(x) for x in designs] == \
        [x == low for x, low in zip(designs, minima)]
    for x in [(0, 2 ** 62, 1, 1 - 2 ** 62, 1, 2),
              (-2 ** 62, 1, 2, 2 ** 62 - 1, 1, 2)]:
        low = oracle_orbit_minima(group, [x])[0]
        assert group.canonical_representative(x) == low
        assert group.is_canonical(x) == (x == low)
        with pytest.raises(ValueError, match="span"):  # 2^63 in one batch
            group.canonical_representatives([x, (-2 ** 62,) * 6, (2 ** 62,) * 6])


@pytest.fixture
def checks(monkeypatch):
    """The number of design-batch checks made, counted in every module that
    makes one."""
    count = [0]
    check = lnem._design_batch

    def counted(*args, **kwargs):
        count[0] += 1
        return check(*args, **kwargs)

    for module in (lnem, automorph, search):
        monkeypatch.setattr(module, "_design_batch", counted)
    return count


def test_each_call_checks_its_designs_once(group, checks):
    ev = DesignEvaluator(NET, SPEC)
    rng = np.random.default_rng(3)
    batch = rng.integers(1, M + 1, size=(50, NET.n_design))  # 9 key chunks
    for call in (lambda: ev.values(batch), lambda: ev.value(X),
                 lambda: ev.model_matrix(X), lambda: group.is_canonical(X),
                 lambda: group.canonical_representative(X),
                 lambda: group.canonical_representatives(batch),
                 lambda: group.design_images(X)):
        before = checks[0]
        call()
        assert checks[0] == before + 1
    # each plugin candidate once, canonical or not, with a group or without
    candidates = [tuple(row) for row in batch[:12].tolist()]
    for use in (True, False):
        before = checks[0]
        report = nd.run_with_plugins(
            NET, SPEC, lambda xs, ds: candidates[len(xs)]
            if len(xs) < len(candidates) else None, None,
            nd.SearchConfig(use_automorphisms=use))
        assert report.num_considered == len(candidates)
        assert checks[0] == before + len(candidates)


def test_coordinate_descent_checks_once_per_representative_call(monkeypatch,
                                                                checks):
    # every lockstep round's plan is checked once, whatever its length;
    # the screen and the kernel take checked batches and never check
    net = nd.augment_row_column(4, 4, 4)
    calls = [0]
    representatives = automorph.AutomorphismGroup.canonical_representatives

    def counted(self, xs):
        calls[0] += 1
        return representatives(self, xs)

    monkeypatch.setattr(automorph.AutomorphismGroup,
                        "canonical_representatives", counted)
    nd.coordinate_descent(net, ModelSpec.for_network(net, 4),
                          nd.SearchConfig(algorithm="cd", restarts=20, seed=0))
    assert calls[0] > 20
    assert checks[0] == calls[0]
