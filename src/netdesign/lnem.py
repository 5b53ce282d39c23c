"""Model matrices and optimality criteria for experiments on unit networks.

The response of unit i is modeled as an intercept, plus the effect of its own
treatment, plus the summed network effects of the treatments carried by the
nodes it is linked to (block nodes contribute their fixed pseudo-treatment).
For m treatments the last treatment effect is pinned to zero, so the model
matrix F has columns: intercept, indicators for treatments 1..m-1, then one
network-effect column per treatment (including block pseudo-treatments).

The default criterion is the average variance of all pairwise treatment
effect differences, computed from a generalized inverse of F'F.  Designs for
which some pairwise contrast is not estimable evaluate to INVALID, returned
as None; lower values are better.

There is one criterion kernel: it takes a stack of information matrices,
runs one batched eigendecomposition and evaluates the whole stack with
stacked array operations, returning a float array with NaN for INVALID.
`DesignEvaluator.values` feeds it a chunk of designs (exhaustive search's
batch, or one lockstep round of coordinate descent) and turns NaN into
None; the searches read the array itself.  `DesignEvaluator.value` and
`evaluate_criterion` are its one-matrix calls, with the same result bit
for bit; `evaluate_criterion` rejects a matrix that is not finite or not
symmetric.  The
nuisance coordinates of the whole stack are put in canonical order first,
in a few calls per refinement pass whatever the stack's size: one
lexsort of all its coordinates' stacked keys, one step test and one
cumulative sum, then one flat gather that permutes rows and columns.

A design that leaves some treatment unused is INVALID on every network, so
`values` answers None for it without a model matrix or an eigendecomposition:
if treatment j < m is unused, column j of F is zero and no contrast with
c_j != 0 lies in F's row space; if treatment m is unused, the indicators of
1..m-1 sum to the intercept, so F v = 0 for v = (-1, 1, ..., 1, 0, ..., 0),
and the contrast e_j of (j, m) has e_j . v = 1.

Every search reaches the evaluator through two calls on checked (B, d)
int64 batches: the screen, `_bounds`, and the kernel, `_value_array`.
The screen certifies designs valid and bounds their values without an
eigendecomposition, so that the kernel runs only where its bits matter
(certify-then-eigh).  F has a null space N common to every design: on
one-way block, row-column, crossover and regular networks, block columns
that sum to the intercept, say, or treatments' network columns that are
zero when no two design nodes are linked.  No pairwise contrast meets N.
The screen works on the pivot columns S of F'F (`DesignEvaluator._kept`),
the columns that are no combination of those before them, found once per
evaluator by exact elimination on the label map's rows: every other
column of F is the same combination of them for every design, so the
principal submatrix M_SS of M = F'F has M's rank, and its inverse padded
with zeros is a generalized inverse of M.  One batched Cholesky factor L
of M_SS + s I, s a tiny ridge, and X = L^-1 by forward substitution,
certify M_SS far from singular (`_screen`): then F'F's null space is N
exactly, the design is valid, and the criterion read off G = X'X =
inv(M_SS + s I) is a lower bound on its value, within a relative (m - 1)
1e-8 of it.  `_bounds` gives each design that uses every treatment an
interval (lo, hi), a factor 1 +- SCREEN_WINDOW about that bound, that
holds the kernel's value, or NaN where the screen does not certify it.
The searches decide on those intervals and send to `_value_array` only
the designs they cannot decide: every uncertified design, so that every
INVALID decision is the kernel's, and the designs whose intervals leave a
comparison open.  Exhaustive search keeps only each chunk's count of
valid designs and its first least value, so a certified design goes to
the kernel only when its lo is at most min(best, least hi), the best
value the kernel has resolved so far and the least hi of its chunk
(`search._needs_kernel`); the others cannot be the best, count as valid,
and so in `num_eval`, though no eigendecomposition valued them, and their
nuisance coordinates are never put in canonical order.  Coordinate
descent compares orbits on their intervals, in rounds, and at the end of
each round sends to the kernel the orbits that the round met and could
not decide on: the uncertified ones, each side of a comparison whose
intervals overlap that is not yet a kernel value, and the final orbit of
each descent that ended in the round (`search._restart_task`).  So the
best value and design of every search are the kernel's, bit for bit, as
`values` gives them.
F is linear in the one-hot labels, so a batch's model matrices are one
GEMM against a fixed map (`_label_map`).  `values`, `value` and
`model_matrix` check their designs once, with the check the group uses
too (`_design_batch`), before any of it.
`values`, `value` and `evaluate_criterion` use the kernel alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import math
from typing import Sequence

import numpy as np

from .network import Network

Design = tuple[int, ...]

# eigenvalues below RANK_TOL * (largest eigenvalue) count as zero, and a
# contrast is estimable when its row-space residual is below the same
# relative tolerance
RANK_TOL = 1e-8
# The screen (`_screen`) factors R + s I = L L' and takes X = L^-1, R = M_SS
# the principal submatrix of the information matrix M on its pivot columns
# S (R = M when every column is a pivot), with s = SCREEN_RIDGE * tr(M) > 0,
# so that a singular R meets no zero pivot: the computed factor is exact for
# R + s I + E, with |E| at most a small multiple of q eps tr(R) <= q eps
# tr(M) and in practice far smaller (Higham, Accuracy and Stability of
# Numerical Algorithms, 2002, ch. 10), so a pivot rarely comes out not
# positive.  Where one does, np.linalg.cholesky raises for the whole stack,
# and the screen certifies nothing in it: every design then goes to the
# kernel.
SCREEN_RIDGE = 1e-14
# R is certified when tr(M) tr(G) <= SCREEN_CERTIFY, G = X'X = inv(R + s I)
# and tr(G) = |X|_F^2 (diag(G) > 0 holds for any finite X, its entries
# being X's squared column norms).  The computed X is the exact inverse of
# a factor of R + s I plus a perturbation of order q eps tr(M) (ch. 10 and
# 14 of Higham), so a certified R has lmin(R) / lmax(M) >= 1 /
# SCREEN_CERTIFY - SCREEN_RIDGE - O(q eps) ~ 1e-6, a hundred times
# RANK_TOL; for a singular R, tr(M) tr(G) is of order 1 / (SCREEN_RIDGE +
# O(q eps)), some 1e13, far from certified.  M has k = dim N zero
# eigenvalues, and by interlacing R, a principal submatrix of order p - k,
# has lmin(R) <= l_(k+1)(M), the least of M's other eigenvalues (Horn and
# Johnson, Matrix Analysis, 2nd ed., 2013, Thm 4.3.28).  So eigh computes M's k
# zeros within a few eps * lmax of zero and the others above 1e-6 lmax:
# it drops exactly those k.  The eigenvectors it keeps span N's complement
# to within an angle of about eps * lmax / l_(k+1) <= 2e-10 (Davis-Kahan),
# and every contrast lies in that complement, so its residual is some 50
# times below the RANK_TOL estimability test: every contrast is estimable.
# R's condition is at most SCREEN_CERTIFY, so the forward error of G, and
# of the treatment block read off X, is of order SCREEN_CERTIFY * eps ~
# 2e-10, times a small dimension factor (Higham, ch. 14).
SCREEN_CERTIFY = 1e6
# R^-1 padded with zeros is a generalized inverse of M (the module
# docstring), so the criterion reads the same off R^-1 as off any other;
# (R + s I)^-1 <= R^-1, so the screen's value is a lower bound; per
# eigenvalue 1/(l + s) >= (1 - s / (lmin + s)) / l and s / (lmin + s) <=
# s tr(G) <= SCREEN_RIDGE * SCREEN_CERTIFY = 1e-8, so As is at most 1e-8
# low and Ds (a determinant of order m - 1) at most (m - 1) 1e-8, plus
# rounding.  SCREEN_WINDOW covers that gap with a factor ten to spare up
# to m = 10 and still covers it up to m = 50.  So the kernel's value of a
# certified design lies within a factor 1 +- SCREEN_WINDOW of its bound:
# the interval that `DesignEvaluator._bounds` gives, and that every search
# decides on.
SCREEN_WINDOW = 1e-6

CRITERIA = ("As", "Ds")


@dataclass(frozen=True)
class ModelSpec:
    """Model shape for a network: free treatment count m, total treatment
    count including block pseudo-treatments, criterion choice, and the
    exchangeability class of each block pseudo-treatment (in block node
    order, used to canonicalize nuisance coordinates)."""

    m: int
    total_treatments: int
    criterion: str = "As"
    sigma2: float = 1.0
    block_classes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need at least two treatments")
        if self.total_treatments < self.m:
            raise ValueError("total_treatments cannot be below m")
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be finite and positive, "
                             f"got {self.sigma2!r}")
        if len(self.block_classes) != self.total_treatments - self.m:
            raise ValueError("need one block class per block pseudo-treatment")

    @classmethod
    def for_network(cls, net: Network, m: int, criterion: str = "As") -> "ModelSpec":
        """Spec matching `net`: block nodes (in node order) must be pinned to
        pseudo-treatments m+1, m+2, ..."""
        fixed = [net.roles[b].fixed_treatment for b in net.block_nodes]
        expected = list(range(m + 1, m + 1 + len(fixed)))
        if fixed != expected:
            raise ValueError(f"block nodes carry fixed treatments {fixed}, "
                             f"expected {expected} for m={m}")
        classes = tuple(net.roles[b].class_id for b in net.block_nodes)
        return cls(m=m, total_treatments=m + len(fixed), criterion=criterion,
                   block_classes=classes)

    @property
    def n_params(self) -> int:
        return self.m + self.total_treatments


@lru_cache(maxsize=128)
def _pair_contrasts(m: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows c for every treatment difference j < l (effect l == m is the
    pinned zero, so that column is absent), and per row the estimability
    tolerance RANK_TOL * |c| on the residual norm."""
    rows = []
    for j in range(1, m):
        for l in range(j + 1, m + 1):
            c = np.zeros(p)
            c[j] = 1.0
            if l < m:
                c[l] = -1.0
            rows.append(c)
    out = np.array(rows)
    tol = RANK_TOL * np.linalg.norm(out, axis=1)
    out.setflags(write=False)
    tol.setflags(write=False)
    return out, tol


def _canonicalize_nuisance(info: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Reorder the block pseudo-treatment coordinates of each matrix of the
    (B, p, p) stack `info` into a canonical order.

    The criterion only involves treatment-effect contrasts, so symmetric
    permutations of these nuisance coordinates leave it unchanged
    mathematically; sorting them makes designs that are equivalent under a
    network automorphism produce bit-identical matrices, hence bit-identical
    floating-point values.  Coordinates are keyed by (class, row against the
    non-block coordinates, diagonal) and the key is refined by the sorted
    (neighbor key, weight) pairs within the block coordinates until no
    matrix's classes split (colour refinement); ties keep index order.
    Keys are compared as floats, so any matrix is accepted.

    The B·nb coordinates of the whole stack are ranked together, each
    matrix's ahead of the next one's, so every pass is one `_dense_ranks`
    call on a stacked key array.  The weights never change, so they are
    ranked once, and a (neighbor rank, weight) pair packs into one integer:
    a pass sorts each coordinate's packed pairs and ranks (rank, pairs).
    The final order applies to rows and columns in one flat gather.
    """
    fixed, p = 2 * spec.m, spec.n_params
    nb = p - fixed
    if nb < 2 or not len(info):
        return info
    batch = len(info)
    n = batch * nb
    block = info[:, fixed:, :]  # (B, nb, p): each block coordinate's row
    # row c of `others`: the block coordinates other than c
    others = np.arange(nb - 1) + (np.arange(nb - 1) >= np.arange(nb)[:, None])
    classes = np.asarray(spec.block_classes) - min(spec.block_classes)
    # the initial keys, least significant first: diagonal, the row against
    # the fixed coordinates from its last entry up, then (matrix, class)
    keys = np.empty((fixed + 2, n))
    keys[0] = block[:, np.arange(nb), fixed + np.arange(nb)].ravel()
    keys[1:-1] = block[:, :, fixed - 1::-1].reshape(n, fixed).T
    keys[-1] = (np.arange(batch)[:, None] * (classes.max() + 1) + classes).ravel()
    ranks = _dense_ranks(keys)[0]
    # (neighbor rank, weight) pairs pack into rank * n(nb-1) + weight rank
    weights = block[:, np.arange(nb)[:, None], fixed + others]
    weight_ranks = np.unique(weights, return_inverse=True)[1].reshape(n, nb - 1)
    neighbors = (nb * np.arange(batch)[:, None, None] + others).reshape(n, nb - 1)
    keys = np.empty((nb, n), dtype=np.int64)
    while True:  # at most nb passes: an unstable matrix splits a class in each
        pairs = ranks[neighbors] * weights.size + weight_ranks
        pairs.sort(axis=1)
        keys[:-1] = pairs.T[::-1]
        keys[-1] = ranks
        refined, order = _dense_ranks(keys)
        # refinement only splits classes, so an unchanged count means no
        # matrix changed, and `order` is the stable order of the ranks
        if refined[order[-1]] == ranks[order[-1]]:
            break
        ranks = refined
    # each matrix's coordinates are consecutive in `order`: source row and
    # column of every output entry, as one index into the flat stack
    first = nb * np.arange(batch)[:, None]  # each matrix's first coordinate
    source = np.empty((batch, p), dtype=np.int64)
    source[:, :fixed] = np.arange(fixed)
    source[:, fixed:] = order.reshape(batch, nb) - first + fixed
    rows = source * p + p * p * np.arange(batch)[:, None]
    return np.take(info, rows[:, :, None] + source[:, None, :])


def _dense_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ranks of the n items keyed by the columns of the (K, n) array
    `keys`, last row most significant (as `np.lexsort` reads them), and the
    stable order that sorts the items: items get equal ranks iff all their
    keys are equal, and ranks follow the keys' lexicographic order."""
    order = np.lexsort(keys)
    ordered = keys[:, order]
    step = np.zeros(len(order), dtype=np.int64)
    step[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.cumsum(step)
    return ranks, order


def _pivot_columns(matrix: list[list[int]]) -> list[int]:
    """The pivot columns of an integer matrix, the columns that are no
    combination of the columns before them, in order: left-to-right
    fraction-free elimination in exact integers (the rows below each pivot
    are cross-multiplied against it, then divided by the gcd of their
    entries)."""
    rows = [list(row) for row in matrix]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                row = [a * top[col] - b * rows[i][col]
                       for a, b in zip(rows[i], top)]
                divisor = math.gcd(*row) or 1
                rows[i] = [v // divisor for v in row]
        pivots.append(col)
    return pivots


class DesignEvaluator:
    """Reusable criterion evaluator for one (network, spec) pair, where the
    spec has the network's block classes (`ModelSpec.for_network`).

    Precomputes the design-node columns of the measurable rows of the
    adjacency matrix and the network-effect counts contributed by the fixed
    block pseudo-treatments.  `values` evaluates a whole chunk of designs
    with one batched eigendecomposition of those that use every treatment;
    `value` is its one-design case, and both give bit-identical results for
    the same design.
    """

    def __init__(self, net: Network, spec: ModelSpec):
        if spec.total_treatments != spec.m + net.n_blocks:
            raise ValueError(f"spec expects {spec.total_treatments - spec.m} "
                             f"block treatments, network has {net.n_blocks}")
        # the network's own spec, which raises unless its blocks are pinned
        # to m+1, m+2, ...: a block pinned past them has no column of F, and
        # other block classes would let automorphic designs' nuisance
        # coordinates sort apart (`_canonicalize_nuisance`), so that their
        # values could differ in the last bits
        own = ModelSpec.for_network(net, spec.m).block_classes
        if tuple(spec.block_classes) != own:
            raise ValueError(f"spec block classes {spec.block_classes} are "
                             f"not the network's {own}")
        self.net = net
        self.spec = spec

    @cached_property
    def _label_map(self) -> tuple[np.ndarray, np.ndarray]:
        """F as a linear map of the one-hot labels: the (d m, d p) matrix
        whose row k m + l - 1 is the flattened (d, p) change K_k[l] that
        label l at position k makes to F (a 1 in row k's indicator column
        l, and A_d[i, k] in every row i's network column of l), and the
        flattened (d p) constant: the intercept and the block
        pseudo-treatments' network counts.  Every entry is a small whole
        number, so the GEMM's sums are exact in any order."""
        net, spec = self.net, self.spec
        m, d, p = spec.m, net.n_design, spec.n_params
        a_meas = net.adjacency[list(net.design_nodes), :].astype(np.float64)
        a_design = a_meas[:, list(net.design_nodes)]
        fixed = [net.roles[b].fixed_treatment - 1 for b in net.block_nodes]
        changes = np.zeros((d, m, d, p))
        k = np.arange(d)[:, None]
        changes[k, np.arange(m - 1), k, np.arange(1, m)] = 1.0
        for label in range(m):
            changes[:, label, :, m + label] = a_design.T
        constant = np.zeros((d, p))
        constant[:, 0] = 1.0
        constant[:, m:] = (a_meas[:, list(net.block_nodes)]
                           @ np.eye(spec.total_treatments)[fixed])
        return changes.reshape(d * m, d * p), constant.ravel()

    @cached_property
    def _kept(self) -> np.ndarray | None:
        """The pivot columns S of F'F that `_screen` works on, in order; None
        when every column is a pivot.

        The rows of F(1, ..., 1) and of each one-label change K_k[l] -
        K_k[1] (`_label_map`) span the rows of F(x) for every design x,
        F(x) being F(1, ..., 1) plus the changes of the positions not
        labelled 1, and each of them is a row of some F(x) or a difference
        of two.  So the null space N that every F(x) shares is null(A) for
        the stack A of those integer rows, and null(A'A): the pivot columns
        of the integer Gram A'A are F's (`_pivot_columns`), and each free
        column of F is the same combination of them for every design.
        A_d has a zero diagonal, so changing x_k alone changes row k by its
        indicator coefficients only: N is zero on the indicators, and the
        intercept and the m - 1 indicators are the first m pivots.  Worked
        out on first use, so that building an evaluator stays cheap."""
        m, d, p = self.spec.m, self.net.n_design, self.spec.n_params
        mapping, constant = self._label_map
        changes = mapping.reshape(d, m, d, p)
        first = constant.reshape(d, p) + changes[:, 0].sum(axis=0)
        gram = first.T @ first
        # a position at a time, with no (d (m - 1) d, p) stack of rows
        for change in changes:
            steps = (change[1:] - change[:1]).reshape(-1, p)
            gram += steps.T @ steps
        pivots = _pivot_columns(np.rint(gram).astype(np.int64).tolist())
        if len(pivots) == p:
            return None
        kept = np.array(pivots)
        kept.setflags(write=False)
        return kept

    def _model_matrices(self, xs: np.ndarray) -> np.ndarray:
        """Model matrices of the checked (B, d) batch `xs`, shape (B, d, p):
        one GEMM of the one-hot labels against `_label_map`, plus its
        constant."""
        mapping, constant = self._label_map
        f = _onehot(xs, self.spec.m) @ mapping
        f += constant
        return f.reshape(len(xs), self.net.n_design, self.spec.n_params)

    def model_matrix(self, x: Sequence[int]) -> np.ndarray:
        """Rows: measurable nodes in ascending node order.  Columns:
        intercept, treatment indicators 1..m-1, then network-effect counts
        for every treatment 1..total_treatments."""
        xs = _design_batch([x], self.net.n_design, self.spec.m)
        return self._model_matrices(xs)[0]

    def value(self, x: Sequence[int]) -> float | None:
        return self.values([x])[0]

    def values(self, designs: Sequence[Sequence[int]] | np.ndarray
               ) -> list[float | None]:
        """Criterion values of a chunk of designs (a sequence of designs or
        a (B, d) integer array), each equal bit for bit to the value of that
        design in any other chunk; None for INVALID."""
        xs = _design_batch(designs, self.net.n_design, self.spec.m)
        if not len(xs):
            return []
        values = self._value_array(xs)
        return [v if v == v else None for v in values.tolist()]

    def _value_array(self, xs: np.ndarray) -> np.ndarray:
        """`values` of the checked (B, d) batch `xs` as a float64 array, NaN
        for INVALID.  A design that leaves a treatment unused is INVALID
        without a model matrix or an eigendecomposition (see the module
        docstring); the others go to the kernel as one stack, and their
        values come back in batch order."""
        rows = self._using_every_treatment(xs)
        if len(rows) == len(xs):
            return _criterion_values(self._information_matrices(xs), self.spec)
        out = np.full(len(xs), np.nan)
        if len(rows):
            out[rows] = _criterion_values(self._information_matrices(xs[rows]),
                                          self.spec)
        return out

    def _bounds(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The screen of the checked (B, d) batch `xs`: the indices `rows`
        of the designs that use every treatment (the others are INVALID),
        and for each of them, as a (len(rows), 2) float64 array of rows
        (lo, hi), an interval that holds its kernel value: the factor 1 +-
        SCREEN_WINDOW about `_screen`'s lower bound, NaN where the screen
        does not certify the design valid.  Where no design uses every
        treatment no model matrix is built."""
        rows = self._using_every_treatment(xs)
        out = np.full((len(rows), 2), np.nan)
        if len(rows):
            certified, bound = _screen(self._information_matrices(xs[rows]),
                                       self.spec, self._kept)
            out[certified] = (bound[certified, None]
                              * (1 - SCREEN_WINDOW, 1 + SCREEN_WINDOW))
        return rows, out

    def _using_every_treatment(self, xs: np.ndarray) -> np.ndarray:
        """Indices of the designs of the checked batch `xs` that use every
        one of the m treatments; the others are INVALID (module docstring).
        While m <= 62 each row's labels are OR-ed as bits 1..m of one int64;
        a wider m takes a (B, m + 1) table of the labels each row uses."""
        m = self.spec.m
        if m <= 62:
            used = np.bitwise_or.reduce(1 << xs, axis=1)
            return (used == (2 << m) - 2).nonzero()[0]
        used = np.zeros((len(xs), m + 1), dtype=bool)
        used[np.arange(len(xs))[:, None], xs] = True
        return used[:, 1:].all(axis=1).nonzero()[0]

    def _information_matrices(self, xs: np.ndarray) -> np.ndarray:
        """F'F of each design of the checked batch `xs`, in the order of
        F's columns: `_criterion_values` orders the nuisance coordinates of
        those that go to the kernel."""
        f = self._model_matrices(xs)
        return f.transpose(0, 2, 1) @ f


def _onehot(xs: np.ndarray, m: int) -> np.ndarray:
    """The (B, s) labels 1..m as (B, s m) one-hot rows: column k m + l - 1
    is 1 where position k holds label l."""
    onehot = np.zeros((len(xs), xs.shape[1] * m))
    columns = np.arange(xs.shape[1]) * m + xs - 1
    onehot[np.arange(len(xs))[:, None], columns] = 1.0
    return onehot


def _design_batch(designs, d: int, m: int | None = None) -> np.ndarray:
    """`designs`, a sequence of designs or an array, as a checked (B, d)
    int64 batch, (0, d) when there are none: the one check of the designs
    given to the evaluator, the group and the plugin loop.  A batch that is
    neither an array nor a sequence, a bare label say, is an error.  Each
    design must be a flat sequence of d labels, checked before stacking so
    that a ragged batch, or a design that holds a sequence, gets this
    error, not numpy's.  Each label must be a whole number that
    int64 holds: 2.0 is label 2, and 1.5, NaN, 1e20 or a uint64 2^63 + 5
    is an error, never truncated or wrapped.  With m (the evaluator's
    rule) labels must lie in 1..m; without it (the group's), the span
    max - min must fit in int64, as the keys read the digits x - min(x)."""
    if not isinstance(designs, np.ndarray):
        if not isinstance(designs, Sequence):
            raise ValueError(f"designs {designs!r} is not a sequence of designs")
        for x in designs:  # before stacking, which fails on a ragged batch
            try:
                ndim = np.ndim(x)
            except ValueError:  # numpy's: x holds sequences of other lengths
                ndim = None
            if ndim != 1:
                raise ValueError(f"design {x!r} is not a sequence of labels")
            if len(x) != d:
                raise ValueError(f"design length {len(x)} does not match "
                                 f"{d} design nodes")
    xs = np.asarray(designs) if len(designs) else np.empty((0, d), np.int64)
    if xs.ndim != 2 or xs.shape[1] != d:
        raise ValueError(f"designs of shape {xs.shape}, not a (B, {d}) batch")
    whole = "treatments must be whole numbers that int64 holds"
    kind = xs.dtype.kind
    if kind not in "biuf" or kind == "f" and (xs != np.trunc(xs)).any():
        raise ValueError(whole)
    if len(xs):
        # as Python numbers, which compare with 2^63 exactly
        low, high = xs.min().item(), xs.max().item()
        if low < -2 ** 63 or high >= 2 ** 63:
            raise ValueError(whole)
        if m is not None and (low < 1 or high > m):
            raise ValueError(f"treatments must lie in 1..{m}")
        if high - low >= 2 ** 63:
            raise ValueError("the labels' span max - min must fit in int64")
    return xs.astype(np.int64, copy=False)


def evaluate_criterion(info: np.ndarray, spec: ModelSpec) -> float | None:
    """Criterion value of an information matrix, or None (INVALID) when some
    pairwise treatment contrast is not estimable.

    For the pairwise-variance criterion ("As"): the average, over all
    m(m-1)/2 treatment pairs, of the contrast variance read off a
    generalized inverse built by eigendecomposition with relative rank
    tolerance RANK_TOL.  For "Ds": the determinant of the covariance of the
    m-1 free treatment effects.  Lower is better for both.  A matrix of
    the wrong shape, with an entry that is NaN or infinite, or that is not
    exactly symmetric (the eigendecomposition reads one triangle) is an
    error.
    """
    info = np.asarray(info, dtype=np.float64)
    p = spec.n_params
    if info.shape != (p, p):
        raise ValueError(f"information matrix shape {info.shape}, expected {(p, p)}")
    if not np.isfinite(info).all():
        raise ValueError("information matrix entries must be finite")
    if not (info == info.T).all():
        raise ValueError("information matrix must be symmetric")
    value = float(_criterion_values(info[None, :, :], spec)[0])
    return value if value == value else None


def _screen(info: np.ndarray, spec: ModelSpec,
            kept: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices M of a (B, p, p) stack of finite information matrices
    `_criterion_values` would find with every contrast estimable, certified
    from one batched Cholesky factor without an eigendecomposition, and for
    each a lower bound on its criterion value (meaningless where not
    certified).

    `kept` holds the pivot columns S of every matrix of the stack, among
    them the intercept and the m - 1 indicators as its first m entries
    (`DesignEvaluator._kept`); None means every column.  The screen factors
    R + s I = L L', R = M_SS and s = SCREEN_RIDGE tr(M), and takes X = L^-1
    by forward substitution, so that G = inv(R + s I) = X'X and tr(G) =
    |X|_F^2.  A certified R is far from singular, so M has R's rank: its
    null space is the one that every matrix of the stack shares, which no
    pairwise contrast c meets, so c is estimable and c'M^-c = c_S' R^-1
    c_S, R^-1 padded with zeros being a generalized inverse of M (Rao and
    Mitra, Generalized Inverse of Matrices and its Applications, 1971).
    The bound is the criterion read off G in place of R^-1, from the
    treatment block C = Y'Y, Y = X[:, 1:m] the indicators' columns: As is
    the mean of C_jj + C_ll - 2 C_jl over the pairs, that is (m |Y|_F^2 -
    |Y 1|^2) / (m(m-1)/2), and Ds is det(Y'Y); both times the powers of
    sigma2 that `_criterion_values` applies.  A stack that Cholesky cannot
    factor gets nothing certified.  SCREEN_RIDGE, SCREEN_CERTIFY and
    SCREEN_WINDOW say why the certificate and the bound hold."""
    m, batch = spec.m, len(info)
    trace = np.trace(info, axis1=1, axis2=2)
    shifted = info.copy() if kept is None else info[:, kept[:, None], kept]
    q = shifted.shape[-1]
    shifted.reshape(batch, q * q)[:, ::q + 1] += (SCREEN_RIDGE * trace)[:, None]
    # a matrix certified far from singular has a finite, well-conditioned
    # G; the others may overflow or come out garbage, and are not certified
    with np.errstate(all="ignore"):
        try:
            x = _inverse_factor(np.linalg.cholesky(shifted))
        except np.linalg.LinAlgError:  # a pivot not positive despite the ridge
            return np.zeros(batch, dtype=bool), np.full(batch, np.inf)
        # x is X with the batch as its last axis.  diag(G) holds the
        # squared column norms of X, positive wherever X is finite, and a
        # NaN fails the test
        certified = (trace * np.add.reduce(x * x, axis=(0, 1))
                     <= SCREEN_CERTIFY)
        y = x[:, 1:m]
        if spec.criterion == "As":
            sums = np.add.reduce(y, axis=1)
            bound = ((m * np.add.reduce(y * y, axis=(0, 1))
                      - np.add.reduce(sums * sums, axis=0)) / (m * (m - 1) / 2)
                     * spec.sigma2)
        else:
            bound = (np.linalg.det(np.einsum("itb,isb->bts", y, y))
                     * spec.sigma2 ** (m - 1))
    return certified, bound


def _inverse_factor(low: np.ndarray) -> np.ndarray:
    """L^-1 of each lower triangular matrix of the (B, q, q) stack `low`,
    with a nonzero diagonal, as a (q, q, B) array: the batch is the last
    axis, so that every step reads contiguous memory.  Forward
    substitution on the rows of L X = I: row i of X from rows 0..i-1, in
    one step for the whole stack (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 14)."""
    q = low.shape[-1]
    low = np.ascontiguousarray(low.transpose(1, 2, 0))
    pivots = 1 / low[np.arange(q), np.arange(q)]
    x = np.zeros_like(low)
    x[0, 0] = pivots[0]
    for i in range(1, q):
        np.multiply(np.einsum("jb,jkb->kb", low[i, :i], x[:i, :i]),
                    -pivots[i], out=x[i, :i])
        x[i, i] = pivots[i]
    return x


def _criterion_values(info: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """`evaluate_criterion` of each matrix of a (B, p, p) stack of finite
    matrices, with one batched eigh after its nuisance coordinates are put
    in canonical order, as a float64 array with NaN for INVALID.  Eigenvalues
    come back ascending, so the kept eigenvectors of a matrix are a suffix
    v[:, k:]; matrices are grouped by k and each group's estimability test
    and criterion run as stacked operations.  Every matrix gets the same
    floating-point operations whatever else is in the stack, so its value
    does not depend on the chunk it came in."""
    w, v = np.linalg.eigh(_canonicalize_nuisance(info, spec))
    contrasts, tol = _pair_contrasts(spec.m, spec.n_params)
    # k: the eigenvalues at or below RANK_TOL times the largest; all p of
    # them (INVALID) exactly when the largest is not positive
    ks = (w <= RANK_TOL * w[:, -1:]).sum(axis=1)
    out = np.full(len(ks), np.nan)
    distinct = set(ks.tolist())
    for k in distinct - {spec.n_params}:
        # a single k (always so for one matrix) takes every row without a
        # gather; vr is made contiguous either way, so that the BLAS calls
        # see one memory layout
        rows = slice(None) if len(distinct) == 1 else (ks == k).nonzero()[0]
        vr = np.ascontiguousarray(v[rows, :, k:])
        wr = w[rows, None, k:]
        cv = contrasts @ vr
        resid = contrasts - cv @ vr.transpose(0, 2, 1)
        bad = np.sqrt(np.add.reduce(resid * resid, axis=2)) > tol
        if spec.criterion == "As":
            variances = np.add.reduce(cv * cv / wr, axis=2)
            vals = np.add.reduce(variances, axis=1) / len(contrasts) * spec.sigma2
        else:
            bv = vr[:, 1:spec.m, :]
            vals = (np.linalg.det((bv / wr) @ bv.transpose(0, 2, 1))
                    * spec.sigma2 ** (spec.m - 1))
        vals[bad.any(axis=1)] = np.nan
        out[rows] = vals
    return out


def criterion_for_design(net: Network, x: Sequence[int],
                         spec: ModelSpec) -> float | None:
    """Criterion value of design x on `net`; None when not estimable."""
    return DesignEvaluator(net, spec).value(x)
