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
batch, or one lockstep step of coordinate descent) and turns NaN into
None; the searches read the array itself.  `DesignEvaluator.value` and
`evaluate_criterion` are its one-matrix calls, with the same result bit
for bit; `evaluate_criterion` rejects a matrix that is not finite.  The
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

Exhaustive search keeps only each chunk's count of valid designs and its
first least value, so it evaluates chunks with `_chunk_best`, which runs
the eigh kernel only where its bits matter (certify-then-eigh).  One
batched inverse of M + s I, s a tiny ridge, certifies a matrix far from
singular (`_screen`): such a design is valid, and the criterion read off
that inverse is a lower bound on its value, within a relative
(m - 1) 1e-8 of it.
Designs the screen does not certify go to the kernel, so every INVALID
decision is the kernel's; so do the certified designs whose bound comes
within a factor 1 + SCREEN_WINDOW of the chunk's least bound or of the
best value so far.  The other certified designs cannot be the best: they
count as valid, and so in `num_eval`, though no eigendecomposition valued
them.  The best value and design are the kernel's, bit for bit.  When F is
singular for every design (one-way blocks, row-column, crossover and
regular networks: see `DesignEvaluator.__init__`) nothing could be
certified, and chunks skip the screen.  `values`, `value`,
`evaluate_criterion` and coordinate descent use the kernel alone.
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
# The screen of exhaustive search (`_screen`) inverts M + s I with
# s = SCREEN_RIDGE * tr(M) > 0, so that a singular M meets no exact zero
# pivot.  M + s I has condition at most 1 + 1 / SCREEN_RIDGE ~ 1e14 (the
# largest eigenvalue is at most tr(M)), so even for a singular M the
# computed trace of G = inv(M + s I) is within a few percent of the true
# one.
SCREEN_RIDGE = 1e-14
# M is certified when diag(G) > 0 and tr(M) tr(G) <= SCREEN_CERTIFY.  Since
# tr(M) tr(G) >= lmax / (lmin + s), a certified M has lmin / lmax >=
# 1 / SCREEN_CERTIFY - SCREEN_RIDGE ~ 1e-6, a hundred times RANK_TOL: eigh
# keeps every eigenvalue and every contrast is estimable.  Its condition is
# at most SCREEN_CERTIFY, so G's forward error is of order
# SCREEN_CERTIFY * eps ~ 2e-10, times a small dimension factor (Higham,
# Accuracy and Stability of Numerical Algorithms, 2002, ch. 14).
SCREEN_CERTIFY = 1e6
# (M + s I)^-1 <= M^-1, so the screen's value is a lower bound; per
# eigenvalue 1/(l + s) >= (1 - s / (lmin + s)) / l and s / (lmin + s) <=
# SCREEN_RIDGE * SCREEN_CERTIFY = 1e-8, so As is at most 1e-8 low and Ds
# (a determinant of order m - 1) at most (m - 1) 1e-8, plus rounding.  A
# certified design is evaluated exactly only when its bound lies within a
# factor 1 + SCREEN_WINDOW of the least bound or of the best value so far;
# SCREEN_WINDOW covers the gap with a factor ten to spare up to m = 10 and
# still covers it up to m = 50.
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
    if nb < 2:
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


class DesignEvaluator:
    """Reusable criterion evaluator for one (network, spec) pair.

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
        self.net = net
        self.spec = spec
        a_meas = net.adjacency[list(net.design_nodes), :].astype(np.float64)
        self._onehot_rows = np.eye(spec.total_treatments)
        self._a_design = a_meas[:, list(net.design_nodes)]
        fixed = [net.roles[b].fixed_treatment - 1 for b in net.block_nodes]
        self._gamma_blocks = (a_meas[:, list(net.block_nodes)]
                              @ self._onehot_rows[fixed])

    @cached_property
    def _always_singular(self) -> bool:
        """Whether F is singular for every design, so that the screen of
        `_chunk_best` could certify none.  F's network columns sum to the
        row sums of the design nodes' adjacency rows whatever the design,
        so that holds when the intercept, the block columns and those sums
        are linearly dependent.  Worked out on first use, so that a run
        that never screens (coordinate descent, or a one-design chunk)
        pays for no rank decision."""
        a_meas = self.net.adjacency[list(self.net.design_nodes), :]
        columns = np.column_stack([np.ones(len(a_meas)),
                                   self._gamma_blocks[:, self.spec.m:],
                                   a_meas.sum(axis=1)])
        return bool(np.linalg.matrix_rank(columns) < columns.shape[1])

    def _batch(self, designs) -> np.ndarray:
        """The designs as a (B, d) int64 batch.  A design of the wrong
        length, or with a label that is not a whole number in 1..m, is an
        error."""
        if not isinstance(designs, np.ndarray):
            for x in designs:  # before stacking, which fails on a ragged chunk
                self._check_length(len(x))
        xs = _label_array(designs)
        if xs.ndim != 2:
            raise ValueError(f"designs of shape {xs.shape}, not a (B, d) batch")
        self._check_length(xs.shape[1])
        if xs.min() < 1 or xs.max() > self.spec.m:
            raise ValueError(f"treatments must lie in 1..{self.spec.m}")
        return xs

    def _model_matrices(self, xs: np.ndarray) -> np.ndarray:
        """Model matrices of the checked (B, d) batch `xs`, shape (B, d, p):
        one one-hot gather and one broadcast matmul for the whole batch."""
        m, d = self.spec.m, self.net.n_design
        onehot = self._onehot_rows[xs - 1]
        f = np.empty((len(xs), d, self.spec.n_params))
        f[:, :, 0] = 1.0
        f[:, :, 1:m] = onehot[:, :, :m - 1]
        np.matmul(self._a_design, onehot, out=f[:, :, m:])
        f[:, :, m:] += self._gamma_blocks
        return f

    def _check_length(self, length: int) -> None:
        if length != self.net.n_design:
            raise ValueError(f"design length {length} does not match "
                             f"{self.net.n_design} design nodes")

    def model_matrix(self, x: Sequence[int]) -> np.ndarray:
        """Rows: measurable nodes in ascending node order.  Columns:
        intercept, treatment indicators 1..m-1, then network-effect counts
        for every treatment 1..total_treatments."""
        return self._model_matrices(self._batch([x]))[0]

    def value(self, x: Sequence[int]) -> float | None:
        return self.values([x])[0]

    def values(self, designs: Sequence[Sequence[int]] | np.ndarray
               ) -> list[float | None]:
        """Criterion values of a chunk of designs (a sequence of designs or
        a (B, d) integer array), each equal bit for bit to the value of that
        design in any other chunk; None for INVALID."""
        return [v if v == v else None for v in self._value_array(designs).tolist()]

    def _value_array(self, designs) -> np.ndarray:
        """`values` as a float64 array, NaN for INVALID.  A design that
        leaves a treatment unused is INVALID without a model matrix or an
        eigendecomposition (see the module docstring); the others go to the
        kernel as one stack, and their values come back in chunk order."""
        if not len(designs):
            return np.empty(0)
        xs = self._batch(designs)
        rows = self._using_every_treatment(xs)
        if len(rows) == len(xs):
            return _criterion_values(self._information_matrices(xs), self.spec)
        out = np.full(len(xs), np.nan)
        if len(rows):
            out[rows] = _criterion_values(self._information_matrices(xs[rows]),
                                          self.spec)
        return out

    def _chunk_best(self, chunk, best: float | None
                    ) -> tuple[int, int | None, float | None]:
        """The number of valid designs in a non-empty chunk, and the index
        and value of its first least value (None, None if none is valid),
        as `_value_array` and a first argmin would give them whenever that
        value is at most `best` (or `best` is None).  Otherwise the index
        and value may be another valid design's, or None.

        Certify-then-eigh: a design that leaves a treatment unused is
        INVALID as in `_value_array`; the others' matrices go through
        `_screen`.  The uncertified ones, and the certified ones whose lower
        bound is within a factor 1 + SCREEN_WINDOW of min(best, least
        bound), get `_criterion_values` as one stack, so their values and
        INVALID decisions are those of `_value_array` bit for bit.  The
        other certified designs are valid but worse than the least bound's
        design or than `best`, so none holds a first least value that is at
        most `best`: they count as valid with no eigendecomposition.  A
        one-design chunk gains nothing from the screen, since its design
        reaches eigh either way, and when F is singular for every design
        the screen could certify none: such chunks go to `_value_array`."""
        if len(chunk) < 2 or self._always_singular:
            values = self._value_array(chunk)
            rows, skipped = np.arange(len(values)), 0
        else:
            xs = self._batch(chunk)
            rows = self._using_every_treatment(xs)
            info = self._information_matrices(xs[rows])
            certified, bound = _screen(info, self.spec)
            exact = ~certified
            if certified.any():
                least = bound[certified].min()
                window = least if best is None else min(best, least)
                exact |= bound <= window * (1 + SCREEN_WINDOW)
            values = _criterion_values(info[exact], self.spec)
            rows, skipped = rows[exact], int((certified & ~exact).sum())
        valid = (~np.isnan(values)).nonzero()[0]
        if not len(valid):
            return skipped, None, None
        i = valid[values[valid].argmin()]
        return len(valid) + skipped, int(rows[i]), float(values[i])

    def _using_every_treatment(self, xs: np.ndarray) -> np.ndarray:
        """Indices of the designs of the checked batch `xs` that use every
        one of the m treatments; the others are INVALID (module docstring)."""
        used = np.zeros((len(xs), self.spec.m + 1), dtype=bool)
        used[np.arange(len(xs))[:, None], xs] = True
        return used[:, 1:].all(axis=1).nonzero()[0]

    def _information_matrices(self, xs: np.ndarray) -> np.ndarray:
        """F'F of each design of the batch, nuisance coordinates canonical."""
        f = self._model_matrices(xs)
        info = f.transpose(0, 2, 1) @ f
        if self.spec.block_classes:
            info = _canonicalize_nuisance(info, self.spec)
        return info


def _label_array(designs) -> np.ndarray:
    """`designs` as an int64 array.  A label that is not a whole number is
    an error, not truncated or parsed; whole-number floats such as 2.0 are
    labels."""
    xs = np.asarray(designs)
    if xs.dtype.kind in "biu":
        return xs.astype(np.int64, copy=False)
    if xs.dtype.kind != "f" or not (np.isfinite(xs)
                                    & (xs == np.trunc(xs))).all():
        raise ValueError("treatments must be whole numbers")
    return xs.astype(np.int64)


def build_model_matrix(net: Network, x: Sequence[int], spec: ModelSpec) -> np.ndarray:
    return DesignEvaluator(net, spec).model_matrix(x)


def evaluate_criterion(info: np.ndarray, spec: ModelSpec) -> float | None:
    """Criterion value of an information matrix, or None (INVALID) when some
    pairwise treatment contrast is not estimable.

    For the pairwise-variance criterion ("As"): the average, over all
    m(m-1)/2 treatment pairs, of the contrast variance read off a
    generalized inverse built by eigendecomposition with relative rank
    tolerance RANK_TOL.  For "Ds": the determinant of the covariance of the
    m-1 free treatment effects.  Lower is better for both.  A matrix of
    the wrong shape, or with an entry that is NaN or infinite, is an error.
    """
    info = np.asarray(info, dtype=np.float64)
    p = spec.n_params
    if info.shape != (p, p):
        raise ValueError(f"information matrix shape {info.shape}, expected {(p, p)}")
    if not np.isfinite(info).all():
        raise ValueError("information matrix entries must be finite")
    info = info[None, :, :]
    if spec.block_classes:
        info = _canonicalize_nuisance(info, spec)
    value = float(_criterion_values(info, spec)[0])
    return value if value == value else None


def _screen(info: np.ndarray, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices of a (B, p, p) stack of finite information matrices
    `_criterion_values` would find full rank with every contrast estimable,
    certified from one batched inverse G = inv(M + s I) without an
    eigendecomposition, and for each a lower bound on its criterion value
    (meaningless where not certified).  The bound is the criterion read off
    G in place of M^-1: As is the mean of G_jj + G_ll - 2 G_jl over the
    pairs, that is (m tr(G_tt) - sum(G_tt)) / (m(m-1)/2) on the treatment
    coordinates t = 1..m-1, and Ds is det(G_tt); both times the powers of
    sigma2 that `_criterion_values` applies.  SCREEN_RIDGE,
    SCREEN_CERTIFY and SCREEN_WINDOW say why the certificate and the bound
    hold."""
    m, batch = spec.m, len(info)
    trace = np.trace(info, axis1=1, axis2=2)
    shifted = info + (SCREEN_RIDGE * trace)[:, None, None] * np.eye(spec.n_params)
    # a matrix certified far from singular has a finite, well-conditioned
    # G; the others may overflow or come out garbage, and are not certified
    with np.errstate(all="ignore"):
        try:
            g = np.linalg.inv(shifted)
        except np.linalg.LinAlgError:  # an exact zero pivot despite the ridge
            return np.zeros(batch, dtype=bool), np.full(batch, np.inf)
        diag = g.diagonal(axis1=1, axis2=2)
        certified = ((diag > 0).all(axis=1)
                     & (trace * diag.sum(axis=1) <= SCREEN_CERTIFY))
        block = g[:, 1:m, 1:m]
        if spec.criterion == "As":
            bound = ((m * np.trace(block, axis1=1, axis2=2)
                      - block.sum(axis=(1, 2))) / (m * (m - 1) / 2)
                     * spec.sigma2)
        else:
            bound = np.linalg.det(block) * spec.sigma2 ** (m - 1)
    return certified, bound


def _criterion_values(info: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """`evaluate_criterion` of each matrix of a (B, p, p) stack of finite
    matrices whose nuisance coordinates are already canonical, with one
    batched eigh, as a float64 array with NaN for INVALID.  Eigenvalues
    come back ascending, so the kept eigenvectors of a matrix are a suffix
    v[:, k:]; matrices are grouped by k and each group's estimability test
    and criterion run as stacked operations.  Every matrix gets the same
    floating-point operations whatever else is in the stack, so its value
    does not depend on the chunk it came in."""
    w, v = np.linalg.eigh(info)
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
