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
stacked array operations.  `DesignEvaluator.values` feeds it a chunk of
designs (exhaustive search's batch); `DesignEvaluator.value` and
`evaluate_criterion` are its one-matrix calls, with the same result bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .network import Network

Design = tuple[int, ...]

# eigenvalues below RANK_TOL * (largest eigenvalue) count as zero, and a
# contrast is estimable when its row-space residual is below the same
# relative tolerance
RANK_TOL = 1e-8

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
    """Reorder the block pseudo-treatment coordinates of `info` into a
    canonical order.

    The criterion only involves treatment-effect contrasts, so symmetric
    permutations of these nuisance coordinates leave it unchanged
    mathematically; sorting them makes designs that are equivalent under a
    network automorphism produce bit-identical matrices, hence bit-identical
    floating-point values.  Coordinates are keyed by (class, row against the
    non-block coordinates, diagonal) and the key is refined by neighbor keys
    within the block coordinates until stable.
    """
    m = spec.m
    fixed_cols = list(range(2 * m))
    block_cols = list(range(2 * m, spec.n_params))
    if len(block_cols) < 2:
        return info
    keys = {
        c: (spec.block_classes[i], tuple(info[c, fixed_cols]), info[c, c])
        for i, c in enumerate(block_cols)
    }
    ranks = _rank_keys(keys)
    for _ in range(len(block_cols)):
        refined = {
            c: (ranks[c], tuple(sorted((ranks[o], info[c, o])
                                       for o in block_cols if o != c)))
            for c in block_cols
        }
        new_ranks = _rank_keys(refined)
        if new_ranks == ranks:
            break
        ranks = new_ranks
    order = sorted(block_cols, key=lambda c: (ranks[c], c))
    if order == block_cols:
        return info
    perm = np.array(fixed_cols + order)
    return info[np.ix_(perm, perm)]


def _rank_keys(keys: dict) -> dict:
    ordered = {k: i for i, k in enumerate(sorted(set(keys.values())))}
    return {c: ordered[k] for c, k in keys.items()}


class DesignEvaluator:
    """Reusable criterion evaluator for one (network, spec) pair.

    Precomputes the design-node columns of the measurable rows of the
    adjacency matrix and the network-effect counts contributed by the fixed
    block pseudo-treatments.  `values` evaluates a whole chunk of designs
    with one batched eigendecomposition; `value` is its one-design case, and
    both give bit-identical results for the same design.
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

    def _model_matrices(self, xs: np.ndarray) -> np.ndarray:
        """Model matrices of the (B, d) designs `xs`, shape (B, d, p): one
        one-hot gather and one broadcast matmul for the whole batch.  A
        design of the wrong length or with labels outside 1..m is an error."""
        m, d = self.spec.m, self.net.n_design
        if xs.shape[1] != d:
            raise ValueError(f"design length {xs.shape[1]} does not match "
                             f"{d} design nodes")
        if xs.min() < 1 or xs.max() > m:
            raise ValueError(f"treatments must lie in 1..{m}")
        onehot = self._onehot_rows[xs - 1]
        f = np.empty((len(xs), d, self.spec.n_params))
        f[:, :, 0] = 1.0
        f[:, :, 1:m] = onehot[:, :, :m - 1]
        np.matmul(self._a_design, onehot, out=f[:, :, m:])
        f[:, :, m:] += self._gamma_blocks
        return f

    def model_matrix(self, x: Sequence[int]) -> np.ndarray:
        """Rows: measurable nodes in ascending node order.  Columns:
        intercept, treatment indicators 1..m-1, then network-effect counts
        for every treatment 1..total_treatments."""
        return self._model_matrices(np.asarray(x, dtype=np.int64)[None, :])[0]

    def value(self, x: Sequence[int]) -> float | None:
        f = self.model_matrix(x)
        return evaluate_criterion(f.T @ f, self.spec)

    def values(self, designs: Sequence[Sequence[int]]) -> list[float | None]:
        """Criterion values of a chunk of designs (one per row of a (B, d)
        batch), each equal bit for bit to `value` of that design alone."""
        if not len(designs):
            return []
        xs = np.asarray(designs, dtype=np.int64)
        return _criterion_values(self._information_matrices(xs), self.spec)

    def _information_matrices(self, xs: np.ndarray) -> np.ndarray:
        """F'F of each design of the batch, nuisance coordinates canonical."""
        f = self._model_matrices(xs)
        info = f.transpose(0, 2, 1) @ f
        if self.spec.block_classes:
            info = np.stack([_canonicalize_nuisance(a, self.spec) for a in info])
        return info


def build_model_matrix(net: Network, x: Sequence[int], spec: ModelSpec) -> np.ndarray:
    return DesignEvaluator(net, spec).model_matrix(x)


def evaluate_criterion(info: np.ndarray, spec: ModelSpec) -> float | None:
    """Criterion value of an information matrix, or None (INVALID) when some
    pairwise treatment contrast is not estimable.

    For the pairwise-variance criterion ("As"): the average, over all
    m(m-1)/2 treatment pairs, of the contrast variance read off a
    generalized inverse built by eigendecomposition with relative rank
    tolerance RANK_TOL.  For "Ds": the determinant of the covariance of the
    m-1 free treatment effects.  Lower is better for both.
    """
    info = np.asarray(info, dtype=np.float64)
    p = spec.n_params
    if info.shape != (p, p):
        raise ValueError(f"information matrix shape {info.shape}, expected {(p, p)}")
    if spec.block_classes:
        info = _canonicalize_nuisance(info, spec)
    return _criterion_values(info[None, :, :], spec)[0]


def _criterion_values(info: np.ndarray, spec: ModelSpec) -> list[float | None]:
    """`evaluate_criterion` of each matrix of a (B, p, p) stack whose
    nuisance coordinates are already canonical, with one batched eigh.
    Eigenvalues come back ascending, so the kept eigenvectors of a matrix
    are a suffix v[:, k:]; matrices are grouped by k and each group's
    estimability test and criterion run as stacked operations.  Every
    matrix gets the same floating-point operations whatever else is in the
    stack, so its value does not depend on the chunk it came in."""
    w, v = np.linalg.eigh(info)
    contrasts, tol = _pair_contrasts(spec.m, spec.n_params)
    # k: the eigenvalues at or below RANK_TOL times the largest; all p of
    # them (INVALID) exactly when the largest is not positive
    ks = (w <= RANK_TOL * w[:, -1:]).sum(axis=1)
    out: list[float | None] = [None] * len(ks)
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
        index = range(len(ks)) if len(distinct) == 1 else rows.tolist()
        for row, is_bad, val in zip(index, bad.any(axis=1).tolist(),
                                    vals.tolist()):
            if not is_bad:
                out[row] = val
    return out


def criterion_for_design(net: Network, x: Sequence[int],
                         spec: ModelSpec) -> float | None:
    """Criterion value of design x on `net`; None when not estimable."""
    return DesignEvaluator(net, spec).value(x)
