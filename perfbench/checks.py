"""Correctness checks applied to every measured run.

The oracle shares no code with `netdesign.lnem` or `netdesign.automorph`: it
rebuilds the model matrix from the network's adjacency and block roles and
computes the pairwise-variance criterion from an SVD-based pseudoinverse
(`np.linalg.pinv`), where the library uses an eigendecomposition.
"""

from __future__ import annotations

import numpy as np

ORACLE_TOL = 1e-9

_COUNTS = {"considered": "num_considered", "evaluated": "num_eval",
           "skipped": "num_skipped_noncanonical", "invalid": "num_invalid",
           "cache_hits": "num_cache_hits"}


def report_errors(report: dict) -> list[str]:
    """The counter identity of SearchReport, and a complete (not partial)
    run with a best design."""
    errors = []
    total = (report["num_eval"] + report["num_skipped_noncanonical"]
             + report["num_invalid"] + report["num_cache_hits"])
    if report["num_considered"] != total:
        errors.append(f"counter identity: considered {report['num_considered']}"
                      f" != eval+skipped+invalid+hits {total}")
    if report["partial"]:
        errors.append("report is partial")
    if report["best_design"] is None or report["best_value"] is None:
        errors.append("no best design")
    return errors


def pinned_errors(report: dict, pinned: dict) -> list[str]:
    """Counts and best value must equal the values pinned for the
    workload; the best value is compared bit for bit."""
    errors = [f"{key}: {report[field]} != pinned {pinned[key]}"
              for key, field in _COUNTS.items() if report[field] != pinned[key]]
    if report["best_value"] != pinned["best_value"]:
        errors.append(f"best_value: {report['best_value']!r} != pinned "
                      f"{pinned['best_value']!r}")
    return errors


def oracle_model_matrix(net, m: int, design) -> np.ndarray:
    """Rows: design nodes in ascending order.  Columns: intercept, own
    treatment indicators 1..m-1, then per treatment 1..T (block
    pseudo-treatments included) the number of linked nodes carrying it."""
    n_treat = m + len(net.block_nodes)
    treat = np.zeros(net.n_total, dtype=np.int64)
    treat[list(net.design_nodes)] = design
    for b in net.block_nodes:
        treat[b] = net.roles[b].fixed_treatment
    carries = np.zeros((net.n_total, n_treat))
    carries[np.arange(net.n_total), treat - 1] = 1.0
    rows = list(net.design_nodes)
    return np.hstack([np.ones((len(rows), 1)),
                      carries[rows, :m - 1],
                      np.asarray(net.adjacency, dtype=np.float64)[rows] @ carries])


def oracle_value(net, m: int, design) -> float | None:
    """Average variance of all pairwise treatment differences (unit error
    variance), or None when some difference is not estimable."""
    f = oracle_model_matrix(net, m, design)
    f_pinv = np.linalg.pinv(f)
    cov = f_pinv @ f_pinv.T          # (F'F)^+
    projector = f_pinv @ f           # onto the row space of F
    variances = []
    for j in range(1, m):
        for l in range(j + 1, m + 1):
            c = np.zeros(f.shape[1])
            c[j] = 1.0
            if l < m:          # the effect of treatment m is pinned to zero
                c[l] = -1.0
            if np.linalg.norm(c - c @ projector) > 1e-8:
                return None
            variances.append(c @ cov @ c)
    return float(np.mean(variances))


def oracle_errors(net, m: int, design, value: float) -> list[str]:
    expected = oracle_value(net, m, design)
    if expected is None:
        return [f"oracle: best design {design} is not estimable"]
    if not abs(expected - value) <= ORACLE_TOL:
        return [f"oracle: best value {value!r} differs from pinv value "
                f"{expected!r} by more than {ORACLE_TOL}"]
    return []
