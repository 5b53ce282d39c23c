"""Independent oracles used by the tests: these deliberately avoid the
library's canonicity code paths, and its eigendecomposition except where a
value must match the library's bit for bit."""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import islice
import math
from operator import itemgetter
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

import netdesign as nd
from netdesign.automorph import (AutomorphismGroup, GroupSizeLimitError,
                                 _refined_colors, _search_order)
from netdesign.lnem import CRITERIA
from netdesign.network import BlockRole, Network, NetworkError
from netdesign.search import _start_design


def cycle_network(n: int) -> nd.Network:
    """The undirected cycle on n nodes, all of them design nodes."""
    return nd.parse_edge_list(
        ", ".join(f"{i}-{i % n + 1}" for i in range(1, n + 1)), n)


def oracle_value(net: nd.Network, x, m: int) -> float | None:
    """Criterion via Moore-Penrose pseudoinverse of the full information
    matrix plus an explicit projection test per contrast."""
    spec = nd.ModelSpec.for_network(net, m)
    f = nd.DesignEvaluator(net, spec).model_matrix(x)
    info = f.T @ f
    pinv = np.linalg.pinv(info)
    total = 0.0
    pairs = 0
    for j in range(1, m):
        for l in range(j + 1, m + 1):
            c = np.zeros(info.shape[0])
            c[j] = 1.0
            if l < m:
                c[l] = -1.0
            if not np.allclose(info @ (pinv @ c), c, atol=1e-8):
                return None
            total += float(c @ pinv @ c)
            pairs += 1
    return total / pairs


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k nonempty parts, by the standard
    recurrence."""
    if k == 0:
        return 1 if n == 0 else 0
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def burnside_orbit_count(group: nd.AutomorphismGroup, m: int) -> int:
    """Average number of designs fixed by each group element: m^(cycles of
    the induced design-position permutation)."""
    design = group.network.design_nodes
    pos = {node: p for p, node in enumerate(design)}
    total = 0
    for perm in group:
        seen = [False] * len(design)
        cycles = 0
        for p in range(len(design)):
            if seen[p]:
                continue
            cycles += 1
            q = p
            while not seen[q]:
                seen[q] = True
                q = pos[perm[design[q]]]
        total += m ** cycles
    assert total % group.size == 0
    return total // group.size


def _position_getters(group: nd.AutomorphismGroup) -> list:
    """One callable per distinct design-position map of the group: it returns
    the image of a design tuple under that element, built from the node
    permutations in group.elements alone."""
    design = group.network.design_nodes
    pos = {node: p for p, node in enumerate(design)}
    maps = set()
    for perm in group.elements:
        src = [0] * len(design)
        for p, node in enumerate(design):
            src[pos[perm[node]]] = p
        maps.add(tuple(src))
    if len(design) == 1:
        return [lambda x: (x[0],)]
    return [itemgetter(*src) for src in sorted(maps)]


def oracle_orbit_minima(group: nd.AutomorphismGroup, designs) -> list[tuple]:
    """Per design, its smallest image over every group element, in pure
    Python."""
    images = _position_getters(group)
    return [min(image(tuple(x)) for image in images) for x in designs]


def oracle_outcomes(net: nd.Network, m: int, use_label_symmetry: bool,
                    limit: int | None = None) -> list:
    """The reference exhaustive loop, sharing no canonicity code with the
    library: every design of the plain `enumerate_designs` stream (the
    first `limit` if given), in order, as (design, value), where value is
    "skipped" when some element of group.elements maps the design to a
    smaller one (applied in pure Python), else `criterion_for_design` (None
    when not estimable)."""
    group = nd.find_automorphisms(net)
    spec = nd.ModelSpec.for_network(net, m)
    images = _position_getters(group)
    out = []
    for x in islice(nd.enumerate_designs(net.n_design, m, use_label_symmetry),
                    limit):
        if any(image(x) < x for image in images):
            out.append((x, "skipped"))
        else:
            out.append((x, nd.criterion_for_design(net, x, spec)))
    return out


def oracle_report(outcomes: list, max_designs: int | None = None) -> dict:
    """The report fields of an exhaustive search over `outcomes` cut after
    max_designs designs; the first strict minimum wins."""
    cut = outcomes if max_designs is None else outcomes[:max_designs]
    best_value = best_design = None
    counts = {"skipped": 0, "invalid": 0, "eval": 0}
    for x, value in cut:
        if value == "skipped":
            counts["skipped"] += 1
        elif value is None:
            counts["invalid"] += 1
        else:
            counts["eval"] += 1
            if best_value is None or value < best_value:
                best_value, best_design = value, x
    return {"num_considered": len(cut),
            "num_skipped_noncanonical": counts["skipped"],
            "num_invalid": counts["invalid"], "num_eval": counts["eval"],
            "num_cache_hits": 0, "best_value": best_value,
            "best_design": best_design, "partial": len(cut) < len(outcomes)}


def report_fields(report: nd.SearchReport) -> dict:
    """The fields of a report that oracle_report reproduces."""
    return {key: getattr(report, key) for key in (
        "num_considered", "num_skipped_noncanonical", "num_invalid",
        "num_eval", "num_cache_hits", "best_value", "best_design", "partial")}


def oracle_model_matrix(net: nd.Network, x, m: int) -> np.ndarray:
    """The model matrix rebuilt from the network's adjacency and block roles
    without `netdesign.lnem`.  Rows: design nodes in ascending order.
    Columns: intercept, own treatment indicators 1..m-1, then per treatment
    1..T (block pseudo-treatments included) the number of linked nodes
    carrying it.  Every entry is a small integer."""
    n_treat = m + len(net.block_nodes)
    treat = np.zeros(net.n_total, dtype=np.int64)
    treat[list(net.design_nodes)] = x
    for b in net.block_nodes:
        treat[b] = net.roles[b].fixed_treatment
    carries = np.zeros((net.n_total, n_treat))
    carries[np.arange(net.n_total), treat - 1] = 1.0
    rows = list(net.design_nodes)
    return np.hstack([np.ones((len(rows), 1)), carries[rows, :m - 1],
                      np.asarray(net.adjacency, dtype=np.float64)[rows] @ carries])


def frozen_find_automorphisms(net: nd.Network,
                              max_group_size: int = 1_000_000) -> AutomorphismGroup:
    """Regression reference, not an oracle: the group search as it was
    before the stabilizer chain, listing every leaf of the partial-mapping
    tree (same colors and search order).  Raises GroupSizeLimitError once
    more than `max_group_size` elements are found."""
    n = net.n_total
    a = net.adjacency
    colors = _refined_colors(net)
    order = _search_order(net, colors)
    candidates = [[j for j in range(n) if colors[j] == colors[src]]
                  for src in order]
    out_mask = [int(sum(1 << j for j in np.nonzero(a[i])[0])) for i in range(n)]
    in_mask = [int(sum(1 << j for j in np.nonzero(a[:, i])[0])) for i in range(n)]
    # earlier order positions adjacent to each position's source node
    below_out = [[s for s in range(t) if a[order[t], order[s]]] for t in range(n)]
    below_in = [[s for s in range(t) if a[order[s], order[t]]] for t in range(n)]

    # each automorphism's images in search order, back to back
    leaves = array("i")
    cap = max_group_size * n
    image = [0] * n

    def extend(t: int, used: int) -> None:
        if t == n:
            leaves.extend(image)
            if len(leaves) > cap:
                raise GroupSizeLimitError(
                    f"automorphism group exceeds cap {max_group_size}")
            return
        req_out = 0
        for s in below_out[t]:
            req_out |= 1 << image[s]
        req_in = 0
        for s in below_in[t]:
            req_in |= 1 << image[s]
        for j in candidates[t]:
            bit = 1 << j
            if used & bit:
                continue
            if out_mask[j] & used != req_out:
                continue
            if in_mask[j] & used != req_in:
                continue
            image[t] = j
            extend(t + 1, used | bit)

    extend(0, 0)
    perms = np.empty((len(leaves) // n, n), dtype=np.int32)
    perms[:, order] = np.frombuffer(leaves, dtype=np.intc).reshape(-1, n)
    return AutomorphismGroup(perms, net)


# Regression references, not oracles: the blocked-layout constructors as
# they were before they shared one block-node builder, each with its own
# adjacency loops, role list and checks.


def _block_class_ids(sizes: Sequence[int]) -> list[int]:
    # equal-sized blocks are exchangeable; distinct sizes get distinct classes
    classes: dict[int, int] = {}
    out = []
    for s in sizes:
        out.append(classes.setdefault(s, len(classes)))
    return out


def frozen_augment_blocks(units_per_block: Sequence[int], m: int) -> Network:
    """Network for a one-way blocked experiment: one design node per unit and
    one block node per block, linked to exactly its units.

    Block k (1-based) is pinned to pseudo-treatment m+k.  Blocks of equal
    size share an exchangeability class.
    """
    sizes = list(units_per_block)
    if not sizes:
        raise NetworkError("need at least one block")
    if any(s < 1 for s in sizes):
        raise NetworkError("every block needs at least one unit")
    if m < 2:
        raise NetworkError("need at least two treatments")
    n_units = sum(sizes)
    n = n_units + len(sizes)
    a = np.zeros((n, n), dtype=np.int64)
    unit = 0
    for k, size in enumerate(sizes):
        block = n_units + k
        for _ in range(size):
            a[unit, block] = a[block, unit] = 1
            unit += 1
    class_ids = _block_class_ids(sizes)
    roles: list[BlockRole | None] = [None] * n_units
    roles += [BlockRole(class_ids[k], m + k + 1) for k in range(len(sizes))]
    return Network(a, directed=False, roles=roles)


def frozen_augment_row_column(rows: int, cols: int, m: int) -> Network:
    """Network for a row-column design: rows*cols design nodes (row-major),
    one block node per row and per column, each unit linked to both of its
    block nodes.

    Fixed pseudo-treatments are m+1..m+rows for the row nodes then
    m+rows+1..m+rows+cols for the column nodes.  When rows == cols the two
    classes are merged so the transpose symmetry is admitted.
    """
    if rows < 1 or cols < 1:
        raise NetworkError("rows and cols must be at least 1")
    if m < 2:
        raise NetworkError("need at least two treatments")
    n_units = rows * cols
    n = n_units + rows + cols
    a = np.zeros((n, n), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            rnode = n_units + r
            cnode = n_units + rows + c
            a[u, rnode] = a[rnode, u] = 1
            a[u, cnode] = a[cnode, u] = 1
    col_class = 0 if rows == cols else 1
    roles: list[BlockRole | None] = [None] * n_units
    roles += [BlockRole(0, m + 1 + r) for r in range(rows)]
    roles += [BlockRole(col_class, m + rows + 1 + c) for c in range(cols)]
    return Network(a, directed=False, roles=roles)


def frozen_augment_crossover(subjects: int, periods: int, m: int,
                             period_blocks: bool = False) -> Network:
    """Directed network for a crossover trial: one design node per
    subject-period combination (subject-major), one block node per subject,
    optionally one per period, and a directed carryover edge from each unit
    to the same subject's previous-period unit.

    A[(s,p)][(s,p-1)] = 1 encodes that unit (s,p)'s response includes the
    network effect of the treatment given in the previous period.  Block
    links are bidirectional.
    """
    if subjects < 1:
        raise NetworkError("need at least one subject")
    if periods < 2:
        raise NetworkError("need at least two periods")
    if m < 2:
        raise NetworkError("need at least two treatments")
    n_units = subjects * periods
    n = n_units + subjects + (periods if period_blocks else 0)
    a = np.zeros((n, n), dtype=np.int64)
    for s in range(subjects):
        snode = n_units + s
        for p in range(periods):
            u = s * periods + p
            a[u, snode] = a[snode, u] = 1
            if p >= 1:
                a[u, u - 1] = 1
    if period_blocks:
        for p in range(periods):
            pnode = n_units + subjects + p
            for s in range(subjects):
                u = s * periods + p
                a[u, pnode] = a[pnode, u] = 1
    roles: list[BlockRole | None] = [None] * n_units
    roles += [BlockRole(0, m + 1 + s) for s in range(subjects)]
    if period_blocks:
        roles += [BlockRole(1, m + subjects + 1 + p) for p in range(periods)]
    return Network(a, directed=True, roles=roles)


def frozen_canonicalize_nuisance(info: np.ndarray,
                                 spec: nd.ModelSpec) -> np.ndarray:
    """Regression reference, not an oracle: the nuisance canonicalization of
    one matrix as it was computed before it was batched, with Python tuples
    as keys.  Block coordinates are keyed by (class, row against the 2m
    fixed coordinates, diagonal), refined by the sorted (neighbor rank,
    weight) pairs until the ranks are stable, and sorted by (rank, index)."""
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


def frozen_criterion(info: np.ndarray, spec: nd.ModelSpec) -> float | None:
    """Regression reference, not an oracle: the per-design criterion as it
    was computed before evaluation was batched (one eigh per matrix, norms
    recomputed per call).  Batched evaluation must reproduce it bit for
    bit, so it keeps the exact sequence of floating-point operations."""
    info = np.asarray(info, dtype=np.float64)
    p = spec.n_params
    if spec.block_classes:
        info = frozen_canonicalize_nuisance(info, spec)
    w, v = np.linalg.eigh(info)
    wmax = w[-1]
    if wmax <= 0:
        return None
    keep = w > nd.RANK_TOL * wmax
    vr = v[:, keep]
    rows = []
    for j in range(1, spec.m):
        for l in range(j + 1, spec.m + 1):
            c = np.zeros(p)
            c[j] = 1.0
            if l < spec.m:
                c[l] = -1.0
            rows.append(c)
    contrasts = np.array(rows)
    cv = contrasts @ vr
    resid = contrasts - cv @ vr.T
    bad = (np.linalg.norm(resid, axis=1)
           > nd.RANK_TOL * np.linalg.norm(contrasts, axis=1))
    if bad.any():
        return None
    if spec.criterion == "As":
        variances = (cv * cv / w[keep]).sum(axis=1)
        return float(variances.mean() * spec.sigma2)
    basis = np.zeros((spec.m - 1, p))
    basis[np.arange(spec.m - 1), np.arange(1, spec.m)] = 1.0
    bv = basis @ vr
    cov = (bv / w[keep]) @ bv.T
    return float(np.linalg.det(cov) * spec.sigma2 ** (spec.m - 1))


def _echelon(rows) -> list[tuple[int, list[tuple[int, Fraction]]]]:
    """Row echelon form of integer rows by Gaussian elimination over
    `fractions.Fraction`: per nonzero row, its pivot column and its nonzero
    entries (column, value), scaled so that the pivot is 1."""
    basis: list[tuple[int, list[tuple[int, Fraction]]]] = []
    for row in rows:
        r = _reduce([Fraction(int(v)) for v in row], basis)
        pivot = next((j for j, v in enumerate(r) if v), None)
        if pivot is not None:
            basis.append((pivot, [(j, v / r[pivot]) for j, v in enumerate(r)
                                  if v]))
    return basis


def _reduce(row: list[Fraction], basis) -> list[Fraction]:
    """The row minus its components along the echelon rows: zero exactly
    when the row lies in their span."""
    row = list(row)
    for pivot, entries in basis:
        factor = row[pivot]
        if factor:
            for j, v in entries:
                row[j] -= factor * v
    return row


def exact_estimable(net: nd.Network, x, m: int) -> bool:
    """Whether every pairwise treatment contrast is estimable under design
    x, decided in exact arithmetic on the integer F'F: c is estimable iff
    rank([F'F; c]) equals rank(F'F), that is iff c reduces to zero against
    the echelon form of F'F.  Uses neither the library's model matrix nor
    any floating-point tolerance."""
    f = oracle_model_matrix(net, x, m)
    info = np.rint(f.T @ f).astype(np.int64)
    basis = _echelon(info.tolist())
    p = info.shape[0]
    for j in range(1, m):
        for l in range(j + 1, m + 1):
            c = [Fraction(0)] * p
            c[j] = Fraction(1)
            if l < m:
                c[l] = Fraction(-1)
            if any(_reduce(c, basis)):
                return False
    return True


def exact_rank(matrix: np.ndarray) -> int:
    """The rank of the integer matrix `matrix`, by fraction-free
    elimination in exact integers: the rows below each pivot are cross-
    multiplied against it, then divided by the gcd of their entries."""
    rows = np.rint(matrix).astype(np.int64).tolist()
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                row = [a * top[col] - b * rows[i][col]
                       for a, b in zip(rows[i], top)]
                divisor = math.gcd(*row) or 1
                rows[i] = [v // divisor for v in row]
        rank += 1
    return rank


def pinv_criterion(info: np.ndarray, spec: nd.ModelSpec,
                   rcond: float | None = None) -> np.ndarray:
    """The criterion of each matrix of a (B, p, p) stack of matrices whose
    contrasts are all estimable, read off the Moore-Penrose pseudoinverse
    (an SVD, not the library's eigh), with singular values below `rcond`
    times the largest cut (numpy's default cut when None): the mean
    pairwise contrast variance for As, the determinant of the treatment
    block for Ds."""
    g = np.linalg.pinv(info, rcond=rcond)
    m = spec.m
    if spec.criterion == "Ds":
        return np.linalg.det(g[:, 1:m, 1:m]) * spec.sigma2 ** (m - 1)
    total = np.zeros(len(info))
    for j in range(1, m):
        total += g[:, j, j]  # the pair (j, m): effect m is pinned to zero
        for l in range(j + 1, m):
            total += g[:, j, j] + g[:, l, l] - 2 * g[:, j, l]
    return total / (m * (m - 1) / 2) * spec.sigma2


def force_screen_off(monkeypatch) -> None:
    """Make the screen certify nothing, so that every design that uses all
    treatments reaches the eigh kernel: `DesignEvaluator._bounds` gives
    each of them a NaN interval, so exhaustive search sends it to
    `_value_array`, and coordinate descent values every new orbit
    representative exactly."""

    def certify_nothing(info, spec, kept=None):
        return np.zeros(len(info), dtype=bool), np.full(len(info), np.inf)

    monkeypatch.setattr(nd.lnem, "_screen", certify_nothing)


def oracle_coordinate_descent(net: nd.Network, m: int, seed: int,
                              restarts: int, orbits: set | None = None
                              ) -> dict:
    """The report fields of coordinate descent, from a sequential loop that
    shares no canonicity or batching code with the library: restarts run
    one after another on one dict keyed by each candidate's orbit minimum
    (every group element applied in pure Python), valued by per-design
    `DesignEvaluator.value`.  A descent sweeps nodes in index order, adopts
    the first strict improvement, sweeps again from node 1 and stops after
    a full sweep without one; the first strictly best final value wins.
    `orbits`, when given, receives the orbit minima the descents reached."""
    group = nd.find_automorphisms(net)
    ev = nd.DesignEvaluator(net, nd.ModelSpec.for_network(net, m))
    images = _position_getters(group)
    cache: dict = {}
    considered = 0

    def call(x):
        nonlocal considered
        considered += 1
        key = min(image(x) for image in images)
        if key not in cache:
            cache[key] = ev.value(key)
        return cache[key], key

    def better(a, b):  # INVALID (None) loses to any value
        return a is not None and (b is None or a < b)

    best_value = best_design = None
    for restart in range(restarts):
        x = list(_start_design(seed, restart, net.n_design, m))
        vx, kx = call(tuple(x))
        improved = True
        while improved:
            improved = False
            for node in range(net.n_design):
                current = x[node]
                for t in range(1, m + 1):
                    if t == current:
                        continue
                    x[node] = t
                    vy, ky = call(tuple(x))
                    if better(vy, vx):
                        vx, kx, improved = vy, ky, True
                        break
                    x[node] = current
                if improved:
                    break
        if better(vx, best_value):
            best_value, best_design = vx, kx
    evals = sum(value is not None for value in cache.values())
    if orbits is not None:
        orbits.update(cache)
    return {"algorithm": "coordinate_descent", "best_design": best_design,
            "best_value": best_value, "num_eval": evals,
            "num_considered": considered, "num_skipped_noncanonical": 0,
            "num_invalid": len(cache) - evals,
            "num_cache_hits": considered - len(cache), "seed": seed,
            "efficiency": None, "partial": False}


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
