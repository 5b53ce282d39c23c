"""Automorphism enumeration for unit networks and canonicity tests for
designs within an automorphism orbit.

An automorphism here is a node permutation that preserves edges (directed
edges keep their direction), maps design nodes to design nodes, and maps
block nodes to block nodes of the same exchangeability class.  The group is
found by a backtracking partial-mapping search: nodes are assigned images one
at a time, candidates restricted to nodes of the same color under an
equitable refinement of the initial (role, degree) coloring, and adjacency
consistency with the mapped prefix is enforced with bitmask comparisons.

Designs related by an automorphism have equal optimality-criterion values, so
a search only needs the orbit's lexicographically smallest member.  Every
canonicity question here is integer arithmetic on packed image keys: the
group's weight matrix W packs each element's image of a design x into one
integer, the base-B number whose digits are the image's entries, so x @ W
holds one key per element and lexicographic order of images is integer
order of keys.  This module provides the test (`is_canonical`), the orbit's
smallest member (`canonical_representative`, or
`canonical_representatives` for a batch), the weights that let
exhaustive search test design prefixes (`weights_for`), plus a brute-force
orbit counter used as a test oracle.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

from .network import Network


class GroupSizeLimitError(RuntimeError):
    """The automorphism group exceeds the configured cap.  Orbit pruning is a
    bad trade for such networks: the per-design canonicity check costs more
    than the evaluations it saves."""


def _rank(keys: list) -> list[int]:
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _refined_colors(net: Network) -> list[int]:
    """Equitable coloring: start from node roles and refine by the multiset
    of neighbor colors (in- and out-neighbors separately) to a fixpoint.
    Automorphisms can only map nodes of equal color."""
    a = net.adjacency
    n = net.n_total
    init = [(0,) if r is None else (1, r.class_id) for r in net.roles]
    colors = _rank(init)
    out_nbrs = [np.nonzero(a[i])[0].tolist() for i in range(n)]
    in_nbrs = [np.nonzero(a[:, i])[0].tolist() for i in range(n)]
    while True:
        keys = [
            (colors[i],
             tuple(sorted(colors[j] for j in out_nbrs[i])),
             tuple(sorted(colors[j] for j in in_nbrs[i])))
            for i in range(n)
        ]
        new = _rank(keys)
        if new == colors:
            return colors
        colors = new


def _base(d: int) -> int:
    """The largest base B >= 2 with B^d < 2^63 (2 if none): keys of d
    base-B digits then fit in int64."""
    b = int(2 ** (63 / max(d, 1))) + 1  # one above the float estimate
    while b > 2 and b ** d >= 2 ** 63:
        b -= 1
    return b


class AutomorphismGroup:
    """The full automorphism group of a network, as one array of elements.

    Elements are node permutations in one-line notation (p[i] = image of
    node i), kept as the rows of a read-only (z, n) array sorted
    lexicographically, so the identity, which is always present, is row 0.
    `elements` and iteration give them as tuples.  `weights` is the
    read-only (d, z) matrix W with W[p, k] = base^(d-1-q) when element k
    takes design position p to column q: key k of x @ W packs x's image
    under element k, and smaller keys are lexicographically smaller images.
    `base`, the largest with base^d < 2^63, depends on d alone.  Instances
    are immutable and safe to share.
    """

    def __init__(self, elements: Sequence[Sequence[int]], network: Network):
        perms = np.asarray(elements, dtype=np.int32).reshape(-1, network.n_total)
        perms = perms[np.lexsort(perms.T[::-1])]
        perms.setflags(write=False)
        if not np.array_equal(perms[0], np.arange(network.n_total)):
            raise ValueError("the elements do not include the identity")
        self._perms = perms
        self.network = network
        design, blocks = network.design_nodes, list(network.block_nodes)
        # each node's design column, -1 for block nodes
        self._column = np.full(network.n_total, -1, dtype=np.int64)
        self._column[list(design)] = np.arange(len(design))
        if (self._column[perms[:, blocks]] >= 0).any():
            raise ValueError("an element maps a block node to a design node")
        self.base = _base(len(design))
        self.weights = self._weights_in(self.base)
        self.weights.setflags(write=False)

    def _weights_in(self, base: int) -> np.ndarray:
        """W in the given base: int64 where base^d < 2^63, else Python
        integers.  Filled per design position: no (z, d) temporary."""
        d = self.network.n_design
        dtype = np.int64 if base ** d < 2 ** 63 else object
        place = np.array([base ** e for e in range(d - 1, -1, -1)], dtype=dtype)
        w = np.empty((d, len(self._perms)), dtype=dtype)
        for p, node in enumerate(self.network.design_nodes):
            w[p] = place[self._column[self._perms[:, node]]]
        return w

    def weights_for(self, top: int) -> tuple[np.ndarray, int]:
        """(W, base) for digits 0..top: `weights` when top < `base`, else
        W on Python integers in base top + 1, so that keys stay exact."""
        if top < self.base:
            return self.weights, self.base
        return self._weights_in(top + 1), top + 1

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._perms.tolist()))

    def __len__(self) -> int:
        return len(self._perms)

    def __iter__(self):
        return map(tuple, self._perms.tolist())

    @property
    def size(self) -> int:
        return len(self._perms)

    def _keys(self, x: Sequence[int]) -> tuple[np.ndarray, int, int]:
        """(keys, base, low): x's images packed from the digits x - low."""
        d = self.network.n_design
        if len(x) != d:
            raise ValueError(f"design length {len(x)} does not match "
                             f"{d} design nodes")
        low = int(min(x))
        w, base = self.weights_for(int(max(x)) - low)
        return np.subtract(x, low, dtype=np.int64) @ w, base, low

    def _digits(self, keys: np.ndarray, base: int) -> np.ndarray:
        """The d base-`base` digits of each key, most significant first."""
        powers = [base ** e for e in range(self.network.n_design - 1, -1, -1)]
        return keys[..., None] // np.array(powers, dtype=keys.dtype) % base

    def design_images(self, x: Sequence[int]) -> np.ndarray:
        """All z permuted copies of design x, one per group element."""
        keys, base, low = self._keys(x)
        return np.asarray(self._digits(keys, base) + low, dtype=np.int64)

    def is_canonical(self, x: Sequence[int]) -> bool:
        """True iff x is lexicographically smallest in its orbit: no group
        element maps it to a strictly smaller design vector."""
        return not self._keys(x)[0].argmin()  # the identity's key is least

    def canonical_representative(self, x: Sequence[int]) -> tuple[int, ...]:
        """The lexicographically smallest design in x's orbit."""
        return tuple(self.canonical_representatives([x])[0].tolist())

    def canonical_representatives(self, xs) -> np.ndarray:
        """The lexicographically smallest design in the orbit of each row of
        the (B, d) batch `xs`, as a (B, d) int64 array.  All rows pack their
        digits xs - low in one base, low the batch's least label; keys are
        made d rows at a time, so that they never take more room than W."""
        xs = np.asarray(xs, dtype=np.int64)
        d = self.network.n_design
        if xs.ndim != 2 or xs.shape[1] != d:
            raise ValueError(f"design length {xs.shape[-1]} does not match "
                             f"{d} design nodes")
        if not len(xs):
            return xs
        low = int(xs.min())
        w, base = self.weights_for(int(xs.max()) - low)
        out = np.empty_like(xs)
        for start in range(0, len(xs), d):
            keys = (xs[start:start + d] - low) @ w
            least = keys[np.arange(len(keys)), keys.argmin(axis=1)]
            out[start:start + d] = self._digits(least, base) + low
        return out


def _search_order(net: Network, colors: list[int]) -> list[int]:
    """Order nodes so that each one touches as many already-ordered nodes as
    possible (ties to the smaller color class, then the smaller index): the
    adjacency constraints then prune the partial-mapping tree early instead
    of after whole color classes have been assigned."""
    n = net.n_total
    a = net.adjacency
    linked = [set(np.nonzero((a[i] + a[:, i]) > 0)[0].tolist()) for i in range(n)]
    class_size = {c: colors.count(c) for c in set(colors)}
    remaining = set(range(n))
    ordered: set[int] = set()
    order: list[int] = []
    while remaining:
        nxt = min(remaining,
                  key=lambda i: (-len(linked[i] & ordered),
                                 class_size[colors[i]], i))
        order.append(nxt)
        remaining.remove(nxt)
        ordered.add(nxt)
    return order


def find_automorphisms(net: Network, max_group_size: int = 1_000_000) -> AutomorphismGroup:
    """Enumerate the complete role- and direction-preserving automorphism
    group of `net`.

    Raises GroupSizeLimitError once more than `max_group_size` elements are
    found.  Element order in the result is deterministic (lexicographic by
    permutation image).
    """
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


def count_orbits_bruteforce(net: Network, m: int,
                            group: AutomorphismGroup | None = None,
                            max_space: int = 10_000_000) -> int:
    """Partition the full m^d design space into automorphism orbits by
    explicitly applying every group element to every design, and return the
    orbit count.  Test oracle only: refuses spaces above `max_space`."""
    if group is None:
        group = find_automorphisms(net)
    d = net.n_design
    space = m ** d
    if space > max_space:
        raise ValueError(f"design space {m}^{d} exceeds {max_space}")
    to_codes = group._weights_in(m)  # digits @ to_codes: each image's code
    seen = bytearray(space)
    count = 0
    shape = (m,) * d
    for code in range(space):
        if seen[code]:
            continue
        count += 1
        digits = np.array(np.unravel_index(code, shape), dtype=np.int64)
        for c in (digits @ to_codes).tolist():
            seen[c] = 1
    return count


def cycle_notation(perm: Sequence[int]) -> str:
    """Cycle form with 1-based node ids, fixed points omitted; the identity
    renders as '()'."""
    n = len(perm)
    done = [False] * n
    parts = []
    for i in range(n):
        if done[i] or perm[i] == i:
            done[i] = True
            continue
        cyc = [i]
        done[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            done[j] = True
            j = perm[j]
        parts.append("(" + " ".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) if parts else "()"
