"""Automorphism groups of unit networks and canonicity tests for designs
within an automorphism orbit.

An automorphism here is a node permutation that preserves edges (directed
edges keep their direction), maps design nodes to design nodes, and maps
block nodes to block nodes of the same exchangeability class.  The group is
built on a stabilizer chain whose base is the order of a partial-mapping
search over nodes of equal refined color, with adjacency checked by
bitmasks: level t's transversal is the identity plus, for each other image
of the t-th base node with the earlier ones fixed, the first leaf below it.
z is the product of the transversal sizes, and each element is a product
of one transversal element per level.

Designs related by an automorphism have equal criterion values, so a search
only needs each orbit's lexicographically smallest member.  Every
canonicity question is integer arithmetic on packed image keys: x @ W holds
one key per element, the base-B number whose digits are x's image, so
integer order of keys is lexicographic order of images.  Each W is built
on first use, in the narrowest integer dtype that holds its keys exactly,
so a group that no search consults never pays for one.  The exhaustive
walk reads its own W in base m + 2, the least that holds the labels 1..m
and a digit for unassigned positions, so its keys are int32 wherever
(m+2)^d <= 2^31.  Everywhere else W is in the widest base whose keys fit
int64, and int64 keys come from two float64 BLAS products, one per half
of W's digit places, whose sums stay below 2^53 and so are exact,
recombined in int64 (numpy's integer matmul does not use BLAS).  A
representative is the image under the element with the least key, and
images are x permuted through the group's elements, so no key is ever
decoded.  Also here: a brute-force orbit counter used as a test oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .lnem import _label_array
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
    """The largest base B >= 2 with B^d < 2^63 (2 if none), and at most
    2^53: keys of d base-B digits then fit in int64, and each of their two
    halves (see `AutomorphismGroup._keys`), below B^ceil(d/2), is exact in
    float64.  From d = 2 on the first bound implies the second."""
    b = int(2 ** (63 / max(d, 1))) + 1  # one above the float estimate
    while b > 2 and b ** d >= 2 ** 63:
        b -= 1
    return min(b, 2 ** 53)


class AutomorphismGroup:
    """The full automorphism group of a network, as one array of elements.

    Elements are node permutations in one-line notation (p[i] = image of
    node i), kept as the rows of a read-only (z, n) array sorted
    lexicographically, so the identity, which is always present, is row 0.
    `elements` and iteration give them as tuples.  `weights` is the
    read-only (d, z) matrix W with W[p, k] = base^(d-1-q) when element k
    takes design position p to column q: key k of x @ W packs x's image
    under element k, and smaller keys are lexicographically smaller images.
    `base`, the largest with base^d < 2^63 (and at most 2^53), depends on d
    alone.  W is built on first use, and so are the two float64 halves of
    it through which `_keys` computes int64 keys (`halves`) and the
    exhaustive walk's W in base m + 2 (`walk_weights`).  Instances are
    immutable and safe to share.
    """

    def __init__(self, elements: Sequence[Sequence[int]], network: Network):
        n = network.n_total
        perms = np.asarray(elements, dtype=np.int32)
        if perms.ndim != 2 or perms.shape[1] != n or not len(perms):
            raise ValueError(f"elements of shape {perms.shape}, not (z, {n})")
        perms = perms[np.lexsort(perms.T[::-1])]
        perms.setflags(write=False)
        if ((np.sort(perms, axis=1) != np.arange(n)).any()
                or (perms[1:] == perms[:-1]).all(axis=1).any()):
            raise ValueError("the elements are not distinct permutations")
        if not np.array_equal(perms[0], np.arange(n)):
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
        self._weights = self._halves = None  # built on first use
        self._walk: dict[int, np.ndarray] = {}  # walk_weights, per base

    @property
    def weights(self) -> np.ndarray:
        """W (see the class docstring), read-only, built on first use."""
        if self._weights is None:
            w = self._weights_in(self.base)
            w.setflags(write=False)
            self._weights = w
        return self._weights

    def _weights_in(self, base: int) -> np.ndarray:
        """W in the given base, in the narrowest dtype that holds its keys
        (below base^d) exactly: int32 when base^d <= 2^31, int64 in other
        bases up to `self.base` whose keys fit (base^d < 2^63), else Python
        integers."""
        d = self.network.n_design
        dtype = (object if base > self.base or base ** d >= 2 ** 63
                 else np.int32 if base ** d <= 2 ** 31 else np.int64)
        place = np.array([base ** e for e in range(d - 1, -1, -1)], dtype=dtype)
        return self._placed(place)[0]

    def walk_weights(self, m: int) -> np.ndarray:
        """W in base m + 2, read-only, built on first use and cached per
        base: the exhaustive walk's keys, whose digits are the labels 1..m
        and m + 1 for an unassigned position.  Its dtype is `_weights_in`'s,
        so these keys are int32 up to (m+2)^d = 2^31."""
        w = self._walk.get(m + 2)
        if w is None:
            w = self._walk[m + 2] = self._weights_in(m + 2)
            w.setflags(write=False)
        return w

    def _placed(self, *places: np.ndarray) -> list[np.ndarray]:
        """For each (d,) array `place`, the (d, z) array whose entry (p, k)
        is place[q] when element k takes design position p to column q.
        Filled per design position: no (z, d) temporary."""
        z = len(self._perms)
        out = [np.empty((len(place), z), dtype=place.dtype) for place in places]
        for p, node in enumerate(self.network.design_nodes):
            column = self._column[self._perms[:, node]]
            for w, place in zip(out, places):
                w[p] = place[column]
        return out

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

    def _batch(self, xs) -> np.ndarray:
        """xs as a (B, d) int64 batch of designs."""
        xs = _label_array(xs)
        d = self.network.n_design
        if xs.ndim != 2 or xs.shape[1] != d:
            raise ValueError(f"design length {xs.shape[-1]} does not match "
                             f"{d} design nodes")
        return xs

    def _keys(self, xs) -> np.ndarray:
        """Keys of the (B, d) batch xs: row b packs the z images of xs[b]
        from the digits xs - xs.min().

        int64 keys are two float64 BLAS products, one per half of W: with
        s = base^(d // 2), W = H s + L, where H holds the upper ceil(d/2)
        places and L the lower d // 2.  Each product's sums are integers
        below base^ceil(d/2) <= 2^53, so they are exact in any summation
        order, and keys = (digits @ H) s + digits @ L is recombined in
        int64.  Python-integer weights take their own exact product."""
        xs = self._batch(xs)
        low = int(xs.min())
        w, _ = self.weights_for(int(xs.max()) - low)
        if w.dtype == object:
            return (xs - low) @ w
        upper, lower, scale = self.halves()  # int64 weights are `weights`
        digits = (xs - low).astype(np.float64)
        # the int64 loops take the exact float sums as int64 first
        keys = np.multiply(digits @ upper, scale, dtype=np.int64,
                           casting="unsafe")
        np.add(keys, digits @ lower, out=keys, dtype=np.int64, casting="unsafe")
        return keys

    def halves(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(H, L, s): the float64 halves of `weights` through which `_keys`
        computes int64 keys, and the scale that joins them, built on first
        use."""
        if self._halves is None:
            d, base = self.network.n_design, self.base
            scale = base ** (d // 2)
            place = [base ** e for e in range(d - 1, -1, -1)]
            self._halves = (*self._placed(
                np.array([v // scale for v in place], dtype=np.float64),
                np.array([v % scale for v in place], dtype=np.float64)), scale)
        return self._halves

    def _images(self, xs: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Row i: the image of design xs[i] under element ks[i], which puts
        x[p] at the column it takes design position p to."""
        nodes = list(self.network.design_nodes)
        columns = self._column[self._perms[ks][:, nodes]]
        out = np.empty_like(xs)
        out[np.arange(len(xs))[:, None], columns] = xs
        return out

    def design_images(self, x: Sequence[int]) -> np.ndarray:
        """All z permuted copies of design x, one per group element."""
        xs = self._batch([x])
        return self._images(np.repeat(xs, len(self._perms), axis=0),
                            np.arange(len(self._perms)))

    def is_canonical(self, x: Sequence[int]) -> bool:
        """True iff x is lexicographically smallest in its orbit: no group
        element maps it to a strictly smaller design vector."""
        return not self._keys([x])[0].argmin()  # the identity's key is least

    def canonical_representative(self, x: Sequence[int]) -> tuple[int, ...]:
        """The lexicographically smallest design in x's orbit."""
        return tuple(self.canonical_representatives([x])[0].tolist())

    def canonical_representatives(self, xs) -> np.ndarray:
        """The smallest design in the orbit of each row of the (B, d) batch
        `xs`, as int64.  Keys are made d rows at a time: no larger than W."""
        xs = _label_array(xs)
        out = np.empty_like(xs)
        d = self.network.n_design
        for start in range(0, len(xs), d):
            chunk = xs[start:start + d]
            out[start:start + d] = self._images(chunk,
                                                self._keys(chunk).argmin(axis=1))
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
    """The complete role- and direction-preserving automorphism group of
    `net`, built on the stabilizer chain with the search order as base (see
    the module docstring).  Raises GroupSizeLimitError, naming z, when z >
    `max_group_size`, before any element is built."""
    n = net.n_total
    a = net.adjacency
    colors = _refined_colors(net)
    order = _search_order(net, colors)
    candidates = [[j for j in range(n) if colors[j] == colors[src]]
                  for src in order]
    out_mask = [int(sum(1 << j for j in np.nonzero(a[i])[0])) for i in range(n)]
    in_mask = [int(sum(1 << j for j in np.nonzero(a[:, i])[0])) for i in range(n)]
    below_out = [[s for s in range(t) if a[order[t], order[s]]] for t in range(n)]
    below_in = [[s for s in range(t) if a[order[s], order[t]]] for t in range(n)]
    image = list(order)  # images in search order, the identity's to start

    def fits(t: int, used: int) -> list[int]:
        """Unused images of order[t] linked to image[:t] as it is to order[:t]."""
        req_out = sum(1 << image[s] for s in below_out[t])
        req_in = sum(1 << image[s] for s in below_in[t])
        return [j for j in candidates[t] if not used >> j & 1
                and out_mask[j] & used == req_out
                and in_mask[j] & used == req_in]

    def first_leaf(t: int, used: int) -> bool:
        """Complete image[:t] to an automorphism in `image`, if any."""
        if t == n:
            return True
        for j in fits(t, used):
            image[t] = j
            if first_leaf(t + 1, used | 1 << j):
                return True
        return False

    transversals = []  # per level with more than the identity, its images
    z = 1
    used = 0
    for t, node in enumerate(order):
        images = [list(order)]
        for j in fits(t, used):
            image[t] = j
            if j != node and first_leaf(t + 1, used | 1 << j):
                images.append(image.copy())
        image[t] = node
        used |= 1 << node
        if len(images) > 1:
            transversals.append(images)
            z *= len(images)
    if z > max_group_size:
        raise GroupSizeLimitError(
            f"automorphism group has {z} elements, cap {max_group_size}")
    perms = np.arange(n, dtype=np.int32)[None]
    for images in reversed(transversals):
        u = np.empty((len(images), n), dtype=np.int32)
        u[:, order] = images
        perms = u[:, perms].reshape(-1, n)  # row (a, b): u_a after perms_b
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
