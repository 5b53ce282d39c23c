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
of one transversal element per level, so the z products list each element
exactly once.  That chain-product table, with the identity at row 0 since
every transversal lists it first, is the one every search reads; only the
public listing (`elements`, iteration, `design_images`) is in lexicographic
order, sorted on first use from packed row keys.

Designs related by an automorphism have equal criterion values, so a search
only needs each orbit's lexicographically smallest member.  Every
canonicity question is arithmetic on packed image keys: x @ W holds one
key per element, the base-B number whose digits are x's image, so the
order of keys is lexicographic order of images.  The group keeps one kind
of W, `weights(m)` in base m + 2: the least base that holds the labels
1..m and a digit m + 1 for a position the exhaustive walk has not yet
assigned.  Each table is built on first use and cached per m, in the
narrowest dtype whose sums of place values stay exact: int32 while
(m+2)^d <= 2^31, float64 while it is at most 2^53, int64 below 2^63, and
Python integers past that.  A batch outside the walk is read as the
digits x - min(x) against the narrowest cached table whose base exceeds
its top digit (any such base orders images alike); below 2^53 its keys
are one float64 BLAS product, since numpy's integer matmul does not use
BLAS.  A representative is the image under the element with the least
key, and images are x permuted through the group's elements, so no key is
ever decoded.  A least key names one image whichever element reaches it,
so of the table's order only the identity's place, key 0, counts.  Also
here: a brute-force orbit counter used as a test oracle.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .lnem import _design_batch
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


def _row_keys(perms: np.ndarray) -> np.ndarray:
    """The rows of a (z, n) array of entries in 0..n-1 as packed keys, a
    (w, z) uint64 array: each entry takes b = ceil(log2 n) bits, 64 // b
    entries to a word and the first one highest, so rows compare as their
    words do in turn (one word while n <= 16)."""
    z, n = perms.shape
    bits = max(1, (n - 1).bit_length())
    per_word = 64 // bits
    keys = np.zeros((-(-n // per_word), z), dtype=np.uint64)
    for j in range(n):
        word, slot = divmod(j, per_word)
        keys[word] |= (perms[:, j].astype(np.uint64)
                       << np.uint64(bits * (per_word - 1 - slot)))
    return keys


def _lex_order(keys: np.ndarray) -> np.ndarray:
    """The order that sorts rows by their `_row_keys` words, first word
    most significant."""
    return np.lexsort(keys[::-1])


class AutomorphismGroup:
    """The full automorphism group of a network, as one table of elements.

    Elements are node permutations in one-line notation (p[i] = image of
    node i), kept as the rows of a read-only (z, n) int32 table with the
    identity at row 0: `find_automorphisms`'s chain products as built, or,
    from this constructor, the checked elements in lexicographic order.
    Element k is row k of the table for `weights(m)` (see the module
    docstring) and every canonicity and representative call.  `elements`,
    iteration and `design_images` give the elements in lexicographic
    order, from a listing built on first use and cached.  Instances are
    immutable and safe to share.
    """

    def __init__(self, elements: Sequence[Sequence[int]], network: Network):
        """The group of the given elements, checked to be distinct
        permutations of whole numbers, the identity among them, each an
        automorphism of `network`: it keeps edges, their direction and the
        class of every block node.  That they are closed under composition,
        so that they are the whole group, is the caller's promise: it is not
        checked."""
        n = network.n_total
        # before stacking, so that a ragged listing gets this error, not numpy's
        if (isinstance(elements, Sequence)
                and len({np.shape(e) for e in elements}) > 1):
            raise ValueError(f"elements of different shapes, not (z, {n})")
        perms = np.asarray(elements)
        if perms.ndim != 2 or perms.shape[1] != n or not len(perms):
            raise ValueError(f"elements of shape {perms.shape}, not (z, {n})")
        kind = perms.dtype.kind
        if kind not in "iuf" or kind == "f" and (perms != np.trunc(perms)).any():
            raise ValueError("element entries must be whole numbers")
        seen = np.zeros(perms.shape, dtype=bool)
        if perms.min() >= 0 and perms.max() < n:
            perms = perms.astype(np.int32)
            seen[np.arange(len(perms))[:, None], perms] = True
        if not seen.all():
            raise ValueError("the elements are not distinct permutations")
        roles = [(0,) if r is None else (1, r.class_id) for r in network.roles]
        classes = np.array(_rank(roles))
        if (classes[perms] != classes).any():
            raise ValueError("an element maps a block node to a design node "
                             "or to a block node of another class")
        a = network.adjacency.astype(bool)
        if (a[perms[:, :, None], perms[:, None, :]] != a).any():  # A[p][:, p]
            raise ValueError("an element does not keep the network's edges")
        keys = _row_keys(perms)
        order = _lex_order(keys)
        keys = keys[:, order]
        if (keys[:, 1:] == keys[:, :-1]).all(axis=0).any():
            raise ValueError("the elements are not distinct permutations")
        perms = perms[order]
        if not np.array_equal(perms[0], np.arange(n)):
            raise ValueError("the elements do not include the identity")
        self._adopt(perms, network)
        self._perms = perms  # the table is its own listing

    @classmethod
    def _from_chain(cls, table: np.ndarray, network: Network
                    ) -> "AutomorphismGroup":
        """The group on `find_automorphisms`'s chain-product table, taken as
        built: the chain lists each element once and the identity first,
        and every element maps block nodes to block nodes, so nothing is
        sorted or checked."""
        group = cls.__new__(cls)
        group._adopt(table, network)
        return group

    def _adopt(self, table: np.ndarray, network: Network) -> None:
        """Keep `table`, read-only, as the group's table, with what every
        key and image call reads of `network`."""
        table.setflags(write=False)
        self._table = table
        self.network = network
        design = network.design_nodes
        # each node's design column, -1 for block nodes
        self._column = np.full(network.n_total, -1, dtype=np.int64)
        self._column[list(design)] = np.arange(len(design))
        self._weights: dict[int, np.ndarray] = {}  # weights(m), per m

    @cached_property
    def _perms(self) -> np.ndarray:
        """The elements as a read-only (z, n) array in lexicographic order:
        the table sorted by its packed row keys."""
        perms = self._table[_lex_order(_row_keys(self._table))]
        perms.setflags(write=False)
        return perms

    def weights(self, m: int) -> np.ndarray:
        """W in base m + 2, read-only, built on first use and cached per m:
        the (d, z) matrix with W[p, k] = (m+2)^(d-1-q) when element k takes
        design position p to column q, so that key k of x @ W packs x's
        image under element k, with digits 1..m and m + 1 for an unassigned
        position.  Its dtype is `_weights_in`'s."""
        w = self._weights.get(m)
        if w is None:
            if m < 0:  # base m + 2 < 2 would give every image the same key
                raise ValueError(f"key tables need m >= 0, not {m}")
            w = self._weights[m] = self._weights_in(m + 2)
            w.setflags(write=False)
        return w

    def _weights_in(self, base: int) -> np.ndarray:
        """W in the given base, in the narrowest dtype in which every sum of
        its place values times digits below `base` (keys below base^d) is
        exact: int32 when base^d <= 2^31, float64 up to 2^53, int64 below
        2^63, else Python integers.  Filled per design position: no (z, d)
        temporary."""
        d = self.network.n_design
        span = base ** d
        dtype = (np.int32 if span <= 2 ** 31 else np.float64 if span <= 2 ** 53
                 else np.int64 if span < 2 ** 63 else object)
        place = np.array([base ** e for e in range(d - 1, -1, -1)], dtype=dtype)
        # each design node's column's place value (block nodes read one too,
        # but no element takes a design position to a block node)
        place = place[self._column]
        w = np.empty((d, len(self._table)), dtype=dtype)
        for p, node in enumerate(self.network.design_nodes):
            # every index is a node, so "clip" clips nothing; it lets take
            # write to `out` unbuffered
            np.take(place, self._table[:, node], out=w[p], mode="clip")
        return w

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._perms.tolist()))

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self):
        return map(tuple, self._perms.tolist())

    @property
    def size(self) -> int:
        return len(self._table)

    def _keys(self, xs: np.ndarray) -> np.ndarray:
        """Keys of the checked (B, d) batch xs: row b packs the z images of
        xs[b] from the digits xs - xs.min(), read against the narrowest cached
        `weights` table whose base exceeds the top digit (`weights(top)`
        when none does).  Keys below 2^53 are one float64 BLAS product (an
        int32 table is cast for it), exact since every partial sum is an
        integer below 2^53; wider tables take one exact product in their
        own dtype."""
        low = int(xs.min())
        top = int(xs.max()) - low
        w = self.weights(min((m for m in self._weights if m + 2 > top),
                             default=top))
        if w.dtype == np.int64 or w.dtype == object:
            return (xs - low) @ w
        return (xs - low).astype(np.float64) @ w.astype(np.float64, copy=False)

    def _images(self, xs: np.ndarray, perms: np.ndarray) -> np.ndarray:
        """Row i: the image of design xs[i] under the element perms[i],
        which puts x[p] at the column it takes design position p to."""
        columns = self._column[perms[:, list(self.network.design_nodes)]]
        out = np.empty_like(xs)
        out[np.arange(len(xs))[:, None], columns] = xs
        return out

    def design_images(self, x: Sequence[int]) -> np.ndarray:
        """All z permuted copies of design x, one per element, in the order
        of `elements`."""
        xs = _design_batch([x], self.network.n_design)
        return self._images(np.repeat(xs, len(self._perms), axis=0),
                            self._perms)

    def is_canonical(self, x: Sequence[int]) -> bool:
        """True iff x is lexicographically smallest in its orbit: no group
        element maps it to a strictly smaller design vector."""
        xs = _design_batch([x], self.network.n_design)
        return not self._keys(xs)[0].argmin()  # the identity's key is least

    def canonical_representative(self, x: Sequence[int]) -> tuple[int, ...]:
        """The lexicographically smallest design in x's orbit."""
        return tuple(self.canonical_representatives([x])[0].tolist())

    def canonical_representatives(self, xs) -> np.ndarray:
        """The smallest design in the orbit of each row of the (B, d) batch
        `xs`, as int64.  The batch is checked once; keys are made d rows at
        a time: no larger than W."""
        d = self.network.n_design
        xs = _design_batch(xs, d)
        out = np.empty_like(xs)
        for start in range(0, len(xs), d):
            chunk = xs[start:start + d]
            least = self._keys(chunk).argmin(axis=1)
            out[start:start + d] = self._images(chunk, self._table[least])
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
        product = np.empty((len(u), len(perms), n), dtype=np.int32)
        for a, u_a in enumerate(u):  # row (a, b): u_a after perms_b
            np.take(u_a, perms, out=product[a], mode="clip")  # see _weights_in
        perms = product.reshape(-1, n)
    return AutomorphismGroup._from_chain(perms, net)


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
    seen = bytearray(space)
    count = 0
    shape = (m,) * d
    for code in range(space):
        if seen[code]:
            continue
        count += 1
        # the design whose digits 0..m-1 spell `code`, and its images' codes
        images = group.design_images(np.unravel_index(code, shape))
        for c in np.ravel_multi_index(tuple(images.T), shape).tolist():
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
