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
a search only needs the orbit's lexicographically smallest member; this
module provides that test (`is_canonical`), a test on design prefixes that
proves every completion non-canonical (`prefix_has_smaller_image`, which
lets exhaustive search skip whole subtrees), the orbit's smallest member
(`canonical_representative`), plus a brute-force orbit counter used as a
test oracle.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .network import Network

# the value of a design position not yet assigned: above every treatment label
_UNASSIGNED = np.iinfo(np.int64).max
# elements in play from which the lex-min narrowing leaves numpy for Python
_TAIL = 16


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


class AutomorphismGroup:
    """The full automorphism group of a network, as an explicit element list.

    Elements are node permutations in one-line notation (tuple p with
    p[i] = image of node i), sorted lexicographically; the identity is always
    present.  Instances are immutable and safe to share.
    """

    def __init__(self, elements: Iterable[Sequence[int]], network: Network):
        self.elements = tuple(sorted(tuple(int(v) for v in p) for p in elements))
        self.network = network
        self._columns: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def size(self) -> int:
        return len(self.elements)

    def _position_columns(self) -> np.ndarray:
        """(d, z) index matrix C with C[q, k] = p meaning: under element k the
        design at position p lands at position q, so the permuted design is
        x[C[:, k]].  Positions index design nodes in ascending node order.
        Row q lists every element's source for image column q, which is what
        the column-by-column lex-min kernel reads."""
        if self._columns is None:
            design = self.network.design_nodes
            pos = {node: p for p, node in enumerate(design)}
            z, d = len(self.elements), len(design)
            fwd = np.empty((z, d), dtype=np.int64)
            for k, perm in enumerate(self.elements):
                fwd[k] = [pos[perm[node]] for node in design]
            cols = np.empty((d, z), dtype=np.int64)
            cols[fwd, np.arange(z)[:, None]] = np.arange(d)[None, :]
            cols.setflags(write=False)
            self._columns = cols
        return self._columns

    def _design_list(self, x: Sequence[int]) -> list[int]:
        xs = list(map(int, x))
        d = self.network.n_design
        if len(xs) != d:
            raise ValueError(f"design length {len(xs)} does not match "
                             f"{d} design nodes")
        return xs

    def design_images(self, x: Sequence[int]) -> np.ndarray:
        """All z permuted copies of design x, one per group element."""
        x_arr = np.asarray(x, dtype=np.int64)
        return x_arr[self._position_columns().T]

    def is_canonical(self, x: Sequence[int]) -> bool:
        """True iff x is lexicographically smallest in its orbit: no group
        element maps it to a strictly smaller design vector."""
        xs = self._design_list(x)
        return not self._has_smaller_image(xs, len(xs))

    def _narrow(self, xs: list[int], length: int,
                stop_below: bool) -> tuple[list[int], list[list[int]]]:
        """Lex-min narrowing of the images of xs over columns 0..length-1:
        column by column, only the elements whose image reaches the smallest
        entries so far stay in play.  Once at most _TAIL elements are left,
        plain Python is cheaper than a numpy call per column, so this stops
        at some column q and returns (head, rows): head holds the first q
        entries of the smallest image, and rows the position lists, over
        columns q..length-1, of the elements still in play.  With stop_below
        it also stops, with no rows, as soon as head drops below xs."""
        cols = self._position_columns()
        alive = None  # every element
        x_arr = None
        head: list[int] = []
        for q in range(length):
            if (cols.shape[1] if alive is None else len(alive)) <= _TAIL:
                break
            if x_arr is None:
                x_arr = np.array(xs, dtype=np.int64)
            v = x_arr[cols[q]] if alive is None else x_arr[cols[q, alive]]
            low = int(v.min())
            head.append(low)
            if stop_below and low < xs[q]:
                return head, []
            keep = v == low
            if not keep.all():  # on designs with few labels, often all stay
                alive = keep.nonzero()[0] if alive is None else alive[keep]
        rest = cols[len(head):length]
        return head, (rest if alive is None else rest[:, alive]).T.tolist()

    def _has_smaller_image(self, xs: list[int], length: int) -> bool:
        head, rows = self._narrow(xs, length, stop_below=True)
        if head != xs[:len(head)]:  # the identity keeps head <= xs
            return True
        own = xs[len(head):length]
        return any([xs[p] for p in row] < own for row in rows)

    def prefix_has_smaller_image(self, x: Sequence[int], length: int) -> bool:
        """True iff some group element maps the prefix x[:length] to a
        lexicographically smaller vector whatever the remaining positions
        hold: positions from `length` on read as larger than any treatment,
        so an image entry drawn from them never counts as smaller.  A True
        answer therefore holds for every completion of the prefix, none of
        which is canonical; at length d this is the exact non-canonicity
        test.  x must have one entry per design node; entries from `length`
        on are ignored."""
        xs = self._design_list(x)
        if not 0 <= length <= len(xs):
            raise ValueError(f"prefix length {length} outside 0..{len(xs)}")
        xs[length:] = [_UNASSIGNED] * (len(xs) - length)
        return self._has_smaller_image(xs, length)

    def canonical_representative(self, x: Sequence[int]) -> tuple[int, ...]:
        """The lexicographically smallest design in x's orbit."""
        xs = self._design_list(x)
        head, rows = self._narrow(xs, len(xs), stop_below=False)
        return tuple(head + min([xs[p] for p in row] for row in rows))


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

    found: list[tuple[int, ...]] = []
    image = [0] * n

    def extend(t: int, used: int) -> None:
        if t == n:
            perm = [0] * n
            for pos, src in enumerate(order):
                perm[src] = image[pos]
            found.append(tuple(perm))
            if len(found) > max_group_size:
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
    return AutomorphismGroup(found, net)


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
    maps = group._position_columns().T
    powers = (m ** np.arange(d - 1, -1, -1)).astype(np.int64)
    seen = bytearray(space)
    count = 0
    shape = (m,) * d
    for code in range(space):
        if seen[code]:
            continue
        count += 1
        digits = np.array(np.unravel_index(code, shape), dtype=np.int64)
        orbit_codes = digits[maps] @ powers
        for c in orbit_codes.tolist():
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
