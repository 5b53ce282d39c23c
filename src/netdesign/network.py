"""Graph data model for networked experiments, edge-list I/O, and the
constructors that turn classical blocked layouts into unit networks.

A network holds one node per experimental unit plus, for blocked structures,
one pseudo-unit ("block node") per block.  Block nodes carry a fixed
pseudo-treatment and are never measured; their network effect plays the role
of the block effect.  The one-way, row-column and crossover constructors
share one builder: each lists its blocks as (class, units), and
`_with_block_nodes` adds the block nodes, their links and their roles.
Node ids are 1-based in every file format and 0-based internally; the parser
and serializer are the only places that translate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class NetworkError(ValueError):
    """Invalid network structure or construction arguments."""


class ParseError(NetworkError):
    """Malformed edge-list input.  Carries the offending token and its
    1-based token position when known."""

    def __init__(self, message: str, token: str | None = None,
                 position: int | None = None):
        if token is not None:
            message = f"{message} (token {position}: {token!r})"
        super().__init__(message)
        self.token = token
        self.position = position


@dataclass(frozen=True)
class BlockRole:
    """Role tag for a block node: which exchangeability class it belongs to
    and which pseudo-treatment it is pinned to."""

    class_id: int
    fixed_treatment: int


class Network:
    """Immutable colored graph of experimental units and block nodes.

    Attributes:
        adjacency: n x n 0/1 matrix A, read-only.  A[i, k] = 1 means node i's
            response picks up the network effect of node k's treatment; the
            diagonal is zero.  Symmetric iff the network is undirected.
        directed: whether edge direction is meaningful.
        roles: per-node tag, None for a design node (a real, measurable unit)
            or a BlockRole for a block node.
        design_nodes: indices of design nodes, ascending.
        block_nodes: indices of block nodes, ascending.
    """

    def __init__(self, adjacency, directed: bool,
                 roles: Sequence[BlockRole | None] | None = None):
        # before stacking, so that ragged rows get this error, not numpy's
        if (isinstance(adjacency, Sequence)
                and len({np.shape(row) for row in adjacency}) > 1):
            raise NetworkError("adjacency rows must be of one length")
        a = np.asarray(adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NetworkError(f"adjacency must be square, got shape {a.shape}")
        n = a.shape[0]
        if n == 0:
            raise NetworkError("network needs at least one node")
        # tested before the cast, which would truncate 0.5 to 0 and 1.7 to 1
        if not np.isin(a, (0, 1)).all():
            raise NetworkError("adjacency entries must be 0 or 1")
        a = a.astype(np.int64)  # own copy, frozen below
        if np.diagonal(a).any():
            raise NetworkError("adjacency diagonal must be zero (no self-loops)")
        if not directed and not np.array_equal(a, a.T):
            raise NetworkError("undirected network requires a symmetric adjacency")

        if roles is None:
            roles = (None,) * n
        roles = tuple(roles)
        if len(roles) != n:
            raise NetworkError(f"got {len(roles)} roles for {n} nodes")
        fixed = [r.fixed_treatment for r in roles if r is not None]
        if len(set(fixed)) != len(fixed):
            raise NetworkError("block nodes must have distinct fixed treatments")
        if any(t < 1 for t in fixed):
            raise NetworkError("fixed treatments must be positive")

        a.setflags(write=False)
        self.adjacency = a
        self.directed = bool(directed)
        self.roles = roles
        self.design_nodes = tuple(i for i, r in enumerate(roles) if r is None)
        self.block_nodes = tuple(i for i, r in enumerate(roles) if r is not None)

    @property
    def n_total(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_design(self) -> int:
        return len(self.design_nodes)

    @property
    def n_blocks(self) -> int:
        return len(self.block_nodes)

    @property
    def measurable(self) -> tuple[bool, ...]:
        """Per-node flag: design nodes yield response rows, block nodes do not."""
        return tuple(r is None for r in self.roles)

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Linked node pairs (0-based).  Undirected: each edge once as (i, j)
        with i < j.  Directed: ordered pairs (i, j) with A[i, j] = 1."""
        a = self.adjacency
        if self.directed:
            return [(int(i), int(j)) for i, j in zip(*np.nonzero(a))]
        ii, jj = np.nonzero(np.triu(a))
        return [(int(i), int(j)) for i, j in zip(ii, jj)]

    def edge_count(self) -> int:
        """Number of linked pairs: unordered pairs {i, j} with a link in
        either direction (a bidirectional pair counts once)."""
        a = self.adjacency
        either = (a + a.T) > 0
        return int(np.count_nonzero(np.triu(either)))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (f"Network(n={self.n_total}, {kind}, edges={self.edge_count()}, "
                f"blocks={self.n_blocks})")


_EDGE_RE = re.compile(r"^(\d+)\s*(->|-)\s*(\d+)$")


def parse_edge_list(text: str, n_nodes: int, directed: bool = False) -> Network:
    """Parse comma/whitespace-separated edge tokens into a Network.

    Tokens are ``i-j`` (undirected) or ``i->j`` (directed), with 1-based node
    ids; the arrow form sets only A[i][j].  Ids up to `n_nodes` that never
    appear become isolated nodes.  All nodes are design nodes.

    Raises ParseError for malformed tokens, out-of-range or repeated edges,
    self-loops, and tokens whose form contradicts the `directed` flag.
    """
    if n_nodes < 1:
        raise ParseError("n_nodes must be at least 1")
    a = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    seen: set[tuple[int, int]] = set()
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t] if text.strip() else []
    for pos, tok in enumerate(tokens, start=1):
        m = _EDGE_RE.match(tok)
        if m is None:
            raise ParseError("malformed edge token", tok, pos)
        i, arrow, j = int(m.group(1)), m.group(2), int(m.group(3))
        if (arrow == "->") != directed:
            want = "i->j" if directed else "i-j"
            raise ParseError(f"edge form does not match directed={int(directed)}, "
                             f"expected {want}", tok, pos)
        if not (1 <= i <= n_nodes and 1 <= j <= n_nodes):
            raise ParseError(f"node id out of range 1..{n_nodes}", tok, pos)
        if i == j:
            raise ParseError("self-loop not allowed", tok, pos)
        key = (i, j) if directed else (min(i, j), max(i, j))
        if key in seen:
            raise ParseError("duplicate edge", tok, pos)
        seen.add(key)
        a[i - 1, j - 1] = 1
        if not directed:
            a[j - 1, i - 1] = 1
    return Network(a, directed)


def format_edge_list(net: Network) -> str:
    """Edge tokens of `net` in the parser's syntax (1-based ids).
    ``parse_edge_list(format_edge_list(net), ...)`` restores the edge set."""
    sep = "->" if net.directed else "-"
    return ", ".join(f"{i + 1}{sep}{j + 1}" for i, j in net.edge_pairs())


def serialize_network(net: Network) -> str:
    """Full text form: ``n=<count> directed=<0|1>`` header, edge body, and one
    ``B<id>: class=<c> fixed=<t> units=<list>`` line per block node."""
    lines = [f"n={net.n_total} directed={int(net.directed)}"]
    body = format_edge_list(net)
    if body:
        lines.append(body)
    a = net.adjacency
    for b in net.block_nodes:
        role = net.roles[b]
        linked = np.nonzero((a[b] + a[:, b]) > 0)[0]
        units = ",".join(str(u + 1) for u in linked)
        lines.append(f"B{b + 1}: class={role.class_id} fixed={role.fixed_treatment} "
                     f"units={units}")
    return "\n".join(lines) + "\n"


_HEADER_RE = re.compile(r"^n=(\d+)\s+directed=([01])$")
_ROLE_RE = re.compile(r"^B(\d+):\s*class=(\d+)\s+fixed=(\d+)\s+units=([\d,]*)$")


def parse_network(text: str, n_nodes: int | None = None,
                  directed: bool | None = None) -> Network:
    """Parse the serialize_network format.  The header is optional when
    `n_nodes` (and `directed`) are supplied; explicit arguments must agree
    with the header if both are present."""
    lines = [ln.strip() for ln in text.splitlines()]
    body_lines: list[str] = []
    roles_spec: list[tuple[int, int, int, list[int]]] = []
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        h = _HEADER_RE.match(ln)
        if h:
            hn, hd = int(h.group(1)), bool(int(h.group(2)))
            if n_nodes is not None and n_nodes != hn:
                raise ParseError(f"n={n_nodes} conflicts with header n={hn}")
            if directed is not None and directed != hd:
                raise ParseError("directed flag conflicts with header")
            n_nodes, directed = hn, hd
            continue
        r = _ROLE_RE.match(ln)
        if r:
            units = [int(u) for u in r.group(4).split(",") if u]
            roles_spec.append((int(r.group(1)), int(r.group(2)), int(r.group(3)), units))
            continue
        body_lines.append(ln)
    if n_nodes is None:
        raise ParseError("node count unknown: no header line and no n_nodes argument")
    if directed is None:
        directed = False
    base = parse_edge_list(" , ".join(body_lines), n_nodes, directed)
    if not roles_spec:
        return base
    roles: list[BlockRole | None] = [None] * n_nodes
    for node_id, class_id, fixed, units in roles_spec:
        if not 1 <= node_id <= n_nodes:
            raise ParseError(f"block node id {node_id} out of range")
        roles[node_id - 1] = BlockRole(class_id, fixed)
        a = base.adjacency
        linked = sorted(int(u) + 1 for u in np.nonzero((a[node_id - 1] + a[:, node_id - 1]) > 0)[0])
        if units and sorted(units) != linked:
            raise ParseError(f"block node {node_id} unit list {units} does not match "
                             f"its edges {linked}")
    return Network(base.adjacency, directed, roles)


def load_network_file(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read())


def _with_block_nodes(n_units: int, blocks: Sequence[tuple[int, Sequence[int]]],
                      m: int, carryover: Sequence[tuple[int, int]] = ()
                      ) -> Network:
    """Network of `n_units` design nodes and one block node per entry of
    `blocks`, an ordered list of (class_id, units).  Block k is node
    n_units + k, pinned to pseudo-treatment m+k+1 and linked both ways to its
    units.  `carryover` lists directed unit edges (i, k), each setting
    A[i, k] = 1; the network is directed exactly when there are any."""
    if m < 2:
        raise NetworkError("need at least two treatments")
    n = n_units + len(blocks)
    a = np.zeros((n, n), dtype=np.int64)
    units = np.concatenate([np.asarray(u, dtype=np.intp) for _, u in blocks])
    nodes = np.repeat(np.arange(n_units, n), [len(u) for _, u in blocks])
    a[units, nodes] = a[nodes, units] = 1
    directed = len(carryover) > 0
    if directed:
        i, k = np.transpose(carryover)
        a[i, k] = 1
    roles: list[BlockRole | None] = [None] * n_units
    roles += [BlockRole(c, m + k + 1) for k, (c, _) in enumerate(blocks)]
    return Network(a, directed, roles)


def augment_blocks(units_per_block: Sequence[int], m: int) -> Network:
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
    ends = np.cumsum(sizes).tolist()
    classes: dict[int, int] = {}  # block size -> class id, in first-seen order
    blocks = [(classes.setdefault(s, len(classes)), range(end - s, end))
              for s, end in zip(sizes, ends)]
    return _with_block_nodes(ends[-1], blocks, m)


def augment_row_column(rows: int, cols: int, m: int) -> Network:
    """Network for a row-column design: rows*cols design nodes (row-major),
    one block node per row and per column, each unit linked to both of its
    block nodes.

    Fixed pseudo-treatments are m+1..m+rows for the row nodes then
    m+rows+1..m+rows+cols for the column nodes.  When rows == cols the two
    classes are merged so the transpose symmetry is admitted.
    """
    if rows < 1 or cols < 1:
        raise NetworkError("rows and cols must be at least 1")
    grid = np.arange(rows * cols).reshape(rows, cols)
    col_class = 0 if rows == cols else 1
    blocks = [(0, row) for row in grid] + [(col_class, col) for col in grid.T]
    return _with_block_nodes(grid.size, blocks, m)


def augment_crossover(subjects: int, periods: int, m: int,
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
    grid = np.arange(subjects * periods).reshape(subjects, periods)
    blocks = [(0, subject) for subject in grid]
    if period_blocks:
        blocks += [(1, period) for period in grid.T]
    later = grid[:, 1:].ravel()  # every unit after its subject's first period
    return _with_block_nodes(grid.size, blocks, m,
                             np.stack([later, later - 1], axis=1))
