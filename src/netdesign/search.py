"""Design-space search with automorphism orbit pruning.

The generic loop is: pick a candidate design, evaluate the criterion only if
the candidate is the lexicographically first member of its automorphism
orbit, then let a `next` rule pick the following candidate until a `stop`
rule fires.  Two instantiations ship here: exhaustive lexicographic search
(optionally restricted to label-canonical designs, where the first occurrence
of treatment j precedes the first occurrence of j+1) and cyclic coordinate
descent with seeded random restarts.

Exhaustive search takes its stream as label arrays from one generator
(`_stream`): the last s positions of every design come from one cached
tail table, the lexicographic completions of those positions after a
prefix with a given largest label, and only the positions above them are
walked in Python.  s shrinks as the group grows, so that a table's keys
stay few; a group-free stream is the z = 1 case.  Under a non-trivial
group the walk closes the subtree of any prefix that some automorphism
maps to a smaller one, and a table's rows are gated by their own keys:
the designs of closed subtrees and gated-out rows are counted as
considered and skipped, so every counter equals that of gating each
design.  The test reads the group's packed image keys in base m + 2
(`walk_weights`), int32 where they fit, kept per walked depth: each prefix
costs one update of the z keys and one minimum, and the update is a
single add when the prefix's last label is one above that of a sibling
already tested.  A network whose only automorphism is the identity gives
the searches no group at all (`_group_for`), so none of them asks a
canonicity question that only the identity could answer.
With a group or without, the evaluator answers designs that leave a
treatment unused as INVALID without an eigendecomposition.

Coordinate descent never skips; its cache is keyed by orbit representative
instead.  Its restarts run in lockstep: each descent is a generator that
yields one candidate at a time, and each step finds the representatives of
all live descents' candidates in one call and evaluates the uncached ones
in batched calls of at most _CHUNK_DESIGNS.  Trajectories depend only on values, which are pure
functions of the key, so the counters equal those of running the restarts
one after another.

Both run as tasks on one runner (`_run_tasks`): subtrees of the stream,
whose live rows are joined into chunks of at least _CHUNK_DESIGNS designs,
one `_chunk_best` call each (the chunk's valid count and first least value,
with eigh only on the designs that can be the best or are not certified
estimable), or contiguous blocks of restarts, one per worker.  One worker runs them in this process, more run
the same code on a process pool, and results merge in task order, so
reports do not depend on the worker count.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .automorph import AutomorphismGroup, find_automorphisms
from .lnem import Design, DesignEvaluator, ModelSpec
from .network import Network

_SAFETY_BUDGET = 10_000_000
# designs per batched criterion call
_CHUNK_DESIGNS = 256
# exhaustive subtree tasks planned per pool worker, so that uneven subtrees
# even out across the pool
_TASKS_PER_WORKER = 8
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by the search algorithms.

    max_designs bounds the number of candidates drawn from an enumeration
    stream (exhaustive and plugin runs; coordinate descent terminates on its
    own).  count_invalid_as_eval folds non-estimable evaluations into
    num_eval for auditing against external counts.  reference_value, when
    set, fills the report's efficiency field (reference / best found).
    """

    algorithm: str = "exhaustive"
    use_automorphisms: bool = True
    use_label_symmetry: bool = True
    restarts: int = 100
    seed: int = 0
    count_invalid_as_eval: bool = False
    max_designs: int | None = None
    workers: int = 1
    max_group_size: int = 1_000_000
    reference_value: float | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_designs is not None and self.max_designs < 1:
            raise ValueError("max_designs must be at least 1")
        if self.max_group_size < 1:
            raise ValueError("max_group_size must be at least 1")


@dataclass
class SearchReport:
    """Outcome of one search run.

    Counter identity: num_considered = num_eval + num_skipped_noncanonical +
    num_invalid + num_cache_hits (with count_invalid_as_eval, the invalid
    count is folded into num_eval and drops out of the identity).  Exhaustive
    runs never produce cache hits; coordinate descent never skips.
    num_skipped_noncanonical includes the designs of subtrees that exhaustive
    search proved non-canonical from their prefix: they are counted (in
    num_considered too) but never enumerated.
    """

    algorithm: str
    best_design: Design | None
    best_value: float | None
    num_eval: int
    num_considered: int
    num_skipped_noncanonical: int
    num_invalid: int
    num_cache_hits: int
    wall_time: float
    seed: int
    efficiency: float | None = None
    partial: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["best_design"] is not None:
            d["best_design"] = list(d["best_design"])
        return d

    def to_json(self, exclude_wall_time: bool = False) -> str:
        d = self.to_dict()
        if exclude_wall_time:
            del d["wall_time"]
        return json.dumps(d, indent=2, sort_keys=True)


def _subtree_sizes(n: int, m: int, use_label_symmetry: bool) -> list[list[int]]:
    """sizes[r][k]: the number of stream designs that complete a prefix with
    r positions left to fill and largest label k so far.  Label-canonical
    completions follow N(r, k) = k N(r-1, k) + N(r-1, k+1), with no label
    past m; without label symmetry every prefix has m^r completions."""
    sizes = [[1] * (m + 1)]
    for r in range(1, n + 1):
        prev = sizes[-1]
        if use_label_symmetry:
            sizes.append([k * prev[k] + (prev[k + 1] if k < m else 0)
                          for k in range(m + 1)])
        else:
            sizes.append([m ** r] * (m + 1))
    return sizes


def _advance(x: list[int], top: list[int], q: int, start: int, m: int,
             use_label_symmetry: bool) -> int:
    """Step the odometer x, with top[i] the largest label of x[:i], to the
    next stream string: advance the deepest position at or above q (and not
    before `start`) that can still grow, and reset the positions after it
    to 1.  Returns that position, or -1 when the walk is done."""
    while q >= start:
        v = x[q]
        if v < m and (not use_label_symmetry or v <= top[q]):
            break
        q -= 1
    else:
        return -1
    v = x[q] = x[q] + 1
    t = top[q] if top[q] > v else v
    top[q + 1] = t
    for i in range(q + 1, len(x)):
        x[i] = 1
        top[i + 1] = t
    return q


@functools.lru_cache(maxsize=128)
def _tail_table(r: int, top: int, m: int, use_label_symmetry: bool
                ) -> np.ndarray:
    """The read-only (N, r) int64 table of the stream's completions of r
    positions after a prefix whose largest label is `top`, in lexicographic
    order: every string over 1..m, or with label symmetry those whose every
    label is at most one above the largest before it.  One index grid,
    filtered by its running maximum."""
    grid = np.indices((m,) * r).reshape(r, m ** r).T + 1
    if use_label_symmetry:
        before = np.maximum.accumulate(
            np.hstack([np.full((len(grid), 1), top), grid[:, :-1]]), axis=1)
        grid = grid[(grid <= before + 1).all(axis=1)]
    table = np.ascontiguousarray(grid, dtype=np.int64)
    table.setflags(write=False)
    return table


def _stream(group: AutomorphismGroup | None, prefix: Sequence[int], n: int,
            m: int, use_label_symmetry: bool, budget: int | None
            ) -> Iterator[tuple[int, np.ndarray | None]]:
    """The first `budget` (all if None) stream designs that start with
    `prefix`, in lexicographic order, as segments (size, live): `size`
    consecutive designs, of which the (k, n) int64 array `live` holds the
    k >= 1 to evaluate, or None when none is.

    The last s positions (fewer if fewer are left) come from one
    `_tail_table`, s the largest with m^s <= _CHUNK_DESIGNS and
    m^s z <= _CHUNK_DESIGNS^2 (z = 1 without a group); the odometer walks
    the positions between the prefix and them, and each of its steps is one
    segment.  Without a group every row is live.  Under one the walk tests
    each prefix it reaches, the given one first, and a prefix that some
    element maps to a smaller one closes its subtree unvisited, as one
    segment.  keys[i] packs each element's image of x[:i] in base m + 2
    (`walk_weights`), unassigned positions read as m + 1 (above every
    label): the prefix has a smaller image iff the first least key is not
    the identity's, key 0.  An image that ties the prefix draws on its
    positions alone, so it ties the unassigned rest too, and the answer
    holds for every completion.  keys[q + 1] still packs the sibling
    before x[:q + 1] when `_advance` returns q, so that step is one add.
    A table's rows are gated whole: keys[stop] plus the table's own keys,
    (table - unset) @ W[stop:], cached per largest label for the call,
    gives each completed design's keys, and a row lives iff its first
    least key is key 0.  With no position left for a table (s = 0, or a
    whole design as the prefix) the walk's test of the design is that gate,
    and a design that passes it is live."""
    z = 1 if group is None else group.size
    width = 0
    while m ** (width + 1) <= min(_CHUNK_DESIGNS, _CHUNK_DESIGNS ** 2 // z):
        width += 1
    start = len(prefix)
    stop = max(n - width, start)  # the walked positions are start..stop-1
    x = list(prefix) + [1] * (stop - start)
    top = list(itertools.accumulate([0] + x, max))  # top[i]: max of x[:i]
    left = budget
    fresh = stop  # the first position to test; none without a group
    if group is not None:
        sizes = _subtree_sizes(n, m, use_label_symmetry)
        w, unset, gates = group.walk_weights(m), m + 1, {}
        fresh = max(start - 1, 0)
        keys = np.empty((stop + 1, z), dtype=w.dtype)
        keys[fresh] = np.array(x[:fresh] + [unset] * (n - fresh),
                               dtype=w.dtype) @ w
        if fresh < stop:
            keys[fresh + 1] = keys[fresh] + w[fresh] * (x[fresh] - unset)
    while True:
        q, live = stop - 1, None
        for q in range(fresh, stop):
            row = keys[q + 1]
            if q > fresh:
                np.multiply(w[q], x[q] - unset, out=row)
                row += keys[q]
            if row.argmin():
                size = sizes[n - 1 - q][top[q + 1]]
                break
        else:
            if stop == n:  # no table: x is a design, tested under a group
                size, live = 1, np.array([x], dtype=np.int64)
            else:
                label = top[stop] if use_label_symmetry else 0
                table = _tail_table(n - stop, label, m, use_label_symmetry)
                rows = table[:left]  # the whole table when left is None
                if group is not None:
                    gate = gates.get(label)
                    if gate is None:
                        gate = gates[label] = (
                            (table - unset).astype(w.dtype) @ w[stop:])
                    keyed = gate[:len(rows)] + keys[stop]
                    rows = rows[keyed.argmin(axis=1) == 0]
                size = len(table)
                if len(rows):
                    live = np.empty((len(rows), n), dtype=np.int64)
                    live[:, :stop] = x
                    live[:, stop:] = rows
        if left is not None:
            size = min(size, left)
            left -= size
        yield size, live
        if left == 0:
            return
        fresh = _advance(x, top, q, start, m, use_label_symmetry)
        if fresh < 0:
            return
        if group is None:
            fresh = stop
        else:
            keys[fresh + 1] += w[fresh]  # x[fresh] grew by one


def enumerate_designs(n_design_nodes: int, m: int,
                      use_label_symmetry: bool = True) -> Iterator[Design]:
    """All designs on `n_design_nodes` nodes in lexicographic order.

    With label symmetry only label-canonical designs are produced: treatment
    labels appear in first-occurrence order, so node 1 always receives
    treatment 1 and the stream has sum_k S2(n, k) members (k = 1..m) instead
    of m^n.  These are the rows, as tuples, of the group-free `_stream`
    that exhaustive search evaluates: the last positions from a cached
    table of lexicographic completions, the ones above them walked in
    order.  Bad sizes raise at the call, not at the first design.
    """
    if m < 2 or n_design_nodes < 1:
        raise ValueError("need at least two treatments and one design node")
    stream = _stream(None, (), n_design_nodes, m, use_label_symmetry, None)
    return (x for _, live in stream for x in map(tuple, live.tolist()))


def _better(a: float | None, b: float | None) -> bool:
    """Strictly better criterion value; INVALID (None, or NaN as the
    kernel's arrays hold it) loses to anything."""
    return a is not None and a == a and (b is None or not b <= a)


@dataclass
class _Counters:
    considered: int = 0
    evals: int = 0
    skipped: int = 0
    invalid: int = 0
    hits: int = 0

    def add(self, other: _Counters) -> None:
        for field in fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))


def _make_report(algorithm: str, config: SearchConfig, counters: _Counters,
                 best_design: Design | None, best_value: float | None,
                 wall_time: float, partial: bool = False) -> SearchReport:
    num_eval = counters.evals
    if config.count_invalid_as_eval:
        num_eval += counters.invalid
    efficiency = None
    if config.reference_value is not None and best_value is not None:
        efficiency = config.reference_value / best_value
    return SearchReport(
        algorithm=algorithm,
        best_design=best_design,
        best_value=best_value,
        num_eval=num_eval,
        num_considered=counters.considered,
        num_skipped_noncanonical=counters.skipped,
        num_invalid=counters.invalid,
        num_cache_hits=counters.hits,
        wall_time=wall_time,
        seed=config.seed,
        efficiency=efficiency,
        partial=partial,
    )


def _group_for(net: Network, config: SearchConfig, walk_m: int | None = None
               ) -> AutomorphismGroup | None:
    """The group a search prunes with: None when automorphisms are off or
    the network has none but the identity, which would prune nothing.  The
    key tables the search reads are built here, once, not in each pool
    worker: the walk's W for labels 1..walk_m when walk_m is given, else
    `weights` and its float halves, which `_keys` reads."""
    if not config.use_automorphisms:
        return None
    group = find_automorphisms(net, config.max_group_size)
    if group.size == 1:
        return None
    if walk_m is not None:
        group.walk_weights(walk_m)
    else:
        group.weights, group.halves()
    return group


# ---------------------------------------------------------------------------
# the task runner

# the pool's start method: fork where the platform offers it, since workers
# then inherit the caller's state instead of unpickling it
_START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                 else "spawn")
_pool_state = None  # a pool worker's copy of the caller's state


def _pool_init(state) -> None:
    global _pool_state
    _pool_state = state


def _pool_call(fn: Callable, task):
    return fn(_pool_state, task)


def _run_tasks(state, fn: Callable, tasks: Sequence, workers: int) -> Iterator:
    """fn(state, task) of every task, yielded in task order.  With one
    worker (or one task) they run in this process on the caller's state;
    otherwise on a pool of at most `workers` processes, each of which gets
    a copy of it."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        for task in tasks:
            yield fn(state, task)
        return
    ctx = multiprocessing.get_context(_START_METHOD)
    with ctx.Pool(workers, initializer=_pool_init, initargs=(state,)) as pool:
        yield from pool.imap(functools.partial(_pool_call, fn), tasks)


# ---------------------------------------------------------------------------
# exhaustive search

def _plan(n: int, m: int, use_label_symmetry: bool, workers: int,
          budget: int | None) -> tuple[list[tuple[Design, int | None]], bool]:
    """Subtree tasks (prefix, local budget) in stream order, and whether the
    budget cuts the stream short.  One worker gets the root alone; for a
    pool, the subtree with the most designs within the budget is split until
    each worker has _TASKS_PER_WORKER tasks or only full designs are left.
    The budget is the local budget of the task it cuts (None elsewhere), and
    the tasks after that one are dropped."""
    if m < 2 or n < 1:
        raise ValueError("need at least two treatments and one design node")
    sizes = _subtree_sizes(n, m, use_label_symmetry)

    def size(prefix: Design) -> int:
        return sizes[n - len(prefix)][max(prefix, default=0)]

    def cut(prefixes: list[Design], left: int | None):
        tasks = []
        for prefix in prefixes:
            if left is not None and left < size(prefix):
                return tasks + ([(prefix, left)] if left else [])
            tasks.append((prefix, None))
            left = None if left is None else left - size(prefix)
        return tasks

    tasks = cut([()], budget)
    while workers > 1 and len(tasks) < _TASKS_PER_WORKER * workers:
        open_ = [i for i, (prefix, _) in enumerate(tasks) if len(prefix) < n]
        if not open_:
            break
        i = max(open_, key=lambda i: tasks[i][1] or size(tasks[i][0]))
        prefix, local = tasks[i]
        last = min(max(prefix, default=0) + 1, m) if use_label_symmetry else m
        tasks[i:i + 1] = cut([prefix + (label,) for label in range(1, last + 1)],
                             local)
    return tasks, budget is not None and budget < size(())


def default_workers(net: Network, m: int, *, exhaustive: bool = True,
                    use_label_symmetry: bool = True,
                    budget: int | None = None) -> int:
    """The worker count for a run that names none: all cores, except one
    for an exhaustive stream (cut to `budget`) of fewer than
    _CHUNK_DESIGNS * _TASKS_PER_WORKER designs.  On a 2-core machine a
    pool takes about 25 ms to start, and the costliest streams timed there
    (row-column networks without a group, about 30 us a design) break even
    near that size, cheaper ones later.  The cut does not grow with the
    core count: a pool saves at most the stream's serial time, about 60 ms
    at this size even for those streams."""
    if exhaustive:
        n = net.n_design
        designs = _subtree_sizes(n, m, use_label_symmetry)[n][0]
        if budget is not None:
            designs = min(designs, budget)
        if designs < _CHUNK_DESIGNS * _TASKS_PER_WORKER:
            return 1
    return os.cpu_count() or 1


def _chunks(stream: Iterable[tuple[int, np.ndarray | None]],
            counters: _Counters) -> Iterator[np.ndarray]:
    """The live rows of `_stream` segments, joined into chunks of at least
    _CHUNK_DESIGNS rows (the last may be short); every design counts as
    considered, and those not live as skipped."""
    pending, rows = [], 0
    for size, live in stream:
        counters.considered += size
        counters.skipped += size - (0 if live is None else len(live))
        if live is not None:
            pending.append(live)
            rows += len(live)
            if rows >= _CHUNK_DESIGNS:
                yield np.concatenate(pending)
                pending, rows = [], 0
    if pending:
        yield np.concatenate(pending)


def _subtree_task(state, task: tuple[Design, int | None]):
    """Evaluate one subtree task in chunks of its `_stream`'s live rows, one
    `_chunk_best` call each; returns its counters and its best (value,
    design), the earliest design that reaches the best value.  The serial
    path and every pool worker, with a group or without, run this same
    loop."""
    ev, group, use_label_symmetry = state
    prefix, budget = task
    counters = _Counters()
    stream = _stream(group, prefix, ev.net.n_design, ev.spec.m,
                     use_label_symmetry, budget)
    best_value = best_design = None
    for chunk in _chunks(stream, counters):
        # the chunk's first least value whenever it can beat the best so
        # far; the strict rule below keeps the earlier design on a tie
        evals, i, value = ev._chunk_best(chunk, best_value)
        counters.evals += evals
        counters.invalid += len(chunk) - evals
        if i is not None and _better(value, best_value):
            best_value, best_design = value, tuple(chunk[i].tolist())
    return counters, (best_value, best_design)


def exhaustive_search(net: Network, spec: ModelSpec,
                      config: SearchConfig | None = None) -> SearchReport:
    """Evaluate the whole (optionally label-canonical) design stream in
    lexicographic order, skipping designs that are not first in their
    automorphism orbit.  Ties go to the earlier design.  If max_designs cuts
    the stream short, the report is flagged partial.  The stream runs as the
    subtree tasks of `_plan`."""
    config = config or SearchConfig()
    t0 = time.perf_counter()
    group = _group_for(net, config, spec.m)
    tasks, partial = _plan(net.n_design, spec.m, config.use_label_symmetry,
                           config.workers, config.max_designs)
    state = (DesignEvaluator(net, spec), group, config.use_label_symmetry)
    counters = _Counters()
    best_value = best_design = None
    # tasks come back in stream order, so keeping the first strict
    # improvement gives the earliest best design
    for task_counters, (value, design) in _run_tasks(
            state, _subtree_task, tasks, config.workers):
        counters.add(task_counters)
        if _better(value, best_value):
            best_value, best_design = value, design
    return _make_report("exhaustive", config, counters, best_design, best_value,
                        time.perf_counter() - t0, partial=partial)


# ---------------------------------------------------------------------------
# cyclic coordinate descent

def _start_design(seed: int, restart: int, n: int, m: int) -> Design:
    rng = np.random.default_rng((seed & _SEED_MASK, restart))
    return tuple(int(v) for v in rng.integers(1, m + 1, size=n))


def _descend(start: Design, n: int, m: int):
    """One descent, as a generator that yields each candidate and is sent
    back its (value, orbit-representative design): sweep nodes in index
    order trying every other treatment; adopt the first strict improvement
    and restart the sweep from node 1; stop after a full improvement-free
    sweep.  Returns the final (value, representative)."""
    x = list(start)
    vx, kx = yield tuple(x)
    while True:
        for node in range(n):
            current = x[node]
            for t in range(1, m + 1):
                if t == current:
                    continue
                x[node] = t
                vy, ky = yield tuple(x)
                if _better(vy, vx):
                    vx, kx = vy, ky
                    break
                x[node] = current
            else:
                continue
            break  # improved: sweep again from node 1
        else:
            return vx, kx


def _restart_task(state, starts: Sequence[Design]):
    """The descents from a block of start designs, run in lockstep on one
    cache keyed by orbit representative.  Each step takes the live
    descents' pending candidates, their orbit representatives in one call,
    and the values of the representatives not yet cached in batched
    kernel calls of at most _CHUNK_DESIGNS (one call for up to that many
    live descents), then sends each descent its result.
    Returns the cache, the candidates the task considered and each
    descent's final (value, design); values are floats, NaN for INVALID."""
    ev, group = state
    cache: dict[Design, float] = {}
    walks = [_descend(x, ev.net.n_design, ev.spec.m) for x in starts]
    live = [(i, walk, next(walk)) for i, walk in enumerate(walks)]
    finals: list = [None] * len(walks)
    considered = 0
    while live:
        keys = [x for _, _, x in live]
        if group is not None:
            keys = list(map(tuple, group.canonical_representatives(keys).tolist()))
        new = list(dict.fromkeys(key for key in keys if key not in cache))
        for i in range(0, len(new), _CHUNK_DESIGNS):
            chunk = new[i:i + _CHUNK_DESIGNS]
            cache.update(zip(chunk, ev._value_array(chunk).tolist()))
        considered += len(live)
        still = []
        for (i, walk, _), key in zip(live, keys):
            try:
                still.append((i, walk, walk.send((cache[key], key))))
            except StopIteration as done:
                finals[i] = done.value
        live = still
    return cache, considered, finals


def coordinate_descent(net: Network, spec: ModelSpec,
                       config: SearchConfig | None = None) -> SearchReport:
    """Cyclic coordinate descent from `restarts` seeded random starting
    designs, pooling the best result.  num_eval counts distinct evaluations
    (orbit representatives when automorphisms are on); the reported best
    design is the evaluated representative.  The restarts run as one
    contiguous block per worker; a trajectory depends only on (seed,
    restart index), so results are identical for any worker count."""
    config = config or SearchConfig(algorithm="coordinate_descent")
    t0 = time.perf_counter()
    group = _group_for(net, config)
    starts = [_start_design(config.seed, r, net.n_design, spec.m)
              for r in range(config.restarts)]
    blocks = min(config.workers, config.restarts)
    tasks = [starts[len(starts) * i // blocks:len(starts) * (i + 1) // blocks]
             for i in range(blocks)]
    best_value = best_design = None
    merged: dict[Design, float] = {}
    counters = _Counters()
    state = (DesignEvaluator(net, spec), group)
    for cache, considered, finals in _run_tasks(state, _restart_task, tasks,
                                                config.workers):
        merged.update(cache)
        counters.considered += considered
        for value, design in finals:
            if _better(value, best_value):
                best_value, best_design = value, design
    counters.evals = sum(1 for v in merged.values() if v == v)  # not NaN
    counters.invalid = len(merged) - counters.evals
    counters.hits = counters.considered - len(merged)
    return _make_report("coordinate_descent", config, counters, best_design,
                        best_value, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# pluggable loop

def run_with_plugins(net: Network, spec: ModelSpec,
                     next_fn: Callable[[list, list], Design | None],
                     stop_fn: Callable[[list, list, int], bool] | None,
                     config: SearchConfig | None = None) -> SearchReport:
    """The generic loop with user-supplied candidate and stopping rules.

    next_fn(xs, ds) receives the candidates so far and their values (None for
    candidates that were skipped as non-canonical or were not estimable) and
    returns the next design, or None to end the stream; it is first called
    with empty histories to supply the initial design.  stop_fn(xs, ds,
    num_eval) is consulted after each candidate is processed.  A safety
    budget (max_designs, else 10^7) guards non-terminating rules; hitting it
    flags the report partial."""
    config = config or SearchConfig()
    t0 = time.perf_counter()
    group = _group_for(net, config)
    ev = DesignEvaluator(net, spec)
    counters = _Counters()
    best_value = best_design = None
    budget = config.max_designs if config.max_designs is not None else _SAFETY_BUDGET
    xs: list[Design] = []
    ds: list[float | None] = []
    partial = False
    x = next_fn(xs, ds)
    while x is not None:
        counters.considered += 1
        if group is not None and not group.is_canonical(x):
            counters.skipped += 1
            value = None
        else:
            value = ev.value(x)
            counters.invalid += value is None
            counters.evals += value is not None
        if _better(value, best_value):
            best_value, best_design = value, x
        xs.append(x)
        ds.append(value)
        if stop_fn is not None and stop_fn(xs, ds, counters.evals):
            break
        if counters.considered >= budget:
            partial = True
            break
        x = next_fn(xs, ds)
    return _make_report("plugin", config, counters, best_design, best_value,
                        time.perf_counter() - t0, partial=partial)


def run_search(net: Network, spec: ModelSpec,
               config: SearchConfig | None = None) -> SearchReport:
    """Dispatch on config.algorithm."""
    config = config or SearchConfig()
    if config.algorithm in ("exhaustive",):
        return exhaustive_search(net, spec, config)
    if config.algorithm in ("cd", "coordinate_descent"):
        return coordinate_descent(net, spec, config)
    raise ValueError(f"unknown algorithm {config.algorithm!r}")
