"""Design-space search with automorphism orbit pruning.

The generic loop is: pick a candidate design, evaluate the criterion only if
the candidate is the lexicographically first member of its automorphism
orbit, then let a `next` rule pick the following candidate until a `stop`
rule fires.  Two instantiations ship here: exhaustive lexicographic search
and cyclic coordinate descent with seeded random restarts.

Exhaustive search takes its stream as label arrays from one generator
(`_stream`), under one label rule: each label is at most one above the
largest before it, which starts at `top`.  top = 0 gives the
label-canonical designs, where the first occurrence of treatment j
precedes the first occurrence of j+1; top = m, as if every label were
already used, gives every string over 1..m (`use_label_symmetry=False`).
The last s positions of every design come from one cached
tail table, the lexicographic completions of those positions after a
prefix with a given largest label, and only the positions above them are
walked in Python.  s shrinks as the group grows, so that a table's keys
stay few; a group-free stream is the z = 1 case.  Under a non-trivial
group the walk closes the subtree of any prefix that some automorphism
maps to a smaller one, and a table's rows are gated by their own keys:
the designs of closed subtrees and gated-out rows are counted as
considered and skipped, so every counter equals that of gating each
design.  The test reads the group's packed image keys in base m + 2
(`AutomorphismGroup.weights`), kept per walked depth: each prefix
costs one update of the z keys and one minimum, and the update is a
single add when the prefix's last label is one above that of a sibling
already tested.  Coordinate descent and `run_with_plugins` read the same
table through the group's representative and canonicity calls.  A network
whose only automorphism is the identity gives the searches no group at all
(`_group_for`), so none of them asks a canonicity question that only the
identity could answer.
With a group or without, the evaluator answers designs that leave a
treatment unused as INVALID without an eigendecomposition.

Coordinate descent never skips; its cache is keyed by orbit representative
instead.  Its restarts run in lockstep rounds, and compare on intervals
that hold each orbit's kernel value: a certified orbit's screen interval
(`DesignEvaluator._bounds`), and a kernel value as a point.  Each round is
self-contained.  It plans every live descent's next candidates as if none
improves, _LOOKAHEAD of them in all, finds their representatives in one
call and screens the new ones in one batch.  Each descent then walks its
plan until it improves, runs out of plan, or meets what only the kernel
can decide: an orbit the screen does not certify, so that every INVALID
decision is the kernel's, or a comparison whose intervals overlap, which
covers every tie.  At the round's end the kernel values, in one batch,
those orbits and the final orbit of each descent that ended its last sweep
in the round, so every comparison the round met is decided and reported
values are the kernel's; a descent that stopped resumes where it stopped
in the next round.  The decisions are those of exact values, and planned
orbits that no descent reached are not counted, so the counters equal
those of running the restarts one after another with exact values.

Both run as tasks on one runner (`_run_tasks`): subtrees of the stream,
or contiguous blocks of restarts, one per worker.  Both reach the
evaluator through the same two calls: the screen, `_bounds`, whose
intervals hold each certified design's kernel value, and the kernel,
`_value_array`.  A subtree task joins its live rows into chunks of at
least _CHUNK_DESIGNS designs and screens each in one `_bounds` call: F'F
from one GEMM of the one-hot labels and one batched Cholesky certificate.
`_needs_kernel` decides on the intervals which designs can be the best or
are not certified estimable; the others count as valid.  Those designs
wait in a queue, in stream order, which `_value_array` values at least
_CHUNK_DESIGNS at a time and once more at the task's end.  One worker runs
the tasks in this process, more run the same code on a process pool, and
results merge in task order, so reports do not depend on the worker count.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import multiprocessing
import numbers
import os
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .automorph import AutomorphismGroup, find_automorphisms
from .lnem import Design, DesignEvaluator, ModelSpec, _design_batch
from .network import Network

_SAFETY_BUDGET = 10_000_000
# designs per batched criterion call
_CHUNK_DESIGNS = 256
# coordinate-descent candidates planned per lockstep round, shared among the
# live descents
_LOOKAHEAD = _CHUNK_DESIGNS // 4
# exhaustive subtree tasks planned per pool worker, so that uneven subtrees
# even out across the pool
_TASKS_PER_WORKER = 8
# with workers=None, an exhaustive stream (cut to the budget) of fewer
# designs runs at one worker; `_plan` gives the timings behind it
_SERIAL_DESIGNS = 12_288
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by the search algorithms.

    max_designs bounds the number of candidates drawn from an enumeration
    stream: exhaustive search only, plus the plugin loop's safety budget.
    Coordinate descent ends on its own and raises ValueError when it is
    set.  workers=None lets the search choose: all the cores this process
    may run on (`_usable_cores`), except one for an exhaustive stream too
    small to split (`_plan`).  reference_value, when set, fills the
    report's efficiency field (reference / best found).
    """

    algorithm: str = "exhaustive"  # or "cd", "coordinate_descent"
    use_automorphisms: bool = True
    use_label_symmetry: bool = True
    restarts: int = 100
    seed: int = 0
    max_designs: int | None = None
    workers: int | None = 1
    max_group_size: int = 1_000_000
    reference_value: float | None = None

    def __post_init__(self):
        # an unknown name would otherwise run as exhaustive search
        if self.algorithm not in ("exhaustive", "cd", "coordinate_descent"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        # whole counts only: 2.5 or True would fail deep in a run, or run
        # with a budget of 1; numpy integers are kept as Python ints, which
        # the seed's mask and the JSON report take
        for name in ("restarts", "seed", "max_designs", "workers",
                     "max_group_size"):
            value = getattr(self, name)
            if value is None and name in ("max_designs", "workers"):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise ValueError(f"{name} must be at least 1")
            object.__setattr__(self, name, int(value))
        # "no" would run as True; a numpy bool is kept as a Python bool
        for name in ("use_automorphisms", "use_label_symmetry"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {value!r}")
            object.__setattr__(self, name, bool(value))
        # NaN or inf would put NaN or Infinity, which is not JSON, in the
        # report, and "0.5" would fail only after the whole search
        ref = self.reference_value
        if ref is not None:
            if isinstance(ref, bool) or not (isinstance(ref, numbers.Real)
                                             and 0 < ref < math.inf):
                raise ValueError(f"reference_value must be a finite positive "
                                 f"number, got {ref!r}")
            object.__setattr__(self, "reference_value", float(ref))


@dataclass
class SearchReport:
    """Outcome of one search run.

    Counter identity: num_considered = num_eval + num_skipped_noncanonical +
    num_invalid + num_cache_hits.  Exhaustive runs never produce cache hits;
    coordinate descent never skips.
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


def _subtree_sizes(n: int, m: int) -> list[list[int]]:
    """sizes[r][k]: the number of stream designs that complete a prefix with
    r positions left to fill and largest label k so far, each label at most
    one above the largest before it and none past m: N(r, k) = k N(r-1, k)
    + N(r-1, k+1).  sizes[r][0] is the label-canonical count, sum_k S2(r, k)
    (k = 1..m), and sizes[r][m] is m^r, every string."""
    sizes = [[1] * (m + 1)]
    for _ in range(n):
        prev = sizes[-1]
        sizes.append([k * prev[k] + (prev[k + 1] if k < m else 0)
                      for k in range(m + 1)])
    return sizes


def _advance(x: list[int], top: list[int], q: int, start: int, m: int) -> int:
    """Step the odometer x, with top[i] the largest label before x[i], to
    the next stream string: advance the deepest position at or above q (and
    not before `start`) that can still grow, within m and at most one above
    top[q], and reset the positions after it to 1.  Returns that position,
    or -1 when the walk is done."""
    while q >= start:
        v = x[q]
        if v < m and v <= top[q]:
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
def _tail_table(r: int, top: int, m: int) -> np.ndarray:
    """The read-only (N, r) int64 table of the stream's completions of r
    positions after a prefix whose largest label is `top`, in lexicographic
    order: the strings over 1..m whose every label is at most one above
    the largest before it, all of them when top = m.  One index grid,
    filtered by its running maximum."""
    grid = np.indices((m,) * r).reshape(r, m ** r).T + 1
    before = np.maximum.accumulate(
        np.hstack([np.full((len(grid), 1), top), grid[:, :-1]]), axis=1)
    grid = grid[(grid <= before + 1).all(axis=1)]
    table = np.ascontiguousarray(grid, dtype=np.int64)
    table.setflags(write=False)
    return table


def _stream(group: AutomorphismGroup | None, prefix: Sequence[int], n: int,
            m: int, top: int, budget: int | None
            ) -> Iterator[tuple[int, np.ndarray | None]]:
    """The first `budget` (all if None) stream designs that start with
    `prefix`, in lexicographic order, as segments (size, live): `size`
    consecutive designs, of which the (k, n) int64 array `live` holds the
    k >= 1 to evaluate, or None when none is.  The stream's strings over
    1..m are those whose every label is at most one above the largest
    before it, the design's own labels and `top`: top = 0 gives the
    label-canonical stream, top = m every string.

    The last s positions (fewer if fewer are left) come from one
    `_tail_table`, s the largest with m^s <= _CHUNK_DESIGNS,
    m^s z <= _CHUNK_DESIGNS^2 (z = 1 without a group) and m^s <= budget,
    so that a short run builds no table it barely reads; the odometer walks
    the positions between the prefix and them, and each of its steps is one
    segment.  Without a group every row is live.  Under one the walk tests
    each prefix it reaches, the given one first, and a prefix that some
    element maps to a smaller one closes its subtree unvisited, as one
    segment.  keys[i] packs each element's image of x[:i] in base m + 2
    (`weights(m)`), unassigned positions read as m + 1 (above every
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
    most = min(_CHUNK_DESIGNS, _CHUNK_DESIGNS ** 2 // z,
               _CHUNK_DESIGNS if budget is None else budget)  # table rows
    width = 0
    while m ** (width + 1) <= most:
        width += 1
    start = len(prefix)
    stop = max(n - width, start)  # the walked positions are start..stop-1
    x = list(prefix) + [1] * (stop - start)
    top = list(itertools.accumulate([top] + x, max))  # top[i]: max before x[i]
    left = budget
    fresh = stop  # the first position to test; none without a group
    if group is not None:
        sizes = _subtree_sizes(n, m)
        w, unset, gates = group.weights(m), m + 1, {}
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
                table = _tail_table(n - stop, top[stop], m)
                rows = table[:left]  # the whole table when left is None
                if group is not None:
                    gate = gates.get(top[stop])
                    if gate is None:
                        gate = gates[top[stop]] = (
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
        fresh = _advance(x, top, q, start, m)
        if fresh < 0:
            return
        if group is None:
            fresh = stop
        else:
            keys[fresh + 1] += w[fresh]  # x[fresh] grew by one


def enumerate_designs(n_design_nodes: int, m: int,
                      use_label_symmetry: bool = True) -> Iterator[Design]:
    """All designs on `n_design_nodes` nodes in lexicographic order.

    Every design's labels are each at most one above the largest before
    it, that largest starting at 0 with label symmetry and at m without.
    So with label symmetry only label-canonical designs are produced:
    treatment labels appear in first-occurrence order, node 1 always
    receives treatment 1, and the stream has sum_k S2(n, k) members
    (k = 1..m); without it, all m^n.  These are the rows, as tuples, of
    the group-free `_stream` that exhaustive search evaluates: the last
    positions from a cached table of lexicographic completions, the ones
    above them walked in order.  Bad sizes raise at the call, not at the
    first design.
    """
    if m < 2 or n_design_nodes < 1:
        raise ValueError("need at least two treatments and one design node")
    stream = _stream(None, (), n_design_nodes, m,
                     0 if use_label_symmetry else m, None)
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
    efficiency = None
    if config.reference_value is not None and best_value is not None:
        efficiency = config.reference_value / best_value
    return SearchReport(
        algorithm=algorithm,
        best_design=best_design,
        best_value=best_value,
        num_eval=counters.evals,
        num_considered=counters.considered,
        num_skipped_noncanonical=counters.skipped,
        num_invalid=counters.invalid,
        num_cache_hits=counters.hits,
        wall_time=wall_time,
        seed=config.seed,
        efficiency=efficiency,
        partial=partial,
    )


def _group_for(net: Network, config: SearchConfig, m: int
               ) -> AutomorphismGroup | None:
    """The group a search prunes with: None when automorphisms are off or
    the network has none but the identity, which would prune nothing.  The
    key table every search reads for labels 1..m, `weights(m)`, is built
    here, once, not in each pool worker."""
    if not config.use_automorphisms:
        return None
    group = find_automorphisms(net, config.max_group_size)
    if group.size == 1:
        return None
    group.weights(m)
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


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one, which a cpuset or `taskset` narrows below the
    machine's CPU count, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

def _plan(n: int, m: int, top: int, workers: int | None,
          budget: int | None
          ) -> tuple[list[tuple[Design, int | None]], int, bool]:
    """Subtree tasks (prefix, local budget) in stream order, the worker
    count, and whether the budget cuts the stream short, for the `_stream`
    that starts from a largest label of `top`.  One worker gets the root
    alone; for a pool, the subtree with the most designs within the budget
    is split until each worker has _TASKS_PER_WORKER tasks or only full
    designs are left.  The budget is the local budget of the
    task it cuts (None elsewhere), and the tasks after that one are
    dropped.

    workers=None means all usable cores (`_usable_cores`), except one for
    a stream (cut to the budget) of fewer than _SERIAL_DESIGNS designs.  On
    a 2-core machine (medians of 9-15 alternating runs, two workers against
    one) the costliest streams timed, rc 4x4 at m = 4 without a group at
    about 8 us a design, break even near 9,200 designs (65.6 against 57.0
    ms at 8,192, 70.4 against 72.1 ms at 9,216, 92.6 against 103.5 ms at
    12,288); example 2 at m = 4, at about 2.6 us a design, near 20,000
    (42.0 against 31.7 ms at 12,288, 48.6 against 42.8 ms at 16,384, 55.7
    against 55.1 ms at 20,480).  At 12,288 the wrong choice costs either of
    them about 10 ms, the least worst loss of the cuts timed.  The cut does
    not grow with the core count: a pool saves at most the stream's serial
    time, about 100 ms at this size even for the costliest streams."""
    if m < 2 or n < 1:
        raise ValueError("need at least two treatments and one design node")
    sizes = _subtree_sizes(n, m)

    def size(prefix: Design) -> int:
        return sizes[n - len(prefix)][max((top, *prefix))]

    def cut(prefixes: list[Design], left: int | None):
        tasks = []
        for prefix in prefixes:
            if left is not None and left < size(prefix):
                return tasks + ([(prefix, left)] if left else [])
            tasks.append((prefix, None))
            left = None if left is None else left - size(prefix)
        return tasks

    partial = budget is not None and budget < size(())
    if workers is None:
        designs = budget if partial else size(())
        workers = 1 if designs < _SERIAL_DESIGNS else _usable_cores()
    tasks = cut([()], budget)
    while workers > 1 and len(tasks) < _TASKS_PER_WORKER * workers:
        open_ = [i for i, (prefix, _) in enumerate(tasks) if len(prefix) < n]
        if not open_:
            break
        i = max(open_, key=lambda i: tasks[i][1] or size(tasks[i][0]))
        prefix, local = tasks[i]
        last = min(max((top, *prefix)) + 1, m)
        tasks[i:i + 1] = cut([prefix + (label,) for label in range(1, last + 1)],
                             local)
    return tasks, workers, partial


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


def _needs_kernel(bounds: np.ndarray, best: float | None) -> np.ndarray:
    """Which designs of a chunk the kernel must value, given their (k, 2)
    screen intervals (lo, hi) from `DesignEvaluator._bounds`, NaN where not
    certified, and the best value the kernel has resolved so far: the
    uncertified ones, and the certified ones whose lo is at most min(best,
    least hi).  Any other design's value lies above that of the design
    with the least hi, or above `best`, so it can be neither the chunk's
    first least value nor an improvement on `best`: it counts as valid
    with no kernel call (the interval reasoning of `_better_by`)."""
    lo, hi = bounds.T
    certified = hi[hi == hi]
    window = certified.min() if len(certified) else np.inf
    if best is not None:
        window = min(best, window)
    return ~(lo > window)


def _subtree_task(state, task: tuple[Design, int | None]):
    """Evaluate one subtree task in chunks of its `_stream`'s live rows;
    returns its counters and its best (value, design), the earliest design
    that reaches the best value.  The serial path and every pool worker,
    with a group or without, run this same loop.

    Each chunk goes through one `_bounds` call, and `_needs_kernel` decides
    on its intervals with the best value the kernel has resolved so far;
    the designs it leaves to the kernel wait in a queue, in stream order,
    and `_value_array` values them at least _CHUNK_DESIGNS at a time, and
    once more at the task's end (`_kernel_best`).  A best that is not yet
    resolved only widens the window, so more designs reach the kernel,
    never fewer.  A lone design with no best yet goes to the kernel
    unscreened: the screen could skip nothing."""
    ev, group, top = state
    prefix, budget = task
    counters = _Counters()
    stream = _stream(group, prefix, ev.net.n_design, ev.spec.m, top, budget)
    best = (None, None)
    queue, queued = [], 0
    for chunk in _chunks(stream, counters):
        if best[0] is None and len(chunk) == 1:
            exact = chunk
        else:
            rows, bounds = ev._bounds(chunk)
            needed = _needs_kernel(bounds, best[0])
            exact = chunk[rows[needed]]
            counters.evals += len(rows) - len(exact)
            counters.invalid += len(chunk) - len(rows)
        if len(exact):
            queue.append(exact)
            queued += len(exact)
        if queued >= _CHUNK_DESIGNS:
            best = _kernel_best(ev, queue, counters, best)
            queue, queued = [], 0
    if queue:
        best = _kernel_best(ev, queue, counters, best)
    return counters, best


def _kernel_best(ev: DesignEvaluator, queue: list[np.ndarray],
                 counters: _Counters, best: tuple[float | None, Design | None]
                 ) -> tuple[float | None, Design | None]:
    """Value the queued designs, in stream order, with one `_value_array`
    call; count them as valid or INVALID, and return the best (value,
    design): the queue's first least value if it is strictly better
    (`_better`) than `best`, else `best`, so a tie keeps the earlier
    design."""
    designs = np.concatenate(queue)
    values = ev._value_array(designs)
    valid = (~np.isnan(values)).nonzero()[0]
    counters.evals += len(valid)
    counters.invalid += len(values) - len(valid)
    if len(valid):
        i = valid[values[valid].argmin()]
        if _better(float(values[i]), best[0]):
            return float(values[i]), tuple(designs[i].tolist())
    return best


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
    top = 0 if config.use_label_symmetry else spec.m  # see `_stream`
    tasks, workers, partial = _plan(net.n_design, spec.m, top, config.workers,
                                    config.max_designs)
    state = (DesignEvaluator(net, spec), group, top)
    counters = _Counters()
    best_value = best_design = None
    # tasks come back in stream order, so keeping the first strict
    # improvement gives the earliest best design
    for task_counters, (value, design) in _run_tasks(
            state, _subtree_task, tasks, workers):
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


def _better_by(y: tuple[float, float], x: tuple[float, float]) -> bool | None:
    """`_better(vy, vx)` decided from intervals (lo, hi) that hold the two
    values: (v, v) for a kernel value, (NaN, NaN) for INVALID.  None when
    the intervals overlap and are not both points, so that only the kernel
    can decide; two values that tie always land here unless both are the
    kernel's."""
    ly, hy = y
    lx, hx = x
    if ly != ly:
        return False
    if lx != lx or hy < lx:
        return True
    if ly > hx or (ly == hy and lx == hx):
        return False
    return None


def _sweep_plan(xs: np.ndarray, cursors: np.ndarray, width: int, m: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """The next `width` candidates of each descent's sweep, as if none
    improves: descent i is at design xs[i] and its cursor, -1 for the start
    design itself, else the index in sweep order (node j // (m - 1), then
    the other labels in increasing order) of its next candidate.  Returns
    the candidates as one (N, n) array, each descent's in sweep order, and
    how many each descent got; a plan stops at the end of its sweep."""
    steps = xs.shape[1] * (m - 1)
    js = cursors[:, None] + np.arange(width)
    counts = np.minimum(steps - cursors, width)
    js = js[np.arange(width) < counts[:, None]]
    owner = np.repeat(np.arange(len(xs)), counts)
    plan = xs[owner]
    moves = (js >= 0).nonzero()[0]
    nodes, r = np.divmod(js[moves], m - 1)
    labels = r + 1 + (r + 1 >= plan[moves, nodes])
    plan[moves, nodes] = labels
    return plan, counts


def _restart_task(state, starts: Sequence[Design]):
    """The descents from a block of start designs, in lockstep on one cache
    keyed by orbit representative.  Each descent sweeps nodes in index
    order trying every other treatment, adopts the first strict
    improvement (`_better`), sweeps again from node 1, and stops after a
    full sweep without one.

    Comparisons run on intervals that hold each orbit's kernel value
    (`_better_by`): a certified orbit's interval from
    `DesignEvaluator._bounds`, or the kernel's value as a point.  The
    descents advance in self-contained rounds.  A round plans every live
    descent's next max(1, _LOOKAHEAD // live) candidates (`_sweep_plan`),
    finds their representatives in one call and screens the new ones, in
    calls of at most _CHUNK_DESIGNS.  Then it walks each descent along its
    plan until it improves, runs out of plan, or meets what only the
    kernel can decide: an orbit the screen did not certify, so that every
    INVALID decision is the kernel's, or a comparison whose intervals
    overlap, which covers every tie.  Such an orbit, and each side of such
    a comparison that is not yet a point, is needed, and so is the orbit
    of each descent that ends its last sweep in the round, unless it is a
    point.  At the round's end `_value_array` values every needed orbit,
    at most _CHUNK_DESIGNS a call, so each comparison the round met is
    decided; a descent that stopped resumes at the same cursor in the next
    round.  A start design is adopted on its bound alone.  So reported
    values are the kernel's bit for bit, and the decisions are those of
    exact values: the counters equal those of running the restarts one
    after another with exact values.

    Returns the orbits the descents reached (planned ones no descent
    reached are left out), each with whether it is valid; the candidates
    the task considered; and each descent's final (value, design)."""
    ev, group = state
    n, m = ev.net.n_design, ev.spec.m
    steps = n * (m - 1)  # candidates in one sweep
    # orbits are keyed by their representative's labels as bytes, which
    # hash faster and take less memory than tuples
    dtype = np.min_scalar_type(m)
    # each screened or valued orbit's interval, None while it is neither
    # certified nor valued
    known: dict[bytes, tuple[float, float] | None] = {}
    reached: dict[bytes, bool] = {}
    xs = np.array(starts, dtype=np.int64)
    cursors = np.full(len(starts), -1)
    current: list = [None] * len(starts)  # each descent's orbit
    live = np.arange(len(starts))
    considered = 0
    while len(live):
        plan, counts = _sweep_plan(xs[live], cursors[live],
                                   max(1, _LOOKAHEAD // len(live)), m)
        if group is not None:
            plan = group.canonical_representatives(plan)
        raw = plan.astype(dtype).tobytes()
        keys = [raw[i:i + n * dtype.itemsize]
                for i in range(0, len(raw), n * dtype.itemsize)]
        fresh = {key: i for i, key in enumerate(keys) if key not in known}
        rows = np.fromiter(fresh.values(), dtype=np.int64, count=len(fresh))
        for i in range(0, len(rows), _CHUNK_DESIGNS):
            chunk = rows[i:i + _CHUNK_DESIGNS]
            used, bounds = ev._bounds(plan[chunk])
            known.update((keys[row], None) for row in chunk.tolist())
            known.update(
                (keys[row], None if lo != lo else (lo, hi))
                for row, (lo, hi) in zip(chunk[used].tolist(),
                                         bounds.tolist()))
        needed: list[bytes] = []
        end = 0
        for i, count in zip(live.tolist(), counts.tolist()):
            j, start = int(cursors[i]), end
            end += count
            for key in keys[start:end]:
                y = known[key]
                if y is None:
                    needed.append(key)
                    break
                better = j < 0 or _better_by(y, known[current[i]])
                if better is None:  # each side that is not yet a point
                    needed += [k for k in (key, current[i])
                               if known[k][0] < known[k][1]]
                    break
                considered += 1
                reached[key] = y[0] == y[0]
                if j < 0:  # the start design
                    current[i], j = key, 0
                    continue
                if better:
                    node, r = divmod(j, m - 1)
                    xs[i, node] = r + 1 + (r + 1 >= xs[i, node])
                    current[i], j = key, 0
                    break  # the rest of the plan is stale
                j += 1
            cursors[i] = j
            if j == steps and known[current[i]][0] < known[current[i]][1]:
                needed.append(current[i])  # its final orbit
        needed = list(dict.fromkeys(needed))
        for i in range(0, len(needed), _CHUNK_DESIGNS):
            chunk = needed[i:i + _CHUNK_DESIGNS]
            designs = np.frombuffer(b"".join(chunk), dtype=dtype)
            values = ev._value_array(designs.reshape(-1, n).astype(np.int64))
            known.update((k, (v, v)) for k, v in zip(chunk, values.tolist()))
        live = live[cursors[live] < steps]
    return reached, considered, [
        (known[k][0], tuple(np.frombuffer(k, dtype=dtype).tolist()))
        for k in current]


def coordinate_descent(net: Network, spec: ModelSpec,
                       config: SearchConfig | None = None) -> SearchReport:
    """Cyclic coordinate descent from `restarts` seeded random starting
    designs, pooling the best result.  num_eval counts distinct evaluations
    (orbit representatives when automorphisms are on); the reported best
    design is the evaluated representative.  The restarts run as one
    contiguous block per worker; a trajectory depends only on (seed,
    restart index), so results are identical for any worker count;
    workers=None means all usable cores.  max_designs is refused: a descent
    has no stream to cut."""
    config = config or SearchConfig(algorithm="coordinate_descent")
    if config.max_designs is not None:
        raise ValueError("max_designs applies to exhaustive search only; "
                         "coordinate descent ends on its own")
    t0 = time.perf_counter()
    group = _group_for(net, config, spec.m)
    starts = [_start_design(config.seed, r, net.n_design, spec.m)
              for r in range(config.restarts)]
    workers = _usable_cores() if config.workers is None else config.workers
    blocks = min(workers, config.restarts)
    tasks = [starts[len(starts) * i // blocks:len(starts) * (i + 1) // blocks]
             for i in range(blocks)]
    best_value = best_design = None
    merged: dict[bytes, bool] = {}
    counters = _Counters()
    state = (DesignEvaluator(net, spec), group)
    for reached, considered, finals in _run_tasks(state, _restart_task, tasks,
                                                  workers):
        merged.update(reached)
        counters.considered += considered
        for value, design in finals:
            if _better(value, best_value):
                best_value, best_design = value, design
    counters.evals = sum(merged.values())
    counters.invalid = len(merged) - counters.evals
    counters.hits = counters.considered - len(merged)
    return _make_report("coordinate_descent", config, counters, best_design,
                        best_value, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# pluggable loop

def run_with_plugins(net: Network, spec: ModelSpec,
                     next_fn: Callable[[list, list], Sequence[int] | None],
                     stop_fn: Callable[[list, list, int], bool] | None,
                     config: SearchConfig | None = None) -> SearchReport:
    """The generic loop with user-supplied candidate and stopping rules.

    next_fn(xs, ds) receives the candidates so far and their values (None for
    candidates that were skipped as non-canonical or were not estimable) and
    returns the next design, or None to end the stream; it is first called
    with empty histories to supply the initial design.  stop_fn(xs, ds,
    num_eval) is consulted after each candidate is processed.  A safety
    budget (max_designs, else 10^7) guards non-terminating rules; hitting it
    flags the report partial.  Each candidate is checked once, by the rule
    of `DesignEvaluator.values`, before the canonicity gate: one of the
    wrong length or with a label outside 1..m raises whatever the group.
    Each candidate is kept, in the histories and as the best design, as the
    `Design` tuple of ints that its labels name, whether next_fn gave a
    tuple, a list or an array, of ints or of whole-number floats."""
    config = config or SearchConfig()
    t0 = time.perf_counter()
    group = _group_for(net, config, spec.m)
    ev = DesignEvaluator(net, spec)
    counters = _Counters()
    best_value = best_design = None
    budget = config.max_designs if config.max_designs is not None else _SAFETY_BUDGET
    xs: list[Design] = []
    ds: list[float | None] = []
    partial = False
    x = next_fn(xs, ds)
    while x is not None:
        checked = _design_batch([x], net.n_design, spec.m)
        x = tuple(checked[0].tolist())
        counters.considered += 1
        if group is not None and group._keys(checked)[0].argmin():
            counters.skipped += 1  # the identity's key is not the least
            value = None
        else:
            value = ev._value_array(checked).item()
            value = value if value == value else None
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
    if config.algorithm == "exhaustive":
        return exhaustive_search(net, spec, config)
    return coordinate_descent(net, spec, config)
