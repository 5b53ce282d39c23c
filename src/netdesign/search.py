"""Design-space search with automorphism orbit pruning.

The generic loop is: pick a candidate design, evaluate the criterion only if
the candidate is the lexicographically first member of its automorphism
orbit, then let a `next` rule pick the following candidate until a `stop`
rule fires.  Two instantiations ship here: exhaustive lexicographic search
(optionally restricted to label-canonical designs, where the first occurrence
of treatment j precedes the first occurrence of j+1) and cyclic coordinate
descent with seeded random restarts.

Exhaustive search walks its stream with one odometer (`_segments`) that,
under a non-trivial group, closes the subtree of any prefix that some
automorphism maps to a smaller one: those designs are counted as considered
and skipped, so every counter equals that of gating each design.  Coordinate
descent never skips; its cache is keyed by orbit representative instead.
Both run as tasks on one runner (`_run_tasks`): subtrees of the stream,
evaluated _CHUNK_DESIGNS per batched `DesignEvaluator.values` call, or
restarts.  One worker runs them in this process, more run the same code on a
process pool, and results merge in task order, so reports do not depend on
the worker count.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import time
from dataclasses import asdict, dataclass, fields
from operator import itemgetter
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


def _segments(group: AutomorphismGroup | None, prefix: Sequence[int], n: int,
              m: int, use_label_symmetry: bool
              ) -> Iterator[tuple[int, Design | None]]:
    """The stream designs that start with `prefix`, in lexicographic order,
    as segments (size, design): (1, x) for a design to evaluate, or
    (size, None) for `size` consecutive designs none of which is canonical.
    With a non-trivial group the odometer tests each prefix it reaches, the
    given one first; a prefix that some element maps to a smaller one closes
    its subtree unvisited.  At length n the test is exact."""
    if m < 2 or n < 1:
        raise ValueError("need at least two treatments and one design node")
    test = group is not None and group.size > 1
    sizes = _subtree_sizes(n, m, use_label_symmetry) if test else None
    start, last, free = len(prefix), n - 1, not use_label_symmetry
    x = list(prefix) + [1] * (n - start)
    top = list(itertools.accumulate([0] + x, max))  # top[i]: max of x[:i]
    fresh = max(start - 1, 0)  # from here on, prefixes are untested
    while True:
        q = last  # the position to advance next
        if test:
            for q in range(fresh, n):
                if group.prefix_has_smaller_image(x, q + 1):
                    yield sizes[last - q][top[q + 1]], None
                    break
            else:
                yield 1, tuple(x)
        else:
            yield 1, tuple(x)
        # advance the deepest position at or above q that can still grow
        while q >= start:
            v = x[q]
            if v < m and (free or v <= top[q]):
                break
            q -= 1
        else:
            return
        v = x[q] = x[q] + 1
        t = top[q] if top[q] > v else v
        top[q + 1] = t
        if q < last:
            for i in range(q + 1, n):
                x[i] = 1
                top[i + 1] = t
        fresh = q


def enumerate_designs(n_design_nodes: int, m: int,
                      use_label_symmetry: bool = True) -> Iterator[Design]:
    """All designs on `n_design_nodes` nodes in lexicographic order.

    With label symmetry only label-canonical designs are produced: treatment
    labels appear in first-occurrence order, so node 1 always receives
    treatment 1 and the stream has sum_k S2(n, k) members (k = 1..m) instead
    of m^n.  This is the group-free walk of `_segments`.
    """
    return map(itemgetter(1), _segments(None, (), n_design_nodes, m,
                                         use_label_symmetry))


def _better(a: float | None, b: float | None) -> bool:
    """Strictly better criterion value; INVALID (None) loses to anything."""
    return a is not None and (b is None or a < b)


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


def _group_for(net: Network, config: SearchConfig) -> AutomorphismGroup | None:
    if not config.use_automorphisms:
        return None
    return find_automorphisms(net, config.max_group_size)


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


def _live(segments: Iterable[tuple[int, Design | None]], budget: int | None,
          counters: _Counters) -> Iterator[Design]:
    """Yield the designs to evaluate among the first `budget` (all if None)
    of the segments' designs; count the rest as considered and skipped."""
    left = budget
    for size, x in segments:
        if left is not None:
            size = min(size, left)
            left -= size
        if x is None:
            counters.considered += size
            counters.skipped += size
        else:
            yield x
        if left == 0:
            return


def _subtree_task(state, task: tuple[Design, int | None]):
    """Walk, prune and evaluate one subtree task, _CHUNK_DESIGNS canonical
    designs per batched kernel call; returns its counters and its best
    (value, design), the earliest design that reaches the best value.  The
    serial path and every pool worker run this same loop."""
    ev, group, use_label_symmetry = state
    prefix, budget = task
    counters = _Counters()
    designs = _live(_segments(group, prefix, ev.net.n_design, ev.spec.m,
                              use_label_symmetry), budget, counters)
    best_value = best_design = None
    while chunk := list(itertools.islice(designs, _CHUNK_DESIGNS)):
        values = ev.values(chunk)
        counters.considered += len(chunk)
        invalid = values.count(None)
        counters.invalid += invalid
        counters.evals += len(chunk) - invalid
        for x, value in zip(chunk, values):
            if _better(value, best_value):
                best_value, best_design = value, x
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
    group = _group_for(net, config)
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


def _descend(start: Design, call: Callable, n: int, m: int):
    """One descent: sweep nodes in index order trying every other treatment;
    adopt the first strict improvement and restart the sweep from node 1;
    stop after a full improvement-free sweep.  Returns the final (value,
    orbit-representative design)."""
    x = list(start)
    vx, kx = call(tuple(x))
    while True:
        improved = False
        for node in range(n):
            current = x[node]
            for t in range(1, m + 1):
                if t == current:
                    continue
                x[node] = t
                cand = tuple(x)
                x[node] = current
                vy, ky = call(cand)
                if _better(vy, vx):
                    x[node] = t
                    vx, kx = vy, ky
                    improved = True
                    break
            if improved:
                break
        if not improved:
            return vx, kx


class _CachedCall:
    """Criterion evaluation memoized by orbit representative (or by the raw
    design when no group is in play).  The representative itself is what gets
    evaluated, so a cached value is a pure function of the key."""

    def __init__(self, ev: DesignEvaluator, group: AutomorphismGroup | None,
                 cache: dict | None = None):
        self.ev = ev
        self.group = group
        self.cache: dict[Design, float | None] = cache if cache is not None else {}
        self.considered = 0

    def __call__(self, x: Design):
        self.considered += 1
        key = self.group.canonical_representative(x) if self.group is not None else x
        if key in self.cache:
            return self.cache[key], key
        value = self.ev.value(key)
        self.cache[key] = value
        return value, key


def _restart_task(state, restart: int):
    """One descent on the cache that the process keeps across restarts;
    returns the entries it added, the candidates it considered and its
    final (value, design)."""
    ev, group, seed, cache = state
    n, m, known = ev.net.n_design, ev.spec.m, len(cache)
    call = _CachedCall(ev, group, cache)
    value, design = _descend(_start_design(seed, restart, n, m), call, n, m)
    added = dict(itertools.islice(cache.items(), known, None))
    return added, call.considered, value, design


def coordinate_descent(net: Network, spec: ModelSpec,
                       config: SearchConfig | None = None) -> SearchReport:
    """Cyclic coordinate descent from `restarts` seeded random starting
    designs, pooling the best result.  num_eval counts distinct evaluations
    (orbit representatives when automorphisms are on); the reported best
    design is the evaluated representative.  Per-restart trajectories depend
    only on (seed, restart index), so results are identical for any worker
    count."""
    config = config or SearchConfig(algorithm="coordinate_descent")
    t0 = time.perf_counter()
    group = _group_for(net, config)
    best_value = best_design = None
    merged: dict[Design, float | None] = {}
    counters = _Counters()
    state = (DesignEvaluator(net, spec), group, config.seed, {})
    for added, considered, value, design in _run_tasks(
            state, _restart_task, range(config.restarts), config.workers):
        merged.update(added)
        counters.considered += considered
        if _better(value, best_value):
            best_value, best_design = value, design
    counters.evals = sum(1 for v in merged.values() if v is not None)
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
