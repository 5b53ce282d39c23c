"""Design-space search with automorphism orbit pruning.

The generic loop is: pick a candidate design, evaluate the criterion only if
the candidate is the lexicographically first member of its automorphism
orbit, then let a `next` rule pick the following candidate until a `stop`
rule fires.  Two instantiations ship here: exhaustive lexicographic search
(optionally restricted to label-canonical designs, where the first occurrence
of treatment j precedes the first occurrence of j+1) and cyclic coordinate
descent with seeded random restarts.  When the automorphism group is
non-trivial, exhaustive search walks its stream depth first and tests each
prefix: a prefix that some automorphism maps to a smaller one has no
canonical completion, so its whole subtree is counted as considered and
skipped without being enumerated.  The counters therefore equal those of
gating every design one by one.  Coordinate descent never skips
candidates; instead the evaluation cache is keyed by orbit representative so
equivalent designs are computed once.

Exhaustive search evaluates its canonical designs in chunks of
_CHUNK_DESIGNS, one batched criterion call (`DesignEvaluator.values`) per
chunk, in one chunk loop: the serial path runs it over the whole stream and
each pool worker runs it over the chunks it is sent, so serial = worker.
All searches are deterministic given the seed, including under the
multi-process mode (`workers > 1`), which partitions work but merges
counters and ties in a fixed order.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import time
from dataclasses import dataclass, asdict
from typing import Callable, Iterable, Iterator

import numpy as np

from .automorph import AutomorphismGroup, find_automorphisms
from .lnem import Design, DesignEvaluator, ModelSpec
from .network import Network

_SAFETY_BUDGET = 10_000_000
# designs per batched evaluation, and per task sent to a pool worker
_CHUNK_DESIGNS = 256
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


def _check_stream_shape(n_design_nodes: int, m: int) -> None:
    if m < 2:
        raise ValueError("need at least two treatments")
    if n_design_nodes < 1:
        raise ValueError("need at least one design node")


def enumerate_designs(n_design_nodes: int, m: int,
                      use_label_symmetry: bool = True) -> Iterator[Design]:
    """All designs on `n_design_nodes` nodes in lexicographic order.

    With label symmetry only label-canonical designs are produced: treatment
    labels appear in first-occurrence order, so node 1 always receives
    treatment 1 and the stream has sum_k S2(n, k) members (k = 1..m) instead
    of m^n.
    """
    _check_stream_shape(n_design_nodes, m)
    if not use_label_symmetry:
        yield from itertools.product(range(1, m + 1), repeat=n_design_nodes)
        return
    n = n_design_nodes
    x = [1] * n
    prefix_max = [1] * n
    while True:
        yield tuple(x)
        i = n - 1
        while i >= 1:
            cap = prefix_max[i - 1] + 1 if prefix_max[i - 1] < m else m
            if x[i] < cap:
                x[i] += 1
                prefix_max[i] = x[i] if x[i] > prefix_max[i - 1] else prefix_max[i - 1]
                for j in range(i + 1, n):
                    x[j] = 1
                    prefix_max[j] = prefix_max[j - 1]
                break
            i -= 1
        else:
            return


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
# exhaustive search

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


def _pruned_segments(group: AutomorphismGroup, n: int, m: int,
                     use_label_symmetry: bool) -> Iterator[tuple[int, Design | None]]:
    """The `enumerate_designs` stream, in order, walked depth first as
    segments (size, design): (1, x) for a canonical design x, or (size, None)
    for `size` consecutive designs none of which is canonical.  A prefix that
    some group element maps to a smaller one closes its whole subtree
    unvisited; full designs get the same test, which is exact at length n."""
    _check_stream_shape(n, m)
    sizes = _subtree_sizes(n, m, use_label_symmetry)
    x = [1] * n

    def walk(depth: int, top: int) -> Iterator[tuple[int, Design | None]]:
        # top: the largest label in x[:depth]
        last = min(top + 1, m) if use_label_symmetry else m
        for label in range(1, last + 1):
            x[depth] = label
            new_top = max(top, label)
            if group.prefix_has_smaller_image(x, depth + 1):
                yield sizes[n - depth - 1][new_top], None
            elif depth + 1 == n:
                yield 1, tuple(x)
            else:
                yield from walk(depth + 1, new_top)

    return walk(0, 0)


class _Stream:
    """The design stream cut after `budget` designs.  Iterating yields the
    canonical designs, to evaluate; the designs of dead segments are only
    counted, in `dead`.  `partial` is set once the budget cut designs off."""

    def __init__(self, segments: Iterable[tuple[int, Design | None]],
                 budget: int | None):
        self.segments = segments
        self.budget = budget
        self.dead = 0
        self.partial = False

    def __iter__(self) -> Iterator[Design]:
        seen = 0
        for size, x in self.segments:
            if self.budget is not None and seen + size > self.budget:
                self.partial = True
                if x is None:
                    self.dead += self.budget - seen
                return
            seen += size
            if x is None:
                self.dead += size
            else:
                yield x


def _chunked(stream: Iterator[Design], size: int) -> Iterator[list[Design]]:
    while True:
        chunk = list(itertools.islice(stream, size))
        if not chunk:
            return
        yield chunk


def _scan(designs: Iterable[Design], ev: DesignEvaluator,
          counters: _Counters) -> tuple[float | None, Design | None]:
    """Evaluate canonical designs in order, _CHUNK_DESIGNS per batched
    kernel call; the best value goes to the earliest design reaching it.
    The serial path and every pool worker run this same loop."""
    best_value = best_design = None
    for chunk in _chunked(iter(designs), _CHUNK_DESIGNS):
        values = ev.values(chunk)
        counters.considered += len(chunk)
        invalid = values.count(None)
        counters.invalid += invalid
        counters.evals += len(chunk) - invalid
        for x, value in zip(chunk, values):
            if _better(value, best_value):
                best_value, best_design = value, x
    return best_value, best_design


_worker_state: dict = {}


def _exhaustive_worker_init(net, spec):
    _worker_state["ev"] = DesignEvaluator(net, spec)


def _exhaustive_worker_chunk(designs: list[Design]):
    counters = _Counters()
    value, design = _scan(designs, _worker_state["ev"], counters)
    return counters, value, design


def _exhaustive_parallel(stream: Iterable[Design], net: Network,
                         spec: ModelSpec, counters: _Counters,
                         workers: int) -> tuple[float | None, Design | None]:
    """Chunks of the stream go to a fork pool; results come back in chunk
    order, so keeping the first strict improvement gives the serial tie-break."""
    best_value = None
    best_design = None
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_exhaustive_worker_init,
                  initargs=(net, spec)) as pool:
        for chunk_counters, value, design in pool.imap(
                _exhaustive_worker_chunk, _chunked(iter(stream), _CHUNK_DESIGNS)):
            if _better(value, best_value):
                best_value, best_design = value, design
            counters.considered += chunk_counters.considered
            counters.evals += chunk_counters.evals
            counters.invalid += chunk_counters.invalid
    return best_value, best_design


def exhaustive_search(net: Network, spec: ModelSpec,
                      config: SearchConfig | None = None) -> SearchReport:
    """Evaluate the whole (optionally label-canonical) design stream in
    lexicographic order, skipping designs that are not first in their
    automorphism orbit.  Ties go to the earlier design.  If max_designs cuts
    the stream short, the report is flagged partial.

    With a non-trivial group the stream is walked depth first and a prefix
    that some automorphism maps to a smaller one closes its whole subtree:
    those designs are counted as considered and skipped but never
    enumerated, so every counter equals that of gating each design."""
    config = config or SearchConfig()
    t0 = time.perf_counter()
    group = _group_for(net, config)
    n, m = net.n_design, spec.m
    if group is not None and group.size > 1:
        segments = _pruned_segments(group, n, m, config.use_label_symmetry)
    else:  # under a trivial group every design is canonical
        segments = ((1, x) for x in
                    enumerate_designs(n, m, config.use_label_symmetry))
    stream = _Stream(segments, config.max_designs)
    counters = _Counters()
    if config.workers > 1:
        best_value, best_design = _exhaustive_parallel(
            stream, net, spec, counters, config.workers)
    else:
        best_value, best_design = _scan(stream, DesignEvaluator(net, spec),
                                        counters)
    counters.considered += stream.dead
    counters.skipped += stream.dead
    return _make_report("exhaustive", config, counters, best_design, best_value,
                        time.perf_counter() - t0, partial=stream.partial)


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


def _cd_worker_init(net, spec, group, seed, m):
    _worker_state["ev"] = DesignEvaluator(net, spec)
    _worker_state["group"] = group
    _worker_state["seed"] = seed
    _worker_state["m"] = m
    _worker_state["n"] = net.n_design
    if group is not None:
        group._inverse_position_maps()


def _cd_worker_restart(restart: int):
    call = _CachedCall(_worker_state["ev"], _worker_state["group"])
    n, m = _worker_state["n"], _worker_state["m"]
    start = _start_design(_worker_state["seed"], restart, n, m)
    value, design = _descend(start, call, n, m)
    return call.cache, call.considered, value, design


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
    n, m = net.n_design, spec.m
    best_value: float | None = None
    best_design: Design | None = None
    considered = 0
    merged: dict[Design, float | None] = {}

    if config.workers > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(config.workers, initializer=_cd_worker_init,
                      initargs=(net, spec, group, config.seed, m)) as pool:
            results = pool.map(_cd_worker_restart, range(config.restarts))
        for cache, was_considered, value, design in results:
            merged.update(cache)
            considered += was_considered
            if _better(value, best_value):
                best_value, best_design = value, design
    else:
        ev = DesignEvaluator(net, spec)
        call = _CachedCall(ev, group, cache=merged)
        for restart in range(config.restarts):
            start = _start_design(config.seed, restart, n, m)
            value, design = _descend(start, call, n, m)
            if _better(value, best_value):
                best_value, best_design = value, design
        considered = call.considered

    counters = _Counters(considered=considered)
    counters.evals = sum(1 for v in merged.values() if v is not None)
    counters.invalid = sum(1 for v in merged.values() if v is None)
    counters.hits = considered - counters.evals - counters.invalid
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
