"""One measured job of one workload, run in a fresh process:

    python3 perfbench/child.py --workload NAME --mode MODE --search-seed N [--rep R] [--spans PATH]

MODE is `setup` (everything paid before the first candidate is evaluated),
`wall` (one untraced search from network construction to the returned
report) or `trace` (the same search with spans recorded around the public
calls into each layer).  Every job checks its results.  The last line of
stdout is one JSON object with the measurements and the list of failed
checks; the exit code is 1 when any check failed or the job raised.

The library is imported from the `src/` directory beside this one, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import netdesign as nd  # noqa: E402
from netdesign import automorph, lnem, search  # noqa: E402

from checks import oracle_errors, pinned_errors, report_errors  # noqa: E402
from spans import Tracer, layer_stats, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EIGH_SAMPLES = 256


def build_network(wl: dict) -> nd.Network:
    kind, arg = wl["network"]
    if kind == "blocks":
        return nd.augment_blocks(list(arg), wl["m"])
    if kind == "row_column":
        return nd.augment_row_column(*arg, wl["m"])
    return nd.example_network(arg)


def search_config(wl: dict, search_seed: int, **overrides) -> nd.SearchConfig:
    return nd.SearchConfig(algorithm=wl["algorithm"], seed=search_seed,
                           workers=wl["workers"],
                           restarts=wl.get("restarts", nd.SearchConfig.restarts),
                           **overrides)


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak among its reaped
    children (the pool workers, when there are any)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def result_errors(wl: dict, search_seed: int, net, report: dict) -> list[str]:
    errors = report_errors(report)
    if not wl.get("seeded") or search_seed == 0:
        errors += pinned_errors(report, wl["pinned"])
    if report["best_design"] is not None and report["best_value"] is not None:
        errors += oracle_errors(net, wl["m"], report["best_design"],
                                report["best_value"])
    return errors


def group_errors(wl: dict, group) -> list[str]:
    if len(group) != wl["group_size"]:
        return [f"group size {len(group)} != closed form {wl['group_size']}"]
    return []


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            threads = next(int(line.split()[1]) for line in fh
                           if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "process_threads": threads}


def job_setup(wl: dict, search_seed: int, rep: int) -> dict:
    """Exhaustive workloads: a run cut to one candidate, which pays group
    search, position maps, evaluator and pool start, and one evaluation.
    Coordinate descent: the same steps called one by one, as
    `coordinate_descent` makes them before its first candidate."""
    errors = []
    t0 = time.perf_counter()
    net = build_network(wl)
    spec = nd.ModelSpec.for_network(net, wl["m"])
    if wl["algorithm"] == "exhaustive":
        report = nd.run_search(net, spec, search_config(wl, search_seed,
                                                        max_designs=1))
        setup_s = time.perf_counter() - t0
        if not report.partial or report.num_considered != 1:
            errors.append("one-candidate run was not cut after one candidate")
        group = nd.find_automorphisms(net) if rep == 0 else None
    else:
        group = nd.find_automorphisms(net)
        group.design_images((1,) * net.n_design)
        nd.DesignEvaluator(net, spec)
        setup_s = time.perf_counter() - t0
    if group is not None:
        errors += group_errors(wl, group)
    return {"setup_s": setup_s, "errors": errors}


def job_wall(wl: dict, search_seed: int) -> dict:
    t0 = time.perf_counter()
    net = build_network(wl)
    spec = nd.ModelSpec.for_network(net, wl["m"])
    report = nd.run_search(net, spec, search_config(wl, search_seed))
    wall_s = time.perf_counter() - t0
    return {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb(),
            "report_json": report.to_json(exclude_wall_time=True),
            "errors": result_errors(wl, search_seed, net, report.to_dict())}


class _Sampler:
    """Keeps an evenly thinned sample of at most EIGH_SAMPLES model
    matrices: every `step`-th call, with the step doubling (and every other
    kept matrix dropped) whenever the sample fills up."""

    def __init__(self):
        self.kept: list[np.ndarray] = []
        self.step = 1
        self.calls = 0

    def offer(self, f: np.ndarray) -> None:
        if self.calls % self.step == 0:
            self.kept.append(f)
            if len(self.kept) >= EIGH_SAMPLES:
                self.kept = self.kept[::2]
                self.step *= 2
        self.calls += 1


def _instrument(tracer: Tracer, sampler: _Sampler, groups: list):
    """Wrap the public layer calls; returns the (owner, attribute, original)
    triples to restore."""
    originals = [
        (search, "find_automorphisms", search.find_automorphisms),
        (automorph.AutomorphismGroup, "is_canonical",
         automorph.AutomorphismGroup.is_canonical),
        (automorph.AutomorphismGroup, "canonical_representative",
         automorph.AutomorphismGroup.canonical_representative),
        (lnem.DesignEvaluator, "model_matrix", lnem.DesignEvaluator.model_matrix),
        (lnem, "evaluate_criterion", lnem.evaluate_criterion),
    ]
    traced_group = tracer.wrap("automorph.group", search.find_automorphisms)
    traced_matrix = tracer.wrap("lnem.model_matrix",
                                lnem.DesignEvaluator.model_matrix)

    def find_automorphisms(*args, **kwargs):
        group = traced_group(*args, **kwargs)
        groups.append(group)
        return group

    def model_matrix(self, x):
        f = traced_matrix(self, x)
        sampler.offer(f)
        return f

    search.find_automorphisms = find_automorphisms
    automorph.AutomorphismGroup.is_canonical = tracer.wrap(
        "automorph.canon", automorph.AutomorphismGroup.is_canonical)
    automorph.AutomorphismGroup.canonical_representative = tracer.wrap(
        "automorph.rep", automorph.AutomorphismGroup.canonical_representative)
    lnem.DesignEvaluator.model_matrix = model_matrix
    lnem.evaluate_criterion = tracer.wrap("lnem.criterion",
                                          lnem.evaluate_criterion)
    return originals


def eigh_us_p50(matrices: list[np.ndarray]) -> float:
    """Median over the sample of the fastest of three np.linalg.eigh calls
    on each matrix's F'F."""
    best = []
    for f in matrices:
        info = f.T @ f
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            np.linalg.eigh(info)
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    return percentile(best, 50) * 1e6


def enumerate_us(n: int, m: int, count: int) -> float:
    """Per-candidate time of the first `count` designs of the
    label-canonical stream, iterated by themselves."""
    stream = itertools.islice(search.enumerate_designs(n, m), count)
    t0 = time.perf_counter()
    done = sum(1 for _ in stream)
    return (time.perf_counter() - t0) / max(done, 1) * 1e6


def job_trace(wl: dict, name: str, search_seed: int, rep: int,
              spans_path: str | None) -> dict:
    tracer = Tracer(f"{name}/{search_seed}/{rep}")
    sampler = _Sampler()
    groups: list = []
    originals = _instrument(tracer, sampler, groups)
    try:
        root = tracer.begin("workload")
        with tracer.span("network.build"):
            net = build_network(wl)
        spec = nd.ModelSpec.for_network(net, wl["m"])
        report = nd.run_search(net, spec, search_config(wl, search_seed))
        tracer.end(root)
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)

    d = report.to_dict()
    errors = result_errors(wl, search_seed, net, d)
    for group in groups:
        errors += group_errors(wl, group)
    wall = tracer.ends[root] - tracer.starts[root]
    stats = layer_stats(tracer)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "us_p50": 0.0,
            "us_p99": 0.0}
    build, group_s, canon, rep_, matrix, crit = (
        stats.get(k, zero) for k in ("network.build", "automorph.group",
                                     "automorph.canon", "automorph.rep",
                                     "lnem.model_matrix", "lnem.criterion"))
    considered = d["num_considered"]
    samples = sampler.kept
    if not samples:
        # the evaluations ran in pool workers, out of this process's sight:
        # sample the same stream's model matrices here instead
        ev = nd.DesignEvaluator(net, spec)
        stream = search.enumerate_designs(net.n_design, spec.m)
        step = max(1, considered // EIGH_SAMPLES)
        samples = [ev.model_matrix(x) for x in
                   itertools.islice(stream, 0, considered, step)]
    layers = {
        "network.build_s": build["total_s"],
        "automorph.group_s": group_s["total_s"],
        "automorph.group_size": len(groups[0]) if groups else 0,
        "automorph.canon_calls": canon["calls"],
        "automorph.canon_s": canon["total_s"],
        "automorph.canon_us_p50": canon["us_p50"],
        "automorph.canon_us_p99": canon["us_p99"],
        "automorph.canon_share": canon["total_s"] / wall,
        "automorph.skip_ratio": d["num_skipped_noncanonical"] / considered,
        "automorph.rep_calls": rep_["calls"],
        "automorph.rep_s": rep_["total_s"],
        "automorph.rep_us_p50": rep_["us_p50"],
        "automorph.rep_us_p99": rep_["us_p99"],
        "automorph.rep_share": rep_["total_s"] / wall,
        "lnem.model_matrix_calls": matrix["calls"],
        "lnem.model_matrix_s": matrix["total_s"],
        "lnem.model_matrix_us_p50": matrix["us_p50"],
        "lnem.criterion_calls": crit["calls"],
        "lnem.criterion_s": crit["total_s"],
        "lnem.criterion_us_p50": crit["us_p50"],
        "lnem.criterion_us_p99": crit["us_p99"],
        "lnem.share": (matrix["total_s"] + crit["total_s"]) / wall,
        "lnem.invalid_ratio": (d["num_invalid"]
                               / max(1, d["num_eval"] + d["num_invalid"])),
        "lnem.eigh_us_p50": eigh_us_p50(samples),
        "search.considered": considered,
        "search.evaluated": d["num_eval"],
        "search.skipped": d["num_skipped_noncanonical"],
        "search.invalid": d["num_invalid"],
        "search.cache_hits": d["num_cache_hits"],
        "search.cache_hit_ratio": d["num_cache_hits"] / considered,
        "search.enumerate_us": enumerate_us(net.n_design, spec.m, considered),
        "search.self_s": stats["workload"]["self_s"],
        "search.self_share": stats["workload"]["self_s"] / wall,
        "trace.wall_s": wall,
    }
    if spans_path:
        tracer.write(spans_path)
    return {"layers": layers,
            "report_json": report.to_json(exclude_wall_time=True),
            "errors": errors}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--mode", required=True, choices=("setup", "wall", "trace"))
    p.add_argument("--search-seed", type=int, required=True)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    # before the job, so that the thread count is the interpreter's and
    # OpenBLAS's, not that of a pool still shutting down
    env = environment()
    try:
        if not Path(nd.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"netdesign imported from {nd.__file__}, not {SRC}")
        if args.mode == "setup":
            out = job_setup(wl, args.search_seed, args.rep)
        elif args.mode == "wall":
            out = job_wall(wl, args.search_seed)
        else:
            out = job_trace(wl, args.workload, args.search_seed, args.rep,
                            args.spans)
    except Exception as exc:  # reported to the orchestrator as a failed job
        traceback.print_exc()
        out = {"errors": [f"{type(exc).__name__}: {exc}"]}
    out["env"] = env
    print(json.dumps(out))
    return 1 if out["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
