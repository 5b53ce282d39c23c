"""The benchmark's workloads and metrics: one table each, read by the
orchestrator (`run.py`), the measuring child (`child.py`) and the manifest
writer.  Importing this module pulls in no numpy and no netdesign code.

Each workload is chosen so that one layer dominates it and another barely
runs; the `why` text records that, with the layer shares a traced run
measured (seed 0, 2-core Xeon, one OpenBLAS thread).
"""

from __future__ import annotations

from math import factorial

WORKLOADS = {
    "blocks4x3-m3": {
        "network": ("blocks", (3, 3, 3, 3)),
        "m": 3,
        "algorithm": "exhaustive",
        "workers": 1,
        "group_size": factorial(3) ** 4 * factorial(4),
        "pinned": {"considered": 88574, "evaluated": 369, "skipped": 88118,
                   "invalid": 87, "cache_hits": 0,
                   "best_value": 0.4999999999999995},
        "why": ("Largest group under the cap (z=31104): is_canonical is 89% of "
                "traced wall over 88574 candidates, lnem 2%; group search is most "
                "of setup_s and memory. Stresses the canonicity gate."),
    },
    "ex2-m4": {
        "network": ("example", 2),
        "m": 4,
        "algorithm": "exhaustive",
        "workers": 1,
        "group_size": 1,  # measured: example 2 has no nontrivial automorphism
        "pinned": {"considered": 43947, "evaluated": 32614, "skipped": 0,
                   "invalid": 11333, "cache_hits": 0,
                   "best_value": 1.0589970501475008},
        "why": ("Trivial group (z=1): lnem model matrix + criterion are 80% of "
                "traced wall over 43947 candidates (11333 invalid), the gate 11%. "
                "Stresses evaluation; the gate barely runs."),
    },
    "ex2-m4-w2": {
        "network": ("example", 2),
        "m": 4,
        "algorithm": "exhaustive",
        "workers": 2,
        "group_size": 1,
        "pinned": {"considered": 43947, "evaluated": 32614, "skipped": 0,
                   "invalid": 11333, "cache_hits": 0,
                   "best_value": 1.0589970501475008},
        # the report must be byte-identical to this serial workload's
        "reference": "ex2-m4",
        "why": ("ex2-m4 on the fork pool with 2 workers (= nproc, the CLI default):"
                " the only workload on chunking and merge; its report must equal "
                "that of ex2-m4 byte for byte. Gives parallel efficiency."),
    },
    "rc4x4-m4-cd": {
        "network": ("row_column", (4, 4)),
        "m": 4,
        "algorithm": "coordinate_descent",
        "restarts": 20,
        "workers": 1,
        "group_size": factorial(4) * factorial(4) * 2,
        # coordinate descent draws its start designs from the search seed;
        # these counts hold for search seed 0 only
        "seeded": True,
        "pinned": {"considered": 5386, "evaluated": 4631, "skipped": 0,
                   "invalid": 13, "cache_hits": 742,
                   "best_value": 0.5555555555555557},
        "why": ("Coordinate descent, 20 restarts: canonical_representative scans "
                "all z=1152 elements, 63% of traced wall; criterion 34%; no "
                "canonicity gate; the only workload with cache hits."),
    },
}

# seeds of successive repetitions of a seeded workload within one run:
# --seed s gives search seeds s*SEED_STRIDE, s*SEED_STRIDE + 1, ...
SEED_STRIDE = 1000


def search_seed(workload: str, seed: int, rep: int) -> int:
    """The SearchConfig seed of repetition `rep` of a run with `seed`.
    Exhaustive search does not draw from its seed, so it is passed through."""
    if WORKLOADS[workload].get("seeded"):
        return seed * SEED_STRIDE + rep
    return seed


RUN_SECONDS = 30

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better)
PER_LAYER = [
    ("network.build_s", "s", "lower"),
    ("automorph.group_s", "s", "lower"),
    ("automorph.group_size", "count", "lower"),
    ("automorph.canon_calls", "count", "lower"),
    ("automorph.canon_s", "s", "lower"),
    ("automorph.canon_us_p50", "us", "lower"),
    ("automorph.canon_us_p99", "us", "lower"),
    ("automorph.canon_share", "ratio", "lower"),
    ("automorph.skip_ratio", "ratio", "higher"),
    ("automorph.rep_calls", "count", "lower"),
    ("automorph.rep_s", "s", "lower"),
    ("automorph.rep_us_p50", "us", "lower"),
    ("automorph.rep_us_p99", "us", "lower"),
    ("automorph.rep_share", "ratio", "lower"),
    ("lnem.model_matrix_calls", "count", "lower"),
    ("lnem.model_matrix_s", "s", "lower"),
    ("lnem.model_matrix_us_p50", "us", "lower"),
    ("lnem.criterion_calls", "count", "lower"),
    ("lnem.criterion_s", "s", "lower"),
    ("lnem.criterion_us_p50", "us", "lower"),
    ("lnem.criterion_us_p99", "us", "lower"),
    ("lnem.share", "ratio", "lower"),
    ("lnem.invalid_ratio", "ratio", "lower"),
    ("lnem.eigh_us_p50", "us", "lower"),
    ("search.considered", "count", "lower"),
    ("search.evaluated", "count", "lower"),
    ("search.skipped", "count", "higher"),
    ("search.invalid", "count", "lower"),
    ("search.cache_hits", "count", "higher"),
    ("search.cache_hit_ratio", "ratio", "higher"),
    ("search.enumerate_us", "us", "lower"),
    ("search.self_s", "s", "lower"),
    ("search.self_share", "ratio", "lower"),
    ("search.parallel_efficiency", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def manifest() -> dict:
    """The content of BENCHMARK.json, derived from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": wl["why"]}
                      for name, wl in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
