"""The netdesign benchmark: times the public search API on fixed workloads,
checks every result, and prints each metric by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest

Every measurement runs in a fresh process (`child.py`) with
OPENBLAS_NUM_THREADS=1, so that a two-worker run uses no more threads than
a two-core machine has.  With --trace 0 the run measures the end-to-end
metrics untraced: several set-ups, then whole searches until S seconds have
passed, each reported as a median.  With --trace 1 it makes one traced
search, which gives the per-layer metrics, plus untraced searches of the
same input for the tracing overhead (and, on the two-worker workload, the
serial searches for parallel efficiency).  Spans are written to
perfbench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A job that raised or failed a check counts in `failed`
and makes `correct` false, and the exit code is then 1.  `--write-manifest`
writes BENCHMARK.json at the repository root from the tables in
`workloads.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, manifest,
                       search_seed)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPS = 5
MIN_REPS = 3
# no job starts after this many seconds, so that one invocation ends in time
DEADLINE_S = 150.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def run_child(workload: str, mode: str, seed: int, rep: int,
              timeout: float, spans: Path | None = None) -> dict:
    """Run one child job and return its JSON result.  A job that crashed,
    timed out or printed no result comes back with an error, never
    dropped."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--mode", mode, "--search-seed", str(seed), "--rep", str(rep)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **CHILD_ENV},
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        if proc.poll() is None:
            # timed out or interrupted: the job's pool workers share its
            # process group, so stop them too
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
    if stdout is None:
        return {"errors": [f"{workload} {mode}: timed out after {timeout:.0f} s"],
                "job_s": time.perf_counter() - t0}
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"errors": [f"{workload} {mode}: no result (exit {proc.returncode})"]}
    if proc.returncode != 0 and not out.get("errors"):
        out["errors"] = [f"{workload} {mode}: exit {proc.returncode}"]
    out["job_s"] = time.perf_counter() - t0
    return out


def ok(job: dict) -> bool:
    return not job["errors"]


def check_same_report(job: dict, reference: dict) -> None:
    """The multi-worker report must be byte-identical to the serial one
    (wall time excluded); a mismatch fails `job`."""
    if ok(job) and ok(reference) and job["report_json"] != reference["report_json"]:
        job["errors"].append("report differs from the serial reference run")


def median_of(jobs: list[dict], key: str) -> float | None:
    values = [j[key] for j in jobs if ok(j)]
    return statistics.median(values) if values else None


class Runner:
    """Runs the jobs of one invocation against one clock and keeps every
    result, failed or not."""

    def __init__(self, seconds: float, run_child=run_child):
        self.t0 = time.monotonic()
        self.seconds = seconds
        self.run_child = run_child
        self.jobs: list[dict] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def __call__(self, workload: str, mode: str, seed: int, rep: int,
                 spans: Path | None = None) -> dict:
        timeout = max(5.0, DEADLINE_S + 25.0 - self.elapsed())
        job = self.run_child(workload, mode, seed, rep, timeout, spans)
        self.jobs.append(job)
        return job

    def more(self, reps: int, last_s: float) -> bool:
        """Start another repetition while the minimum is not reached, or
        while one more (as long as the last, `last_s`) fits in the run's
        seconds."""
        if self.elapsed() >= DEADLINE_S:
            return False
        return reps < MIN_REPS or self.elapsed() + last_s <= self.seconds


def measure_end_to_end(name: str, seed: int, run: Runner) -> dict:
    wl = WORKLOADS[name]
    setups = [run(name, "setup", search_seed(name, seed, 0), i)
              for i in range(SETUP_REPS)]
    reference = run(wl["reference"], "wall", seed, 0) if "reference" in wl else None
    walls: list[dict] = []
    while not walls or run.more(len(walls), walls[-1]["job_s"]):
        rep = len(walls)
        job = run(name, "wall", search_seed(name, seed, rep), rep)
        if reference is not None:
            check_same_report(job, reference)
        walls.append(job)
    return {"wall_s": (median_of(walls, "wall_s"), len(walls)),
            "setup_s": (median_of(setups, "setup_s"), len(setups)),
            "peak_rss_mb": (median_of(walls, "peak_rss_mb"), len(walls))}


def measure_per_layer(name: str, seed: int, run: Runner) -> dict:
    wl = WORKLOADS[name]
    ss = search_seed(name, seed, 0)
    OUT.mkdir(exist_ok=True)
    traced = run(name, "trace", ss, 0, OUT / f"spans-{name}-seed{seed}.jsonl.gz")
    walls: list[dict] = []
    serial: list[dict] = []
    last_s = 0.0
    while not walls or run.more(len(walls), last_s):
        t0 = run.elapsed()
        rep = len(walls) + 1
        job = run(name, "wall", ss, rep)
        if "reference" in wl:
            serial.append(run(wl["reference"], "wall", ss, rep))
            check_same_report(job, serial[-1])
        walls.append(job)
        last_s = run.elapsed() - t0
    if not ok(traced):
        return {}
    untraced = median_of(walls, "wall_s")
    metrics = {k: (v, 1) for k, v in traced["layers"].items()}
    if untraced is not None:
        metrics["trace.overhead_ratio"] = (
            traced["layers"]["trace.wall_s"] / untraced, len(walls))
        efficiency = 1.0      # one worker, by definition
        if serial:
            serial_wall = median_of(serial, "wall_s")
            efficiency = (None if serial_wall is None
                          else serial_wall / (wl["workers"] * untraced))
        metrics["search.parallel_efficiency"] = (efficiency, len(walls))
    return metrics


def summarize(jobs: list[dict], measured: dict, wanted) -> dict:
    """The result line: a metric is reported only when measured; a failed
    job, or a wanted metric that could not be measured, makes the run
    incorrect."""
    failed = sum(1 for j in jobs if not ok(j))
    metrics = {name: {"value": measured[name][0], "unit": unit}
               for name, unit, *_ in wanted
               if measured.get(name, (None,))[0] is not None}
    return {"correct": failed == 0 and len(metrics) == len(wanted),
            "attempted": len(jobs), "failed": failed, "metrics": metrics}


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-manifest", action="store_true")
    args = p.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "netdesign" / "__init__.py").is_file():
        print(f"error: no netdesign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that the running job is stopped (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Runner(args.seconds)
    if args.trace:
        measured = measure_per_layer(args.workload, args.seed, run)
        wanted = PER_LAYER
    else:
        measured = measure_end_to_end(args.workload, args.seed, run)
        wanted = END_TO_END
    result = summarize(run.jobs, measured, wanted)

    env = next((j["env"] for j in run.jobs if "env" in j), {})
    print(f"# machine {json.dumps({**machine(), **env})}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} jobs in {run.elapsed():.1f} s")
    for job in run.jobs:
        for err in job["errors"]:
            print(f"# FAILED: {err}")
    for name, unit, *_ in wanted:
        value, n = measured.get(name, (None, 0))
        print(f"{name} = {value} {unit} (n={n})")
    print(f"fail_ratio = {result['failed'] / result['attempted']} "
          f"({result['failed']}/{result['attempted']} jobs)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
