"""Command-line front end: build or load networks, run searches, list
automorphisms, and re-run the bundled benchmark suites."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from functools import partial

from .automorph import (GroupSizeLimitError, count_orbits_bruteforce,
                        cycle_notation, find_automorphisms)
from .examples import check_example_id, example_network
from .lnem import ModelSpec
from .network import (Network, NetworkError, augment_blocks,
                      augment_crossover, augment_row_column, parse_network)
from .search import (SearchConfig, SearchReport, coordinate_descent,
                     run_search)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3

# published reference rows for the bundled benchmark suites: used only to
# fill the delta columns of `reproduce`, never asserted
_T1_REFERENCE = {
    # example: (n, z, evals_without, evals_with, time_without, time_with)
    1: (10, 8, 507, 236, 0.04, 0.02),
    2: (10, 1, 511, 511, 0.04, 0.04),
    3: (20, 8, 524287, 221183, 58.58, 31.56),
    4: (12, 384, 535008, 18766, 108.52, 33.68),
    5: (15, 2, 2368741, 1581572, 279.6, 197.58),
    6: (15, 6, 2262800, 904555, 283.86, 134.26),
}
# per example, the treatment count of the reference row: its evaluation
# counts are the stream designs whose model matrix has full rank, which
# num_eval matches on examples 2, 3 and 5 and exceeds on 1, 4 and 6, where
# some valid designs are rank-deficient (README, Known deltas)
_T1_TREATMENTS = {1: 2, 2: 2, 3: 2, 4: 4, 5: 3, 6: 3}

_T2_REFERENCE_EFFICIENCY = {1: 1.0, 2: 0.944, 3: 0.989, 4: 0.873, 5: 0.931, 6: 1.0}

# structure label -> (network builder taking m, m, reference (z,
# evals_without, evals_with), slow flag); the "3x3 row-column" reference row
# is internally inconsistent in its source and its group size disagrees with
# the closed-form rows!*cols!*2 = 72, so deltas on it are expected
_T4_ROWS = [
    ("3x3-blocks", partial(augment_blocks, (3, 3, 3)), 3, (1296, 2925, 94), False),
    ("4x3-blocks-m3", partial(augment_blocks, (4, 4, 4)), 3, (82944, 86126, 379), False),
    ("4x3-blocks-m4", partial(augment_blocks, (4, 4, 4)), 4, (82944, 605960, 1808), True),
    ("3x3-row-column", partial(augment_row_column, 3, 3), 3, (241, 72, 2807), False),
    ("4x4-row-column-m3", partial(augment_row_column, 4, 4), 3, (1152, 7123656, 34873), True),
    ("4x4-row-column-m4", partial(augment_row_column, 4, 4), 4, (1152, 170863644, 1610909), True),
]


def _add_source_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("network source (exactly one)")
    g.add_argument("--network", metavar="PATH",
                   help="edge-list file (i-j / i->j tokens, optional "
                        "'n=<count> directed=<0|1>' header)")
    g.add_argument("--n", type=int, metavar="COUNT",
                   help="node count for headerless edge-list files")
    g.add_argument("--directed", action="store_true", default=None,
                   help="treat a headerless edge-list file as directed")
    g.add_argument("--blocks", metavar="S1,S2,...",
                   help="one-way block design with the given block sizes")
    g.add_argument("--row-column", metavar="RxC",
                   help="row-column design, e.g. 3x3")
    g.add_argument("--crossover", metavar="SxP",
                   help="crossover design: subjects x periods, e.g. 4x3")
    g.add_argument("--period-blocks", action="store_true",
                   help="with --crossover, also block on periods")
    g.add_argument("--example", type=int, metavar="K",
                   help="bundled example network 1..6")


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise NetworkError(f"{what} must look like AxB, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise NetworkError(f"{what} must look like AxB, got {text!r}") from None


def _resolve_network(args, m: int) -> Network:
    sources = [s for s in ("network", "blocks", "row_column", "crossover", "example")
               if getattr(args, s, None) is not None]
    if len(sources) != 1:
        raise NetworkError("specify exactly one of --network, --blocks, "
                           "--row-column, --crossover, --example")
    src = sources[0]
    if src == "network":
        with open(args.network, "r", encoding="utf-8") as fh:
            return parse_network(fh.read(), n_nodes=args.n, directed=args.directed)
    if src == "example":
        return example_network(args.example)
    if src == "blocks":
        sizes = [int(s) for s in args.blocks.split(",") if s]
        return augment_blocks(sizes, m)
    if src == "row_column":
        rows, cols = _parse_pair(args.row_column, "--row-column")
        return augment_row_column(rows, cols, m)
    subjects, periods = _parse_pair(args.crossover, "--crossover")
    return augment_crossover(subjects, periods, m, period_blocks=args.period_blocks)


def _print_report(report: SearchReport, fmt: str) -> None:
    if fmt == "json":
        print(report.to_json())
        return
    d = report.to_dict()
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        keys = sorted(d)
        writer.writerow(keys)
        writer.writerow(
            [" ".join(map(str, d[k])) if isinstance(d[k], list) else d[k]
             for k in keys])
        return
    for key in ("algorithm", "best_design", "best_value", "efficiency",
                "num_eval", "num_considered", "num_skipped_noncanonical",
                "num_invalid", "num_cache_hits", "partial", "seed",
                "wall_time"):
        value = d[key]
        if key == "best_design" and value is not None:
            value = " ".join(map(str, value))
        print(f"{key}: {value}")


def cmd_search(args) -> int:
    net = _resolve_network(args, args.treatments)
    spec = ModelSpec.for_network(net, args.treatments, criterion=args.criterion)
    config = SearchConfig(
        algorithm="coordinate_descent" if args.algorithm == "cd" else args.algorithm,
        use_automorphisms=not args.no_automorphisms,
        use_label_symmetry=not args.no_label_symmetry,
        restarts=args.restarts,
        seed=args.seed,
        max_designs=args.max_designs,
        workers=args.workers,
        max_group_size=args.max_group_size,
    )
    report = run_search(net, spec, config)
    _print_report(report, args.format)
    return EXIT_BUDGET if report.partial else EXIT_OK


def cmd_autos(args) -> int:
    net = _resolve_network(args, args.treatments)
    group = find_automorphisms(net, args.max_group_size)
    print(f"automorphisms: {group.size}")
    if args.verbose:
        for perm in group:
            print(cycle_notation(perm))
    return EXIT_OK


def cmd_orbits(args) -> int:
    net = _resolve_network(args, args.treatments)
    count = count_orbits_bruteforce(net, args.treatments)
    print(f"orbits: {count}")
    return EXIT_OK


def _reproduce_pruning(base: SearchConfig, writer, rows, first_column: str,
                       with_invalid: bool) -> None:
    """Tables t1 and t4: per network, exhaustive search without and with
    automorphism pruning against the reference (z, evals_without,
    evals_with); t1 also reports the invalid count of the unpruned run."""
    writer.writerow([first_column, "n", "m", "automorphisms",
                     "evals_without", "evals_with"]
                    + ["invalid_without"] * with_invalid
                    + ["time_without", "time_with",
                       "ref_automorphisms", "ref_evals_without", "ref_evals_with",
                       "delta_evals_without", "delta_evals_with"])
    for label, net, m, (ref_z, ref_wo, ref_w) in rows:
        spec = ModelSpec.for_network(net, m)
        group = find_automorphisms(net)
        without = run_search(net, spec, dataclasses.replace(
            base, use_automorphisms=False))
        with_ = run_search(net, spec, base)
        writer.writerow([label, net.n_total, m, group.size,
                         without.num_eval, with_.num_eval]
                        + [without.num_invalid] * with_invalid
                        + [round(without.wall_time, 3), round(with_.wall_time, 3),
                           ref_z, ref_wo, ref_w,
                           without.num_eval - ref_wo, with_.num_eval - ref_w])


def _t1_rows(args):
    for k in args.examples:
        _, ref_z, ref_wo, ref_w, _, _ = _T1_REFERENCE[k]
        yield k, example_network(k), _T1_TREATMENTS[k], (ref_z, ref_wo, ref_w)


def _t4_rows(args):
    for label, build, m, ref, slow in _T4_ROWS:
        if slow and not args.all:
            continue
        yield label, build(m=m), m, ref


def _reproduce_t2(args, base: SearchConfig, writer) -> None:
    # CD and exhaustive are compared at m=2 on every example so the
    # exhaustive reference stays tractable; the reference efficiencies are
    # floors, so the delta column should be >= 0
    writer.writerow(["example", "n", "m", "automorphisms", "evals_cd",
                     "evals_es", "efficiency", "ref_efficiency",
                     "delta_efficiency"])
    for k in args.examples:
        net = example_network(k)
        spec = ModelSpec.for_network(net, 2)
        group = find_automorphisms(net)
        es = run_search(net, spec, base)
        cd = coordinate_descent(net, spec, dataclasses.replace(
            base, algorithm="coordinate_descent",
            reference_value=es.best_value))
        ref = _T2_REFERENCE_EFFICIENCY[k]
        eff = cd.efficiency
        writer.writerow([k, net.n_total, 2, group.size, cd.num_eval,
                         es.num_eval,
                         None if eff is None else round(eff, 6), ref,
                         None if eff is None else round(eff - ref, 6)])


def cmd_reproduce(args) -> int:
    if args.examples is None:
        args.examples = [1, 2, 3, 4, 5, 6]
    else:
        args.examples = [int(s) for s in args.examples.split(",") if s]
    # bad ids and counts are refused before any row is written
    for k in args.examples:
        check_example_id(k)
    base = SearchConfig(seed=args.seed, workers=args.workers,
                        restarts=args.restarts)
    writer = csv.writer(sys.stdout)
    if args.table == "t1":
        _reproduce_pruning(base, writer, _t1_rows(args), "example", True)
    elif args.table == "t2":
        _reproduce_t2(args, base, writer)
    else:
        _reproduce_pruning(base, writer, _t4_rows(args), "structure", False)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netdesign",
        description="Search for optimal experimental designs on unit networks, "
                    "pruning the design space to one design per "
                    "graph-automorphism orbit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run a design search")
    _add_source_args(p)
    p.add_argument("--treatments", "-m", type=int, required=True,
                   help="number of free treatments (m >= 2)")
    p.add_argument("--algorithm", choices=("exhaustive", "cd"),
                   default="exhaustive")
    p.add_argument("--no-automorphisms", action="store_true",
                   help="evaluate every candidate instead of one per orbit")
    p.add_argument("--no-label-symmetry", action="store_true",
                   help="enumerate all m^n designs instead of label-canonical ones")
    p.add_argument("--restarts", type=int, default=100,
                   help="random restarts for --algorithm cd (default 100)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--criterion", choices=("As", "Ds"), default="As")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: the cores this "
                        "process may run on, or one for an exhaustive stream "
                        "too small to split); results are identical for any "
                        "value")
    p.add_argument("--max-designs", type=int, default=None,
                   help="candidate budget, exhaustive search only; "
                        "exceeding it flags the report partial and exits 3")
    p.add_argument("--max-group-size", type=int, default=1_000_000)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("autos", help="print the automorphism group size")
    _add_source_args(p)
    p.add_argument("--treatments", "-m", type=int, default=2,
                   help="treatment count used only to build block networks "
                        "(the group itself does not depend on it)")
    p.add_argument("--max-group-size", type=int, default=1_000_000)
    p.add_argument("--verbose", "-v", action="store_true",
                   help="also print every element in cycle notation")
    p.set_defaults(func=cmd_autos)

    p = sub.add_parser("orbits",
                       help="brute-force orbit count of the design space "
                            "(test-scale networks only)")
    _add_source_args(p)
    p.add_argument("--treatments", "-m", type=int, required=True)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("reproduce",
                       help="re-run a bundled benchmark table and emit CSV "
                            "with deltas against the published reference rows")
    p.add_argument("table", choices=("t1", "t2", "t4"))
    p.add_argument("--examples", default=None,
                   help="comma-separated example ids for t1/t2 (default all)")
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: as for search)")
    p.add_argument("--all", action="store_true",
                   help="for t4: include the very slow rows")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NetworkError, GroupSizeLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
