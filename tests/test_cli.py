from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netdesign as nd
from netdesign.cli import _T1_REFERENCE, main

from helpers import exact_rank, oracle_model_matrix, oracle_orbit_minima


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_search_json_example1(capsys):
    code, out = run_cli(capsys, "search", "--example", "1", "-m", "2",
                        "--format", "json", "--workers", "1")
    assert code == 0
    report = json.loads(out)
    assert report["num_considered"] == 512
    assert report["num_considered"] == (report["num_eval"]
                                        + report["num_skipped_noncanonical"]
                                        + report["num_invalid"]
                                        + report["num_cache_hits"])
    assert report["algorithm"] == "exhaustive"


def test_search_json_schema_mirrors_report_fields(capsys):
    import dataclasses
    code, out = run_cli(capsys, "search", "--example", "2", "-m", "2",
                        "--format", "json", "--workers", "1")
    assert code == 0
    assert set(json.loads(out)) == {f.name for f in dataclasses.fields(nd.SearchReport)}


def test_search_json_round_trips_bytes(capsys):
    code, out = run_cli(capsys, "search", "--example", "1", "-m", "2",
                        "--format", "json", "--workers", "1")
    parsed = json.loads(out)
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out


def test_search_deterministic_across_workers(capsys):
    reports = []
    for w in ("1", "2"):
        code, out = run_cli(capsys, "search", "--example", "4", "-m", "2",
                            "--algorithm", "cd", "--restarts", "8",
                            "--seed", "11", "--format", "json", "--workers", w)
        assert code == 0
        d = json.loads(out)
        d.pop("wall_time")
        reports.append(json.dumps(d, sort_keys=True))
    assert reports[0] == reports[1]


def test_search_blocks_3x3_returns_complete_block_design(capsys):
    code, out = run_cli(capsys, "search", "--blocks", "3,3,3", "-m", "3",
                        "--format", "json", "--workers", "1")
    assert code == 0
    design = json.loads(out)["best_design"]
    for b in range(3):
        assert sorted(design[3 * b:3 * b + 3]) == [1, 2, 3]


def test_search_row_column_3x3_returns_latin_square(capsys):
    code, out = run_cli(capsys, "search", "--row-column", "3x3", "-m", "3",
                        "--format", "json", "--workers", "1")
    assert code == 0
    design = json.loads(out)["best_design"]
    rows = [design[3 * r:3 * r + 3] for r in range(3)]
    for r in rows:
        assert sorted(r) == [1, 2, 3]
    for c in range(3):
        assert sorted(row[c] for row in rows) == [1, 2, 3]


def test_search_text_and_csv_formats(capsys):
    code, out = run_cli(capsys, "search", "--example", "1", "-m", "2",
                        "--workers", "1")
    assert code == 0
    assert "best_value:" in out and "num_eval:" in out
    code, out = run_cli(capsys, "search", "--example", "1", "-m", "2",
                        "--format", "csv", "--workers", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    assert "num_eval" in rows[0]


def test_search_ds_criterion(capsys):
    code, out = run_cli(capsys, "search", "--example", "1", "-m", "2",
                        "--criterion", "Ds", "--format", "json",
                        "--workers", "1")
    assert code == 0
    report = json.loads(out)
    assert report["best_value"] > 0
    # m=2: the determinant criterion coincides with the pairwise variance
    code, out = run_cli(capsys, "search", "--example", "1", "-m", "2",
                        "--format", "json", "--workers", "1")
    assert json.loads(out)["best_value"] == pytest.approx(report["best_value"])


def test_autos_examples(capsys):
    code, out = run_cli(capsys, "autos", "--example", "1")
    assert code == 0 and "automorphisms: 8" in out
    code, out = run_cli(capsys, "autos", "--blocks", "3,3,3", "-m", "3")
    assert code == 0 and "automorphisms: 1296" in out


def test_autos_refuses_a_group_over_the_cap_naming_its_size(capsys):
    code = main(["autos", "--blocks", "4,4,4,4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "automorphism group has 7962624 elements, cap 1000000" in captured.err


def test_autos_verbose_cycles(capsys):
    code, out = run_cli(capsys, "autos", "--example", "1", "--verbose")
    lines = out.strip().splitlines()
    assert lines[0] == "automorphisms: 8"
    assert len(lines) == 9
    assert "()" in lines[1:]  # identity present


def test_autos_single_node(tmp_path, capsys):
    f = tmp_path / "one.txt"
    f.write_text("n=1 directed=0\n")
    code, out = run_cli(capsys, "autos", "--network", str(f))
    assert code == 0 and "automorphisms: 1" in out


def test_orbits_path(tmp_path, capsys):
    f = tmp_path / "path.txt"
    f.write_text("n=3 directed=0\n1-2, 1-3\n")
    code, out = run_cli(capsys, "orbits", "--network", str(f), "-m", "2")
    assert code == 0 and "orbits: 6" in out


def test_orbits_space_guard(capsys):
    code, _ = run_cli(capsys, "orbits", "--example", "3", "-m", "3")
    assert code == 2


def test_headerless_network_needs_n(tmp_path, capsys):
    f = tmp_path / "raw.txt"
    f.write_text("1-2, 2-3\n")
    code, _ = run_cli(capsys, "autos", "--network", str(f))
    assert code == 2
    code, out = run_cli(capsys, "autos", "--network", str(f), "--n", "3")
    assert code == 0 and "automorphisms: 2" in out


def test_missing_file_exit_code(capsys):
    code, _ = run_cli(capsys, "search", "--network", "/nonexistent.txt",
                      "-m", "2")
    assert code == 2


def test_search_on_blocks_that_leave_units_uncovered(tmp_path, capsys):
    # two block nodes that cover five of the six units: the budget's four
    # designs use at most two of the three treatments, so no chunk holds a
    # design to evaluate; the run ends with a partial report, no traceback
    f = tmp_path / "partial-blocks.txt"
    f.write_text("n=8 directed=1\n"
                 "1->2, 1->7, 2->3, 2->7, 3->7, 4->6, 4->8, 5->8, 6->1, 7->1, "
                 "7->2, 7->3, 8->4, 8->5\n"
                 "B7: class=0 fixed=4 units=1,2,3\n"
                 "B8: class=0 fixed=5 units=4,5\n")
    code = main(["search", "--network", str(f), "--treatments", "3",
                 "--max-designs", "4", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3 and "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert (report["num_considered"], report["num_invalid"],
            report["num_eval"], report["partial"]) == (4, 4, 0, True)


def test_parse_error_surfaces_token(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("n=4 directed=0\n1-2, 9-9\n")
    code = main(["autos", "--network", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "9-9" in err and "token 2" in err


def test_budget_exit_code(capsys):
    code, out = run_cli(capsys, "search", "--example", "1", "-m", "2",
                        "--max-designs", "10", "--format", "json",
                        "--workers", "1")
    assert code == 3
    assert json.loads(out)["partial"] is True


def test_budget_below_one_is_invalid():
    for budget in ("0", "-5"):
        assert main(["search", "--example", "1", "-m", "2", "--max-designs",
                     budget, "--workers", "1"]) == 2


def test_coordinate_descent_refuses_a_budget(capsys):
    # --max-designs sizes exhaustive search only; coordinate descent says so
    # rather than ignoring it
    code = main(["search", "--example", "1", "-m", "2", "--algorithm", "cd",
                 "--restarts", "3", "--workers", "1", "--max-designs", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "exhaustive" in captured.err


def test_exactly_one_source_required(capsys):
    code = main(["search", "-m", "2"])
    assert code == 2
    code = main(["search", "--example", "1", "--blocks", "2,2", "-m", "2"])
    assert code == 2


def test_reproduce_t1_subset(capsys):
    code, out = run_cli(capsys, "reproduce", "t1", "--examples", "1,2",
                        "--workers", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["example"] for r in rows] == ["1", "2"]
    by_ex = {r["example"]: r for r in rows}
    assert by_ex["1"]["automorphisms"] == "8"
    assert by_ex["2"]["automorphisms"] == "1"
    assert by_ex["2"]["evals_without"] == "511"
    assert by_ex["2"]["delta_evals_without"] == "0"
    assert by_ex["2"]["delta_evals_with"] == "0"
    # example 1 under the estimability rule runs one design hotter per arm
    assert abs(int(by_ex["1"]["delta_evals_without"])) <= 1
    assert abs(int(by_ex["1"]["delta_evals_with"])) <= 1


def test_reproduce_t2_subset(capsys):
    code, out = run_cli(capsys, "reproduce", "t2", "--examples", "1,2",
                        "--workers", "1", "--restarts", "50")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        assert float(row["efficiency"]) >= float(row["ref_efficiency"]) - 1e-9


@pytest.mark.parametrize("argv", [
    ("reproduce", "t1", "--examples", "7"),
    ("reproduce", "t2", "--examples", "0"),
    ("search", "--example", "0", "-m", "2"),
    # a bad count is refused before the CSV header too, and t2 runs no
    # exhaustive search first
    ("reproduce", "t1", "--examples", "1", "--workers", "0"),
    ("reproduce", "t4", "--workers", "-1"),
    ("reproduce", "t2", "--examples", "1", "--restarts", "0"),
])
def test_unknown_example_id_exits_invalid_before_any_output(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    if "--workers" in argv or "--restarts" in argv:
        assert "must be at least 1" in captured.err
    else:
        assert "no bundled example" in captured.err and "1..6" in captured.err


def test_reproduce_t4_default_rows(capsys):
    code, out = run_cli(capsys, "reproduce", "t4", "--workers", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    labels = [r["structure"] for r in rows]
    assert labels == ["3x3-blocks", "4x3-blocks-m3", "3x3-row-column"]
    blocks33 = rows[0]
    assert blocks33["automorphisms"] == "1296"
    assert blocks33["evals_without"] == "2925"
    assert blocks33["evals_with"] == "94"
    # the reference's layout, 3 blocks of 4 units: z = 3! (4!)^3, and its
    # row exactly
    blocks44 = rows[1]
    assert (blocks44["automorphisms"], blocks44["evals_without"],
            blocks44["evals_with"]) == ("82944", "86126", "379")
    assert blocks44["delta_evals_without"] == blocks44["delta_evals_with"] == "0"
    rc = rows[2]
    assert rc["automorphisms"] == "72"
    assert rc["evals_without"] == "2807"
    assert rc["evals_with"] == "241"


def _record_workers(monkeypatch) -> list[tuple[int, int]]:
    """Patch the search's usable core count to 4 and its task runner to
    record (design nodes, the worker count it is handed) and run no task."""
    seen = []
    monkeypatch.setattr("netdesign.search._usable_cores", lambda: 4)
    monkeypatch.setattr(
        "netdesign.search._run_tasks",
        lambda state, fn, tasks, workers:
            seen.append((state[0].net.n_design, workers)) or iter(()))
    return seen


@pytest.mark.parametrize("argv,expected", [
    # path312 at m = 2: 4 label-canonical designs, so a pool would only cost
    (("search", "--network", "PATH", "-m", "2"), 1),
    # example 3 at m = 2: 524,288 designs, over 12,288
    (("search", "--example", "3", "-m", "2"), 4),
    # a budget cuts the same stream; the cut is 12,288 whatever the cores
    (("search", "--example", "3", "-m", "2", "--max-designs", "12287"), 1),
    (("search", "--example", "3", "-m", "2", "--max-designs", "12288"), 4),
    # 14 units in blocks at m = 2: 8,192 label-canonical designs, 16,384
    # without label symmetry
    (("search", "--blocks", "4,4,3,3", "-m", "2"), 1),
    (("search", "--blocks", "4,4,3,3", "-m", "2", "--no-label-symmetry"), 4),
    # coordinate descent has no stream to size: all cores
    (("search", "--network", "PATH", "-m", "2", "--algorithm", "cd"), 4),
    # an explicit count wins in either direction
    (("search", "--network", "PATH", "-m", "2", "--workers", "3"), 3),
    (("search", "--example", "3", "-m", "2", "--workers", "1"), 1),
], ids=["tiny", "large", "budget-under", "budget-at", "labels", "no-labels",
        "cd", "explicit-up", "explicit-down"])
def test_default_workers_follow_the_stream_size(tmp_path, capsys, monkeypatch,
                                                argv, expected):
    path = tmp_path / "path312.txt"
    path.write_text("n=3 directed=0\n1-2, 1-3\n")
    seen = _record_workers(monkeypatch)
    run_cli(capsys, *[str(path) if a == "PATH" else a for a in argv])
    assert [workers for _, workers in seen] == [expected]


def test_reproduce_default_workers_per_row(capsys, monkeypatch):
    # t1 sizes each row's stream: example 1 (512 designs) runs at one
    # worker, example 3 (524,288) on all cores; t2's coordinate descent
    # always gets all cores
    seen = _record_workers(monkeypatch)
    run_cli(capsys, "reproduce", "t1", "--examples", "1,3")
    assert seen == [(10, 1), (10, 1), (20, 4), (20, 4)]
    seen.clear()
    run_cli(capsys, "reproduce", "t2", "--examples", "1")
    assert seen == [(10, 1), (10, 4)]
    # an explicit count reaches every run
    seen.clear()
    run_cli(capsys, "reproduce", "t2", "--examples", "1", "--workers", "3")
    assert seen == [(10, 3), (10, 3)]


def test_reference_counts_full_rank_designs(examples):
    # the published t1 row of example 1 at m = 2 counts the stream designs
    # whose model matrix has full column rank, by exact integer rank, and
    # the canonical ones among them, by the group's images applied in pure
    # Python; num_eval also counts the valid designs of lower rank
    net = examples[1]
    full = []
    for x in nd.enumerate_designs(net.n_design, 2):
        f = oracle_model_matrix(net, x, 2)
        if exact_rank(f) == f.shape[1]:
            full.append(x)
    minima = oracle_orbit_minima(nd.find_automorphisms(net), full)
    canonical = [x for x, least in zip(full, minima) if least == x]
    assert (len(full), len(canonical)) == _T1_REFERENCE[1][2:4] == (507, 236)


def test_console_entry_point():
    # the subprocess imports netdesign from where this process found it
    src = str(Path(nd.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "netdesign", "autos",
                          "--example", "6"], capture_output=True, text=True,
                         env=env)
    assert out.returncode == 0
    assert "automorphisms: 6" in out.stdout


def test_help_documents_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--blocks", "--row-column", "--crossover", "--period-blocks",
                 "--no-automorphisms", "--no-label-symmetry", "--criterion",
                 "--workers", "--seed", "--restarts", "--format"):
        assert flag in out
