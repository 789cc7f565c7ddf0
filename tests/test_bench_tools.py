"""The benchmark tools in bench/: the names they read from the package, the
pairing of perfbench runs and its quartiles, the README commands, the block
probe and its blocks, and the crossover record against crossover's rules."""

import ast
import hashlib
import importlib
import json
import math
from pathlib import Path

import pytest

import hodge_spectra.eigensolve as es
from hodge_spectra.discretize import ProblemKind, assemble, build_domain

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


@pytest.fixture
def bench(monkeypatch):
    # crossover imports compare as a sibling, as it does when run as a script
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("compare"), importlib.import_module("crossover")


def test_crossover_reads_only_names_that_eigensolve_defines(bench):
    _, crossover = bench
    assert crossover.eigensolve is es
    tree = ast.parse((BENCH / "crossover.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "eigensolve"}
    assert {"DENSE_CUTOFF", "STRUCTURED_MAX_M", "_structured_solve", "solve_pencil",
            "DEFAULT_TOL"} <= read
    assert sorted(name for name in read if not hasattr(es, name)) == []


def _perfbench_runs(path: Path, walls: list[float]) -> Path:
    metrics = {"wall_s": 0.0, "setup_s": 0.2, "peak_rss_mb": 90.0, "ok_ratio": 1.0}
    lines = [json.dumps({"correct": True, "metrics": {
        name: {"value": wall if name == "wall_s" else value}
        for name, value in metrics.items()}}) for wall in walls]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_perfbench_pairs_count_wins_ties_and_losses(bench, tmp_path):
    compare, _ = bench
    parent = _perfbench_runs(tmp_path / "parent.jsonl", [1.0, 2.0, 3.0, 4.0])
    change = _perfbench_runs(tmp_path / "change.jsonl", [0.5, 2.0, 3.5, 3.0])
    pairs = compare.perfbench_pairs(parent, change)
    assert pairs["pairs"] == {"metric": "wall_s", "wins": 2, "ties": 1, "losses": 1}
    assert pairs["parent"]["runs"] == pairs["change"]["runs"] == 4
    assert pairs["change"]["wall_s"]["values"] == [0.5, 2.0, 3.5, 3.0]


def test_resolved_needs_a_median_shift_beyond_the_parents_quartiles(bench, tmp_path):
    # every pair lost by 0.05 s inside the parent's 0.2 s interquartile spread
    # is unresolved; a 0.25 s shift is resolved, on perfbench and block rows
    compare, _ = bench
    walls = [1.0, 1.1, 1.2, 1.3, 1.4]
    parent = _perfbench_runs(tmp_path / "parent.jsonl", walls)
    within = compare.perfbench_pairs(
        parent, _perfbench_runs(tmp_path / "within.jsonl", [w + 0.05 for w in walls]))
    assert within["pairs"]["losses"] == 5 and within["resolved"] is False
    beyond = compare.perfbench_pairs(
        parent, _perfbench_runs(tmp_path / "beyond.jsonl", [w + 0.25 for w in walls]))
    assert beyond["resolved"] is True

    def runs(solves):
        return [{"wall_s": 0.5, "solve_s": solve, "digest": "d"} for solve in solves]

    for shift, expected in ((-0.05, False), (-0.25, True)):
        row = compare._row({"parent": runs(walls), "change": runs([w + shift for w in walls])})
        assert row["pairs"]["metric"] == "solve_s" and row["pairs"]["wins"] == 5
        assert row["resolved"] is expected


def test_rows_are_identical_only_when_every_run_on_both_sides_has_one_digest(bench):
    compare, _ = bench

    def runs(digests):
        return [{"wall_s": 1.0, "digest": digest} for digest in digests]

    same = compare._row({"parent": runs("aaa"), "change": runs("aaa")})
    assert same["identical"] is True and same["pairs"]["ties"] == 3
    for parent, change in (("aaa", "bbb"), ("aba", "aaa"), ("aaa", "aab")):
        row = compare._row({"parent": runs(parent), "change": runs(change)})
        assert row["identical"] is False, (parent, change)
        assert row["parent"]["digest"] == list(parent)


def test_perfbench_files_of_unequal_length_are_rejected_before_any_run(bench, tmp_path,
                                                                        monkeypatch):
    compare, _ = bench
    parent = _perfbench_runs(tmp_path / "parent.jsonl", [1.0, 2.0, 3.0])
    change = _perfbench_runs(tmp_path / "change.jsonl", [1.0, 2.0])
    with pytest.raises(ValueError, match="one pair of runs"):
        compare.perfbench_pairs(parent, change)

    def no_run(*args):
        raise AssertionError("a child ran before the perfbench files were checked")

    monkeypatch.setattr(compare, "run_once", no_run)
    out = tmp_path / "compare.json"
    with pytest.raises(SystemExit) as exit_info:
        compare.main(["--parent-src", str(ROOT / "src"), "--out", str(out),
                      "--perfbench", "fine-2d", str(parent), str(change)])
    assert exit_info.value.code == 2 and not out.exists()


def test_out_is_required(bench):
    compare, _ = bench
    with pytest.raises(SystemExit) as exit_info:
        compare.main(["--parent-src", str(ROOT / "src")])
    assert exit_info.value.code == 2


def test_readme_commands_are_the_six_of_the_command_line_block(bench):
    compare, _ = bench
    commands = compare.readme_commands()
    assert [argv[0] for argv in commands] == ["ball", "box", "verify", "constants",
                                              "converge", "verify"]
    assert all(argv[1] == "--dim" for argv in commands)


def test_block_probe_reports_seconds_and_certificate(bench, tmp_path):
    compare, _ = bench
    run = compare.run_once(
        ROOT / "src", ["--block", json.dumps([[17, 17], [1, 1], "clamped_plate", 0, 4])], tmp_path)
    assert run["exit_code"] == 0
    assert run["solve_s"] > 0 and run["wall_s"] > run["solve_s"] and run["import_s"] > 0
    assert run["peak_rss_mb"] > 0 and run["numpy"] and run["scipy"] == []
    assert run["frozen"] is False
    # a fourth-order block never loads separable; numpy loads inspect and platform
    assert run["separable"] is False and run["dataclasses"] is False
    assert run["inspect"] is True and run["platform"] is True
    assert run["worst_residual"] <= es.DEFAULT_TOL
    # the continuum clamped-plate value of the unit square is 1294.934
    assert run["first_value"] == pytest.approx(1294.934, rel=5e-2)
    assert 0 < run["largest_error_bound"] < 1e-3 * run["first_value"]
    assert len(run["digest"]) == 64


def test_block_probe_solves_second_order_blocks_without_numpy(bench, tmp_path):
    # the probe times the solve_problem that verify binds, which takes a
    # second-order block to the closed-form route
    compare, _ = bench
    run = compare.run_once(
        ROOT / "src", ["--block", json.dumps([[63, 63], [1, 1], "dirichlet_laplace", 0, 4])],
        tmp_path)
    assert run["exit_code"] == 0 and run["numpy"] is False and run["scipy"] == []
    assert run["separable"] is True
    assert not (run["dataclasses"] or run["inspect"] or run["platform"])
    assert run["first_value"] == pytest.approx(2 * math.pi ** 2, rel=5e-3)
    assert run["worst_residual"] <= es.DEFAULT_TOL


def test_import_probe_records_that_the_cli_loads_neither_numpy_nor_scipy(bench, tmp_path):
    compare, _ = bench
    run = compare.run_once(ROOT / "src", [], tmp_path)
    assert run["exit_code"] == 0 and run["import_s"] > 0
    assert run["numpy"] is False and run["scipy"] == []
    # nor the ball spectra, the battery or a solver, which the commands load
    # when they run, nor dataclasses, inspect or platform
    assert {field: run[field] for field, _ in compare.LOADED} == dict.fromkeys(
        ("bessel", "checks", "separable", "fractions", "dataclasses", "inspect", "platform"),
        False)
    # the import never reaches cli.main(), which freezes the heap
    assert run["frozen"] is False
    run = compare.run_once(ROOT / "src", ["ball", "--dim", "2", "--out", "report"], tmp_path)
    assert run["exit_code"] == 0 and run["numpy"] is False
    assert run["bessel"] is True and run["checks"] is True and run["fractions"] is True
    assert not (run["separable"] or run["dataclasses"] or run["inspect"] or run["platform"])
    assert run["frozen"] is True


def test_command_probe_runs_the_process_entry_point(bench, tmp_path):
    # cli.main()'s exit code reaches the record, a failed solve's 2 included
    compare, _ = bench
    run = compare.run_once(ROOT / "src", "box --dim 2 --extent 1,1 --cells 15,15 --problem "
                           "buckling --degree 1 --tol 1e-30 --out report".split(), tmp_path)
    assert run["exit_code"] == 2 and run["frozen"] is True
    report = (tmp_path / "report").read_bytes()
    assert json.loads(report)["meta"]["status"] == "error"
    # the digest covers the exit code and the report bytes
    assert run["digest"] == hashlib.sha256(b"2\n" + report).hexdigest()


def test_block_rows_name_their_cells_and_extents(bench):
    # unit cubes and squares keep the short label of earlier records
    compare, _ = bench
    labels = [label for label, args in compare.rows().items() if args[:1] == ["--block"]]
    assert len(labels) == len(set(labels)) == len(compare.BLOCKS)
    assert "23^3 clamped_plate p=0 m=4" in labels
    assert "23x23x31 on 1,1,1.35 buckling p=1 m=4" in labels
    assert "21x23x25 on 1,1,1 clamped_plate p=0 m=4" in labels


@pytest.mark.parametrize("values", [[3.916, 3.722], [0.5, 2.0, 1.0]])
def test_quartiles_lie_within_the_runs(bench, values):
    compare, _ = bench
    summary = compare._quartiles(values)
    assert min(values) <= summary["q1"] <= summary["median"] <= summary["q3"] <= max(values)


def test_blocks_include_general_route_blocks_in_1d_and_higher_dimensions(bench, monkeypatch):
    # every route is stubbed, so no block is solved: each solve stops at the
    # route _solve_fourth_order picks
    compare, _ = bench

    class Routed(Exception):
        pass

    def route(name):
        def stop(*args, **kwargs):
            raise Routed(name)
        return stop

    for name in ("solve_pencil", "_structured_solve"):
        monkeypatch.setattr(es, name, route(name))
    general = set()
    for cells, extent, kind, degree, m in compare.BLOCKS:
        if not ProblemKind(kind).is_fourth_order:
            continue
        problem = assemble(build_domain(len(cells), extent, cells), degree, ProblemKind(kind))
        with pytest.raises(Routed) as routed:
            es.solve_problem(problem, m=m)
        if str(routed.value) == "solve_pencil":
            general.add("1D" if len(cells) == 1 else "2D/3D")
    assert general == {"1D", "2D/3D"}


def test_crossover_record_matches_its_rules(bench):
    # the committed record's recommendations, bands and losses are what
    # crossover's rules give on its own per-run timings
    _, crossover = bench
    record = json.loads((ROOT / "BENCH_dense_cutoff.json").read_text())
    cutoff = record["dense_cutoff"]
    result = crossover.least_cost(crossover.COMPARISONS["dense_cutoff"], cutoff["timings"])
    for key in ("recommended", "band", "per_run", "acts_as"):
        assert result[key] == cutoff[key], key
    route = record["structured_route"]
    assert crossover.losses_beyond_import(route["timings"], route["scipy_import_s"]["values"]) \
        == route["losses_beyond_import"]
