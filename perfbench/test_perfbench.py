"""Self-tests of the benchmark: oracle, span arithmetic, seeded generator.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from hodge_spectra.discretize import ProblemKind, assemble, build_domain

import run
from oracle import ball_eigenvalues, box_eigenvalues, check_result, csv_closed_forms
from spans import layer_metrics, self_times
from workloads import WORKLOADS, commands


@pytest.mark.parametrize("kind", ["dirichlet_laplace", "absolute_laplace"])
@pytest.mark.parametrize("extent,cells", [((1.3, 0.7), (4, 5)), ((0.9, 1.1, 1.7), (3, 4, 3))])
def test_closed_form_matches_dense_eigh_of_assembled_pencil(kind, extent, cells):
    domain = build_domain(len(cells), extent, cells)
    for degree in range(len(cells) + 1):
        problem = assemble(domain, degree, ProblemKind(kind))
        dense = scipy.linalg.eigh(problem.A.toarray(), problem.B.toarray(), eigvals_only=True)
        if kind == "absolute_laplace" and degree == 0:
            assert abs(dense[0]) < 1e-9 * dense[-1]
            dense = dense[1:]
        m = len(dense)
        expected = box_eigenvalues(kind, extent, cells, degree, m)
        np.testing.assert_allclose(expected, dense, rtol=1e-10, atol=1e-10 * dense[-1])


def test_ball_oracle_matches_known_roots():
    values = ball_eigenvalues(2, 1.0)
    assert values["dirichlet_1"] == pytest.approx(2.404825557695773 ** 2, rel=1e-14)
    assert values["buckling_1"] == pytest.approx(3.831705970207512 ** 2, rel=1e-14)
    assert values["clamped_1"] == pytest.approx(104.3631, rel=1e-6)
    # radius scaling: second-order values scale as R^-2, clamped as R^-4
    half = ball_eigenvalues(2, 0.5)
    assert half["dirichlet_1"] == pytest.approx(4 * values["dirichlet_1"], rel=1e-13)
    assert half["clamped_1"] == pytest.approx(16 * values["clamped_1"], rel=1e-13)


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": {}}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("solve_problem", 0.0, 10.0, -1),
        _span("eigsh", 1.0, 4.0, 0),
        _span("splu", 3.0, 5.0, 0),      # overlaps the previous child
        _span("splu", 6.0, 7.0, 0),
        _span("inner", 6.5, 6.8, 3),     # grandchild: counted against its parent only
        _span("late", 9.5, 12.0, 0),     # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0 - 0.5, 3.0, 2.0, 0.7, 0.3, 2.5])


def test_layer_metrics_counts_and_polish_factorizations():
    spans = [
        _span("solve_problem", 0.0, 4.0, -1),
        _span("splu", 0.5, 1.5, 0),
        _span("eigsh", 1.5, 2.5, 0),
        _span("splu", 2.5, 3.0, 0),
    ]
    spans[0]["attrs"] = {"blocks": 3, "worst_residual": 2e-10}
    trace = {"import_s": 0.4, "spans": spans, "counts": {"solve_pencil": 1}}
    m = layer_metrics([trace])
    assert m["eigensolve.splu_calls"] == 2 and m["eigensolve.eigsh_calls"] == 1
    assert m["eigensolve.polish_factorizations"] == 1
    assert m["eigensolve.self_s"] == pytest.approx(1.5)
    assert m["eigensolve.block_solve_ratio"] == pytest.approx(1 / 3)
    assert m["eigensolve.worst_residual"] == 2e-10


def test_seed_zero_is_the_readme_session():
    argvs = [" ".join(c.argv()) for c in commands("battery-2d", 0)]
    assert argvs == [
        "verify --dim 2 --extent 1,1 --cells 63,63 --degrees 0,1,2 --error-estimates "
        "--out report.json",
        "verify --dim 2 --extent 1,1 --cells 31,31 --degrees 0,1 --format csv --out checks.csv",
        "ball --dim 2 --radius 1 --out ball.json",
        "constants --dim 4 --degree 2 --gamma 1 --out constants.json",
    ]
    assert all(c.opt("extent") == "1,1,1" for c in commands("solve-3d", 0))
    assert all(c.opt("extent") == "1,1" for c in commands("fine-2d", 0))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_commands(workload):
    for seed in range(8):
        assert commands(workload, seed) == commands(workload, seed)
    distinct = {tuple(" ".join(c.argv()) for c in commands(workload, seed)) for seed in range(8)}
    assert len(distinct) > 1


def test_wrong_value_is_a_mismatch():
    cmd = commands("fine-2d", 0)[2]   # dirichlet_laplace
    values = box_eigenvalues("dirichlet_laplace", (1.0, 1.0), (127, 127), 0, 4)
    report = {"meta": {"command": "box", "status": "ok"}, "checks": [],
              "spectra": [{"values": values, "residuals": [1e-12] * 4}]}
    assert check_result(cmd, 0, json.dumps(report).encode(), "").mismatches == []
    report["spectra"][0]["values"][1] *= 1 + 1e-6
    outcome = check_result(cmd, 0, json.dumps(report).encode(), "")
    assert outcome.mismatches and outcome.failure


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    trace = {"import_s": 0.4, "spans": [], "counts": {}}
    runs = [run.CommandRun(commands("fine-2d", 0)[0], 0, 1.0, 1.0, 100.0, False, b"{}", "", trace)]
    untraced, traced = [run.Pass(False, 0, 1.0, runs, [0.05])], [run.Pass(True, 1, 1.0, runs, [0.05])]
    for printed, listed in ((run.end_to_end(untraced, [0.4], [0.05], 1.0, True), spec["end_to_end"]),
                            (run.per_layer(untraced, traced, [0.05], 0.0), spec["per_layer"])):
        assert {name: m["unit"] for name, m in printed.items()} == \
            {m["name"]: m["unit"] for m in listed}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_flagged_numerical_failure_counts_as_failed_not_wrong():
    cmd = commands("fine-2d", 0)[0]   # clamped_plate at 127^2
    message = "residual tolerance 1e-09 not met (worst 1.349e-09)"
    report = {"meta": {"command": "box", "status": "error", "error": message}, "checks": [],
              "spectra": [{"values": [1.0, 2.0, 2.0, 3.0], "residuals": [1.3e-9] * 4}]}
    outcome = check_result(cmd, 2, json.dumps(report).encode(), f"error: {message}\n")
    assert outcome.failure == message and outcome.mismatches == []
    report["meta"]["status"] = "ok"   # exit 2 with an unflagged report is wrong output
    assert check_result(cmd, 2, json.dumps(report).encode(), "").mismatches


def _battery_csv(rows):
    lines = ["name,lhs,rhs,relation,margin,status"]
    lines += [f"{name},{lhs!r},{rhs!r},<,1.0,pass" for name, (lhs, rhs) in rows.items()]
    return ("\n".join(lines) + "\n").encode()


def test_csv_battery_sides_are_checked_against_the_closed_form():
    cmd = commands("battery-2d", 3)[1]   # the CSV verify, with a seeded aspect ratio
    assert cmd.fmt == "csv" and cmd.opt("extent") != "1,1"
    rows = {}
    for (name, side), value in csv_closed_forms(cmd).items():
        rows.setdefault(name, [1e6, 1e6])[side == "rhs"] = value
    assert len(rows) >= 8
    assert check_result(cmd, 0, _battery_csv(rows), "").mismatches == []
    rows["second_dirichlet_below_scalar_buckling"][0] *= 1 + 1e-6
    outcome = check_result(cmd, 0, _battery_csv(rows), "")
    assert outcome.mismatches and outcome.failure


def test_importing_run_leaves_the_environment_alone():
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    probe = subprocess.run(
        [sys.executable, "-c",
         "import os, run; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        cwd=Path(__file__).resolve().parent, env=env, capture_output=True, text=True,
        timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "None"
