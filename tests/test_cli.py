"""CLI tests: flags, exit codes, report schema, determinism, round-trips."""

import gc
import json
import math
import os
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy
import pytest
import scipy
import scipy.sparse.linalg as spla

import hodge_spectra
import hodge_spectra.eigensolve as es
import hodge_spectra.verify as verify
from hodge_spectra import ProblemKind, blockwise, separable
from hodge_spectra.cli import _build_parser, run


def run_to_file(tmp_path, name, argv):
    path = tmp_path / name
    code = run(argv + ["--out", str(path)])
    return code, path


def test_ball_command_writes_chain_report(tmp_path):
    code, path = run_to_file(tmp_path, "ball.json", ["ball", "--dim", "2", "--radius", "1"])
    assert code == 0
    report = json.loads(path.read_text())
    assert set(report) == {"meta", "spectra", "checks", "constants", "studies"}
    constants = report["constants"]
    assert constants["dirichlet_1"] == pytest.approx(5.78319, abs=1e-3)
    assert constants["buckling_1"] == pytest.approx(14.68197, abs=1e-3)
    assert constants["clamped_1"] == pytest.approx(104.363, abs=1e-2)
    names = [c["name"] for c in report["checks"]]
    assert len(names) == 3 and all(n.startswith("ball_chain") for n in names)
    assert all(c["status"] == "pass" for c in report["checks"])


def test_ball_command_holds_at_high_dimension(tmp_path):
    # order n/2 - 1 >= 60.5 once the cross function underflows at the origin
    code, path = run_to_file(tmp_path, "ball.json", ["ball", "--dim", "150", "--radius", "1"])
    assert code == 0
    assert all(c["status"] == "pass" for c in json.loads(path.read_text())["checks"])


def test_constants_command(tmp_path):
    code, path = run_to_file(
        tmp_path, "const.json",
        ["constants", "--dim", "4", "--degree", "2", "--gamma", "1"])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["constants"]["c_np"] == pytest.approx(4.666667, abs=1e-6)
    assert report["constants"]["dirichlet_bound"] == 6.0
    assert report["constants"]["halfdegree_identity_gap"] <= 1e-14


def test_box_command_spectrum_schema(tmp_path):
    code, path = run_to_file(
        tmp_path, "box.json",
        ["box", "--dim", "2", "--extent", "1,1", "--cells", "15,15",
         "--problem", "buckling", "--degree", "1", "--count", "3"])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["checks"] == []
    (entry,) = report["spectra"]
    assert entry["kind"] == "buckling"
    assert entry["degree"] == 1
    assert len(entry["values"]) == 3
    assert len(entry["residuals"]) == 3
    assert all(r <= 1e-9 for r in entry["residuals"])
    assert len(entry["error_bounds"]) == 3
    assert all(0.0 <= e <= 1e-6 * v for e, v in zip(entry["error_bounds"], entry["values"]))
    assert entry["values"] == sorted(entry["values"])


def test_verify_command_small_grid(tmp_path):
    code, path = run_to_file(
        tmp_path, "verify.json",
        ["verify", "--dim", "2", "--extent", "1,1", "--cells", "9,9",
         "--degrees", "0,1", "--count", "3"])
    assert code == 0
    report = json.loads(path.read_text())
    statuses = {c["status"] for c in report["checks"]}
    assert "fail" not in statuses
    assert any(c["status"] == "constants-only" for c in report["checks"])
    assert report["constants"]["p=1"]["c_np"] == 4.0
    labels = [s["label"] for s in report["spectra"]]
    assert "buckling p=0" in labels and "absolute_laplace p=2" in labels


def test_converge_command(tmp_path):
    code, path = run_to_file(
        tmp_path, "conv.json",
        ["converge", "--dim", "1", "--extent", "1", "--problem", "dirichlet_laplace",
         "--degree", "0", "--resolutions", "15,31,63"])
    assert code == 0
    report = json.loads(path.read_text())
    (study,) = report["studies"]
    assert study["observed_order"] == pytest.approx(2.0, abs=0.05)
    assert study["extrapolated"] == pytest.approx(math.pi ** 2, rel=1e-4)


def test_fine_clamped_plate_is_certified_without_factorization(tmp_path, monkeypatch):
    # at 127^2 the old relative residual ||Ax - theta Bx|| / ||Ax|| had a
    # rounding floor above 1e-9 and the run exited 2; the backward error
    # certifies every pair straight from the eigensolver, and the block is
    # solved matrix-free, with no sparse factorization
    real_splu = spla.splu
    calls = []

    def counted_splu(*args, **kwargs):
        calls.append(args[0].shape)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted_splu)
    code, path = run_to_file(
        tmp_path, "fine.json",
        ["box", "--dim", "2", "--extent", "1,1", "--cells", "127,127",
         "--problem", "clamped_plate", "--degree", "0", "--count", "4"])
    assert code == 0
    assert len(calls) == 0
    (entry,) = json.loads(path.read_text())["spectra"]
    assert all(r <= 1e-9 for r in entry["residuals"])
    # the continuum clamped-plate value of the unit square is 1294.934
    assert entry["values"][0] == pytest.approx(1294.934, rel=5e-3)


def test_fine_clamped_plate_convergence_ladder(tmp_path):
    code, path = run_to_file(
        tmp_path, "ladder.json",
        ["converge", "--dim", "2", "--extent", "1,1", "--problem", "clamped_plate",
         "--degree", "0", "--resolutions", "31,63,127"])
    assert code == 0
    (study,) = json.loads(path.read_text())["studies"]
    assert study["extrapolated"] == pytest.approx(1294.934, rel=5e-3)


def test_usage_errors_exit_one(tmp_path, capsys, monkeypatch):
    assert run(["box", "--dim", "2"]) == 1
    assert run(["nonsense"]) == 1
    # downstream contract violations surface as usage errors too
    assert run(["box", "--dim", "2", "--extent", "1,1", "--cells", "2,63",
                "--problem", "buckling", "--degree", "1"]) == 1
    assert run(["constants", "--dim", "2", "--degree", "2"]) == 1
    # no values at all, or more values than the deflated Neumann pencil has
    assert run(["box", "--dim", "2", "--extent", "1,1", "--cells", "3,3",
                "--problem", "dirichlet_laplace", "--degree", "0", "--count", "0"]) == 1
    assert run(["box", "--dim", "2", "--extent", "1,1", "--cells", "3,3",
                "--problem", "absolute_laplace", "--degree", "0", "--count", "25"]) == 1
    # extents whose grid spacing cannot carry the fourth-order operators
    for extent in ("1e-200,1", "1e300,1", "inf,1"):
        assert run(["box", "--dim", "2", "--extent", extent, "--cells", "5,5",
                    "--problem", "clamped_plate", "--degree", "0"]) == 1, extent
    # an infinite tolerance would make the residual certificate vacuous, and
    # neither it nor an infinite gamma can be written as JSON
    assert run(["box", "--dim", "2", "--extent", "1,1", "--cells", "5,5",
                "--problem", "dirichlet_laplace", "--degree", "0", "--tol", "inf"]) == 1
    assert run(["constants", "--dim", "4", "--degree", "2", "--gamma", "inf"]) == 1
    assert run(["verify", "--dim", "2", "--extent", "1,1", "--cells", "5,5",
                "--degrees", "1", "--gamma", "inf"]) == 1
    # nor can a gamma whose bounds overflow or underflow; verify rejects it
    # before it solves anything
    def no_battery(*args, **kwargs):
        raise AssertionError("verify solved before checking gamma")

    def no_solve(*args, **kwargs):
        raise AssertionError("box solved before checking --out")

    # the commands take their solvers from verify when they run
    monkeypatch.setattr(verify, "box_battery", no_battery)
    monkeypatch.setattr(verify, "solve_problem", no_solve)
    # a report whose directory does not exist fails before the solve
    assert run(["box", "--dim", "2", "--extent", "1,1", "--cells", "5,5",
                "--problem", "clamped_plate", "--degree", "0",
                "--out", str(tmp_path / "missing" / "box.json")]) == 1
    # and so does one that names an existing directory
    for out in (str(tmp_path), str(tmp_path) + os.sep):
        assert run(["box", "--dim", "2", "--extent", "1,1", "--cells", "5,5",
                    "--problem", "clamped_plate", "--degree", "0", "--out", out]) == 1, out
    for gamma in ("1e160", "1e200", "1e-200"):
        assert run(["constants", "--dim", "3", "--degree", "1", "--gamma", gamma]) == 1, gamma
        assert run(["verify", "--dim", "2", "--extent", "1,1", "--cells", "5,5",
                    "--degrees", "1", "--gamma", gamma]) == 1, gamma
    # in every dimension, also where no degree has constants to evaluate
    assert run(["verify", "--dim", "1", "--extent", "1", "--cells", "7", "--degrees", "0",
                "--gamma", "-5"]) == 1
    monkeypatch.undo()
    # radii whose ball eigenvalues overflow or whose square underflows
    for radius in ("1e-100", "1e-300"):
        assert run(["ball", "--dim", "2", "--radius", radius]) == 1, radius
    # a grid too coarse for the error-estimate ladder is rejected as such,
    # not by the coarsest grid of the ladder
    capsys.readouterr()
    assert run(["verify", "--dim", "2", "--extent", "1,1", "--cells", "7,7",
                "--degrees", "0", "--error-estimates"]) == 1
    message = capsys.readouterr().err
    assert "--cells" in message and "(1, 3, 7)" in message


def test_error_estimates_on_a_ladder_whose_coarsest_grid_holds_few_values(tmp_path):
    # the 3-cell level of the 1D ladder (3, 7, 15) has 3 Dirichlet values,
    # fewer than --count; only its first is read
    code, path = run_to_file(tmp_path, "ladder.json",
                             ["verify", "--dim", "1", "--extent", "1", "--cells", "15",
                              "--degrees", "0,1", "--error-estimates"])
    assert code == 0
    assert json.loads(path.read_text())["meta"]["status"] == "ok"


def test_numerical_failure_exit_two_with_partial_report(tmp_path, capsys):
    code, path = run_to_file(
        tmp_path, "fail.json",
        ["box", "--dim", "1", "--extent", "1", "--cells", "31",
         "--problem", "clamped_plate", "--degree", "0", "--tol", "1e-30"])
    assert code == 2
    report = json.loads(path.read_text())
    assert report["meta"]["status"] == "error"
    assert "residual" in report["meta"]["error"]
    assert report["spectra"], "partial spectrum must be flagged, not dropped"
    capsys.readouterr()


def test_converge_whose_refinement_is_not_monotone_exits_two_without_spectra(
        tmp_path, monkeypatch, capsys):
    # a rising ladder fails the study; its partial is the tuple of values, not
    # a spectrum, so the report holds the error and no spectra
    ladder = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(verify, "solve_problem",
                        lambda problem, m, tol, cache: SimpleNamespace(values=(next(ladder),)))
    code, path = run_to_file(
        tmp_path, "ladder.json",
        ["converge", "--dim", "1", "--extent", "1", "--problem", "dirichlet_laplace",
         "--degree", "0", "--resolutions", "15,31,63"])
    assert code == 2
    report = json.loads(path.read_text())
    assert report["meta"]["status"] == "error"
    assert "monotonically" in report["meta"]["error"]
    assert report["spectra"] == []
    assert "monotonically" in capsys.readouterr().err


def test_reports_byte_identical_across_runs(tmp_path):
    argv = ["verify", "--dim", "2", "--extent", "1,1", "--cells", "7,7",
            "--degrees", "0,1"]
    _, path = run_to_file(tmp_path, "report.json", argv)
    first = path.read_bytes()
    _, path = run_to_file(tmp_path, "report.json", argv)
    assert path.read_bytes() == first


def test_json_round_trip_preserves_values(tmp_path):
    code, path = run_to_file(
        tmp_path, "round.json",
        ["box", "--dim", "1", "--extent", "1", "--cells", "31",
         "--problem", "dirichlet_laplace", "--degree", "0", "--count", "2"])
    assert code == 0
    report = json.loads(path.read_text())
    rewritten = json.loads(json.dumps(report))
    assert rewritten == report
    # shortest round-trip serialization is exact
    h = 1.0 / 32.0
    exact = 4.0 / h ** 2 * math.sin(math.pi * h / 2.0) ** 2
    assert abs(report["spectra"][0]["values"][0] - exact) < 1e-10 * exact


def test_csv_format_rows(tmp_path):
    code, path = run_to_file(
        tmp_path, "ball.csv",
        ["ball", "--dim", "2", "--format", "csv"])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,relation,margin,status"
    assert len(lines) == 4
    assert all(line.endswith(",pass") for line in lines[1:])


def test_stdout_output(capsys):
    assert run(["constants", "--dim", "2", "--degree", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["constants"]["c_np"] == 4.0


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("hodge-spectra ")]
    assert len(commands) >= 6
    for argv in commands:
        _build_parser().parse_args(argv[1:])


def _child_env() -> dict:
    """The environment of a fresh interpreter that runs this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, HODGE_SPECTRA_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


_ENTRY_POINT = [
    (["box", "--dim", "2", "--extent", "1,1", "--cells", "15,15", "--problem", "buckling",
      "--degree", "1", "--count", "3"], "box.json"),
    (["verify", "--dim", "2", "--extent", "1,1", "--cells", "15,15", "--degrees", "0,1",
      "--format", "csv"], "verify.csv"),
    (["box", "--dim", "2", "--extent", "1,1", "--cells", "15,15", "--problem",
      "clamped_plate", "--degree", "0"], "-"),
    # a failed solve: exit 2 and the flagged partial report
    (["box", "--dim", "1", "--extent", "1", "--cells", "31", "--problem", "clamped_plate",
      "--degree", "0", "--tol", "1e-30"], "fail.json"),
]


@pytest.mark.parametrize("argv,out", _ENTRY_POINT,
                         ids=["box", "verify-csv", "stdout", "exit-2"])
def test_the_process_entry_point_writes_what_run_writes(tmp_path, capsys, argv, out):
    # python -m hodge_spectra runs main(), which adds the collector policy to run()
    path = "-" if out == "-" else str(tmp_path / out)
    env = dict(os.environ, PYTHONPATH=_child_env()["PYTHONPATH"])
    proc = subprocess.run([sys.executable, "-m", "hodge_spectra", *argv, "--out", path],
                          env=env, capture_output=True, timeout=300)
    child = proc.stdout if out == "-" else Path(path).read_bytes()
    code = run(argv + ["--out", path])
    captured = capsys.readouterr()
    assert proc.returncode == code
    assert proc.stderr.decode() == captured.err
    assert child == (captured.out.encode() if out == "-" else Path(path).read_bytes())
    if code == 2:
        report = json.loads(child)
        assert report["meta"]["status"] == "error" and report["spectra"]


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_finds_it(capsys, enabled):
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(["box", "--dim", "2", "--extent", "1,1", "--cells", "7,7", "--problem",
                    "buckling", "--degree", "0"]) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_a_ladder_level_is_served_by_a_solve_for_more_values(monkeypatch, kind):
    # verify --error-estimates solves each block of the grid for --count
    # values, and its ladder then asks the same grid for one: the cached
    # solve serves it, first pair and all
    problem = verify.assemble(verify.build_domain(2, (1.0, 1.0), (15, 15)), 1, kind)
    cache: dict = {}
    four = es.solve_problem(problem, m=4, cache=cache)
    solves = []
    for module, name in ((separable, "solve_block"), (es, "_solve_fourth_order")):
        monkeypatch.setattr(module, name, lambda *args: solves.append(args))
    one = es.solve_problem(problem, m=1, cache=cache)
    assert solves == []
    for field in ("values", "residuals", "error_bounds"):
        assert (numpy.asarray(getattr(one, field)).tobytes()
                == numpy.asarray(getattr(four, field)[:1]).tobytes()), field
    assert one.vectors.tobytes() == four.vectors[:, :1].tobytes()
    # a cached solve for fewer values does not serve a request for more
    monkeypatch.undo()
    assert len(es.solve_problem(problem, m=6, cache=cache).values) == 6


def test_module_invocation_honors_thread_cap(tmp_path):
    out = tmp_path / "threads.json"
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "hodge_spectra", "ball", "--dim", "3",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["constants"]["buckling_1"] == pytest.approx(20.1907, abs=1e-3)
    # the cap is exported to the BLAS layers before numpy loads
    probe = subprocess.run(
        [sys.executable, "-c",
         "import hodge_spectra, os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert probe.stdout.strip() == "1"


@pytest.mark.parametrize("cap", ["0", "two"])
def test_thread_cap_below_one_or_malformed_is_ignored_with_a_warning(cap):
    env = dict(_child_env(), HODGE_SPECTRA_THREADS=cap)
    env.pop("OPENBLAS_NUM_THREADS", None)
    probe = subprocess.run(
        [sys.executable, "-c",
         "import hodge_spectra, os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "None"
    assert f"ignoring HODGE_SPECTRA_THREADS={cap!r}" in probe.stderr


_MODULES = ("numpy", "scipy", "scipy.sparse", "scipy.linalg", "scipy.sparse.linalg",
            "hodge_spectra.eigensolve", "hodge_spectra.separable", "hodge_spectra.bessel",
            "hodge_spectra.checks", "fractions", "csv", "dataclasses", "inspect", "platform")
_PROBE = f"""
import sys
from hodge_spectra.cli import run
if sys.argv[1:] and run(sys.argv[1:]) != 0:
    sys.exit(3)
print(",".join(m for m in {_MODULES!r} if m in sys.modules))
"""
_BOX_23 = ["box", "--dim", "3", "--extent", "1,1,1", "--cells", "23,23,23", "--problem"]
_BATTERY = {"hodge_spectra.checks", "fractions"}
# what the closed-form route loads
_SECOND = {"hodge_spectra.separable"}
# what the reflection-class route loads: numpy loads inspect and platform,
# which no module of the package imports, and nothing loads dataclasses
_FOURTH = {"numpy", "inspect", "platform", "hodge_spectra.eigensolve"}


@pytest.mark.parametrize("argv,loaded", [
    # loading the CLI needs no numpy, no scipy and neither bessel nor checks,
    # nor dataclasses, inspect or platform; the commands that solve nothing
    # load only what they evaluate
    ([], set()),
    (["ball", "--dim", "2", "--radius", "1"], {"hodge_spectra.bessel"} | _BATTERY),
    (["constants", "--dim", "4", "--degree", "2", "--gamma", "1"], _BATTERY),
    # box needs no battery, and its separable route, from closed-form 1D
    # pairs, neither numpy nor eigensolve, at any count; nor does converge
    (_BOX_23 + ["dirichlet_laplace", "--degree", "1"], _SECOND),
    (_BOX_23 + ["absolute_laplace", "--degree", "0"], _SECOND),
    (["box", "--dim", "2", "--extent", "1,1", "--cells", "127,127", "--problem",
      "absolute_laplace", "--degree", "1", "--count", "64"], _SECOND),
    (["converge", "--dim", "2", "--extent", "1,1", "--problem", "dirichlet_laplace",
      "--degree", "1", "--resolutions", "31,63,127"], _SECOND),
    # the reflection-class route applies A and B from their per-axis factors,
    # with numpy, and never loads separable
    (_BOX_23 + ["clamped_plate", "--degree", "0"], _FOURTH),
    (_BOX_23 + ["buckling", "--degree", "1"], _FOURTH),
    # and so do the README verify and converge commands, whose fourth-order
    # blocks have dense classes (ladders, 1D) or LOBPCG ones (31^2, 63^2);
    # verify adds the battery and its second-order problems, and csv only
    # for a CSV report
    (["verify", "--dim", "2", "--extent", "1,1", "--cells", "63,63", "--degrees", "0,1,2",
      "--error-estimates"], _FOURTH | _SECOND | _BATTERY),
    (["verify", "--dim", "2", "--extent", "1,1", "--cells", "31,31", "--degrees", "0,1",
      "--format", "csv"], _FOURTH | _SECOND | {"csv"} | _BATTERY),
    (["converge", "--dim", "1", "--extent", "1", "--problem", "clamped_plate", "--degree", "0",
      "--resolutions", "31,63,127"], _FOURTH),
    # and 3D blocks at any count
    (["box", "--dim", "3", "--extent", "1,1,1", "--cells", "13,13,13", "--problem",
      "clamped_plate", "--degree", "0", "--count", "64"], _FOURTH),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    # a fresh interpreter per command, so that sys.modules holds only what it imported
    assert _modules_loaded(tmp_path, argv) == loaded


def test_no_command_forms_a_vector(tmp_path, monkeypatch):
    # with every function that forms eigenvectors made to raise, box on 23^3
    # for every kind and the README verify command write the reports of
    # unpatched runs to the same --out, byte for byte
    def forbidden(*args, **kwargs):
        raise AssertionError("a command formed an eigenvector")

    commands = [_BOX_23 + [kind, "--degree", degree] for kind, degree in (
        ("clamped_plate", "0"), ("buckling", "1"), ("dirichlet_laplace", "1"),
        ("absolute_laplace", "0"))]
    commands.append(["verify", "--dim", "2", "--extent", "1,1", "--cells", "63,63",
                     "--degrees", "0,1,2", "--error-estimates"])
    for argv in commands:
        code, path = run_to_file(tmp_path, "report.json", argv)
        assert code == 0, argv
        free = path.read_bytes()
        with monkeypatch.context() as patch:
            for module, name in ((blockwise, "_place_columns"), (separable, "block_vectors"),
                                 (es, "_unfold")):
                patch.setattr(module, name, forbidden)
            code, path = run_to_file(tmp_path, "report.json", argv)
        assert code == 0, argv
        assert path.read_bytes() == free, argv


def test_second_order_failure_exits_two_with_a_flagged_partial_report(tmp_path):
    # the separable route misses an impossible tolerance without numpy: the
    # failed block's values are reported under the flagged status
    report = tmp_path / "fail.json"
    probe = _PROBE.replace("sys.exit(3)", "print('exit', 2)")
    proc = subprocess.run(
        [sys.executable, "-c", probe, "box", "--dim", "2", "--extent", "1,1", "--cells", "9,9",
         "--problem", "dirichlet_laplace", "--degree", "1", "--tol", "1e-30", "--out",
         str(report)], env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["exit", "2", "hodge_spectra.separable"], proc.stdout
    data = json.loads(report.read_text())
    assert data["meta"]["status"] == "error" and "residual" in data["meta"]["error"]
    (partial,) = data["spectra"]
    assert partial["label"] == "pencil" and len(partial["values"]) == 4
    assert max(partial["residuals"]) > 1e-30


def test_box_verify_and_the_library_agree_bitwise_on_every_kind(tmp_path):
    # box, the verify battery and eigensolve.solve_problem take their values,
    # backward errors and bounds from the one problem solve, for every kind
    argv = ["--dim", "2", "--extent", "1,1.3", "--cells", "9,11"]
    _, path = run_to_file(tmp_path, "verify.json", ["verify", *argv, "--degrees", "0,1,2"])
    battery = {(entry["kind"], entry["degree"]): entry
               for entry in json.loads(path.read_text())["spectra"]}
    assert battery.keys() == {(kind.value, degree) for kind in ProblemKind
                              for degree in (0, 1, 2)}
    for kind in ProblemKind:
        for degree in (0, 1, 2):
            _, path = run_to_file(tmp_path, "box.json", ["box", *argv, "--problem", kind.value,
                                                         "--degree", str(degree)])
            (entry,) = json.loads(path.read_text())["spectra"]
            problem = verify.assemble(verify.build_domain(2, (1.0, 1.3), (9, 11)), degree, kind)
            library = es.solve_problem(problem, m=4)
            for field in ("values", "residuals", "error_bounds"):
                want = numpy.asarray(entry[field]).tobytes()
                assert numpy.asarray(battery[kind.value, degree][field]).tobytes() == want, (
                    kind, degree, field)
                assert numpy.asarray(getattr(library, field)).tobytes() == want, (
                    kind, degree, field)


def test_general_route_loads_scipy_when_it_runs(tmp_path):
    # the 511-dof 1D block of this ladder has classes above DENSE_CUTOFF and takes
    # solve_pencil; a positive control that the probe sees imports made
    # inside functions
    argv = ["converge", "--dim", "1", "--extent", "1", "--problem", "clamped_plate",
            "--degree", "0", "--resolutions", "127,255,511"]
    assert "scipy.sparse.linalg" in _modules_loaded(tmp_path, argv)


def test_report_versions_are_the_imported_packages(tmp_path):
    # read from the packages' version files, which their __version__ comes from
    _, path = run_to_file(tmp_path, "ball.json", ["ball", "--dim", "2"])
    versions = json.loads(path.read_text())["meta"]["versions"]
    assert versions["numpy"] == numpy.__version__
    assert versions["scipy"] == scipy.__version__


_TRACED = [
    (["ball", "--dim", "2", "--radius", "1"],
     {"ball_spectrum": 1, "check_inequalities": 1, "emit_report": 1}),
    (["verify", "--dim", "2", "--extent", "1,1", "--cells", "15,15", "--degrees", "0,1"],
     {"build_domain": 1, "box_battery": 1, "assemble": 9, "solve_problem": 9,
      "check_inequalities": 1, "emit_report": 1}),
    (["box", "--dim", "2", "--extent", "1,1", "--cells", "15,15", "--problem", "buckling",
      "--degree", "0", "--count", "4"],
     {"build_domain": 1, "assemble": 1, "solve_problem": 1, "emit_report": 1}),
]


@pytest.mark.parametrize("argv,spans", _TRACED, ids=[argv[0] for argv, _ in _TRACED])
def test_the_tracer_finds_every_name_it_wraps(tmp_path, argv, spans):
    # perfbench/traced_cli.py wraps names where cli and verify bind them
    # before the command runs; a name bound only inside a command would
    # drop its spans silently
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    trace = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(tracer), str(trace), "--", *argv,
                           "--out", str(tmp_path / "report")],
                          env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(trace.read_text())["spans"]
    assert Counter(span["name"] for span in recorded) == spans
    # the battery's verdicts reach the trace
    for span in recorded:
        if span["name"] == "check_inequalities":
            assert sum(span["attrs"]["statuses"].values()) > 0
    # the names exported lazily still resolve
    for module in (hodge_spectra, verify):
        for name in module.__all__:
            getattr(module, name)


def _modules_loaded(tmp_path, argv) -> set:
    env = _child_env()
    out = ["--out", str(tmp_path / "report")] if argv else []
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv, *out],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(filter(None, proc.stdout.strip().split(",")))
