"""Command-line front end: configure domains and problems, run solves and
verification batteries, and emit machine-readable reports.

Exit codes: 0 success, 1 usage error (including an --out that is a directory
or whose directory does not exist, found before any solve), 2 numerical
failure (a partial report is still written, flagged in its meta block) or a
report that cannot be written at the end.  JSON is the primary format; CSV
flattens the check table.  Identical configurations produce byte-identical
reports; numbers are serialized in shortest round-trip decimal form.

`main`, the process entry point, runs a command with the cyclic garbage
collector disabled and freezes the heap before the interpreter exits;
`run`, for in-process callers, leaves the collector alone.

Loading this module imports, of the package, only its `__init__` (the
problem kinds and the default tolerance) and `errors`, and neither numpy
nor scipy.  Each command loads what it runs, when it runs: `ball` loads
`bessel` and `checks`, `constants` loads `checks`, and `box`, `verify`
and `converge` take their solver names from `verify` and load numpy with
it; of those, only `verify` loads `checks`.  The report's numpy and scipy
versions are read from the packages' version files, not by importing
them, and `csv` is loaded only to write a CSV report.  `ball_spectrum`
and `check_inequalities` are module-level functions that call through to
their modules, so that a caller (or a tracer) finds them bound here
before those modules load.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from . import DEFAULT_TOL, ProblemKind, __version__
from .errors import NumericalFailure

if TYPE_CHECKING:
    from .bessel import BallSpectrum
    from .checks import ConstantsBundle, InequalityReport, SpectrumSet
    from .eigensolve import Spectrum
    from .verify import ConvergenceStudy

__all__ = ["RunConfig", "run", "emit_report", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exceptions (exit code 1)."""

    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str
    dim: int = 0
    extent: tuple[float, ...] = ()
    cells: tuple[int, ...] = ()
    degree: Optional[int] = None
    degrees: tuple[int, ...] = ()
    problem: Optional[str] = None
    count: int = 4
    tol: float = DEFAULT_TOL
    gamma: float = 1.0
    radius: float = 1.0
    resolutions: tuple[int, ...] = ()
    error_estimates: bool = False
    out: str = "-"
    fmt: str = "json"


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated reals, got {text!r}") from exc


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="hodge-spectra",
                     description="Eigenvalue problems for p-forms on boxes and balls.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="-", help="report path, '-' for stdout")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    # the flags of the commands that solve on a box, and of those that solve on one grid
    solving = _Parser(add_help=False)
    solving.add_argument("--dim", type=int, required=True)
    solving.add_argument("--extent", type=_floats, required=True)
    solving.add_argument("--tol", type=float, default=RunConfig.tol)
    grid = _Parser(add_help=False, parents=[solving])
    grid.add_argument("--cells", type=_ints, required=True)
    grid.add_argument("--count", type=int, default=RunConfig.count)

    p_ball = sub.add_parser("ball", help="closed-form ball spectrum and chain checks")
    p_ball.add_argument("--dim", type=int, required=True)
    p_ball.add_argument("--radius", type=float, default=1.0)
    common(p_ball)

    p_box = sub.add_parser("box", help="solve one problem on a box", parents=[grid])
    p_box.add_argument("--problem", required=True,
                       choices=[k.value for k in ProblemKind])
    p_box.add_argument("--degree", type=int, required=True)
    common(p_box)

    p_verify = sub.add_parser("verify", help="full inequality battery on a box",
                              parents=[grid])
    p_verify.add_argument("--degrees", type=_ints, required=True)
    p_verify.add_argument("--gamma", type=float, default=1.0)
    p_verify.add_argument("--error-estimates", dest="error_estimates",
                          action="store_true",
                          help="attach three-level convergence error estimates")
    common(p_verify)

    p_const = sub.add_parser("constants", help="curvature-bound constants")
    p_const.add_argument("--dim", type=int, required=True)
    p_const.add_argument("--degree", type=int, required=True)
    p_const.add_argument("--gamma", type=float, default=1.0)
    common(p_const)

    p_conv = sub.add_parser("converge", help="mesh refinement study", parents=[solving])
    p_conv.add_argument("--problem", required=True,
                        choices=[k.value for k in ProblemKind])
    p_conv.add_argument("--degree", type=int, required=True)
    p_conv.add_argument("--resolutions", type=_ints, required=True)
    common(p_conv)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("dim", "extent", "cells", "degree", "degrees", "problem", "count",
                 "tol", "gamma", "radius", "resolutions", "error_estimates",
                 "out", "fmt"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    # before any solve: a report that has nowhere to go is a usage error
    if cfg.out != "-" and not os.path.isdir(os.path.dirname(cfg.out) or "."):
        raise UsageError(f"--out {cfg.out!r}: its directory does not exist")
    if cfg.out != "-" and os.path.isdir(cfg.out):
        raise UsageError(f"--out {cfg.out!r} is a directory")
    return cfg


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _spectrum_entry(spec: Spectrum) -> dict:
    return {
        "label": spec.label,
        "degree": spec.degree,
        "kind": spec.kind,
        "values": [float(v) for v in spec.values],
        "residuals": [float(r) for r in spec.residuals],
        "error_bounds": [float(e) for e in spec.error_bounds],
        "deflated_kernel_dim": int(spec.deflated_kernel_dim),
    }


def _check_entry(check) -> dict:
    return {
        "name": check.name,
        "lhs": None if check.lhs is None else float(check.lhs),
        "rhs": None if check.rhs is None else float(check.rhs),
        "relation": check.relation,
        "margin": None if check.margin is None else float(check.margin),
        "status": check.status,
        "tolerance": float(check.tolerance),
        "provenance": list(check.provenance),
        "note": check.note,
    }


def _bounds_entry(bundle: ConstantsBundle) -> dict:
    """The curvature-bound constants of one degree, as `verify` and `constants` write them."""
    return {
        "c_np": bundle.c_np,
        "dirichlet_bound": bundle.dirichlet_bound,
        "buckling_bound": bundle.buckling_bound,
        "clamped_bound": bundle.clamped_bound,
    }


def _study_entry(study: ConvergenceStudy) -> dict:
    return {
        "label": study.label,
        "resolutions": list(study.resolutions),
        "values": [float(v) for v in study.values],
        "extrapolated": float(study.extrapolated),
        "observed_order": float(study.observed_order),
        "error_estimate": float(study.error_estimate),
    }


def _package_version(package: str) -> str:
    """`version` in `package`'s version.py, where its `__version__` comes from,
    read without importing `package`."""
    origin = importlib.util.find_spec(package).origin
    path = os.path.join(os.path.dirname(origin), "version.py")
    spec = importlib.util.spec_from_file_location(f"_{package}_version", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


def _new_report(cfg: RunConfig) -> dict:
    config = {k: (list(v) if isinstance(v, tuple) else v)
              for k, v in asdict(cfg).items()}
    return {
        "meta": {
            "command": cfg.command,
            "config": config,
            "versions": {
                "hodge-spectra": __version__,
                "python": platform.python_version(),
                "numpy": _package_version("numpy"),
                "scipy": _package_version("scipy"),
            },
            "status": "ok",
        },
        "spectra": [],
        "checks": [],
        "constants": {},
        "studies": [],
    }


def emit_report(report: dict, fmt: str, path: str) -> None:
    """Serialize the report as JSON (full) or CSV (checks table)."""
    if fmt == "json":
        payload = json.dumps(report, indent=2) + "\n"
    elif fmt == "csv":
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["name", "lhs", "rhs", "relation", "margin", "status"])
        for check in report.get("checks", []):
            writer.writerow([
                check["name"],
                "" if check["lhs"] is None else repr(check["lhs"]),
                "" if check["rhs"] is None else repr(check["rhs"]),
                check["relation"],
                "" if check["margin"] is None else repr(check["margin"]),
                check["status"],
            ])
        payload = buffer.getvalue()
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def ball_spectrum(n: int, radius: float) -> BallSpectrum:
    """`bessel.ball_spectrum`, loading `bessel` on first call."""
    from .bessel import ball_spectrum

    return ball_spectrum(n, radius)


def check_inequalities(spectra: SpectrumSet) -> InequalityReport:
    """`checks.check_inequalities`, loading `checks` on first call."""
    from .checks import check_inequalities

    return check_inequalities(spectra)


def _cmd_ball(cfg: RunConfig, report: dict) -> None:
    # both modules load before the calls, so that a span around a call times its work alone
    from . import bessel  # noqa: F401
    from .checks import SpectrumSet

    spec = ball_spectrum(cfg.dim, cfg.radius)
    report["constants"] = {
        "dim": spec.dim,
        "radius": float(spec.radius),
        "dirichlet_1": float(spec.lambda1),
        "buckling_1": float(spec.big_lambda1),
        "clamped_1": float(spec.big_gamma1),
    }
    battery = check_inequalities(SpectrumSet(dim=cfg.dim, ball=spec))
    report["checks"] = [_check_entry(c) for c in battery.checks
                        if c.name.startswith("ball_chain")]


def _cmd_box(cfg: RunConfig, report: dict) -> None:
    from .verify import assemble, build_domain, solve_problem

    domain = build_domain(cfg.dim, cfg.extent, cfg.cells)
    problem = assemble(domain, cfg.degree, ProblemKind(cfg.problem))
    spectrum = solve_problem(problem, m=cfg.count, tol=cfg.tol)
    report["spectra"] = [_spectrum_entry(spectrum)]


def _cmd_verify(cfg: RunConfig, report: dict) -> None:
    from .checks import _curvature_bounds, evaluate_constants, halfdegree_identity_gap
    from .verify import box_battery, build_domain

    domain = build_domain(cfg.dim, cfg.extent, cfg.cells)
    # gamma first, so that a bad one fails before any solve, also where no
    # degree has constants to evaluate (dim 1); BoxDomain's dim <= 3 has p = 1 only
    _curvature_bounds(cfg.dim, 1, cfg.gamma)
    constants = {f"p={p}": _bounds_entry(evaluate_constants(cfg.dim, p, cfg.gamma))
                 for p in range(1, cfg.dim // 2 + 1)}
    if cfg.dim % 2 == 0:
        constants["halfdegree_identity_gap"] = halfdegree_identity_gap(cfg.dim)
    spectra, battery = box_battery(domain, cfg.degrees, m=cfg.count, tol=cfg.tol,
                                   with_error_estimates=cfg.error_estimates)
    report["spectra"] = [_spectrum_entry(spectra.spectra[key])
                         for key in sorted(spectra.spectra)]
    report["checks"] = [_check_entry(c) for c in battery.checks]
    report["constants"] = constants


def _cmd_constants(cfg: RunConfig, report: dict) -> None:
    from .checks import evaluate_constants, halfdegree_identity_gap

    bundle = evaluate_constants(cfg.dim, cfg.degree, cfg.gamma)
    report["constants"] = {
        "dim": bundle.dim,
        "degree": bundle.degree,
        "gamma": bundle.gamma,
        **_bounds_entry(bundle),
    }
    if bundle.dim % 2 == 0:
        report["constants"]["halfdegree_identity_gap"] = \
            halfdegree_identity_gap(bundle.dim)


def _cmd_converge(cfg: RunConfig, report: dict) -> None:
    from .verify import convergence_study

    study = convergence_study(cfg.dim, cfg.extent, ProblemKind(cfg.problem),
                              cfg.degree, cfg.resolutions, tol=cfg.tol)
    report["studies"] = [_study_entry(study)]


_COMMANDS = {
    "ball": _cmd_ball,
    "box": _cmd_box,
    "verify": _cmd_verify,
    "constants": _cmd_constants,
    "converge": _cmd_converge,
}


def run(argv: Sequence[str]) -> int:
    """Parse flags, execute, write the report; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        cfg = _config_from_args(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    report = _new_report(cfg)
    try:
        _COMMANDS[cfg.command](cfg, report)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        report["meta"]["status"] = "error"
        report["meta"]["error"] = str(exc)
        # a Spectrum exists only once eigensolve has loaded, which ball and constants never do
        eigensolve = sys.modules.get(f"{__package__}.eigensolve")
        if eigensolve is not None and isinstance(exc.partial, eigensolve.Spectrum):
            report["spectra"].append(_spectrum_entry(exc.partial))
        try:
            emit_report(report, cfg.fmt, cfg.out)
        except OSError as io_exc:
            print(f"error: {io_exc}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        emit_report(report, cfg.fmt, cfg.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    """The process entry point (`python -m hodge_spectra`, the `hodge-spectra`
    script): `run` on the process's arguments, then exit with its code.

    A command is one short process whose memory the kernel frees at exit,
    so the cyclic garbage collector has nothing to do in it: it is disabled
    while the command runs, and once the report is written every tracked
    object is frozen (moved to the permanent generation), which the
    collections at interpreter shutdown skip.  `run` leaves the collector
    as it finds it, for in-process callers.
    """
    gc.disable()
    code = run(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
