"""Independent checks of hodge-spectra reports.

Second-order spectra on a box are Kronecker sums of 1D pencils with closed
forms: an axis with value (Dirichlet) faces has the eigenvalues
(2 - 2 cos(j pi/(c+1)))/h^2 for j = 1..c, an axis with derivative faces the
same expression for j = 0..c+1.  A p-form's spectrum is the union over its
C(n,p) components, and at absolute p=0 the constant mode (eigenvalue 0) is
deflated.  Ball values come from Bessel roots computed with scipy.special.
A CSV battery report carries no spectra, only each check's two sides; the
sides that are second-order eigenvalues are checked against the closed form.
Fourth-order values have no closed form on a box; they are checked through
their residual certificates, the battery verdicts that relate them to the
other problems, and byte-identical repeats (done by the caller).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from scipy.optimize import brentq
from scipy.special import iv, jv

from workloads import SECOND_ORDER, Command

# Relative agreement required between a reported eigenvalue and its oracle.
RTOL = 1e-8
DEFAULT_TOL = 1e-9


def axis_eigenvalues(cells: int, h: float, value_faces: bool, m: int) -> list[float]:
    """The m smallest eigenvalues of one axis' 1D pencil, ascending."""
    js = range(1, cells + 1) if value_faces else range(0, cells + 2)
    vals = [(2.0 - 2.0 * math.cos(j * math.pi / (cells + 1))) / (h * h) for j in js]
    return vals[:m]


def box_eigenvalues(kind: str, extent, cells, degree: int, m: int) -> list[float]:
    """The m smallest eigenvalues of a second-order p-form pencil on a box."""
    if kind not in SECOND_ORDER:
        raise ValueError(f"no closed form for {kind!r}")
    dim = len(cells)
    spacing = [e / (c + 1) for e, c in zip(extent, cells)]
    values: list[float] = []
    for component in itertools.combinations(range(dim), degree):
        axes = [axis_eigenvalues(cells[k], spacing[k],
                                 kind == "dirichlet_laplace" or k in component, m + 1)
                for k in range(dim)]
        values.extend(sum(parts) for parts in itertools.product(*axes))
    values.sort()
    if kind == "absolute_laplace" and degree == 0:
        values = values[1:]
    return values[:m]


def _first_root(f, step: float = 0.05) -> float:
    lo = step
    f_lo = f(lo)
    while True:
        hi = lo + step
        f_hi = f(hi)
        if f_lo * f_hi < 0.0:
            return brentq(f, lo, hi, xtol=1e-15, rtol=1e-15)
        lo, f_lo = hi, f_hi


def ball_eigenvalues(dim: int, radius: float) -> dict[str, float]:
    """First Dirichlet, buckling and clamped eigenvalues of the ball in R^dim."""
    nu = dim / 2.0 - 1.0
    j_nu = _first_root(lambda x: jv(nu, x))
    j_next = _first_root(lambda x: jv(nu + 1.0, x))
    k_nu = _first_root(lambda x: jv(nu, x) * iv(nu + 1.0, x) + jv(nu + 1.0, x) * iv(nu, x))
    return {
        "dirichlet_1": (j_nu / radius) ** 2,
        "buckling_1": (j_next / radius) ** 2,
        "clamped_1": (k_nu / radius) ** 4,
    }


@dataclass
class Outcome:
    """What the checks found in one command's result."""

    mismatches: list[str] = field(default_factory=list)   # wrong or unflagged output
    failure: Optional[str] = None                         # why the command counts as failed
    statuses: Counter = field(default_factory=Counter)    # battery verdicts in the report


def _close(value: float, reference: float, rtol: float = RTOL) -> bool:
    return abs(value - reference) <= rtol * abs(reference)


def _check_spectrum(entry: dict, kind: str, degree: int, cmd: Command,
                    certified: bool, out: Outcome) -> None:
    values, residuals = entry["values"], entry["residuals"]
    label = f"{kind} p={degree}"
    count = int(cmd.opt("count") or 4)
    tol = float(cmd.opt("tol") or DEFAULT_TOL)
    if len(values) != count or len(residuals) != count:
        out.mismatches.append(f"{label}: expected {count} values, got {len(values)}")
        return
    if any(b < a for a, b in zip(values, values[1:])) or not all(v > 0 for v in values):
        out.mismatches.append(f"{label}: values not positive ascending: {values}")
    if certified and any(not r <= tol for r in residuals):
        out.mismatches.append(f"{label}: residual above {tol} in a certified report")
    if kind in SECOND_ORDER:
        expected = box_eigenvalues(kind, cmd.floats("extent"), cmd.ints("cells"), degree, count)
        for i, (v, e) in enumerate(zip(values, expected)):
            if not _close(v, e):
                out.mismatches.append(f"{label}[{i}] = {v!r}, closed form {e!r}")


def _check_constants(consts: dict, cmd: Command, out: Outcome) -> None:
    n, p, gamma = int(cmd.opt("dim")), int(cmd.opt("degree")), float(cmd.opt("gamma"))
    bound = gamma * p * (n - p + 1)
    expected = {"dirichlet_bound": bound, "buckling_bound": bound, "clamped_bound": bound ** 2}
    if 2 * p == n:
        # half-degree identity C(n, n/2)/n = 1 + 16/(n^2 (n+2))
        expected["c_np"] = n * (1.0 + 16.0 / (n * n * (n + 2)))
        gap = consts.get("halfdegree_identity_gap")
        if not (gap is not None and gap <= 1e-14):
            out.mismatches.append(f"halfdegree_identity_gap {gap!r}")
    for key, ref in expected.items():
        if not _close(consts[key], ref, 1e-12):
            out.mismatches.append(f"constants {key} = {consts[key]!r}, expected {ref!r}")


def csv_closed_forms(cmd: Command) -> dict[tuple[str, str], float]:
    """Closed forms of the CSV battery sides that are second-order eigenvalues.

    Keys are (check name, "lhs" or "rhs"); the names and sides follow
    hodge_spectra.verify.check_inequalities.
    """
    n, extent, cells = int(cmd.opt("dim")), cmd.floats("extent"), cmd.ints("cells")
    degrees = cmd.ints("degrees")

    def first(kind: str, degree: int, index: int = 0) -> float:
        return box_eigenvalues(kind, extent, cells, degree, index + 1)[index]

    dirichlet, absolute = SECOND_ORDER
    expected = {}
    for p in degrees:
        expected[f"dirichlet_below_sqrt_clamped[p={p}]", "lhs"] = first(dirichlet, p)
        expected[f"dirichlet_below_buckling[p={p}]", "lhs"] = first(dirichlet, p)
        expected[f"absolute_pair_below_buckling[p={p}]", "lhs"] = max(
            first(absolute, p), first(absolute, n - p))
        if p >= 1:
            expected[f"adjacent_dirichlet_below_buckling[p={p}]", "lhs"] = min(
                first(dirichlet, q) for q in (p - 1, p + 1) if q <= n)
    if 1 in degrees:
        expected["gradient_dirichlet_below_scalar_buckling", "lhs"] = first(dirichlet, 1)
    if 0 in degrees:
        if n == 2:
            expected["second_dirichlet_below_scalar_buckling", "lhs"] = first(dirichlet, 0, 1)
        expected["scalar_neumann_below_scalar_dirichlet", "lhs"] = first(absolute, 0)
        expected["scalar_neumann_below_scalar_dirichlet", "rhs"] = first(dirichlet, 0)
        expected["scalar_neumann_below_scalar_buckling", "lhs"] = first(absolute, 0)
    return expected


def _check_csv(rows: list[dict], cmd: Command, ok: bool, out: Outcome) -> None:
    out.statuses.update(row["status"] for row in rows)
    by_name = {row["name"]: row for row in rows}
    for (name, side), ref in csv_closed_forms(cmd).items():
        text = by_name.get(name, {}).get(side) or ""
        if not text:
            if ok:
                out.mismatches.append(f"csv {name} has no {side}")
        elif not _close(float(text), ref):
            out.mismatches.append(f"csv {name} {side} = {text}, closed form {ref!r}")


def _check_json(report: dict, cmd: Command, ok: bool, out: Outcome) -> None:
    meta = report["meta"]
    if meta["command"] != cmd.sub:
        out.mismatches.append(f"report is for {meta['command']!r}, not {cmd.sub!r}")
    if ok != (meta["status"] == "ok"):
        out.mismatches.append(f"exit status and report status {meta['status']!r} disagree")
    if not ok:
        out.failure = meta.get("error") or "report flagged as failed without a message"
    if cmd.sub == "box":
        for entry in report["spectra"]:
            # a failed solve reports its partial spectrum under a generic label
            _check_spectrum(entry, cmd.opt("problem"), int(cmd.opt("degree")), cmd, ok, out)
        if ok and len(report["spectra"]) != 1:
            out.mismatches.append(f"box report has {len(report['spectra'])} spectra")
    elif cmd.sub == "verify":
        for entry in report["spectra"]:
            _check_spectrum(entry, entry["kind"], entry["degree"], cmd, ok, out)
    elif cmd.sub == "ball":
        expected = ball_eigenvalues(int(cmd.opt("dim")), float(cmd.opt("radius")))
        for key, ref in expected.items():
            if not _close(report["constants"][key], ref):
                out.mismatches.append(f"ball {key} = {report['constants'][key]!r}, Bessel {ref!r}")
    elif cmd.sub == "constants":
        _check_constants(report["constants"], cmd, out)
    out.statuses.update(check["status"] for check in report["checks"])


def check_result(cmd: Command, returncode: int, data: Optional[bytes], stderr: str) -> Outcome:
    """Check one command's exit code and report against the oracles.

    Exit 0 must come with a clean report; exit 2 (numerical failure) with a
    report flagged as failed.  Any other exit, a battery `fail` verdict or
    a flagged failure makes the command failed; wrong values, unflagged
    failures and unreadable reports are mismatches.
    """
    out = Outcome()
    last_line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if returncode not in (0, 2):
        out.failure = f"exit {returncode}: {last_line}"
        return out
    if data is None:
        out.mismatches.append(f"exit {returncode} but no report was written")
        out.failure = f"exit {returncode}: {last_line}"
        return out
    ok = returncode == 0
    try:
        if cmd.fmt == "csv":
            _check_csv(list(csv.DictReader(io.StringIO(data.decode("utf-8")))), cmd, ok, out)
            if not ok:
                out.failure = last_line or "exit 2"
        else:
            _check_json(json.loads(data), cmd, ok, out)
    except (ValueError, KeyError, TypeError) as exc:
        out.mismatches.append(f"unreadable report: {exc!r}")
    if out.failure is None and out.statuses["fail"]:
        out.failure = f"{out.statuses['fail']} battery checks failed"
    if out.failure is None and out.mismatches:
        out.failure = "output disagrees with the oracle"
    return out
