"""Mesh-convergence studies with Richardson extrapolation, and the box
battery that solves all four problems on a box and runs the inequality
checks on their spectra.

This module loads `discretize`, which loads numpy only when a block's
dense factors are read.  `solve_problem` is `blockwise.solve_problem`,
which sends Dirichlet and absolute blocks to `separable`, which solves
them with the standard library alone, and fourth-order ones to
`eigensolve`, loading each on first call: `box` and `converge` on a
second-order problem, which take their solvers from here, load neither
numpy nor `eigensolve`.  The constants and the inequality battery live in
`checks`, which loads neither; it is loaded only when the battery runs, so
`box` and `converge` never load it.  `check_inequalities` is a
module-level function that calls through to `checks`.  Both names are
bound here before the modules they call load, so that a caller (the
battery, or a tracer) finds them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

from . import DEFAULT_TOL, ProblemKind, _FrozenRecord
from .blockwise import solve_problem
from .discretize import BoxDomain, assemble, build_domain
from .errors import NumericalFailure

if TYPE_CHECKING:
    from .checks import InequalityReport, SpectrumSet

__all__ = [
    "ConvergenceStudy",
    "check_inequalities",
    "convergence_study",
    "box_battery",
    "solve_problem",
]


def check_inequalities(spectra: SpectrumSet) -> InequalityReport:
    """`checks.check_inequalities`, loading `checks` on first call."""
    from .checks import check_inequalities

    return check_inequalities(spectra)


# ---------------------------------------------------------------------------
# mesh convergence
# ---------------------------------------------------------------------------

class ConvergenceStudy(_FrozenRecord):
    """First-eigenvalue refinement series with Richardson extrapolation."""

    label: str
    resolutions: tuple[int, ...]
    values: tuple[float, ...]
    extrapolated: float
    observed_order: float

    def __init__(self, label, resolutions, values, extrapolated, observed_order):
        super().__init__(label, resolutions, values, extrapolated, observed_order)

    @property
    def error_estimate(self) -> float:
        return abs(self.extrapolated - self.values[-1])


def convergence_study(dim: int, extent: Sequence[float], kind: ProblemKind,
                      degree: int, resolutions: Sequence[int],
                      tol: float = DEFAULT_TOL,
                      cache: Optional[dict] = None) -> ConvergenceStudy:
    """Solve the problem on successively refined grids for their first
    eigenvalue and extrapolate.

    The observed order comes from the last three levels, which must share a
    common refinement ratio in (cells + 1).  A level whose blocks `cache`
    holds, solved for more values, is served from it.
    """
    res = tuple(int(r) for r in resolutions)
    if len(res) < 3:
        raise ValueError("need at least 3 resolutions")
    if any(a >= b for a, b in zip(res, res[1:])):
        raise ValueError(f"resolutions must be strictly increasing, got {res}")
    kind = ProblemKind(kind)
    values = []
    for r in res:
        domain = build_domain(dim, extent, [r] * dim)
        spectrum = solve_problem(assemble(domain, degree, kind), m=1, tol=tol, cache=cache)
        values.append(float(spectrum.values[0]))
    coarse, mid, fine = values[-3], values[-2], values[-1]
    rc, rm, rf = res[-3], res[-2], res[-1]
    rho_cm = (rm + 1) / (rc + 1)
    rho_mf = (rf + 1) / (rm + 1)
    if abs(rho_cm - rho_mf) > 1e-12 * rho_mf:
        raise ValueError(
            f"last three levels must share one refinement ratio, got {rho_cm} vs {rho_mf}")
    if mid == fine:
        return ConvergenceStudy(
            label=f"{kind.value} p={degree} dim={dim}",
            resolutions=res, values=tuple(values),
            extrapolated=fine, observed_order=math.inf)
    ratio = (coarse - mid) / (mid - fine)
    if not ratio > 1.0:
        raise NumericalFailure(
            f"refinement did not converge monotonically (ratio {ratio})",
            partial=tuple(values))
    order = math.log(ratio) / math.log(rho_mf)
    extrapolated = fine + (fine - mid) / (rho_mf ** order - 1.0)
    return ConvergenceStudy(
        label=f"{kind.value} p={degree} dim={dim}",
        resolutions=res, values=tuple(values),
        extrapolated=extrapolated, observed_order=order)


# ---------------------------------------------------------------------------
# batteries
# ---------------------------------------------------------------------------

def box_battery(domain: BoxDomain, degrees: Sequence[int], m: int = 4,
                tol: float = DEFAULT_TOL, with_error_estimates: bool = False,
                cache: Optional[dict] = None) -> tuple[SpectrumSet, InequalityReport]:
    """Solve all four problems on a box for the given degrees and run the checks.

    Absolute spectra are also computed at the complementary degrees n - p,
    which the pairing inequality needs.  With `with_error_estimates`, each
    (kind, degree) gets a discretization-error estimate from a three-level
    convergence study ending at this grid (requires cells + 1 divisible by 4
    and a cubic grid), and the combined check tolerances include it.
    """
    from .checks import SpectrumSet

    degrees = sorted(set(int(p) for p in degrees))
    if any(not 0 <= p <= domain.dim for p in degrees):
        raise ValueError(f"degrees must lie in [0, {domain.dim}], got {degrees}")
    cells = domain.cells[0]
    ladder = ((cells + 1) // 4 - 1, (cells + 1) // 2 - 1, cells)
    if with_error_estimates and (any(c != cells for c in domain.cells) or (cells + 1) % 4
                                 or ladder[0] < 3):
        raise ValueError(
            f"error estimates need a cubic grid with --cells c >= 15 and c + 1 divisible by 4 "
            f"(the ladder {ladder} needs 3 cells at its coarsest); got {domain.cells}")
    cache = {} if cache is None else cache
    spectra = SpectrumSet(dim=domain.dim)
    absolute_degrees = sorted(set(degrees) | {domain.dim - p for p in degrees})
    for p in degrees:
        for kind in (ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING,
                     ProblemKind.DIRICHLET_LAPLACE):
            spectra.add(solve_problem(assemble(domain, p, kind), m=m, tol=tol, cache=cache))
    for p in absolute_degrees:
        spectra.add(solve_problem(assemble(domain, p, ProblemKind.ABSOLUTE_LAPLACE),
                                  m=m, tol=tol, cache=cache))
    if with_error_estimates:
        for (kind_value, p) in list(spectra.spectra):
            # the ladder's last level is this grid, served by the solves above
            study = convergence_study(domain.dim, domain.extent, ProblemKind(kind_value),
                                      p, ladder, tol=tol, cache=cache)
            spectra.error_estimates[(kind_value, p)] = study.error_estimate
    return spectra, check_inequalities(spectra)
