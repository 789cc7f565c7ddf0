"""Constants, inequality battery, and convergence-study tests.

Continuum targets are recomputed in-test from their defining equations
(bisection oracles) rather than hard-coded from the implementation.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from hodge_spectra.bessel import ball_spectrum
from hodge_spectra.checks import (
    InequalityReport,
    SpectrumSet,
    evaluate_constants,
    halfdegree_identity_gap,
    _Quantity,
)
from hodge_spectra.discretize import ProblemKind, build_domain
from hodge_spectra.eigensolve import Spectrum
from hodge_spectra.verify import box_battery, check_inequalities, convergence_study


def bisect(f, lo, hi, iters=80):
    f_lo = f(lo)
    assert f_lo * f(hi) < 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f_lo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            f_lo = f(lo)
    return 0.5 * (lo + hi)


# continuum oracle: clamped rod constant mu^4 with cos(mu) cosh(mu) = 1
ROD_MU = bisect(lambda m: math.cos(m) * math.cosh(m) - 1.0, 4.5, 5.0)
ROD_CLAMPED = ROD_MU ** 4  # = 500.5639017...


def test_rod_oracle_value():
    assert ROD_CLAMPED == pytest.approx(500.5639, abs=1e-3)


def test_buckling_rod_solution_satisfies_equation():
    # f = 1 - cos(2 pi x) solves f'''' = -Lambda f'' with Lambda = 4 pi^2
    lam = 4.0 * math.pi ** 2
    for x in np.linspace(0.0, 1.0, 11):
        f2 = (2 * math.pi) ** 2 * math.cos(2 * math.pi * x)
        f4 = -((2 * math.pi) ** 4) * math.cos(2 * math.pi * x)
        assert f4 == pytest.approx(-lam * f2, rel=1e-12, abs=1e-9)
    assert 1.0 - math.cos(0.0) == 0.0 and 1.0 - math.cos(2 * math.pi) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_2_1():
    bundle = evaluate_constants(2, 1, 1.0)
    assert bundle.c_np == 4.0
    assert bundle.dirichlet_bound == 2.0
    assert bundle.buckling_bound == 2.0
    assert bundle.clamped_bound == 4.0


def test_constants_4_2():
    bundle = evaluate_constants(4, 2, 1.0)
    assert bundle.c_np == 14.0 / 3.0
    assert bundle.dirichlet_bound == 6.0
    assert bundle.clamped_bound == 36.0


def test_constants_gamma_scaling():
    bundle = evaluate_constants(3, 1, 2.5)
    assert bundle.dirichlet_bound == pytest.approx(2.5 * 3.0)
    assert bundle.clamped_bound == pytest.approx((2.5 * 3.0) ** 2)


@pytest.mark.parametrize("n,p", [(2, 0), (2, 2), (4, 3), (3, 2)])
def test_constants_reject_out_of_range_degree(n, p):
    with pytest.raises(ValueError):
        evaluate_constants(n, p, 1.0)


def test_constants_reject_nonpositive_gamma():
    with pytest.raises(ValueError):
        evaluate_constants(2, 1, 0.0)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
def test_halfdegree_identity_exact(n):
    assert halfdegree_identity_gap(n) <= 1e-14


# ---------------------------------------------------------------------------
# inequality battery
# ---------------------------------------------------------------------------

def _fake_spectrum(kind, degree, values):
    values = np.asarray(values, dtype=float)
    return Spectrum(kind=kind, degree=degree, values=values,
                    residuals=np.full(values.shape, 1e-12),
                    error_bounds=1e-12 * np.abs(values))


def test_ball_chain_checks_pass_on_unit_disk():
    sset = SpectrumSet(dim=2, ball=ball_spectrum(2, 1.0))
    report = check_inequalities(sset)
    chain = [c for c in report.checks if c.name.startswith("ball_chain")]
    assert len(chain) == 3
    assert all(c.status == "pass" for c in chain)
    squared = report["ball_chain_clamped_below_buckling_squared"]
    assert squared.lhs == pytest.approx(104.363, abs=1e-2)
    assert squared.rhs == pytest.approx(215.56, abs=1e-1)
    product = report["ball_chain_product_below_clamped"]
    assert product.lhs == pytest.approx(84.91, abs=1e-1)


def test_synthetic_violation_fails_buckling_square_check():
    sset = SpectrumSet(dim=2)
    sset.add(_fake_spectrum("buckling", 0, [10.0]))
    sset.add(_fake_spectrum("clamped_plate", 0, [101.0]))  # > Lambda^2 = 100
    sset.add(_fake_spectrum("dirichlet_laplace", 0, [5.0, 12.0]))
    report = check_inequalities(sset)
    assert report["clamped_below_buckling_squared[p=0]"].status == "fail"
    assert not report.passed


def test_missing_inputs_reported_as_skipped_never_dropped():
    report = check_inequalities(SpectrumSet(dim=2))
    assert report.checks, "battery must emit its catalog even with no spectra"
    assert all(c.status in ("skipped", "constants-only", "pass") for c in report.checks)
    names = report.names()
    assert "scalar_neumann_below_scalar_dirichlet" in names
    assert "curvature_dirichlet_lower_bound" in names
    assert "halfdegree_coupling_identity[n=2]" in names


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_removing_one_spectrum_never_drops_a_row(dim):
    keys = [(kind.value, p) for kind in ProblemKind for p in range(dim + 1)]

    def names(without):
        sset = SpectrumSet(dim=dim)
        for kind, p in keys:
            if (kind, p) != without:
                sset.add(_fake_spectrum(kind, p, [1.0, 2.0]))
        return check_inequalities(sset).names()

    full = names(None)
    for key in keys:
        assert names(key) == full, key


def _bounds(q):
    """Exact [value - tol, value + tol]."""
    return Fraction(q.value) - Fraction(q.tol), Fraction(q.value) + Fraction(q.tol)


def test_quantity_arithmetic_encloses_the_image_of_its_inputs():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b = (_Quantity(rng.uniform(0.01, 50.0) * rng.choice((-1, 1)),
                          rng.uniform(0.0, 2.0) * 10.0 ** rng.integers(-12, 2))
                for _ in range(2))
        ends = [[Fraction(q.value) - Fraction(q.tol), Fraction(q.value) + Fraction(q.tol)]
                for q in (a, b)]
        corners = [x * y for x in ends[0] for y in ends[1]]
        lo, hi = _bounds(a.times(b))
        assert lo <= min(corners) and max(corners) <= hi
        squares = [x * x for x in ends[0]]
        lo, hi = _bounds(a.squared())
        assert lo <= (0 if ends[0][0] <= 0 <= ends[0][1] else min(squares))
        assert max(squares) <= hi
        # square roots are irrational, so compare squares
        c = _Quantity(abs(a.value), a.tol)
        lo, hi = _bounds(c.sqrt())
        assert lo <= 0 or lo * lo <= max(Fraction(c.value) - Fraction(c.tol), 0)
        assert Fraction(c.value) + Fraction(c.tol) <= hi * hi
    assert _Quantity(0.0, 0.25).sqrt().tol == 0.5


def test_labels_validated():
    sset = SpectrumSet(dim=2)
    with pytest.raises(ValueError):
        sset.add(Spectrum(kind=None, degree=0, values=np.array([1.0]),
                          residuals=np.array([0.0]), error_bounds=np.array([0.0])))
    sset.add(_fake_spectrum("buckling", 0, [1.0]))
    with pytest.raises(ValueError):
        sset.add(_fake_spectrum("buckling", 0, [2.0]))


def test_small_square_battery_passes():
    domain = build_domain(2, [1.0, 1.0], [15, 15])
    spectra, report = box_battery(domain, degrees=(0, 1, 2), m=4)
    assert report.passed
    interesting = [
        "clamped_below_buckling_squared[p=0]",
        "buckling_dirichlet_product_below_clamped[p=1]",
        "dirichlet_below_sqrt_clamped[p=2]",
        "sqrt_clamped_below_buckling[p=1]",
        "absolute_pair_below_buckling[p=0]",
        "absolute_pair_below_buckling[p=1]",
        "second_dirichlet_below_scalar_buckling",
        "scalar_neumann_below_scalar_dirichlet",
        "scalar_neumann_below_scalar_buckling",
        "gradient_dirichlet_below_scalar_buckling",
        "degree_independence_buckling[p=1]",
        "degree_independence_clamped[p=2]",
        "adjacent_dirichlet_below_buckling[p=1]",
    ]
    for name in interesting:
        assert report[name].status == "pass", name


def test_battery_with_error_estimates():
    domain = build_domain(2, [1.0, 1.0], [15, 15])
    spectra, report = box_battery(domain, degrees=(0,), m=2, with_error_estimates=True)
    assert spectra.error_estimates
    assert all(v >= 0.0 for v in spectra.error_estimates.values())
    # tolerance feeding the checks must include the discretization estimate
    check = report["clamped_below_buckling_squared[p=0]"]
    est = spectra.error_estimates[("clamped_plate", 0)]
    assert check.tolerance >= est
    assert report.passed


def test_degree_independence_exact_on_battery():
    domain = build_domain(2, [1.0, 1.0], [9, 9])
    spectra, report = box_battery(domain, degrees=(0, 1), m=3)
    buck0 = spectra.spectra[("buckling", 0)]
    buck1 = spectra.spectra[("buckling", 1)]
    assert buck1.values[0] == buck0.values[0]  # bitwise, shared block solve
    assert report["degree_independence_buckling[p=1]"].status == "pass"


def test_degree_complement_duality_rows():
    domain = build_domain(2, [1.0, 1.0], [7, 7])
    spectra, report = box_battery(domain, degrees=(0, 2), m=2)
    for tag in ("clamped", "buckling", "dirichlet"):
        check = report[f"degree_complement_duality_{tag}[p=0 vs p=2]"]
        assert check.status == "pass"
        assert check.lhs == 0.0  # bitwise-identical block solves
    spectra2, report2 = box_battery(domain, degrees=(0,), m=2)
    assert report2["degree_complement_duality_clamped[p=0 vs p=2]"].status == "skipped"


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def test_1d_clamped_extrapolates_to_rod_constant():
    study = convergence_study(1, [1.0], ProblemKind.CLAMPED_PLATE, 0, (31, 63, 127))
    assert study.extrapolated == pytest.approx(ROD_CLAMPED, abs=0.5)
    assert study.observed_order >= 1.5


def test_1d_buckling_extrapolates_to_four_pi_squared():
    study = convergence_study(1, [1.0], ProblemKind.BUCKLING, 0, (31, 63, 127))
    assert study.extrapolated == pytest.approx(4.0 * math.pi ** 2, abs=0.05)
    assert study.observed_order >= 1.5


def test_1d_dirichlet_observed_order_two():
    study = convergence_study(1, [1.0], ProblemKind.DIRICHLET_LAPLACE, 0, (31, 63, 127))
    assert study.observed_order == pytest.approx(2.0, abs=0.05)
    assert study.extrapolated == pytest.approx(math.pi ** 2, rel=1e-5)


def test_convergence_study_validates_inputs():
    with pytest.raises(ValueError):
        convergence_study(1, [1.0], ProblemKind.BUCKLING, 0, (31, 63))
    with pytest.raises(ValueError):
        convergence_study(1, [1.0], ProblemKind.BUCKLING, 0, (63, 31, 127))
    with pytest.raises(ValueError):
        convergence_study(1, [1.0], ProblemKind.BUCKLING, 0, (15, 63, 127))


def test_error_estimate_property():
    study = convergence_study(1, [1.0], ProblemKind.DIRICHLET_LAPLACE, 0, (7, 15, 31))
    assert study.error_estimate == abs(study.extrapolated - study.values[-1])


@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING,
                                  ProblemKind.DIRICHLET_LAPLACE])
def test_square_refinement_order_at_least_three_halves(kind):
    study = convergence_study(2, [1.0, 1.0], kind, 0, (7, 15, 31))
    assert study.observed_order >= 1.5
