"""Bessel module tests.

The oracle section below is deliberately independent of the package: plain
float power series with explicit factorials, plus a standalone bisection.
Expected zero locations were frozen from these oracles (and agree with the
tabulated literature values to all printed digits).
"""

import math

import pytest

from hodge_spectra.bessel import (
    BallSpectrum,
    BesselOrder,
    ZeroBracket,
    ball_spectrum,
    bessel_i,
    bessel_j,
    first_zero_cross,
    first_zero_j,
)
from hodge_spectra.errors import BracketNotFound


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def oracle_j_int(n, x, terms=60):
    """J_n(x) for integer n as a direct float sum (fine for x <~ 8)."""
    total = 0.0
    for m in range(terms):
        term = (-1.0) ** m * (x / 2.0) ** (2 * m + n) / (
            math.factorial(m) * math.factorial(m + n)
        )
        total += term
    return total


def oracle_i_int(n, x, terms=30):
    """I_n(x) for integer n, all-positive series."""
    total = 0.0
    for m in range(terms):
        total += (x / 2.0) ** (2 * m + n) / (math.factorial(m) * math.factorial(m + n))
    return total


def oracle_bisect(f, lo, hi, iters=80):
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


# frozen from the oracles above
J0_FIRST_ZERO = 2.4048255576957728
J1_FIRST_ZERO = 3.8317059702075125
CROSS0_FIRST_ZERO = 3.1962206165826887  # root of J0*I1 + J1*I0
TAN_TANH_ROOT = 3.9266023120479807      # first positive root of tan x = tanh x
TAN_X_ROOT = 4.493409457909064          # first positive root of tan x = x


def test_oracle_zero_locations_reproduce_frozen_values():
    assert oracle_bisect(lambda x: oracle_j_int(0, x), 2.0, 3.0) == pytest.approx(
        J0_FIRST_ZERO, abs=1e-12
    )
    assert oracle_bisect(lambda x: oracle_j_int(1, x), 3.0, 4.0) == pytest.approx(
        J1_FIRST_ZERO, abs=1e-12
    )
    cross = lambda x: (oracle_j_int(0, x) * oracle_i_int(1, x)
                       + oracle_j_int(1, x) * oracle_i_int(0, x))
    assert oracle_bisect(cross, 3.0, 3.5) == pytest.approx(CROSS0_FIRST_ZERO, abs=1e-10)
    assert oracle_bisect(lambda x: math.sin(x) * math.cosh(x) - math.cos(x) * math.sinh(x),
                         3.5, 4.4) == pytest.approx(TAN_TANH_ROOT, abs=1e-12)
    assert oracle_bisect(lambda x: math.tan(x) - x, 4.1, 4.6) == pytest.approx(
        TAN_X_ROOT, abs=1e-12
    )


# ---------------------------------------------------------------------------
# BesselOrder / ZeroBracket plumbing
# ---------------------------------------------------------------------------

def test_order_coercion_accepts_half_integers():
    assert BesselOrder.coerce(1.5).twice_order == 3
    assert BesselOrder.coerce(2).twice_order == 4
    assert BesselOrder.coerce(BesselOrder(5)).twice_order == 5


@pytest.mark.parametrize("bad", [-1, -0.5, 0.3, 1.25])
def test_order_coercion_rejects_invalid(bad):
    with pytest.raises(ValueError):
        BesselOrder.coerce(bad)


def test_zero_bracket_requires_sign_change():
    ZeroBracket(1.0, 1.1, -0.5, 0.5)
    with pytest.raises(ValueError):
        ZeroBracket(1.0, 1.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        ZeroBracket(1.1, 1.0, -0.5, 0.5)


# ---------------------------------------------------------------------------
# series values
# ---------------------------------------------------------------------------

def test_j_at_origin():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(0.5, 0.0) == 0.0


def test_i_at_origin():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(1, 0.0) == 0.0


def test_j0_vanishes_at_first_zero():
    assert abs(bessel_j(0, 2.404826)) < 1e-6


def test_i0_at_one_matches_partial_sums():
    assert bessel_i(0, 1.0) == pytest.approx(1.266066, abs=1e-6)
    assert bessel_i(0, 1.0) == pytest.approx(oracle_i_int(0, 1.0), rel=1e-14)


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        bessel_j(0, -0.1)
    with pytest.raises(ValueError):
        bessel_i(1, -2.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("x", [0.3, 1.7, 4.9, 7.3])
def test_j_matches_independent_series_small_arguments(n, x):
    assert bessel_j(n, x) == pytest.approx(oracle_j_int(n, x), rel=1e-12, abs=1e-15)


def _closed_form_j_half(twice_order, x):
    """Half-odd-integer J from the elementary closed forms."""
    amp = math.sqrt(2.0 / (math.pi * x))
    if twice_order == 1:
        return amp * math.sin(x)
    if twice_order == 3:
        return amp * (math.sin(x) / x - math.cos(x))
    if twice_order == 5:
        return amp * ((3.0 / (x * x) - 1.0) * math.sin(x) - 3.0 * math.cos(x) / x)
    raise ValueError(twice_order)


@pytest.mark.parametrize("twice_order", [1, 3, 5])
def test_series_agrees_with_half_integer_closed_form(twice_order):
    # grid chosen away from the zeros of each order
    for x in [0.4, 0.9, 1.6, 2.3, 3.7, 5.1, 7.9, 11.3, 14.8, 19.6, 24.2, 29.5]:
        closed = _closed_form_j_half(twice_order, x)
        envelope = math.sqrt(2.0 / (math.pi * x))
        assert abs(bessel_j(twice_order / 2, x) - closed) <= 1e-10 * max(abs(closed), 1e-3 * envelope)


def test_series_accurate_at_large_argument():
    # x = 50 loses ~20 digits to cancellation in naive double summation;
    # exact accumulation keeps full precision. Reference: independent exact
    # evaluation via the closed half-integer form at 2 ulp.
    x = 49.5
    closed = _closed_form_j_half(1, x)
    assert bessel_j(0.5, x) == pytest.approx(closed, rel=1e-12)


# ---------------------------------------------------------------------------
# zero finding
# ---------------------------------------------------------------------------

def test_first_zero_j_integer_orders():
    assert first_zero_j(0) == pytest.approx(J0_FIRST_ZERO, abs=1e-9)
    assert first_zero_j(1) == pytest.approx(J1_FIRST_ZERO, abs=1e-9)


def test_first_zero_j_half_order_is_pi():
    assert first_zero_j(0.5) == pytest.approx(math.pi, abs=1e-9)


def test_first_zero_j_three_halves_solves_tan_x_eq_x():
    assert first_zero_j(1.5) == pytest.approx(TAN_X_ROOT, abs=1e-9)


def test_first_zero_cross_values():
    assert first_zero_cross(0) == pytest.approx(CROSS0_FIRST_ZERO, abs=1e-5)
    assert first_zero_cross(0.5) == pytest.approx(TAN_TANH_ROOT, abs=1e-5)
    # at large orders the cross function underflows near the origin; the
    # zero still lies between j_{a,1} and j_{a+1,1}
    assert first_zero_j(80) < first_zero_cross(80) < first_zero_j(81)
    assert first_zero_cross(80) == pytest.approx(88.9539, abs=1e-4)


def test_cross_function_positive_near_origin():
    small = 1e-3
    value = (bessel_j(0, small) * bessel_i(1, small)
             + bessel_j(1, small) * bessel_i(0, small))
    assert value > 0.0


def test_first_zeros_increase_with_order():
    zeros = [first_zero_j(nu) for nu in (0, 0.5, 1, 1.5, 2)]
    assert all(a < b for a, b in zip(zeros, zeros[1:]))


def test_scan_failure_raises():
    from hodge_spectra.bessel import _find_first_zero
    with pytest.raises(BracketNotFound):
        _find_first_zero(lambda x: 1.0 + x, start=0.1, limit=2.0)


# ---------------------------------------------------------------------------
# ball spectrum
# ---------------------------------------------------------------------------

def test_unit_disk_spectrum():
    spec = ball_spectrum(2, 1.0)
    assert spec.big_lambda1 == pytest.approx(14.68197, abs=1e-3)
    assert spec.big_gamma1 == pytest.approx(104.363, abs=1e-2)
    assert spec.lambda1 == pytest.approx(5.78319, abs=1e-3)


def test_disk_radius_scaling():
    one = ball_spectrum(2, 1.0)
    two = ball_spectrum(2, 2.0)
    assert two.lambda1 == one.lambda1 / 4.0
    assert two.big_lambda1 == one.big_lambda1 / 4.0
    assert two.big_gamma1 == one.big_gamma1 / 16.0


def test_unit_three_ball_spectrum():
    spec = ball_spectrum(3, 1.0)
    assert spec.big_lambda1 == pytest.approx(TAN_X_ROOT ** 2, abs=1e-9)
    assert spec.big_lambda1 == pytest.approx(20.1907, abs=1e-3)
    assert spec.big_gamma1 == pytest.approx(TAN_TANH_ROOT ** 4, abs=1e-6)
    assert spec.big_gamma1 == pytest.approx(237.72, abs=1e-1)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_ball_chain_strict(n, radius):
    spec = ball_spectrum(n, radius)
    lam, big_lam, big_gam = spec.lambda1, spec.big_lambda1, spec.big_gamma1
    assert big_lam ** 2 > big_gam > big_lam * lam > lam ** 2
    assert all(m > 1e-3 for m in spec.chain_margins())


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_ball_scale_covariance(n):
    base = ball_spectrum(n, 1.0).big_lambda1
    for radius in (0.5, 2.0, 3.25):
        scaled = ball_spectrum(n, radius).big_lambda1 * radius ** 2
        assert scaled == pytest.approx(base, rel=1e-10)


def test_ball_spectrum_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ball_spectrum(1, 1.0)
    with pytest.raises(ValueError):
        ball_spectrum(2, 0.0)
    # radii whose eigenvalues or chain products leave the finite nonzero floats
    for radius in (1e-100, 1e-300, 1e200, math.inf, math.nan):
        with pytest.raises(ValueError):
            ball_spectrum(2, radius)


def test_ball_spectrum_type_validates_chain():
    with pytest.raises(ValueError):
        BallSpectrum(dim=2, radius=1.0, lambda1=5.0, big_lambda1=10.0, big_gamma1=101.0)
    # a chain product that overflows is rejected, not raised as OverflowError
    with pytest.raises(ValueError):
        BallSpectrum(dim=2, radius=1.0, lambda1=1e150, big_lambda1=1e160, big_gamma1=1e300)
