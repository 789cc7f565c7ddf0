"""Bessel functions of integer and half-integer order, their first zeros,
and the closed-form spectrum of a Euclidean ball built from those zeros.

Evaluation is by the ascending power series.  The alternating sum for J is
accumulated in exact integer arithmetic over a rolling common denominator,
so the only rounding happens in the final conversion to float; this keeps
the relative error at a few ulp even where naive double summation would
lose most digits to cancellation.  Half-integer orders use the closed form
Gamma(m + 1/2) = (2m-1)!! sqrt(pi) / 2^m, so no general Gamma function is
needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Union

from .errors import BracketNotFound

__all__ = [
    "BesselOrder",
    "ZeroBracket",
    "BallSpectrum",
    "bessel_j",
    "bessel_i",
    "first_zero_j",
    "first_zero_cross",
    "ball_spectrum",
]

# Stop once |term| < 2^-57 * |partial sum| (~1e-17 relative) past the series hump.
_CUTOFF_BITS = 57
_MAX_TERMS = 700
_SCAN_STEP = 0.1
_BISECT_ITERS = 50
_SCAN_SPAN = 20.0


@dataclass(frozen=True)
class BesselOrder:
    """Half-integer order nu = twice_order / 2."""

    twice_order: int

    def __post_init__(self):
        if not isinstance(self.twice_order, int) or isinstance(self.twice_order, bool):
            raise ValueError(f"twice_order must be an integer, got {self.twice_order!r}")
        if self.twice_order < 0:
            raise ValueError(f"order must be >= 0, got nu = {self.twice_order / 2}")

    @property
    def value(self) -> float:
        return self.twice_order / 2.0

    @classmethod
    def coerce(cls, nu: Union["BesselOrder", int, float]) -> "BesselOrder":
        if isinstance(nu, BesselOrder):
            return nu
        twice = 2 * nu
        if twice != int(twice):
            raise ValueError(f"order must be a half-integer, got {nu!r}")
        return cls(int(twice))


@dataclass(frozen=True)
class ZeroBracket:
    """An interval [lo, hi] with a sign change of the scanned function."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not (self.lo > 0.0 and self.hi > self.lo):
            raise ValueError(f"bad bracket [{self.lo}, {self.hi}]")
        if not self.f_lo * self.f_hi < 0.0:
            raise ValueError("bracket endpoints do not enclose a sign change")


def _double_factorial(n: int) -> int:
    r = 1
    while n > 1:
        r *= n
        n -= 2
    return r


def _series(twice_order: int, x: float, signed: bool) -> float:
    """Ascending series for J (signed=True) or I (signed=False) at order twice_order/2.

    Terms t_{m+1} = -+ t_m * (x^2/4) / ((m+1)(m+nu+1)) are accumulated exactly:
    the running sum and the current term share one integer denominator, so no
    gcd normalization is needed until the single final division.
    """
    j = twice_order
    if x == 0.0:
        return 1.0 if j == 0 else 0.0
    fx = Fraction(x)
    p_num = fx.numerator ** 2
    p_den = 4 * fx.denominator ** 2  # q = x^2/4 = p_num / p_den, exact
    if j % 2 == 0:
        t_num = 1
        t_den = math.factorial(j // 2)
        prefactor = (x / 2.0) ** (j // 2)
    else:
        k = (j - 1) // 2
        t_num = 2 ** (k + 1)
        t_den = _double_factorial(2 * k + 1)
        prefactor = math.pow(x / 2.0, j / 2.0) / math.sqrt(math.pi)
    step = -2 * p_num if signed else 2 * p_num
    q_hump = 2.0 * (float(p_num) / float(p_den) if p_num.bit_length() < 512 else math.inf)
    s_num = t_num
    m = 0
    while True:
        factor = p_den * (m + 1) * (2 * m + j + 2)
        t_num *= step
        s_num = s_num * factor + t_num
        t_den *= factor
        m += 1
        if (abs(t_num).bit_length() + _CUTOFF_BITS < abs(s_num).bit_length()
                and (m + 1) * (2 * m + j + 2) > q_hump):
            break
        if m > _MAX_TERMS:
            raise BracketNotFound(f"series for order {j / 2} at x={x} did not converge")
    return float(Fraction(s_num, t_den)) * prefactor


def bessel_j(nu: Union[BesselOrder, int, float], x: float) -> float:
    """Bessel function of the first kind J_nu(x) for half-integer nu >= 0.

    Relative error is a few ulp for 0 <= x <= 50.
    """
    order = BesselOrder.coerce(nu)
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    return _series(order.twice_order, float(x), signed=True)


def bessel_i(nu: Union[BesselOrder, int, float], x: float) -> float:
    """Modified Bessel function of the first kind I_nu(x) for half-integer nu >= 0."""
    order = BesselOrder.coerce(nu)
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    return _series(order.twice_order, float(x), signed=False)


def _find_first_zero(f: Callable[[float], float], start: float, limit: float) -> float:
    """Forward scan with step 0.1, then bisection on the first sign change."""
    x, fx = start, f(start)
    if fx == 0.0:
        return x
    while True:
        x_next = x + _SCAN_STEP
        f_next = f(x_next)
        if f_next == 0.0:
            return x_next
        if fx * f_next < 0.0:
            bracket = ZeroBracket(x, x_next, fx, f_next)
            break
        x, fx = x_next, f_next
        if x > limit:
            raise BracketNotFound(
                f"no sign change found in [{start}, {limit}]; scan step {_SCAN_STEP}"
            )
    lo, hi, f_lo = bracket.lo, bracket.hi, bracket.f_lo
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def _first_zero_j_cached(twice_order: int) -> float:
    nu = twice_order / 2.0
    return _find_first_zero(
        lambda x: _series(twice_order, x, signed=True),
        start=max(nu, _SCAN_STEP),
        limit=nu + _SCAN_SPAN,
    )


def first_zero_j(nu: Union[BesselOrder, int, float]) -> float:
    """First positive zero j_{nu,1} of J_nu, to absolute tolerance 1e-10."""
    return _first_zero_j_cached(BesselOrder.coerce(nu).twice_order)


@lru_cache(maxsize=None)
def _first_zero_cross_cached(twice_order: int) -> float:
    a = twice_order / 2.0

    def cross(x: float) -> float:
        return (_series(twice_order, x, signed=True) * _series(twice_order + 2, x, signed=False)
                + _series(twice_order + 2, x, signed=True) * _series(twice_order, x, signed=False))

    return _find_first_zero(cross, start=max(a, _SCAN_STEP), limit=a + _SCAN_SPAN)


def first_zero_cross(a: Union[BesselOrder, int, float]) -> float:
    """First positive zero k_{a,1} of J_a I_{a+1} + J_{a+1} I_a, tolerance 1e-10.

    The cross function is positive on (0, a] (k_{a,1} > j_{a,1} > a), so the
    scan starts at a: nearer the origin it underflows to 0.0 for large a.
    """
    return _first_zero_cross_cached(BesselOrder.coerce(a).twice_order)


@dataclass(frozen=True)
class BallSpectrum:
    """Closed-form first eigenvalues for the Euclidean ball of radius R in R^n.

    With H0 = 1/R:  the first Dirichlet eigenvalue is j_{n/2-1,1}^2 H0^2, the
    first buckling eigenvalue j_{n/2,1}^2 H0^2, and the first clamped-plate
    eigenvalue k_{n/2-1,1}^4 H0^4; all three are degree-independent.
    """

    dim: int
    radius: float
    lambda1: float
    big_lambda1: float
    big_gamma1: float

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        lam, big_lam, big_gam = self.lambda1, self.big_lambda1, self.big_gamma1
        chain = (lam, big_lam, big_gam, big_lam * big_lam, big_lam * lam, lam * lam)
        if not all(0.0 < value < math.inf for value in chain):
            raise ValueError(f"ball eigenvalues and their chain products must be finite "
                             f"and > 0 (radius {self.radius})")
        if not big_lam ** 2 >= big_gam >= big_lam * lam > lam ** 2:
            raise ValueError(
                "ball eigenvalue chain violated: "
                f"{big_lam**2} >= {big_gam} >= {big_lam * lam} > {lam**2}"
            )

    def chain_margins(self) -> tuple[float, float, float]:
        """Relative margins of the three chain links, in order."""
        lam, big_lam, big_gam = self.lambda1, self.big_lambda1, self.big_gamma1
        return (
            (big_lam ** 2 - big_gam) / big_gam,
            (big_gam - big_lam * lam) / (big_lam * lam),
            (big_lam * lam - lam ** 2) / lam ** 2,
        )


def ball_spectrum(n: int, radius: float) -> BallSpectrum:
    """Spectrum of the radius-R ball in R^n from the first Bessel zeros."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"dim must be an integer >= 2, got {n!r}")
    if not (radius > 0.0 and math.isfinite(radius) and radius * radius > 0.0):
        raise ValueError(f"radius must be finite and > 0 with a nonzero square, got {radius}")
    h0_sq = 1.0 / (radius * radius)
    lam1 = first_zero_j(BesselOrder(n - 2)) ** 2 * h0_sq
    big_lam1 = first_zero_j(BesselOrder(n)) ** 2 * h0_sq
    big_gam1 = first_zero_cross(BesselOrder(n - 2)) ** 4 * h0_sq * h0_sq
    return BallSpectrum(
        dim=n, radius=float(radius),
        lambda1=lam1, big_lambda1=big_lam1, big_gamma1=big_gam1,
    )
