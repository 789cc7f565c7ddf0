"""Curvature-bound constants and the eigenvalue-inequality battery, in pure
Python: this module loads neither numpy nor scipy, nor `bessel`, so `ball`
and `constants` run without numpy.  The CLI loads it in the commands that
read it (`ball`, `verify`, `constants`), never in `box` or `converge`.  It
re-exports the problem kinds, which live in the package `__init__`.

Check semantics: a strict check ('<') passes only when its margin exceeds the
combined numerical tolerance of its inputs (each eigenvalue's error bound
plus, when available, a convergence-study error estimate); a broad check
('<=') passes when the relation is not violated beyond that tolerance.  The
tolerance of a product, square or square root encloses the image of its
inputs' intervals, second-order terms included, and the rounding of its
computed centre; a check's tolerance also encloses the rounding of its
margin.  Tolerances are formed in exact rationals and rounded up, so a
pass is proven for the inputs' intervals.  The battery is one table of
rows under one rule: a row with any input missing is reported as skipped,
never dropped.  The two families that would need curved-domain eigensolves
are reported "constants-only".
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from . import ProblemKind, _FrozenRecord, _Record

if TYPE_CHECKING:
    from .bessel import BallSpectrum
    from .blockwise import Spectrum

__all__ = [
    "ProblemKind",
    "ConstantsBundle",
    "InequalityCheck",
    "InequalityReport",
    "SpectrumSet",
    "evaluate_constants",
    "halfdegree_identity_gap",
    "check_inequalities",
]


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

class ConstantsBundle(_FrozenRecord):
    """Dimension constants for the curvature-driven lower bounds.

    c_np is the mixing constant of the degree-coupling estimates;
    dirichlet/buckling bounds are gamma * p * (n - p + 1) and the clamped
    bound is its square.
    """

    dim: int
    degree: int
    gamma: float
    c_np: float
    dirichlet_bound: float
    buckling_bound: float
    clamped_bound: float

    def __init__(self, dim, degree, gamma, c_np, dirichlet_bound, buckling_bound,
                 clamped_bound):
        super().__init__(dim, degree, gamma, c_np, dirichlet_bound, buckling_bound,
                         clamped_bound)


def _c_np_exact(n: int, p: int) -> Fraction:
    shift = Fraction((n - 2 * p) ** 2)
    weight = Fraction(p * (n - p + 1))
    return n + (4 + 2 * shift) / weight + n * shift / weight ** 2


def _curvature_bounds(n: int, p: int, gamma: float) -> tuple[float, float]:
    """gamma p (n - p + 1) and its square; ValueError unless both are finite floats > 0."""
    try:
        bound = float(gamma) * (p * (n - p + 1))
        clamped = bound ** 2
    except OverflowError:
        bound = clamped = math.inf
    if not (bound > 0.0 and math.isfinite(clamped) and clamped > 0.0):
        raise ValueError(f"gamma must make its bounds finite floats > 0, got {gamma}")
    return bound, clamped


def evaluate_constants(n: int, p: int, gamma: float) -> ConstantsBundle:
    """Exact evaluation of the degree-coupling constant and curvature bounds."""
    if not (isinstance(n, int) and isinstance(p, int)):
        raise ValueError("n and p must be integers")
    if not 1 <= p <= n // 2:
        raise ValueError(f"degree must satisfy 1 <= p <= floor(n/2), got p={p}, n={n}")
    bound, clamped = _curvature_bounds(n, p, gamma)
    return ConstantsBundle(
        dim=n,
        degree=p,
        gamma=float(gamma),
        c_np=float(_c_np_exact(n, p)),
        dirichlet_bound=bound,
        buckling_bound=bound,
        clamped_bound=clamped,
    )


def halfdegree_identity_gap(n: int) -> float:
    """|C_{n,n/2}/n - (1 + 16/(n^2(n+2)))|, computed in exact rationals."""
    if n % 2 != 0 or n < 2:
        raise ValueError(f"identity needs even n >= 2, got {n}")
    lhs = _c_np_exact(n, n // 2) / n
    rhs = 1 + Fraction(16, n * n * (n + 2))
    return float(abs(lhs - rhs))


# ---------------------------------------------------------------------------
# inequality report
# ---------------------------------------------------------------------------

class InequalityCheck(_FrozenRecord):
    name: str
    relation: str                       # "<" or "<="
    lhs: Optional[float]
    rhs: Optional[float]
    margin: Optional[float]
    status: str                         # pass | fail | skipped | constants-only
    provenance: tuple[str, ...] = ()
    tolerance: float = 0.0
    note: str = ""

    def __init__(self, name, relation, lhs, rhs, margin, status, provenance=provenance,
                 tolerance=tolerance, note=note):
        super().__init__(name, relation, lhs, rhs, margin, status, provenance, tolerance, note)


class InequalityReport(_Record):
    checks: list[InequalityCheck]               # a new empty list by default

    def __init__(self, checks=None):
        super().__init__([] if checks is None else checks)

    def names(self) -> list[str]:
        return [c.name for c in self.checks]

    def __getitem__(self, name: str) -> InequalityCheck:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    @property
    def failures(self) -> list[InequalityCheck]:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def passed(self) -> bool:
        return not self.failures


def _upper_bound(radius) -> float:
    """The smallest float >= radius(), an exact rational; inf when that
    leaves the float range or meets an inf or a NaN."""
    try:
        exact = radius()
        up = float(exact)
    except (OverflowError, ValueError):   # Fraction of an inf or a NaN, or a huge float
        return math.inf
    return up if Fraction(up) >= exact else math.nextafter(up, math.inf)


def _sqrt_below(exact: Fraction) -> Fraction:
    """A lower bound on sqrt(max(exact, 0)): the correctly rounded square root
    of the float below `exact`, stepped down unless its square is below it."""
    if exact <= 0:
        return Fraction(0)
    below = float(exact)
    if Fraction(below) > exact:
        below = math.nextafter(below, 0.0)
    root = math.sqrt(below)
    return Fraction(root if Fraction(root) ** 2 <= Fraction(below)
                    else math.nextafter(root, 0.0))


class _Quantity:
    """A value with an absolute uncertainty: the interval [value - tol, value + tol].

    Products, squares and square roots return intervals that contain the
    image of every point of their inputs' intervals (for the square root,
    of its nonnegative points) around the computed centre: their tolerances
    add the centre's rounding error and are formed in exact rationals,
    rounded up.
    """

    __slots__ = ("value", "tol")

    def __init__(self, value: float, tol: float):
        self.value = float(value)
        self.tol = float(tol)

    def times(self, other: "_Quantity") -> "_Quantity":
        value = self.value * other.value

        def radius():
            a, ta, b, tb = map(Fraction, (self.value, self.tol, other.value, other.tol))
            return abs(a) * tb + abs(b) * ta + ta * tb + abs(a * b - Fraction(value))
        return _Quantity(value, _upper_bound(radius))

    def squared(self) -> "_Quantity":
        value = self.value ** 2

        def radius():
            v, t = Fraction(self.value), Fraction(self.tol)
            return (2 * abs(v) + t) * t + abs(v * v - Fraction(value))
        return _Quantity(value, _upper_bound(radius))

    def sqrt(self) -> "_Quantity":
        root = math.sqrt(self.value)

        def radius():
            v, t, r = Fraction(self.value), Fraction(self.tol), Fraction(root)
            if root == 0.0:   # the image of [0, tol] is [0, sqrt(tol)] = [0, 1/sqrt(1/tol)]
                return t if t == 0 else 1 / _sqrt_below(1 / t)
            # |sqrt(x) - sqrt(v)| = |x - v| / (sqrt(x) + sqrt(v)), and sqrt(x) is
            # smallest at the interval's lower end; the same identity bounds
            # the rounding of the centre
            low = _sqrt_below(v)
            return t / (low + _sqrt_below(v - t)) + abs(v - r * r) / (low + r)
        return _Quantity(root, _upper_bound(radius))


class SpectrumSet(_Record):
    """Labeled spectra feeding the inequality battery, as `solve_problem` returns
    them.  `spectra` and `error_estimates` default to new empty dicts."""

    dim: int
    spectra: dict[tuple[str, int], Spectrum]
    ball: Optional[BallSpectrum] = None
    error_estimates: dict[tuple[str, int], float]

    def __init__(self, dim, spectra=None, ball=ball, error_estimates=None):
        super().__init__(dim, {} if spectra is None else spectra, ball,
                         {} if error_estimates is None else error_estimates)

    def add(self, spectrum: Spectrum) -> None:
        if spectrum.kind is None or spectrum.degree is None:
            raise ValueError("spectrum must carry kind and degree labels")
        key = (str(spectrum.kind), int(spectrum.degree))
        if key in self.spectra:
            raise ValueError(f"duplicate spectrum label {key}")
        self.spectra[key] = spectrum

    def degrees(self) -> list[int]:
        return sorted({degree for _, degree in self.spectra})

    def quantity(self, kind: str, degree: int, index: int = 0) -> Optional[_Quantity]:
        spec = self.spectra.get((kind, degree))
        if spec is None or index >= len(spec.values):
            return None
        tol = float(spec.error_bounds[index]) + self.error_estimates.get((kind, degree), 0.0)
        return _Quantity(spec.values[index], tol)

    def label(self, kind: str, degree: int) -> str:
        return f"{kind} p={degree}"


_CLAMPED = ProblemKind.CLAMPED_PLATE.value
_BUCKLING = ProblemKind.BUCKLING.value
_DIRICHLET = ProblemKind.DIRICHLET_LAPLACE.value
_ABSOLUTE = ProblemKind.ABSOLUTE_LAPLACE.value

# relative uncertainty carried by the closed-form ball values (zero finder 1e-10)
_BALL_RTOL = 1e-8


def _compare(name, lhs: _Quantity, rhs: _Quantity, relation: str,
             provenance: tuple[str, ...], note: str = "") -> InequalityCheck:
    margin = rhs.value - lhs.value
    # both sides' tolerances and the rounding of the margin, rounded up
    tolerance = _upper_bound(lambda: (
        Fraction(lhs.tol) + Fraction(rhs.tol)
        + abs(Fraction(rhs.value) - Fraction(lhs.value) - Fraction(margin))))
    if relation == "<":
        ok = margin > tolerance
    elif relation == "<=":
        ok = margin >= -tolerance
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return InequalityCheck(
        name=name, relation=relation, lhs=lhs.value, rhs=rhs.value,
        margin=margin, status="pass" if ok else "fail",
        provenance=provenance, tolerance=tolerance, note=note,
    )


def _skipped(name, relation, provenance, note) -> InequalityCheck:
    return InequalityCheck(name=name, relation=relation, lhs=None, rhs=None,
                           margin=None, status="skipped",
                           provenance=provenance, note=note)


def _constants_only(name, note, provenance=()) -> InequalityCheck:
    return InequalityCheck(name=name, relation="<", lhs=None, rhs=None,
                           margin=None, status="constants-only",
                           provenance=provenance, note=note)


def _agree(first: _Quantity, second: _Quantity) -> tuple[_Quantity, _Quantity]:
    """Sides of an equality check: the gap |first - second| against a budget
    of both tolerances plus 1e-12 relative to `first`."""
    return (_Quantity(abs(first.value - second.value), 0.0),
            _Quantity(first.tol + second.tol + 1e-12 * abs(first.value), 0.0))


def check_inequalities(spectra: SpectrumSet) -> InequalityReport:
    """Run the full battery over the provided spectra set."""
    n = spectra.dim
    fetch, label = spectra.quantity, spectra.label
    checks: list[InequalityCheck] = []

    def check(name, relation, inputs, sides, provenance, missing,
              skip_provenance=(), note="") -> None:
        """One row: skipped when an input is missing, else `sides(*inputs)`
        (or the inputs themselves) compared as lhs and rhs."""
        if any(q is None for q in inputs):
            checks.append(_skipped(name, relation, skip_provenance, missing))
        else:
            lhs, rhs = inputs if sides is None else sides(*inputs)
            checks.append(_compare(name, lhs, rhs, relation, provenance, note))

    # in the sides below, x, y and z stand for clamped, buckling and Dirichlet values
    for p in spectra.degrees():
        gam, big, lam = fetch(_CLAMPED, p), fetch(_BUCKLING, p), fetch(_DIRICHLET, p)
        g, b, d = label(_CLAMPED, p), label(_BUCKLING, p), label(_DIRICHLET, p)
        for name, inputs, sides, prov, missing in (
                ("clamped_below_buckling_squared", (gam, big),
                 lambda x, y: (x, y.squared()), (g, b), "missing clamped or buckling spectrum"),
                ("buckling_dirichlet_product_below_clamped", (gam, big, lam),
                 lambda x, y, z: (y.times(z), x), (g, b, d), "missing spectra"),
                ("dirichlet_below_sqrt_clamped", (lam, gam),
                 lambda z, x: (z, x.sqrt()), (d, g), "missing spectra"),
                ("sqrt_clamped_below_buckling", (gam, big),
                 lambda x, y: (x.sqrt(), y), (g, b), "missing spectra"),
                ("dirichlet_below_buckling", (lam, big), None, (d, b), "missing spectra")):
            check(f"{name}[p={p}]", "<", inputs, sides, prov, missing, skip_provenance=prov)

        if p >= 1:
            neighbors = [q for q in (fetch(_DIRICHLET, p - 1), fetch(_DIRICHLET, p + 1))
                         if q is not None]
            check(f"adjacent_dirichlet_below_buckling[p={p}]", "<=",
                  (min(neighbors, key=lambda q: q.value, default=None), big), None,
                  (f"{_DIRICHLET} p={p}+-1", b), "missing adjacent Dirichlet spectra")

        check(f"absolute_pair_below_buckling[p={p}]", "<=",
              (fetch(_ABSOLUTE, p), fetch(_ABSOLUTE, n - p), big),
              lambda lo, hi, y: (max((lo, hi), key=lambda q: q.value), y),
              (label(_ABSOLUTE, p), label(_ABSOLUTE, n - p), b),
              "missing absolute spectra at p and n-p")

        if p >= 1:
            for kind, tag in ((_BUCKLING, "buckling"), (_CLAMPED, "clamped"),
                              (_DIRICHLET, "dirichlet")):
                check(f"degree_independence_{tag}[p={p}]", "<=",
                      (fetch(kind, 0), fetch(kind, p)), _agree,
                      (label(kind, p), label(kind, 0)), f"missing {tag} spectra",
                      note="flat-domain spectra are degree independent")

        if 1 <= p <= n // 2:
            for tag in ("clamped", "buckling"):
                checks.append(_constants_only(
                    f"sphere_domain_{tag}_mix[p={p}]",
                    "sphere-cap eigensolves are out of scope; "
                    f"coupling constant C = {float(_c_np_exact(n, p))!r} evaluated only"))

    # Hodge-star duality: p and n-p spectra of the star-symmetric kinds come
    # from permuted-identical block operators, so they agree exactly.  The
    # absolute problem instead pairs with the relative one at degree n-p
    # (verified structurally in the test suite, not recomputable here).
    for kind, tag in ((_CLAMPED, "clamped"), (_BUCKLING, "buckling"),
                      (_DIRICHLET, "dirichlet")):
        for p in (p for p in spectra.degrees() if p < n - p):
            high = fetch(kind, n - p)
            check(f"degree_complement_duality_{tag}[p={p} vs p={n - p}]", "<=",
                  (fetch(kind, p), high), _agree, (label(kind, p), label(kind, n - p)),
                  f"missing {tag} spectrum at degree {n - p if high is None else p}",
                  note="star duality: blocks are identical up to component relabeling")

    # fixed-degree checks
    buck0, mu0 = fetch(_BUCKLING, 0), fetch(_ABSOLUTE, 0)
    check("gradient_dirichlet_below_scalar_buckling", "<=", (fetch(_DIRICHLET, 1), buck0),
          None, (label(_DIRICHLET, 1), label(_BUCKLING, 0)),
          "missing dirichlet p=1 or buckling p=0")
    if n != 2:
        checks.append(_skipped("second_dirichlet_below_scalar_buckling", "<=", (),
                               "stated for planar domains only"))
    else:
        check("second_dirichlet_below_scalar_buckling", "<=",
              (fetch(_DIRICHLET, 0, index=1), buck0), None,
              (label(_DIRICHLET, 0), label(_BUCKLING, 0)),
              "missing second Dirichlet value or buckling p=0")
    check("scalar_neumann_below_scalar_dirichlet", "<", (mu0, fetch(_DIRICHLET, 0)), None,
          (label(_ABSOLUTE, 0), label(_DIRICHLET, 0)), "missing absolute or dirichlet p=0")
    check("scalar_neumann_below_scalar_buckling", "<", (mu0, buck0), None,
          (label(_ABSOLUTE, 0), label(_BUCKLING, 0)), "missing absolute or buckling p=0")

    # closed-form ball chain
    ball = spectra.ball
    chain = (tuple(_Quantity(v, _BALL_RTOL * v)
                   for v in (ball.lambda1, ball.big_lambda1, ball.big_gamma1))
             if ball else (None,) * 3)
    prov_ball = (f"ball n={ball.dim} R={ball.radius}",) if ball else ()
    for name, sides in (
            ("ball_chain_clamped_below_buckling_squared", lambda z, y, x: (x, y.squared())),
            ("ball_chain_product_below_clamped", lambda z, y, x: (y.times(z), x)),
            ("ball_chain_dirichlet_squared_below_product",
             lambda z, y, x: (z.squared(), y.times(z)))):
        check(name, "<", chain, sides, prov_ball, "no ball spectrum provided")

    # curvature-driven lower bounds have no discrete home on flat boxes
    checks.append(_constants_only(
        "curvature_dirichlet_lower_bound",
        "flat box: the curvature term vanishes, so the hypothesis gamma > 0 "
        "is empty; bound evaluated at formula level via evaluate_constants"))
    checks.append(_constants_only(
        "curvature_buckling_clamped_lower_bounds",
        "flat box: evaluated at formula level via evaluate_constants"))

    # half-degree algebraic identity, exact in rationals
    if n % 2 == 0 and n >= 2:
        gap = _Quantity(halfdegree_identity_gap(n), 0.0)
        checks.append(_compare(
            f"halfdegree_coupling_identity[n={n}]", gap, _Quantity(1e-14, 0.0), "<=",
            (), note="C(n, n/2)/n == 1 + 16/(n^2 (n+2))"))

    return InequalityReport(checks=checks)
