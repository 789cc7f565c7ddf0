"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its runtime (visible with `pytest -s`).
Expected continuum values are recomputed in-test by brute-force oracles
(bisection on the defining equations, independent float series), not taken
from the library under test.
"""

import json
import math
import time

import numpy as np
import pytest

import hodge_spectra.bessel as bessel_mod
from evaluation_grid import evaluation_laplacian
from hodge_spectra.bessel import ball_spectrum, first_zero_cross, first_zero_j
from hodge_spectra.checks import evaluate_constants, halfdegree_identity_gap
from hodge_spectra.cli import run
from hodge_spectra.discretize import (
    ComponentBlock,
    ComponentIndex,
    FaceCondition,
    ProblemKind,
    assemble,
    build_domain,
    _second_order_block,
)
from hodge_spectra.eigensolve import solve_pencil, solve_problem
from hodge_spectra.verify import box_battery, convergence_study

# solves shared across criteria on the 63x63 square
_CACHE: dict = {}


def _announce(num, name, elapsed, budget=None):
    limit = f" (budget {budget:.0f}s)" if budget else ""
    print(f"ACCEPTANCE {num} {name}: PASS in {elapsed:.2f}s{limit}")


# ---------------------------------------------------------------------------
# oracles (independent of the package)
# ---------------------------------------------------------------------------

def oracle_bisect(f, lo, hi, iters=90):
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


def oracle_j(n, x, terms=50):
    return math.fsum(
        (-1.0) ** m * (x / 2.0) ** (2 * m + n) / (math.factorial(m) * math.factorial(m + n))
        for m in range(terms)
    )


def oracle_i(n, x, terms=50):
    return math.fsum(
        (x / 2.0) ** (2 * m + n) / (math.factorial(m) * math.factorial(m + n))
        for m in range(terms)
    )


def test_criterion_1_bessel_zeros():
    bessel_mod._first_zero_j_cached.cache_clear()
    bessel_mod._first_zero_cross_cached.cache_clear()
    start = time.perf_counter()
    j0 = first_zero_j(0)
    j1 = first_zero_j(1)
    j_half = first_zero_j(0.5)
    k0 = first_zero_cross(0)
    k_half = first_zero_cross(0.5)
    elapsed = time.perf_counter() - start

    assert j0 == pytest.approx(2.4048255577, abs=1e-9)
    assert j1 == pytest.approx(3.8317059702, abs=1e-9)
    assert j_half == pytest.approx(math.pi, abs=1e-9)
    assert k0 == pytest.approx(3.196221, abs=1e-5)
    assert k_half == pytest.approx(3.926602, abs=1e-5)

    # brute-force oracle reproduction
    assert j0 == pytest.approx(oracle_bisect(lambda x: oracle_j(0, x), 2.0, 3.0), abs=1e-9)
    assert j1 == pytest.approx(oracle_bisect(lambda x: oracle_j(1, x), 3.0, 4.0), abs=1e-9)
    assert j_half == pytest.approx(
        oracle_bisect(lambda x: math.sin(x), 3.0, 3.3), abs=1e-9)
    cross = lambda x: oracle_j(0, x) * oracle_i(1, x) + oracle_j(1, x) * oracle_i(0, x)
    assert k0 == pytest.approx(oracle_bisect(cross, 3.0, 3.5), abs=1e-5)
    assert k_half == pytest.approx(
        oracle_bisect(lambda x: math.sin(x) * math.cosh(x) - math.cos(x) * math.sinh(x),
                      3.5, 4.4), abs=1e-5)

    assert elapsed < 1.0
    _announce(1, "bessel zeros vs brute-force oracles", elapsed, 1.0)


def test_criterion_2_ball_chain():
    start = time.perf_counter()
    for n in range(2, 9):
        for radius in (0.5, 1.0, 2.0):
            spec = ball_spectrum(n, radius)
            lam, big_lam, big_gam = spec.lambda1, spec.big_lambda1, spec.big_gamma1
            assert big_lam ** 2 > big_gam > big_lam * lam > lam ** 2
            margins = spec.chain_margins()
            assert all(m > 1e-3 for m in margins), (n, radius, margins)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(2, "ball chain strict for n=2..8, R in {0.5,1,2}", elapsed, 1.0)


def test_criterion_3_1d_continuum_targets():
    start = time.perf_counter()
    mu = oracle_bisect(lambda m: math.cos(m) * math.cosh(m) - 1.0, 4.5, 5.0)
    clamped_target = mu ** 4
    buckling_target = 4.0 * math.pi ** 2

    clamped = convergence_study(1, [1.0], ProblemKind.CLAMPED_PLATE, 0, (31, 63, 127))
    buckling = convergence_study(1, [1.0], ProblemKind.BUCKLING, 0, (31, 63, 127))
    elapsed = time.perf_counter() - start

    assert abs(clamped.extrapolated - clamped_target) / clamped_target < 1e-3
    assert abs(buckling.extrapolated - buckling_target) / buckling_target < 1e-3
    assert elapsed < 5.0
    _announce(3, "1D clamped/buckling extrapolation to continuum", elapsed, 5.0)


def test_criterion_4_square_targets():
    start = time.perf_counter()
    domain = build_domain(2, [1.0, 1.0], [63, 63])
    dirichlet = solve_problem(assemble(domain, 0, ProblemKind.DIRICHLET_LAPLACE),
                              m=4, cache=_CACHE)
    neumann = solve_problem(assemble(domain, 0, ProblemKind.ABSOLUTE_LAPLACE),
                            m=4, cache=_CACHE)
    elapsed = time.perf_counter() - start

    assert abs(dirichlet.values[0] - 2.0 * math.pi ** 2) / (2.0 * math.pi ** 2) < 5e-3
    assert neumann.deflated_kernel_dim == 1
    assert abs(neumann.values[0] - math.pi ** 2) / math.pi ** 2 < 5e-3
    assert elapsed < 30.0
    _announce(4, "square Dirichlet 2pi^2 / Neumann pi^2 at 63x63", elapsed, 30.0)


def test_criterion_5_degree_independence_and_multiplicity():
    start = time.perf_counter()
    domain = build_domain(2, [1.0, 1.0], [63, 63])
    # independent caches: the p=0 and p=1 solves must not share block results
    results = {}
    for kind, tag in ((ProblemKind.BUCKLING, "buckling"),
                      (ProblemKind.CLAMPED_PLATE, "clamped")):
        scalar = solve_problem(assemble(domain, 0, kind), m=4, cache={})
        one_form = solve_problem(assemble(domain, 1, kind), m=4, cache={})
        results[tag] = (scalar, one_form)
    elapsed = time.perf_counter() - start

    for tag, (scalar, one_form) in results.items():
        assert one_form.values[0] == scalar.values[0], f"{tag}: not equal bitwise"
        assert one_form.multiplicity_of_first() == 2 * scalar.multiplicity_of_first()
    _announce(5, "exact degree independence + doubled multiplicity", elapsed)


def test_criterion_6_square_inequality_battery():
    start = time.perf_counter()
    domain = build_domain(2, [1.0, 1.0], [63, 63])
    spectra, report = box_battery(domain, degrees=(0, 1, 2), m=4,
                                  with_error_estimates=True, cache=_CACHE)
    elapsed = time.perf_counter() - start

    required = ["clamped_below_buckling_squared", "buckling_dirichlet_product_below_clamped",
                "dirichlet_below_sqrt_clamped", "sqrt_clamped_below_buckling",
                "absolute_pair_below_buckling"]
    for p in (0, 1, 2):
        for stem in required:
            check = report[f"{stem}[p={p}]"]
            assert check.status == "pass", (check.name, check)
            assert check.margin > check.tolerance
    for name in ("second_dirichlet_below_scalar_buckling",
                 "scalar_neumann_below_scalar_dirichlet",
                 "scalar_neumann_below_scalar_buckling"):
        check = report[name]
        assert check.status == "pass", (name, check)
        assert check.margin > check.tolerance
    assert report.passed
    # spare criterion-9 hook: every reported eigenpair is certified
    for spec in spectra.spectra.values():
        assert np.all(np.asarray(spec.residuals) <= 1e-9)
    assert elapsed < 120.0
    _announce(6, "inequality battery on 63x63 square, p in {0,1,2}", elapsed, 120.0)


def test_criterion_7_hodge_duality_bitwise():
    start = time.perf_counter()
    domain = build_domain(3, [1.0, 1.0, 1.0], [15, 15, 15])
    # star-symmetric kinds: p and n-p spectra agree bitwise
    for kind in (ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING,
                 ProblemKind.DIRICHLET_LAPLACE):
        for p_low, p_high in ((0, 3), (1, 2)):
            low = solve_problem(assemble(domain, p_low, kind), m=3, cache={})
            high = solve_problem(assemble(domain, p_high, kind), m=3, cache={})
            assert np.array_equal(low.values, high.values), (kind, p_low, p_high)

    # absolute kind: its dual is the relative problem at complementary degree,
    # assembled here directly from the relative condition rule
    for p in (0, 1):
        absolute = assemble(domain, p, ProblemKind.ABSOLUTE_LAPLACE)
        relative_blocks = {}
        for comp in ComponentIndex.all_for(3, 3 - p):
            conds = tuple(
                FaceCondition.DERIVATIVE if axis in comp.axes else FaceCondition.VALUE
                for axis in (1, 2, 3)
            )
            relative_blocks[comp.axes] = ComponentBlock(
                component=comp, offset=0, **_second_order_block(domain, conds))
        for blk in absolute.blocks:
            complement = tuple(a for a in (1, 2, 3) if a not in blk.component.axes)
            rel = relative_blocks[complement]
            assert (blk.a != rel.a).nnz == 0
            assert (blk.b != rel.b).nnz == 0
    # representative spectra agree bitwise through the solver as well
    absolute = assemble(domain, 1, ProblemKind.ABSOLUTE_LAPLACE)
    blk = absolute.blocks[0]
    rel_conds = tuple(FaceCondition.DERIVATIVE if axis in (2, 3) else FaceCondition.VALUE
                      for axis in (1, 2, 3))
    rel = ComponentBlock(component=blk.component, offset=0,
                         **_second_order_block(domain, rel_conds))
    mu = solve_pencil(blk.a, blk.b, m=2)
    kappa = solve_pencil(rel.a, rel.b, m=2)
    assert np.array_equal(mu.values, kappa.values)
    elapsed = time.perf_counter() - start
    _announce(7, "bitwise duality on 15^3 box (star pairs + absolute/relative)", elapsed)


def test_criterion_8_constants():
    start = time.perf_counter()
    assert evaluate_constants(2, 1, 1.0).c_np == 4.0
    assert evaluate_constants(4, 2, 1.0).c_np == 14.0 / 3.0
    for n in (2, 4, 6, 8, 10, 12, 14, 16):
        assert halfdegree_identity_gap(n) <= 1e-14
    elapsed = time.perf_counter() - start
    _announce(8, "constants C_{2,1}=4, C_{4,2}=14/3, half-degree identity", elapsed)


def test_criterion_9_property_suites(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(20260811)
    # discrete integration by parts, 100 random trials per assembled problem
    domains = [build_domain(1, [1.0], [31]),
               build_domain(2, [1.0, 1.0], [9, 8]),
               build_domain(2, [2.0, 1.0], [12, 7])]
    for domain in domains:
        for kind in (ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING):
            problem = assemble(domain, 0, kind)
            blk = problem.blocks[0]
            laplacian, weights = evaluation_laplacian(domain)
            for _ in range(100):
                x = rng.standard_normal(blk.size)
                y = rng.standard_normal(blk.size)
                lhs = x @ (blk.a @ y)
                rhs = (laplacian @ x) @ ((laplacian @ y) * weights)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    # solver residuals certified on every reported pair
    domain = build_domain(2, [1.0, 1.0], [15, 15])
    for kind in ProblemKind:
        for p in (0, 1, 2):
            spec = solve_problem(assemble(domain, p, kind), m=4)
            assert np.all(np.asarray(spec.residuals) <= 1e-9), (kind, p)

    # byte-identical reports across repeated runs
    out = tmp_path / "report.json"
    argv = ["verify", "--dim", "2", "--extent", "1,1", "--cells", "9,9",
            "--degrees", "0,1,2", "--out", str(out)]
    assert run(argv) == 0
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first
    json.loads(first)  # and it is valid JSON
    elapsed = time.perf_counter() - start
    _announce(9, "adjointness trials, residual certificates, byte-identical reports", elapsed)
