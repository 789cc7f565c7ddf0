"""Eigensolver tests: trivial pencils, closed-form grids, the separable
second-order path, kernels, determinism."""

import functools
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import hodge_spectra.eigensolve as es
from hodge_spectra.discretize import ComponentBlock, ProblemKind, assemble, build_domain
from hodge_spectra.eigensolve import Spectrum, solve_pencil, solve_problem
from hodge_spectra.errors import NumericalFailure


def test_identity_pencil():
    eye = sp.identity(6, format="csr")
    spec = solve_pencil(eye, eye, m=3)
    assert spec.values == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_diagonal_pencil():
    a = sp.diags([3.0, 1.0, 2.0]).tocsr()
    spec = solve_pencil(a, sp.identity(3, format="csr"), m=2)
    assert spec.values == pytest.approx([1.0, 2.0], abs=1e-12)


def test_rejects_mismatched_or_asymmetric():
    a = sp.identity(4, format="csr")
    with pytest.raises(ValueError):
        solve_pencil(a, sp.identity(5, format="csr"), m=1)
    skew = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        solve_pencil(skew, sp.identity(2, format="csr"), m=1)
    with pytest.raises(ValueError):
        solve_pencil(a, a, m=0)
    with pytest.raises(ValueError):
        solve_pencil(a, a, m=9)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_pencil(a, a, m=1, tol=tol)


def test_1d_dirichlet_closed_form_through_solver():
    dom = build_domain(1, [1.0], [31])
    prob = assemble(dom, 0, ProblemKind.DIRICHLET_LAPLACE)
    spec = solve_pencil(prob.A, prob.B, m=2)
    h = 1.0 / 32.0
    exact = [4.0 / h ** 2 * math.sin(k * math.pi * h / 2.0) ** 2 for k in (1, 2)]
    assert spec.values == pytest.approx(exact, rel=1e-10)
    assert np.all(spec.residuals <= 1e-9)


def test_rayleigh_quotient_consistency():
    dom = build_domain(2, [1.0, 1.0], [9, 9])
    for kind in (ProblemKind.DIRICHLET_LAPLACE, ProblemKind.CLAMPED_PLATE,
                 ProblemKind.BUCKLING):
        prob = assemble(dom, 0, kind)
        spec = solve_pencil(prob.A, prob.B, m=3, tol=1e-9)
        for i, theta in enumerate(spec.values):
            x = spec.vectors[:, i]
            quotient = (x @ (prob.A @ x)) / (x @ (prob.B @ x))
            assert abs(quotient - theta) <= 10.0 * 1e-9 * theta


def test_reproducibility_bitwise():
    dom = build_domain(2, [1.0, 1.0], [8, 9])
    prob = assemble(dom, 1, ProblemKind.ABSOLUTE_LAPLACE)
    one = solve_problem(prob, m=4)
    two = solve_problem(prob, m=4)
    assert np.array_equal(one.values, two.values)
    assert np.array_equal(one.residuals, two.residuals)


def test_sparse_path_matches_dense_path(monkeypatch):
    # every kind on a 16x17 grid (absolute at p=1, whose pencil has no
    # kernel; its two blocks give 610 dof) and one 7^3 clamped block, each
    # forced down both paths of the general solver
    cases = [(2, [16, 17], kind, 1 if kind is ProblemKind.ABSOLUTE_LAPLACE else 0)
             for kind in ProblemKind] + [(3, [7, 7, 7], ProblemKind.CLAMPED_PLATE, 0)]
    for dim, cells, kind, degree in cases:
        prob = assemble(build_domain(dim, [1.0] * dim, cells), degree, kind)
        spectra = []
        for cutoff in (10 ** 9, 0):
            monkeypatch.setattr(es, "DENSE_CUTOFF", cutoff)
            spectra.append(solve_pencil(prob.A, prob.B, m=4))
        dense, sparse = spectra
        assert sparse.values == pytest.approx(dense.values, rel=1e-10), kind
        assert np.all(dense.residuals <= es.DEFAULT_TOL), kind
        assert np.all(sparse.residuals <= es.DEFAULT_TOL), kind


def test_large_block_does_not_use_dense_eigh(monkeypatch):
    # a 63^2 clamped block (3969 dof) is far above the measured dense
    # crossover: neither its classes nor the block go to a dense eigh
    def no_dense(*args, **kwargs):
        raise AssertionError("dense solve called on a 3969-dof block")

    monkeypatch.setattr(es, "_dense_class", no_dense)
    monkeypatch.setattr(sla, "eigh", no_dense)
    prob = assemble(build_domain(2, [1.0, 1.0], [63, 63]), 0, ProblemKind.CLAMPED_PLATE)
    spec = solve_problem(prob, m=2)
    assert np.all(spec.residuals <= es.DEFAULT_TOL)
    # the continuum clamped-plate value of the unit square is 1294.934
    assert spec.values[0] == pytest.approx(1294.934, rel=5e-3)


CROSSOVER = Path(__file__).resolve().parents[1] / "BENCH_dense_cutoff.json"


def test_dense_cutoff_acts_as_a_value_in_its_measured_band():
    # blocks of more than DENSE_CUTOFF dof take the structured solve.  The
    # swept value it acts as lies between the least-cost thresholds of the
    # single runs
    record = json.loads(CROSSOVER.read_text())["dense_cutoff"]
    assert len(record["per_run"]) == record["runs"] > 1
    assert record["constant"] == "DENSE_CUTOFF" and record["value"] == es.DENSE_CUTOFF
    assert {row["m"] for row in record["timings"]} == set(record["m"])
    low, high = record["band"]
    assert low <= record["acts_as"] <= high


def test_structured_route_loses_nowhere_by_more_than_the_scipy_import():
    # on the blocks measured for the current STRUCTURED_MAX_M, no structured
    # solve is slower than solve_pencil by more than the scipy import that
    # solve_pencil would cost the command; the sweep covers every m the
    # structured route takes
    route = json.loads(CROSSOVER.read_text())["structured_route"]
    assert route["constant"] == "STRUCTURED_MAX_M" and route["value"] == es.STRUCTURED_MAX_M
    assert len(route["timings"]) > 0 and route["losses_beyond_import"] == []
    assert max(route["m"]) == es.STRUCTURED_MAX_M


# ---------------------------------------------------------------------------
# separable second-order solves and their kernel
# ---------------------------------------------------------------------------

def _general_reference(block, m):
    """m smallest eigenvalues of one block from the general solver.

    The absolute p=0 block has the constants as kernel, which the general
    solver does not remove; dense eigh with the zero dropped stands in.
    """
    if block.kernel_dim:
        values = sla.eigh(block.a.toarray(), block.b.toarray(), eigvals_only=True)
        assert abs(values[0]) <= 1e-10 * values[-1]
        return values[1:m + 1]
    return solve_pencil(block.a, block.b, m).values


@pytest.mark.parametrize("extent,cells", [
    ([1.0, 1.7], [8, 11]),
    ([1.0, 1.2, 0.9], [4, 5, 6]),
])
@pytest.mark.parametrize("kind", [ProblemKind.DIRICHLET_LAPLACE, ProblemKind.ABSOLUTE_LAPLACE])
def test_separable_path_matches_general_solver(kind, extent, cells):
    dom = build_domain(len(cells), extent, cells)
    m = 5
    for degree in range(dom.dim + 1):
        prob = assemble(dom, degree, kind)
        spec = solve_problem(prob, m=m)
        reference = np.sort(np.concatenate(
            [_general_reference(block, m) for block in prob.blocks]))[:m]
        assert spec.values == pytest.approx(reference, rel=1e-10), degree
        assert np.all(spec.residuals <= es.DEFAULT_TOL), degree


@pytest.mark.parametrize("extent,cells", [([1.0, 1.3], [3, 4]), ([1.0, 0.8, 1.1], [3, 3, 4])])
@pytest.mark.parametrize("kind", [ProblemKind.DIRICHLET_LAPLACE, ProblemKind.ABSOLUTE_LAPLACE])
def test_separable_spectrum_is_complete(kind, extent, cells):
    # asking for every eigenvalue but the kernel returns the full dense spectrum,
    # so none below a reported value is missed
    dom = build_domain(len(cells), extent, cells)
    for degree in range(dom.dim + 1):
        prob = assemble(dom, degree, kind)
        full = sla.eigh(prob.A.toarray(), prob.B.toarray(), eigvals_only=True)
        kernel = sum(block.kernel_dim for block in prob.blocks)
        assert np.all(np.abs(full[:kernel]) <= 1e-10 * full[-1])
        spec = solve_problem(prob, m=prob.dof_count - kernel)
        assert spec.deflated_kernel_dim == kernel
        assert spec.values == pytest.approx(full[kernel:], rel=1e-10), degree


def test_second_order_solves_never_factorize(monkeypatch):
    # 31^3 blocks of 29,791 to 35,937 dof are diagonalized axis by axis:
    # no sparse factorization, no Lanczos, no eigh (scipy's or numpy's)
    # larger than one axis
    def forbidden(*args, **kwargs):
        raise AssertionError("sparse solver called on a second-order block")

    def axis_only(eigh):
        def limited(a, *args, **kwargs):
            assert a.shape[0] <= 33, f"eigh on {a.shape[0]} dof"
            return eigh(a, *args, **kwargs)
        return limited

    monkeypatch.setattr(spla, "splu", forbidden)
    monkeypatch.setattr(spla, "eigsh", forbidden)
    monkeypatch.setattr(sla, "eigh", axis_only(sla.eigh))
    monkeypatch.setattr(np.linalg, "eigh", axis_only(np.linalg.eigh))
    dom = build_domain(3, [1.0] * 3, [31] * 3)
    one_d = [4.0 * 32.0 ** 2 * math.sin(k * math.pi / 64.0) ** 2 for k in (1, 2)]
    for kind, degree, first in ((ProblemKind.DIRICHLET_LAPLACE, 0, 3 * one_d[0]),
                                (ProblemKind.DIRICHLET_LAPLACE, 1, 3 * one_d[0]),
                                (ProblemKind.ABSOLUTE_LAPLACE, 0, one_d[0]),
                                (ProblemKind.ABSOLUTE_LAPLACE, 1, one_d[0])):
        spec = solve_problem(assemble(dom, degree, kind), m=4)
        assert spec.values[0] == pytest.approx(first, rel=1e-10), (kind, degree)
        assert np.all(spec.residuals <= es.DEFAULT_TOL), (kind, degree)


def test_separable_residual_failure_reports_partial():
    prob = assemble(build_domain(2, [1.0, 1.0], [9, 9]), 1, ProblemKind.DIRICHLET_LAPLACE)
    with pytest.raises(NumericalFailure) as info:
        solve_problem(prob, m=2, tol=1e-30)
    assert isinstance(info.value.partial, Spectrum)
    assert info.value.partial.values.size == 2


def test_neumann_deflation_reports_positive_value():
    # 9 interior cells keep their boundary nodes: h = 1/10 on both axes
    dom = build_domain(2, [1.0, 1.0], [9, 9])
    spec = solve_problem(assemble(dom, 0, ProblemKind.ABSOLUTE_LAPLACE), m=3)
    assert spec.deflated_kernel_dim == 1
    assert spec.values[0] > 0.0
    first = 4.0 / 0.1 ** 2 * math.sin(math.pi * 0.1 / 2.0) ** 2
    assert spec.values[:2] == pytest.approx([first, first], rel=1e-10)


@pytest.mark.parametrize("thin", [1e-4, 1e-8])
def test_absolute_kernel_survives_an_extreme_aspect_ratio(thin):
    # the thin axis's constant mode has eigenvalue exactly 0, so the first
    # value is the unit axis's first Neumann value (h = 1/16), not swamped
    # by a rounding-sized eigenvalue of order 1/thin^2
    dom = build_domain(2, [thin, 1.0], [15, 15])
    spec = solve_problem(assemble(dom, 0, ProblemKind.ABSOLUTE_LAPLACE), m=2)
    first = 4.0 * 16 ** 2 * math.sin(math.pi / 32) ** 2
    assert spec.values[0] == pytest.approx(first, rel=1e-10)


@pytest.mark.parametrize("seed", range(40))
def test_smallest_sums_match_the_untruncated_rule(seed):
    # a grid over each axis's first values only gives the same sums,
    # vectors and indices as the argsort of the whole grid, ties included
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(2, 9, size=rng.integers(1, 4)))
    pairs = [(np.sort(rng.integers(0, 4, size=c).astype(float)), rng.standard_normal((c, c)))
             for c in shape]
    size = math.prod(shape)
    for count, skip, limit in ((1, False, 0), (3, True, 0), (size - 1, True, 0),
                               (2, False, size // 2), (1, True, 3)):
        count = min(count, size - skip)
        grid = functools.reduce(np.add.outer, [values for values, _ in pairs])
        order = np.argsort(grid, axis=None, kind="stable")
        order = order[order != 0] if skip else order
        want = count
        if limit:
            ranked = grid.ravel()[order[:limit + 1]]
            while (want < ranked.size - 1
                   and ranked[want] <= ranked[want - 1] * (1.0 + es.MULTIPLICITY_GAP)):
                want += 1
        multi = np.unravel_index(order[:want], shape)
        vectors = np.stack([functools.reduce(np.kron, [v[:, j] for (_, v), j in zip(pairs, index)])
                            for index in zip(*multi)], axis=1)
        got = es._smallest_sums(pairs, count, skip_first=skip, multiplet_limit=limit)
        assert np.array_equal(got[0], grid.ravel()[order[:want]])
        assert np.array_equal(got[1], vectors)
        assert all(np.array_equal(a, b) for a, b in zip(got[2], multi))


def test_request_beyond_deflated_dof_count_is_rejected():
    # 25 dof less the Neumann constant leave 24 eigenvalues; a 25th must not
    # be silently dropped
    prob = assemble(build_domain(2, [1.0, 1.0], [3, 3]), 0, ProblemKind.ABSOLUTE_LAPLACE)
    assert prob.dof_count == 25
    assert solve_problem(prob, m=24).values.size == 24
    with pytest.raises(ValueError, match="24 eigenvalues"):
        solve_problem(prob, m=25)


def test_neumann_63x63_matches_pi_squared():
    dom = build_domain(2, [1.0, 1.0], [63, 63])
    prob = assemble(dom, 0, ProblemKind.ABSOLUTE_LAPLACE)
    spec = solve_problem(prob, m=2)
    assert spec.deflated_kernel_dim == 1
    assert spec.values[0] == pytest.approx(math.pi ** 2, rel=5e-3)
    # exact discrete value of the lumped scheme
    h = 1.0 / 64.0
    assert spec.values[0] == pytest.approx(4.0 / h ** 2 * math.sin(math.pi * h / 2.0) ** 2,
                                           rel=1e-10)


def test_deflation_leaves_other_pairs_untouched():
    dom = build_domain(1, [1.0], [15])
    spec = solve_problem(assemble(dom, 0, ProblemKind.ABSOLUTE_LAPLACE), m=3)
    assert spec.deflated_kernel_dim == 1
    h = 1.0 / 16.0
    exact = [4.0 / h ** 2 * math.sin(k * math.pi * h / 2.0) ** 2 for k in (1, 2, 3)]
    assert spec.values == pytest.approx(exact, rel=1e-10)


# ---------------------------------------------------------------------------
# structured fourth-order solves
# ---------------------------------------------------------------------------

@pytest.fixture
def no_general_solver(monkeypatch):
    """Fail any call of solve_pencil."""
    def forbidden(*args, **kwargs):
        raise AssertionError("general solver called on a fourth-order block")

    monkeypatch.setattr(es, "solve_pencil", forbidden)


@pytest.fixture
def structured_only(monkeypatch, no_general_solver):
    """Send every fourth-order block to the structured solve, none to solve_pencil."""
    monkeypatch.setattr(es, "DENSE_CUTOFF", 0)
    monkeypatch.setattr(es, "STRUCTURED_MAX_M", 10 ** 6)


@pytest.fixture
def split_only(monkeypatch, structured_only):
    """Send every fourth-order block to the structured solve; record each class solve's
    size."""
    sizes = []
    real = es._lobpcg

    def counted(apply, norms, precond, span, m):
        sizes.append(span.shape[0])
        return real(apply, norms, precond, span, m)

    monkeypatch.setattr(es, "_lobpcg", counted)
    return sizes


def _record_rounds(monkeypatch, solves: list) -> list:
    """The number of class solves made by each split round's certificate, which
    closes the round; `solves` holds one entry per class solve."""
    rounds = []
    real = es._gram_certificate

    def recorded(*args):
        rounds.append(len(solves))
        return real(*args)

    monkeypatch.setattr(es, "_gram_certificate", recorded)
    return rounds


@pytest.fixture
def split_rounds(monkeypatch, split_only):
    """The class solves made by the end of each round of a split solve."""
    return _record_rounds(monkeypatch, split_only)


def _certified_reference(prob, m):
    """The m smallest eigenvalues of the assembled pencil by scipy's dense eigh, with
    their error bounds on that pencil (`_residuals`): the enclosures they certify."""
    values, vectors = sla.eigh(prob.A.toarray(), prob.B.toarray(), subset_by_index=[0, m - 1])
    residuals, bounds = es._residuals(prob.A, prob.B, values, vectors)
    assert np.all(residuals <= es.DEFAULT_TOL)
    return values, bounds


def _assert_enclosures_meet(spec, prob, m):
    values, bounds = _certified_reference(prob, m)
    assert np.all(np.abs(spec.values - values) <= spec.error_bounds + bounds)
    assert np.all(spec.residuals <= es.DEFAULT_TOL)


def _forbid_assembled_blocks(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("assembled block read by a fourth-order solve")

    for name in ("a", "b"):
        monkeypatch.setattr(ComponentBlock, name, property(forbidden))


@pytest.mark.parametrize("extent,cells,m", [
    # the cube's degenerate triples, and m reaching past them
    ([1.0, 1.0], [16, 17], 12),
    ([1.0, 1.0, 1.0], [7, 8, 9], 12),
    ([1.0, 1.0, 1.0], [7, 7, 7], 12),
    # elongated boxes, where A ranks the modes of the short axes
    # differently from Q: a start block of Q's m + GUARD lowest modes alone
    # missed an eigenvalue on the 1 x 2 x 3 box
    ([1.0, 6.0], [8, 40], 14),
    ([1.0, 8.0], [6, 44], 14),
    ([1.0, 1.0, 6.0], [5, 5, 24], 14),
    ([1.0, 2.0, 3.0], [6, 11, 17], 14),
])
@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_structured_path_matches_dense_spectrum(kind, extent, cells, m, structured_only):
    # each value's enclosure meets the one that the dense reference pair
    # certifies on the assembled pencil: the reference moves with the
    # rounding of its own LAPACK solve, by up to its bound
    prob = assemble(build_domain(len(cells), extent, cells), 0, kind)
    _assert_enclosures_meet(solve_problem(prob, m=m), prob, m)


@pytest.mark.parametrize("extent,cells,first_round", [
    # elongated boxes, where A and Q rank the modes differently; the first
    # round leaves out the classes without a share of Q's 14 lowest values
    # (3 of 4, 2 of 4 and 4 of 8 classes hold one)
    ([1.0, 6.0], [8, 40], 3),
    ([1.0, 8.0], [6, 44], 2),
    ([1.0, 2.0, 3.0], [6, 11, 17], 4),
    # one class per orbit of interchangeable axes: 000; 001, 010, 100;
    # 011, 101, 110; 111 on a cube, 00; 01, 10; 11 on a square
    ([1.0, 1.0, 1.0], [7, 7, 7], 4),
    ([1.0, 1.0], [15, 15], 3),
    # two interchangeable axes: 3 orbits of their parities, times 2, of
    # which one holds no share
    ([1.0, 1.0, 2.0], [6, 6, 11], 5),
    # equal cells on unequal extents give no two equal axes
    ([1.0, 1.1, 0.9], [7, 7, 7], 8),
])
@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_split_path_matches_dense_spectrum(kind, extent, cells, first_round, split_only,
                                           split_rounds):
    # the block solved class by class, each orbit of classes once, gives
    # the dense spectrum
    prob = assemble(build_domain(len(cells), extent, cells), 0, kind)
    _assert_enclosures_meet(solve_problem(prob, m=14), prob, 14)
    assert split_rounds[0] == first_round
    assert max(split_only) <= math.prod((c + 1) // 2 for c in cells)


@pytest.mark.parametrize("extent,cells", [
    ([1.0, 6.0], [8, 40]),
    ([1.0, 2.0, 3.0], [6, 11, 17]),
    # a cube, whose doubling rule grows whole orbits of classes
    ([1.0, 1.0, 1.0], [7, 7, 7]),
])
@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_class_count_rule_recovers_an_undercounted_class(kind, extent, cells, split_only,
                                                        split_rounds, monkeypatch):
    # a first guess of a share of one, two values, per class misses most of
    # the 14 lowest; doubling each class whose top value is not clearly
    # above the 14th smallest recovers every one of them
    monkeypatch.setattr(es, "_class_shares", lambda q_pairs, m: [1] * len(q_pairs))
    prob = assemble(build_domain(len(cells), extent, cells), 0, kind)
    _assert_enclosures_meet(solve_problem(prob, m=14), prob, 14)
    assert len(split_only) > split_rounds[0]


@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_cube_triples_across_an_orbit_are_bitwise_equal(kind, split_only):
    # the 2nd to 4th values come from the orbit of classes 001, 010 and
    # 100, the 5th to 7th from that of 011, 101 and 110: each member takes
    # its representative's vectors with the grid axes transposed, so the
    # three values agree bit for bit, each column is certified on the whole
    # block, and the transposed vectors lie in their own classes, so all
    # are B-orthogonal
    prob = assemble(build_domain(3, [1.0] * 3, [7, 7, 7]), 0, kind)
    spec = solve_problem(prob, m=14)
    _assert_enclosures_meet(spec, prob, 14)
    values = spec.values
    assert values[0] < values[1] < values[4] < values[7]
    assert np.all(values[1:4] == values[1]) and np.all(values[4:7] == values[4])
    gram = spec.vectors.T @ (prob.B @ spec.vectors)
    norms = np.sqrt(np.diag(gram))
    assert np.all(np.abs(gram - np.diag(np.diag(gram))) <= 1e-10 * np.outer(norms, norms))


@pytest.mark.parametrize("cells,distinct", [([15, 15, 15], 2), ([31, 31], 3)])
@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_readme_grid_multiplets_are_bitwise_equal(kind, cells, distinct, no_general_solver):
    # the README's 15^3 and 31^2 verify grids at the default count: the
    # cube's 2nd to 4th values form one triple, the square's 2nd and 3rd
    # one pair, and each multiplet comes out bitwise equal
    prob = assemble(build_domain(len(cells), [1.0] * len(cells), cells), 0, kind)
    spec = solve_problem(prob, m=4)
    assert np.unique(spec.values).size == distinct
    assert np.all(spec.residuals <= es.DEFAULT_TOL)


def test_a_class_short_of_tolerance_fails_without_growing(monkeypatch):
    # the first class solve stops after one step, far above tol; its wide
    # bounds must not be answered by doubling its count: the solve fails at
    # once, each class solved once for its first count, and the block falls
    # back to solve_pencil; the classes without a share of Q's 14 lowest
    # values are not solved in the first round
    counts = []
    real = es._lobpcg

    def first_stops_early(apply, norms, precond, span, m):
        counts.append(m)
        with monkeypatch.context() as patch:
            if len(counts) == 1:
                patch.setattr(es, "LOBPCG_MAXITER", 1)
            return real(apply, norms, precond, span, m)

    monkeypatch.setattr(es, "_lobpcg", first_stops_early)
    # its 80-dof classes would be solved densely
    monkeypatch.setattr(es, "DENSE_CUTOFF", 0)
    (block,) = assemble(build_domain(2, [1.0, 6.0], [8, 40]), 0,
                        ProblemKind.CLAMPED_PLATE).blocks
    shares = es._class_shares([[np.linalg.eigh(q) for q in es._axis_bounds(pencil)]
                               for pencil, _ in es._reflection_classes(es._AxisPencil.of(block))],
                              14)
    with pytest.raises(NumericalFailure):
        es._structured_solve(block, 14, es.DEFAULT_TOL)
    assert counts == [share + 1 for share in shares if share]
    counts.clear()
    spec = es._solve_fourth_order(block, 14, es.DEFAULT_TOL)
    reference = solve_pencil(block.a, block.b, 14)
    assert np.array_equal(spec.values, reference.values)


def _class_pencils(kind, extent, cells):
    """The whole per-axis pencil of a box's p = 0 block, and each reflection class with
    the eigenpairs of its q_k and its dense (A, B)."""
    (block,) = assemble(build_domain(len(cells), extent, cells), 0, kind).blocks
    whole = es._AxisPencil.of(block)
    for pencil, _ in es._reflection_classes(whole):
        q_pairs = [np.linalg.eigh(q) for q in es._axis_bounds(pencil)]
        yield whole, pencil, q_pairs, es._gram_products(pencil, np.eye(pencil.size))


# 2D and 3D boxes with unequal extents, and a thin one
CLASS_BOXES = [([1.0, 1.3], [9, 11]), ([1.0, 0.8, 1.1], [4, 5, 6]), ([1.0, 1.0, 0.05], [6, 5, 3])]


@pytest.mark.parametrize("extent,cells", CLASS_BOXES)
@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_preconditioner_bounds_each_class_pencil(kind, extent, cells):
    # P = (sum_k I x q_k^1/2 x I)^2 satisfies P / n <= A <= P on every
    # class, and the preconditioner applies its inverse
    n = len(cells)
    for _, pencil, q_pairs, (a, _) in _class_pencils(kind, extent, cells):
        eyes = [np.eye(c) for c in pencil.shape]
        root = sum(functools.reduce(np.kron, [
            vectors @ np.diag(np.sqrt(values)) @ vectors.T if j == k else eyes[j]
            for j in range(n)]) for k, (values, vectors) in enumerate(q_pairs))
        p = root @ root
        ratios = sla.eigh((a + a.T) / 2, (p + p.T) / 2, eigvals_only=True)
        assert ratios[0] >= 1.0 / n - 1e-9 and ratios[-1] <= 1.0 + 1e-9
        assert np.allclose(es._preconditioner(q_pairs)(p), np.eye(pencil.size), atol=1e-9)


@pytest.mark.parametrize("extent,cells", CLASS_BOXES)
@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_class_floor_lies_below_the_class_spectrum(kind, extent, cells):
    # the per-axis lower bound of each class lies below its smallest
    # eigenvalue, and above 0
    for whole, pencil, q_pairs, (a, b) in _class_pencils(kind, extent, cells):
        lowest = sla.eigh((a + a.T) / 2, (b + b.T) / 2, eigvals_only=True)[0]
        floor = es._class_floor(whole, pencil, q_pairs)
        assert 0.0 < floor <= lowest, (pencil.shape, floor, lowest)


@pytest.mark.parametrize("extent,cells", [
    ([1.0, 1.0], [16, 16]),
    ([1.0, 3.0], [6, 20]),
    ([1.0, 1.0, 1.0], [7, 7, 7]),
    ([1.0, 1.2, 0.7], [6, 7, 5]),
    ([1.0, 1.0, 4.0], [4, 4, 16]),
    ([1.0, 1.0, 0.5], [8, 8, 4]),
])
@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_split_path_with_skipped_classes_misses_no_value(kind, extent, cells, split_only):
    # classes proven empty below sigma are never solved; from one value to
    # many, the split solve still gives the dense spectrum (thinner boxes
    # can stall a class solve above tol, which sends the block to
    # solve_pencil)
    prob = assemble(build_domain(len(cells), extent, cells), 0, kind)
    for m in (1, 3, 8, 17):
        _assert_enclosures_meet(solve_problem(prob, m=m), prob, m)


@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_cube_at_four_values_takes_two_class_runs(kind, split_only):
    # at m = 4 the orbits 000 and 001 hold Q's four lowest values; the
    # lower bounds of 011 and 111 lie above the 4th value, so those two
    # orbits are never solved
    prob = assemble(build_domain(3, [1.0] * 3, [7, 7, 7]), 0, kind)
    _assert_enclosures_meet(solve_problem(prob, m=4), prob, 4)
    assert len(split_only) == 2


@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_structured_path_reaches_the_rounding_floor_past_a_cut_cluster(kind, structured_only):
    # at m = 12 the 7 x 8 x 9 block's near-degenerate eigenvalues straddle
    # the block edge; the iteration still certifies at tol = 1e-11
    prob = assemble(build_domain(3, [1.0] * 3, [7, 8, 9]), 0, kind)
    spec = solve_problem(prob, m=12, tol=1e-11)
    assert spec.residuals.max() <= 10 * es.ROUNDING_TARGET


def test_class_solves_stop_near_the_rounding_floor(monkeypatch, no_general_solver):
    # at 31^2 clamped m=32 (split) one class is solved again for twice its
    # count; near the rounding floor its backward error creeps down by noise,
    # so a stop that waits for any new best runs it to LOBPCG_MAXITER, while
    # one that waits for the error to halve stops it within a few steps
    applies = []
    real = es._lobpcg

    def counted(apply, norms, precond, span, m):
        applies.append(0)

        def tallied(x):
            applies[-1] += 1
            return apply(x)

        return real(tallied, norms, precond, span, m)

    monkeypatch.setattr(es, "_lobpcg", counted)
    rounds = _record_rounds(monkeypatch, applies)
    prob = assemble(build_domain(2, [1.0, 1.0], [31, 31]), 0, ProblemKind.CLAMPED_PLATE)
    spec = solve_problem(prob, m=32)
    assert len(applies) > rounds[0] and max(applies) < es.LOBPCG_MAXITER // 2
    assert np.all(spec.residuals <= 1e-13)


def test_fourth_order_solves_never_factorize(monkeypatch):
    # 23^3 blocks (12,167 dof) are solved matrix-free: no sparse
    # factorization, no Lanczos, no eigh larger than one axis and no
    # assembled a or b, buckling's error bounds included
    def forbidden(*args, **kwargs):
        raise AssertionError("sparse solver called on a fourth-order block")

    _forbid_assembled_blocks(monkeypatch)

    def axis_only(eigh):
        def limited(a, *args, **kwargs):
            assert a.shape[0] <= 23, f"eigh on {a.shape[0]} dof"
            return eigh(a, *args, **kwargs)
        return limited

    monkeypatch.setattr(spla, "splu", forbidden)
    monkeypatch.setattr(spla, "eigsh", forbidden)
    monkeypatch.setattr(sla, "eigh", axis_only(sla.eigh))
    monkeypatch.setattr(np.linalg, "eigh", axis_only(np.linalg.eigh))
    dom = build_domain(3, [1.0] * 3, [23] * 3)
    for kind, degree, first in ((ProblemKind.CLAMPED_PLATE, 0, 2322.2370363),
                                (ProblemKind.BUCKLING, 1, 64.5236994)):
        spec = solve_problem(assemble(dom, degree, kind), m=4)
        assert spec.values[0] == pytest.approx(first, rel=1e-9), kind
        assert np.all(spec.residuals <= es.DEFAULT_TOL), kind


def test_structured_path_is_bitwise_repeatable_and_degree_independent(no_general_solver):
    # a 504-dof 3D block, a cube (one class solved per orbit) and a
    # 210-dof block, all with dense classes, and a 2,730-dof block with
    # LOBPCG ones: two solves agree bit for bit, the 1-form spectrum (three
    # copies of the same block, same request) repeats each scalar value
    # three times, and the 3-form (Hodge dual of the scalar) reproduces it
    # exactly
    for extent, cells in (([1.0, 1.1, 0.9], [7, 8, 9]), ([1.0, 1.0, 1.0], [7, 7, 7]),
                          ([1.0, 1.1, 0.9], [5, 6, 7]), ([1.0, 1.1, 0.9], [13, 14, 15])):
        dom = build_domain(3, extent, cells)
        one = solve_problem(assemble(dom, 0, ProblemKind.BUCKLING), m=4)
        two = solve_problem(assemble(dom, 0, ProblemKind.BUCKLING), m=4)
        for field in ("values", "residuals", "error_bounds", "vectors"):
            assert np.array_equal(getattr(one, field), getattr(two, field)), (cells, field)
        dual = solve_problem(assemble(dom, 3, ProblemKind.BUCKLING), m=4)
        assert np.array_equal(dual.values, one.values), cells
        one_form = solve_problem(assemble(dom, 1, ProblemKind.BUCKLING), m=4)
        assert np.array_equal(one_form.values, one.values[[0, 0, 0, 1]]), cells


@pytest.mark.parametrize("kind,extent,cells,m", [
    pytest.param(kind, extent, cells, 6, id=f"{kind.value}-extent{i}-cells{i}")
    for kind in (ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING)
    for i, (extent, cells) in enumerate((([1.0], [127]), ([1.0, 1.0], [15, 15]),
                                         ([1.0, 1.1, 0.9], [5, 6, 7]),
                                         ([1.0, 2.0, 6.0], [3, 5, 14])))
] + [
    # complete at any m: most of a square's values, and every value of a cube
    pytest.param(ProblemKind.BUCKLING, [1.0, 1.0], [20, 20], 300, id="buckling-20x20-m300"),
    pytest.param(ProblemKind.CLAMPED_PLATE, [1.0, 1.0, 1.0], [7, 7, 7], 343,
                 id="clamped_plate-7x7x7-every-value"),
    # buckling classes of exactly DENSE_CUTOFF dof, reduced by the per-axis B^-1/2
    pytest.param(ProblemKind.BUCKLING, [1.0], [431], 6, id="buckling-431-at-cutoff"),
    pytest.param(ProblemKind.BUCKLING, [1.0, 1.0, 1.0], [11, 11, 11], 6,
                 id="buckling-11x11x11-at-cutoff"),
])
def test_dense_path_matches_the_assembled_pencil(kind, extent, cells, m, monkeypatch,
                                                 no_general_solver):
    # blocks whose reflection classes have at most DENSE_CUTOFF dof are
    # solved class by class, densely, from their per-axis factors, without
    # the assembled a or b, and every value lies within its error bound of
    # scipy's dense eigh of the assembled pencil
    dom = build_domain(len(cells), extent, cells)
    reference = assemble(dom, 0, kind)
    assert math.prod((c + 1) // 2 for c in cells) <= es.DENSE_CUTOFF
    full = sla.eigh(reference.A.toarray(), reference.B.toarray(), eigvals_only=True)[:m]
    _forbid_assembled_blocks(monkeypatch)
    spec = solve_problem(assemble(dom, 0, kind), m=m)
    assert np.all(np.abs(spec.values - full) <= spec.error_bounds)
    assert np.all(spec.residuals <= es.DEFAULT_TOL)


@pytest.mark.parametrize("kind,extent,cells", [
    # largest classes of 150 and 128 dof: as LOBPCG classes, the first
    # stalled at a backward error of 2e-10 and the second above tol
    (ProblemKind.CLAMPED_PLATE, [1.0, 20.0], [5, 100]),
    (ProblemKind.BUCKLING, [1.0, 1.0, 0.05], [15, 15, 3]),
])
def test_thin_blocks_reach_the_rounding_floor(kind, extent, cells, no_general_solver):
    prob = assemble(build_domain(len(cells), extent, cells), 0, kind)
    spec = solve_problem(prob, m=4)
    assert spec.residuals.max() <= 1e-14


@pytest.mark.parametrize("cells,m", [
    # a 1D block above the dense cutoff
    ([511], 4),
    # more values than the structured route takes in 2D
    ([40, 40], 33),
])
def test_outside_the_structured_region_takes_the_general_path(monkeypatch, cells, m):
    calls = []
    real = es.solve_pencil

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(es, "solve_pencil", counted)
    prob = assemble(build_domain(len(cells), [1.0] * len(cells), cells), 0,
                    ProblemKind.CLAMPED_PLATE)
    spec = solve_problem(prob, m=m)
    assert calls == [(prob.dof_count, prob.dof_count)]
    assert np.all(spec.residuals <= es.DEFAULT_TOL)


def test_inside_the_structured_region_takes_the_structured_solve(monkeypatch,
                                                                  no_general_solver):
    # a 31^2 block (961 dof) asked for 4 values is solved by LOBPCG
    calls = []
    real = es._structured_solve

    def counted(block, m, tol):
        calls.append((block.size, m))
        return real(block, m, tol)

    monkeypatch.setattr(es, "_structured_solve", counted)
    prob = assemble(build_domain(2, [1.0, 1.0], [31, 31]), 0, ProblemKind.BUCKLING)
    spec = solve_problem(prob, m=4)
    assert calls == [(961, 4)]
    assert np.all(spec.residuals <= es.DEFAULT_TOL)


def test_failed_structured_solve_is_answered_by_the_general_path(monkeypatch):
    # an iteration stopped far from convergence fails its certificate, and
    # solve_pencil answers the block instead
    monkeypatch.setattr(es, "LOBPCG_MAXITER", 1)
    calls = []
    real = es.solve_pencil

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(es, "solve_pencil", counted)
    prob = assemble(build_domain(3, [1.0] * 3, [13, 13, 13]), 0, ProblemKind.BUCKLING)
    spec = solve_problem(prob, m=4)
    assert calls == [(prob.dof_count, prob.dof_count)]
    assert np.all(spec.residuals <= es.DEFAULT_TOL)


# ---------------------------------------------------------------------------
# blockwise problem solves
# ---------------------------------------------------------------------------

def test_degree_independence_is_bitwise():
    # identical per-block requests give identical block solves, so the p=1
    # spectrum duplicates the p=0 one exactly
    dom = build_domain(2, [1.0, 1.0], [9, 9])
    scalar = solve_problem(assemble(dom, 0, ProblemKind.BUCKLING), m=4)
    one_form = solve_problem(assemble(dom, 1, ProblemKind.BUCKLING), m=4)
    assert one_form.values[0] == scalar.values[0]
    assert one_form.values[1] == scalar.values[0]
    assert one_form.values[2] == scalar.values[1]


def test_block_merge_interleaves_mixed_blocks():
    dom = build_domain(2, [1.0, 2.0], [6, 9])
    prob = assemble(dom, 1, ProblemKind.ABSOLUTE_LAPLACE)
    spec = solve_problem(prob, m=5)
    direct = solve_pencil(prob.A, prob.B, m=5)
    assert spec.values == pytest.approx(direct.values, rel=1e-9)


def test_buckling_dominates_dirichlet_on_same_grid():
    # discrete analog of the min-max comparison: the clamped admissible
    # space is smaller, so the buckling value sits above the Dirichlet one
    for cells in ((12,), (9, 9)):
        dom = build_domain(len(cells), [1.0] * len(cells), list(cells))
        buck = solve_problem(assemble(dom, 0, ProblemKind.BUCKLING), m=1)
        diri = solve_problem(assemble(dom, 0, ProblemKind.DIRICHLET_LAPLACE), m=1)
        assert buck.values[0] >= diri.values[0]


def test_non_spd_b_raises_factorization_failure():
    from hodge_spectra.errors import FactorizationFailure
    a = sp.identity(3, format="csr")
    b = sp.diags([1.0, -1.0, 1.0]).tocsr()
    with pytest.raises(FactorizationFailure):
        solve_pencil(a, b, m=1)


def test_residual_tolerance_failure_reports_partial():
    dom = build_domain(1, [1.0], [31])
    prob = assemble(dom, 0, ProblemKind.CLAMPED_PLATE)
    with pytest.raises(NumericalFailure) as info:
        solve_pencil(prob.A, prob.B, m=1, tol=1e-30)
    assert isinstance(info.value.partial, Spectrum)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(kind=None, degree=None, values=np.array([2.0, 1.0]),
                 residuals=np.zeros(2), error_bounds=np.zeros(2))
    spec = Spectrum(kind="buckling", degree=1, values=np.array([1.0, 1.0 + 1e-9]),
                    residuals=np.zeros(2), error_bounds=np.zeros(2))
    assert spec.multiplicity_of_first() == 2
    # error bounds of the wrong shape, negative or non-finite
    for bounds in (np.zeros(3), np.zeros((2, 1)), np.array([1e-9, -1e-9]),
                   np.array([1e-9, math.nan]), np.array([math.inf, 1e-9])):
        with pytest.raises(ValueError):
            Spectrum(kind="buckling", degree=0, values=np.array([1.0, 2.0]),
                     residuals=np.zeros(2), error_bounds=bounds)


# ---------------------------------------------------------------------------
# certificates: backward error and eigenvalue error bound
# ---------------------------------------------------------------------------

def _exact_rayleigh_quotient(a, b, x) -> Fraction:
    """x^T A x / x^T B x in exact rational arithmetic.

    Every double is an integer multiple of 2^-1074, so both quadratic forms
    are exact integer sums over the nonzeros on the common scale 2^-3222.
    """
    def scaled(values):
        return [num * (2 ** 1074 // den)
                for num, den in (float(v).as_integer_ratio() for v in values)]

    xs = scaled(x)

    def form(matrix):
        coo = matrix.tocoo()
        return sum(m * xs[i] * xs[j]
                   for m, i, j in zip(scaled(coo.data), coo.row.tolist(), coo.col.tolist()))

    return Fraction(form(a), form(b))


@pytest.mark.parametrize("extent,cells", [
    ([1.3], [23]),
    ([1.0, 1.7], [9, 11]),
    ([1.0, 1.2, 0.9], [4, 5, 6]),
])
@pytest.mark.parametrize("kind", list(ProblemKind))
def test_error_bounds_cover_the_eigenvalues(kind, extent, cells):
    # theta_i lies within error_bounds[i] of the i-th eigenvalue of the full
    # pencil (zero dropped at absolute p=0).  Dense eigh's own values are off
    # by up to about 2 bounds on these grids, since the bounds sit at the
    # rounding floor; the reference is the exact Rayleigh quotient of eigh's
    # i-th eigenvector, whose error is quadratic in the eigenvector's.
    dom = build_domain(len(cells), extent, cells)
    m = 5
    for degree in range(dom.dim + 1):
        prob = assemble(dom, degree, kind)
        spec = solve_problem(prob, m=m)
        _, vectors = sla.eigh(prob.A.toarray(), prob.B.toarray())
        kernel = spec.deflated_kernel_dim
        for i in range(m):
            exact = _exact_rayleigh_quotient(prob.A, prob.B, vectors[:, kernel + i])
            assert abs(Fraction(spec.values[i]) - exact) <= Fraction(spec.error_bounds[i]), \
                (degree, i)


@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_error_bound_covers_a_perturbed_pair(kind):
    # far above the rounding floor: a noisy eigenvector and its Rayleigh
    # quotient still have the nearest true eigenvalue within the bound
    prob = assemble(build_domain(2, [1.0, 1.3], [9, 11]), 0, kind)
    a, b = prob.A.toarray(), prob.B.toarray()
    true_values, true_vectors = sla.eigh(a, b)
    x = true_vectors[:, 1] + 1e-4 * np.random.default_rng(7).standard_normal(prob.dof_count)
    theta = (x @ a @ x) / (x @ b @ x)
    _, bound = es._residuals(prob.A, prob.B, [theta], x[:, None])
    distance = np.min(np.abs(true_values - theta))
    assert 1e-8 * theta < distance <= bound[0]


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_rounding_term_bounds_the_error_of_the_computed_residual(kind):
    # |fl(r) - r| <= gamma_k (|A||x| + |theta||B||x|) componentwise, with r
    # formed exactly in rational arithmetic from the same floats
    prob = assemble(build_domain(2, [1.0, 1.3], [9, 11]), 0, kind)
    (block,) = prob.blocks
    spec = solve_problem(prob, m=3)
    computed, _, rounding = es._residual_vectors(block.a, block.b, spec.values, spec.vectors)
    a, b = block.a.tocoo(), block.b.tocoo()
    for col, theta in enumerate(spec.values):
        x = [Fraction(v) for v in spec.vectors[:, col]]
        exact = [Fraction(0)] * block.size
        for matrix, scale in ((a, Fraction(1)), (b, -Fraction(theta))):
            for value, i, j in zip(matrix.data, matrix.row, matrix.col):
                exact[i] += scale * Fraction(value) * x[j]
        for i in range(block.size):
            assert abs(Fraction(computed[i, col]) - exact[i]) <= Fraction(rounding[i, col]), \
                (col, i)


def _exact_kronecker_sum(factors):
    """Entries {(i, j): value} of sum_k W_1 x ... x S_k x ... x W_n and of
    W_1 x ... x W_n, formed exactly in rationals from the float factors."""
    shape = tuple(w.size for _, w in factors)
    a, b = {}, {}
    for multi in itertools.product(*(range(c) for c in shape)):
        row = int(np.ravel_multi_index(multi, shape))
        weights = [Fraction(w[i]) for (_, w), i in zip(factors, multi)]
        b[row, row] = math.prod(weights)
        for k, (stiff, _) in enumerate(factors):
            others = math.prod(weights[:k] + weights[k + 1:])
            for col_k in np.flatnonzero(stiff[multi[k]]):
                col = int(np.ravel_multi_index(multi[:k] + (col_k,) + multi[k + 1:], shape))
                a[row, col] = a.get((row, col), 0) + others * Fraction(stiff[multi[k], col_k])
    return a, b


def _sparse_entries(matrix):
    coo = matrix.tocoo()
    return {(int(i), int(j)): Fraction(v) for v, i, j in zip(coo.data, coo.row, coo.col)}


@pytest.mark.parametrize("extent,cells", [([1.0, 1.3], [9, 11]), ([1.0, 1.2, 0.9], [4, 5, 6])])
@pytest.mark.parametrize("kind", [ProblemKind.DIRICHLET_LAPLACE, ProblemKind.ABSOLUTE_LAPLACE])
def test_separable_error_bound_covers_the_exact_residual(kind, extent, cells):
    # each bound is at least ||Ax - theta Bx||_{B^-1} / ||x||_B, formed exactly
    # in rational arithmetic for x the exact Kronecker product of the 1D
    # vectors, both for the Kronecker sum of the 1D factors and for the
    # assembled sparse block (degree 1 mixes value and derivative axes in
    # the absolute blocks)
    dom = build_domain(len(cells), extent, cells)
    for block in assemble(dom, 1, kind).blocks:
        spec = es._separable_solve(block, 3, es.DEFAULT_TOL)
        pairs = es._axis_pairs(block.axis_factors)
        _, _, multi = es._smallest_sums(pairs, 3, skip_first=bool(block.kernel_dim))
        for col, (theta, bound) in enumerate(zip(spec.values, spec.error_bounds)):
            axis_x = [[Fraction(v) for v in axis_vectors[:, index[col]]]
                      for (_, axis_vectors), index in zip(pairs, multi)]
            x = [math.prod(entries) for entries in itertools.product(*axis_x)]
            for a, b in (_exact_kronecker_sum(block.axis_factors),
                         (_sparse_entries(block.a), _sparse_entries(block.b))):
                r = [Fraction(0)] * block.size
                for entries, scale in ((a, Fraction(1)), (b, -Fraction(theta))):
                    for (i, j), value in entries.items():
                        r[i] += scale * value * x[j]
                r_norm_sq = sum(r[i] ** 2 / b[i, i] for i in range(block.size))
                x_norm_sq = sum(b[i, i] * x[i] ** 2 for i in range(block.size))
                assert r_norm_sq <= Fraction(bound) ** 2 * x_norm_sq, (block.component, col)


@pytest.mark.parametrize("extent,cells", [([1.0, 1.3], [9, 11]), ([1.0, 1.2, 0.9], [23, 17, 29])])
@pytest.mark.parametrize("kind", [ProblemKind.DIRICHLET_LAPLACE, ProblemKind.ABSOLUTE_LAPLACE])
def test_separable_norms_match_the_assembled_block(kind, extent, cells):
    # ||A||_1 from |A| 1 and ||B||_1 from diag(B), without the sparse block,
    # equal the sparse block's largest absolute column sums (A up to the
    # order of summation)
    dom = build_domain(len(cells), extent, cells)
    for p in range(dom.dim + 1):
        for block in assemble(dom, p, kind).blocks:
            norm_a, norm_b = es._separable_norms(block.axis_factors)
            assert norm_a == pytest.approx(abs(block.a).sum(axis=0).max(), rel=1e-15)
            assert norm_b == abs(block.b).sum(axis=0).max()


def _exact_gram_pencil(block):
    """Entries {(i, j): value} of A* = vol (sum_k T_k)^2 + D and of B* (vol sum_k T_k,
    or vol I), formed exactly in rationals from the block's float T_k and vol and
    the face rows' float entries f_k, D holding (vol / 2) f_k^2 per face."""
    dom = block.domain
    shape = dom.cells
    volume = Fraction(dom.cell_volume)
    s, d = {}, {}
    for multi in itertools.product(*(range(c) for c in shape)):
        row = int(np.ravel_multi_index(multi, shape))
        d[row] = Fraction(0)
        for k, (second, _) in enumerate(block.axis_terms):
            for col_k in np.flatnonzero(second[multi[k]]):
                col = int(np.ravel_multi_index(multi[:k] + (col_k,) + multi[k + 1:], shape))
                s[row, col] = s.get((row, col), 0) + Fraction(second[multi[k], col_k])
            if multi[k] in (0, shape[k] - 1):
                d[row] += volume / 2 * Fraction(-2.0 / dom.spacing[k] ** 2) ** 2
    by_row = {}
    for (i, j), value in s.items():
        by_row.setdefault(i, []).append((j, value))
    a = {(i, i): d[i] for i in d}
    for i, row in by_row.items():
        for j, s_ij in row:
            for l, s_jl in by_row[j]:
                a[i, l] = a.get((i, l), 0) + volume * s_ij * s_jl
    if block.b_is_mass:
        return a, {(i, i): volume for i in d}
    return a, {key: volume * value for key, value in s.items()}


def _exact_residual(a, b, theta, x):
    r = [Fraction(0)] * len(x)
    for entries, scale in ((a, Fraction(1)), (b, -Fraction(theta))):
        for (i, j), value in entries.items():
            r[i] += scale * value * x[j]
    return r


@pytest.mark.parametrize("extent,cells", [([1.0, 1.3], [9, 11]), ([1.0, 1.2, 0.9], [4, 5, 6])])
@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_gram_residual_bounds_the_exact_residual(kind, extent, cells):
    # |fl(r) - r| <= g componentwise for the matrix-free residual, with r
    # formed exactly in rational arithmetic from the same floats, both for
    # the pencil of the per-axis factors and for the assembled block; for
    # the solver's pairs, at the rounding floor, and for a pair off it.
    # There, the error bound encloses ||r||_{B^-1} / ||x||_B, and 0.3 times
    # it does not.
    (block,) = assemble(build_domain(len(cells), extent, cells), 0, kind).blocks
    pencil = es._AxisPencil.of(block)
    spec = es._structured_solve(block, 3, es.DEFAULT_TOL)
    noisy = spec.vectors[:, :1] + 1e-6 * np.random.default_rng(5).standard_normal((block.size, 1))
    ax, bx = es._gram_products(pencil, noisy)
    noisy_theta = (noisy[:, 0] @ ax[:, 0]) / (noisy[:, 0] @ bx[:, 0])
    _, (bound,) = es._gram_certificate(pencil, [noisy_theta], noisy, es._gram_norms(pencil))
    pencils = {"per-axis": _exact_gram_pencil(block),
               "assembled": (_sparse_entries(block.a), _sparse_entries(block.b))}
    # the assembly share of g: each entry of block.a and block.b lies within
    # gamma_{4n} and gamma_n of the per-axis pencil's (measured: up to 0.3
    # and 0.45 of that on these grids)
    n = len(cells)
    for exact, assembled, k in zip(*pencils.values(), (4 * n, n)):
        assert exact.keys() == assembled.keys()
        assert all(abs(assembled[key] - value) <= Fraction(k, 2 ** 53 - k) * abs(value)
                   for key, value in exact.items())
    for values, vectors in ((spec.values, spec.vectors), ([noisy_theta], noisy)):
        computed, _, rounding = es._gram_residual(pencil, values, vectors)
        for col, theta in enumerate(values):
            x = [Fraction(v) for v in vectors[:, col]]
            for name, (a, b) in pencils.items():
                exact = _exact_residual(a, b, theta, x)
                assert all(abs(Fraction(computed[i, col]) - exact[i]) <= Fraction(rounding[i, col])
                           for i in range(block.size)), (name, col)
    noisy_x = [Fraction(v) for v in noisy[:, 0]]
    for name, (a, b) in pencils.items():
        r = np.array([float(v) for v in _exact_residual(a, b, noisy_theta, noisy_x)])
        dense_b = np.zeros((block.size, block.size))
        for (i, j), value in b.items():
            dense_b[i, j] = float(value)
        ratio = math.sqrt((r @ sla.solve(dense_b, r)) / (noisy[:, 0] @ dense_b @ noisy[:, 0]))
        assert 0.3 * bound < ratio <= bound, name


@pytest.mark.parametrize("extent,cells", [([1.0, 1.3], [9, 11]), ([1.0, 1.2, 0.9], [4, 5, 6])])
@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_gram_products_match_the_assembled_block(kind, extent, cells):
    # the matrix-free Ax and Bx equal block.a @ x and block.b @ x within the
    # residual's rounding bound, and |A| 1, |B| 1 give the assembled norms
    (block,) = assemble(build_domain(len(cells), extent, cells), 0, kind).blocks
    pencil = es._AxisPencil.of(block)
    x = np.random.default_rng(9).standard_normal((block.size, 4))
    ax, bx = es._gram_products(pencil, x)
    _, _, a_rounding = es._gram_residual(pencil, np.zeros(4), x)
    _, abs_bx = es._gram_products(pencil, np.abs(x), magnitudes=True)
    assert np.all(np.abs(ax - block.a @ x) <= a_rounding)
    assert np.all(np.abs(bx - block.b @ x) <= es._gamma(6 * len(cells) + 7) * abs_bx)
    norm_a, norm_b = es._gram_norms(pencil)
    assert norm_a == pytest.approx(es._norm1(block.a), rel=1e-14)
    assert norm_b == pytest.approx(es._norm1(block.b), rel=1e-15)


def test_backward_error_flags_nan():
    # a NaN pair must fail certification, not slip past a `>` comparison
    eye = sp.identity(3, format="csr")
    values, vectors = np.array([1.0]), np.full((3, 1), math.nan)
    with pytest.raises(NumericalFailure):
        es._certified(values, vectors, es._residuals(eye, eye, values, vectors), 1e-9)
