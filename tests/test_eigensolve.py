"""Eigensolver tests: trivial pencils, closed-form grids, deflation, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import hodge_spectra.eigensolve as es
from hodge_spectra.discretize import ProblemKind, assemble, build_domain, kernel_basis
from hodge_spectra.eigensolve import (
    DeflatedPencil,
    Spectrum,
    deflate_kernel,
    solve_generalized,
    solve_pencil,
    solve_problem,
)
from hodge_spectra.errors import NumericalFailure


def test_identity_pencil():
    eye = sp.identity(6, format="csr")
    spec = solve_generalized(eye, eye, m=3)
    assert spec.values == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_diagonal_pencil():
    a = sp.diags([3.0, 1.0, 2.0]).tocsr()
    spec = solve_generalized(a, sp.identity(3, format="csr"), m=2)
    assert spec.values == pytest.approx([1.0, 2.0], abs=1e-12)


def test_rejects_mismatched_or_asymmetric():
    a = sp.identity(4, format="csr")
    with pytest.raises(ValueError):
        solve_generalized(a, sp.identity(5, format="csr"), m=1)
    skew = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        solve_generalized(skew, sp.identity(2, format="csr"), m=1)
    with pytest.raises(ValueError):
        solve_generalized(a, a, m=0)
    with pytest.raises(ValueError):
        solve_generalized(a, a, m=9)


def test_1d_dirichlet_closed_form_through_solver():
    dom = build_domain(1, [1.0], [31])
    prob = assemble(dom, 0, ProblemKind.DIRICHLET_LAPLACE)
    spec = solve_generalized(prob.A, prob.B, m=2)
    h = 1.0 / 32.0
    exact = [4.0 / h ** 2 * math.sin(k * math.pi * h / 2.0) ** 2 for k in (1, 2)]
    assert spec.values == pytest.approx(exact, rel=1e-10)
    assert np.all(spec.residuals <= 1e-9)


def test_rayleigh_quotient_consistency():
    dom = build_domain(2, [1.0, 1.0], [9, 9])
    for kind in (ProblemKind.DIRICHLET_LAPLACE, ProblemKind.CLAMPED_PLATE,
                 ProblemKind.BUCKLING):
        prob = assemble(dom, 0, kind)
        spec = solve_generalized(prob.A, prob.B, m=3, tol=1e-9)
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
    # every kind (absolute p=0 takes the deflated Woodbury branch) and one 3D
    # block, 272 to 343 dof, inside the measured crossover band, each forced
    # down both paths
    cases = [(2, [16, 17], kind) for kind in ProblemKind] + \
        [(3, [7, 7, 7], ProblemKind.CLAMPED_PLATE)]
    for dim, cells, kind in cases:
        prob = assemble(build_domain(dim, [1.0] * dim, cells), 0, kind)
        spectra = []
        for cutoff in (10 ** 9, 0):
            monkeypatch.setattr(es, "DENSE_CUTOFF", cutoff)
            spectra.append(solve_problem(prob, m=4))
        dense, sparse = spectra
        assert sparse.values == pytest.approx(dense.values, rel=1e-10), kind
        assert np.all(dense.residuals <= es.DEFAULT_TOL), kind
        assert np.all(sparse.residuals <= es.DEFAULT_TOL), kind


def test_large_block_does_not_use_dense_eigh(monkeypatch):
    # a 63^2 block (3969 dof) is far above the measured dense/sparse crossover
    def no_dense(*args, **kwargs):
        raise AssertionError("dense eigh called on a 3969-dof block")

    monkeypatch.setattr(es.sla, "eigh", no_dense)
    prob = assemble(build_domain(2, [1.0, 1.0], [63, 63]), 0, ProblemKind.DIRICHLET_LAPLACE)
    spec = solve_problem(prob, m=2)
    h = 1.0 / 64.0
    exact = 8.0 / h ** 2 * math.sin(math.pi * h / 2.0) ** 2
    assert spec.values[0] == pytest.approx(exact, rel=1e-10)


def test_dense_cutoff_lies_in_the_measured_crossover_band():
    bench = json.loads((Path(__file__).resolve().parents[1]
                        / "BENCH_dense_cutoff.json").read_text())
    # the band spans every recorded run, not only the pooled recommendation
    assert len(bench["per_run"]) == bench["runs"] > 1
    low, high = bench["band"]
    assert low <= es.DENSE_CUTOFF < high


# ---------------------------------------------------------------------------
# deflation
# ---------------------------------------------------------------------------

def test_deflate_empty_basis_is_identity():
    a = sp.identity(4, format="csr")
    pencil = deflate_kernel(a, a, [])
    assert pencil.kernel_dim == 0
    assert (pencil.a != a).nnz == 0


def test_deflate_rejects_non_kernel_vector():
    a = sp.diags([1.0, 2.0, 3.0]).tocsr()
    with pytest.raises(ValueError):
        deflate_kernel(a, sp.identity(3, format="csr"), [np.ones(3)])


def test_neumann_deflation_reports_positive_value():
    dom = build_domain(2, [1.0, 1.0], [9, 9])
    prob = assemble(dom, 0, ProblemKind.ABSOLUTE_LAPLACE)
    pencil = deflate_kernel(prob.A, prob.B, kernel_basis(prob))
    spec = solve_pencil(pencil, m=3, kind=prob.kind.value, degree=0)
    assert spec.deflated_kernel_dim == 1
    assert spec.values[0] > 0.0


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
    prob = assemble(dom, 0, ProblemKind.ABSOLUTE_LAPLACE)
    pencil = deflate_kernel(prob.A, prob.B, kernel_basis(prob))
    spec = solve_pencil(pencil, m=3)
    h = 1.0 / 16.0
    exact = [4.0 / h ** 2 * math.sin(k * math.pi * h / 2.0) ** 2 for k in (1, 2, 3)]
    assert spec.values == pytest.approx(exact, rel=1e-10)


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
    direct = solve_generalized(prob.A, prob.B, m=5)
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
        solve_generalized(a, b, m=1)


def test_residual_tolerance_failure_reports_partial():
    dom = build_domain(1, [1.0], [31])
    prob = assemble(dom, 0, ProblemKind.CLAMPED_PLATE)
    with pytest.raises(NumericalFailure) as info:
        solve_generalized(prob.A, prob.B, m=1, tol=1e-30)
    assert isinstance(info.value.partial, Spectrum)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(kind=None, degree=None, values=np.array([2.0, 1.0]),
                 residuals=np.zeros(2))
    spec = Spectrum(kind="buckling", degree=1, values=np.array([1.0, 1.0 + 1e-9]),
                    residuals=np.zeros(2))
    assert spec.multiplicity_of_first() == 2
