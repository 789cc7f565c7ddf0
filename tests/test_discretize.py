"""Assembly tests: domains, per-component boundary conditions, operator pairs.

Spectrum-level assertions here use scipy.linalg.eigh directly so they do not
depend on the package's own eigensolver.
"""

import functools
import math
import sys

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import hodge_spectra.eigensolve as es
from evaluation_grid import dense_axis_pencil, evaluation_laplacian, gram_pencil
from hodge_spectra.discretize import (
    ComponentBlock,
    ComponentIndex,
    FaceCondition,
    ProblemKind,
    assemble,
    block_axes,
    build_domain,
    component_conditions,
    _second_order_block,
)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

def test_build_domain_1d_spacing():
    dom = build_domain(1, [1.0], [31])
    assert dom.spacing == (1.0 / 32.0,)


def test_build_domain_2d():
    dom = build_domain(2, [1.0, 1.0], [63, 63])
    assert dom.cells == (63, 63)
    assert dom.interior_count == 63 * 63


@pytest.mark.parametrize("dim,extent,cells", [
    (2, [1.0, 1.0], [2, 63]),
    (4, [1.0] * 4, [5] * 4),
    (0, [], []),
    (2, [1.0, -1.0], [5, 5]),
    (2, [1.0], [5, 5]),
    # spacings whose fourth power underflows or overflows, and infinite extents
    (2, [1e-200, 1.0], [5, 5]),
    (2, [1e300, 1.0], [5, 5]),
    (2, [math.inf, 1.0], [5, 5]),
    (2, [math.nan, 1.0], [5, 5]),
])
def test_build_domain_rejects_bad_inputs(dim, extent, cells):
    with pytest.raises(ValueError):
        build_domain(dim, extent, cells)


def test_component_index_enumeration():
    comps = ComponentIndex.all_for(3, 2)
    assert [c.axes for c in comps] == [(1, 2), (1, 3), (2, 3)]
    with pytest.raises(ValueError):
        ComponentIndex(degree=2, axes=(2, 1))
    with pytest.raises(ValueError):
        ComponentIndex(degree=1, axes=(1, 2))


# ---------------------------------------------------------------------------
# boundary conditions per component
# ---------------------------------------------------------------------------

def test_absolute_conditions_on_square_one_forms():
    dom = build_domain(2, [1.0, 1.0], [5, 5])
    comp1 = ComponentIndex(degree=1, axes=(1,))
    comp2 = ComponentIndex(degree=1, axes=(2,))
    cond1 = component_conditions(dom, comp1, ProblemKind.ABSOLUTE_LAPLACE)
    cond2 = component_conditions(dom, comp2, ProblemKind.ABSOLUTE_LAPLACE)
    # faces with normal e_1: the component containing dx^1 vanishes, the
    # other gets zero normal derivative; entry k-1 covers both faces of axis k
    assert cond1 == (FaceCondition.VALUE, FaceCondition.DERIVATIVE)
    assert cond2 == (FaceCondition.DERIVATIVE, FaceCondition.VALUE)


def test_clamped_conditions_everywhere():
    dom = build_domain(2, [1.0, 1.0], [5, 5])
    for kind in (ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING):
        for p in (0, 1, 2):
            for comp in ComponentIndex.all_for(2, p):
                conds = component_conditions(dom, comp, kind)
                assert len(conds) == 2
                assert all(c is FaceCondition.CLAMPED for c in conds)


def test_dirichlet_conditions_everywhere():
    dom = build_domain(2, [1.0, 1.0], [5, 5])
    comp = ComponentIndex(degree=1, axes=(2,))
    conds = component_conditions(dom, comp, ProblemKind.DIRICHLET_LAPLACE)
    assert conds == (FaceCondition.VALUE, FaceCondition.VALUE)


# ---------------------------------------------------------------------------
# assembled pencils
# ---------------------------------------------------------------------------

def _smallest(problem, k=1):
    vals = sla.eigh(problem.A.toarray(), problem.B.toarray(),
                    subset_by_index=(0, k - 1), eigvals_only=True)
    return vals


def test_1d_dirichlet_matches_closed_form():
    dom = build_domain(1, [1.0], [31])
    prob = assemble(dom, 0, ProblemKind.DIRICHLET_LAPLACE)
    h = 1.0 / 32.0
    exact = [4.0 / h ** 2 * math.sin(k * math.pi * h / 2.0) ** 2 for k in (1, 2)]
    got = _smallest(prob, 2)
    assert got == pytest.approx(exact, rel=1e-10)


def test_1d_dirichlet_anisotropic_extent():
    dom = build_domain(1, [2.0], [31])
    prob = assemble(dom, 0, ProblemKind.DIRICHLET_LAPLACE)
    h = 2.0 / 32.0
    exact = 4.0 / h ** 2 * math.sin(math.pi * h / (2.0 * 2.0)) ** 2
    assert _smallest(prob)[0] == pytest.approx(exact, rel=1e-10)


def test_2d_one_form_dirichlet_doubles_the_scalar_spectrum():
    dom = build_domain(2, [1.0, 1.0], [7, 7])
    scalar = assemble(dom, 0, ProblemKind.DIRICHLET_LAPLACE)
    one_form = assemble(dom, 1, ProblemKind.DIRICHLET_LAPLACE)
    assert one_form.dof_count == 2 * scalar.dof_count
    vals0 = sla.eigh(scalar.A.toarray(), scalar.B.toarray(), eigvals_only=True)
    vals1 = sla.eigh(one_form.A.toarray(), one_form.B.toarray(), eigvals_only=True)
    assert vals1 == pytest.approx(np.sort(np.concatenate([vals0, vals0])), rel=1e-12)


def test_global_pencil_is_built_on_first_access():
    prob = assemble(build_domain(2, [1.0, 1.0], [5, 6]), 1, ProblemKind.BUCKLING)
    assert "A" not in vars(prob) and "B" not in vars(prob)
    assert prob.A is prob.A
    assert prob.A.shape == prob.B.shape == (prob.dof_count, prob.dof_count)
    for blk in prob.blocks:
        window = slice(blk.offset, blk.offset + blk.size)
        assert (prob.A[window, window] != blk.a).nnz == 0
        assert (prob.B[window, window] != blk.b).nnz == 0


@pytest.mark.parametrize("extent,cells", [
    ([1.0], [15]), ([1.0, 1.5], [5, 7]), ([1.0, 1.1, 0.9], [4, 5, 6]),
    ([1.0, 1.0, 0.05], [15, 15, 3]),
])
@pytest.mark.parametrize("kind", list(ProblemKind))
def test_assembled_pairs_are_exactly_symmetric(kind, extent, cells):
    # exact as assembled: the per-axis factors are symmetric, and an entry of
    # (vol K) K sums the same products as its transposed entry (the grid
    # graph has no triangles)
    dom = build_domain(len(cells), extent, cells)
    for degree in range(dom.dim + 1):
        prob = assemble(dom, degree, kind)
        assert (prob.A != prob.A.T).nnz == 0, degree
        assert (prob.B != prob.B.T).nnz == 0, degree


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_b_is_positive_definite(kind):
    dom = build_domain(2, [1.0, 1.0], [5, 5])
    prob = assemble(dom, 1, kind)
    assert sla.eigh(prob.B.toarray(), eigvals_only=True)[0] > 0.0


def test_clamped_a_is_positive_semidefinite():
    dom = build_domain(2, [1.0, 1.0], [6, 5])
    prob = assemble(dom, 0, ProblemKind.CLAMPED_PLATE)
    rng = np.random.default_rng(42)
    for _ in range(25):
        x = rng.standard_normal(prob.dof_count)
        assert x @ (prob.A @ x) >= 0.0


def test_buckling_b_is_the_dirichlet_stiffness():
    dom = build_domain(1, [1.0], [15])
    buck = assemble(dom, 0, ProblemKind.BUCKLING)
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.standard_normal(buck.dof_count)
        q = x @ (buck.B @ x)
        assert q > 0.0


def test_integration_by_parts_identity():
    # x^T a y == (Lx)^T M~ (Ly), L the evaluation-grid Laplacian built node by node
    dom = build_domain(2, [1.0, 1.0], [6, 6])
    prob = assemble(dom, 0, ProblemKind.CLAMPED_PLATE)
    blk = prob.blocks[0]
    laplacian, weights = evaluation_laplacian(dom)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.standard_normal(blk.size)
        y = rng.standard_normal(blk.size)
        lhs = x @ (blk.a @ y)
        rhs = (laplacian @ x) @ ((laplacian @ y) * weights)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("extent,cells", [
    ([1.0], [63]), ([1.0, 1.0], [15, 15]), ([1.0, 1.0, 1.0], [7, 7, 7]),
    ([1.0, 1.3], [9, 11]), ([1.0, 0.8, 1.1], [4, 5, 6]), ([1.0, 1.2, 0.9], [4, 5, 6]),
    ([1.0, 2.0, 3.0], [6, 11, 17]),
])
@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_fourth_order_pencil_is_the_gram_form_of_the_evaluation_grid_laplacian(
        kind, extent, cells):
    # a = vol K^2 + D and b, assembled from the per-axis factors, equal
    # L^T M~ L and its b bitwise, sparsity included: the products and sums
    # are formed in the same order, so FormProblem.A and .B do not depend on
    # which of the two defines them, also where h is not a power of two
    dom = build_domain(len(cells), extent, cells)
    (block,) = assemble(dom, 0, kind).blocks
    reference = gram_pencil(dom, kind is ProblemKind.CLAMPED_PLATE)
    for assembled, expected in zip((block.a, block.b), reference):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(assembled, name), getattr(expected, name)), name


def test_assemble_builds_no_sparse_matrix(monkeypatch):
    # every kind keeps only its per-axis factors; scipy.sparse is loaded on
    # first access to a block's matrices, not before
    dom = build_domain(3, [1.0, 1.1, 0.9], [4, 5, 6])
    with monkeypatch.context() as patch:
        patch.setitem(sys.modules, "scipy.sparse", None)
        problems = [assemble(dom, p, kind) for kind in ProblemKind for p in range(4)]
    for prob in problems:
        for blk in prob.blocks:
            assert not {"a", "b"} & set(vars(blk))
    assert problems[0].blocks[0].a.shape == (120, 120)


def _count_fourth_order_a(monkeypatch) -> list:
    """Grids of the fourth-order blocks whose `a` gets built from now on."""
    built = []
    build = ComponentBlock.a.func

    def counting(block):
        if block.axis_terms is not None:
            built.append(block.domain.cells)
        return build(block)

    counting_a = functools.cached_property(counting)
    counting_a.__set_name__(ComponentBlock, "a")
    monkeypatch.setattr(ComponentBlock, "a", counting_a)
    return built


def test_gram_forms_are_built_once_per_distinct_block(monkeypatch):
    # 15^2 battery at degrees 0, 1, 2 with its ladder 3^2, 7^2, 15^2: every
    # clamped and buckling block is solved by reflection class from its
    # per-axis factors, so solve_problem builds no block.a
    from hodge_spectra.verify import box_battery

    built = _count_fourth_order_a(monkeypatch)
    box_battery(build_domain(2, [1.0, 1.0], [15, 15]), [0, 1, 2], with_error_estimates=True)
    assert built == []


def test_global_pencil_builds_one_gram_form_per_signature(monkeypatch):
    # the three components of a 3D clamped 1-form share one signature, so
    # the global A takes all three blocks from one block.a
    built = _count_fourth_order_a(monkeypatch)
    prob = assemble(build_domain(3, [1.0, 1.1, 0.9], [3, 4, 5]), 1, ProblemKind.CLAMPED_PLATE)
    assert prob.A.shape == (3 * 60, 3 * 60)
    assert built == [(3, 4, 5)]
    (block,) = {blk.signature: blk for blk in prob.blocks}.values()
    assert (prob.A != sp.block_diag([block.a] * 3)).nnz == 0


@pytest.mark.parametrize("extent,cells", [([1.3], [5]), ([1.0, 1.3], [4, 6]),
                                          ([1.0, 1.1, 0.9], [3, 4, 5])])
def test_face_rows_match_the_per_node_rule(extent, cells):
    # the face rows of L, one per face node in axis, face, node order with
    # -2 / h_k^2 at the adjacent interior node, give exactly the face diagonal
    # the solvers apply: L_f^T M~_f L_f = D, a node's terms added in axis order
    dom = build_domain(len(cells), extent, cells)
    blk = assemble(dom, 0, ProblemKind.CLAMPED_PLATE).blocks[0]
    laplacian, weights = evaluation_laplacian(dom)
    face = laplacian[dom.interior_count:]
    share = (face.T @ sp.diags(weights[dom.interior_count:]) @ face).tocsr()
    share.sort_indices()
    face_diagonal = es._AxisPencil.of(blk).face_diagonal
    nodes = np.flatnonzero(face_diagonal)
    assert np.array_equal(share.indptr, np.searchsorted(nodes, np.arange(dom.interior_count + 1)))
    assert np.array_equal(share.indices, nodes)
    assert np.array_equal(share.data, face_diagonal[nodes])


def test_degree_out_of_range_rejected():
    dom = build_domain(2, [1.0, 1.0], [5, 5])
    with pytest.raises(ValueError):
        assemble(dom, 3, ProblemKind.DIRICHLET_LAPLACE)
    with pytest.raises(ValueError):
        assemble(dom, -1, ProblemKind.BUCKLING)


def test_dof_count_value_conditions():
    dom = build_domain(2, [1.0, 1.0], [5, 7])
    prob = assemble(dom, 1, ProblemKind.DIRICHLET_LAPLACE)
    assert prob.dof_count == 2 * 5 * 7
    # derivative faces keep their boundary nodes
    prob_abs = assemble(dom, 1, ProblemKind.ABSOLUTE_LAPLACE)
    assert prob_abs.dof_count == 5 * (7 + 2) + (5 + 2) * 7


def test_absolute_p0_constant_kernel():
    dom = build_domain(2, [1.0, 1.0], [5, 5])
    prob = assemble(dom, 0, ProblemKind.ABSOLUTE_LAPLACE)
    ones = np.ones(prob.dof_count)
    assert np.linalg.norm(prob.A @ ones) == 0.0
    (block,) = prob.blocks
    assert block.kernel_dim == 1


@pytest.mark.parametrize("extent,cells", [([1.0, 1.3], [4, 5]), ([1.0, 0.8, 1.1], [3, 3, 4])])
@pytest.mark.parametrize("kind", list(ProblemKind))
def test_block_kernel_dim_matches_numerical_nullity(kind, extent, cells):
    # the structural count (1 only at absolute p=0) against the near-zero
    # eigenvalues of each assembled block
    dom = build_domain(len(cells), extent, cells)
    for p in range(dom.dim + 1):
        for block in assemble(dom, p, kind).blocks:
            values = sla.eigh(block.a.toarray(), block.b.toarray(), eigvals_only=True)
            nullity = int(np.sum(np.abs(values) <= 1e-10 * values[-1]))
            assert block.kernel_dim == nullity, (kind, p, block.component)
            expected = int(kind is ProblemKind.ABSOLUTE_LAPLACE and p == 0)
            assert block.kernel_dim == expected


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("kind", [ProblemKind.DIRICHLET_LAPLACE, ProblemKind.ABSOLUTE_LAPLACE])
def test_second_order_block_is_the_kronecker_sum_of_its_axis_factors(kind, p):
    dom = build_domain(2, [1.0, 1.7], [4, 6])
    for block in assemble(dom, p, kind).blocks:
        factors = [dense_axis_pencil(axis) for axis in block_axes(block)]
        stiff = [s for s, _ in factors]
        mass = [np.diag(w) for _, w in factors]
        kron = functools.partial(functools.reduce, np.kron)
        a = sum(kron([stiff[j] if j == k else mass[j] for j in range(dom.dim)])
                for k in range(dom.dim))
        # the sparse Kronecker sum multiplies and adds as the dense one does
        assert np.array_equal(block.a.toarray(), a)
        assert np.array_equal(block.b.toarray(), kron(mass))


# ---------------------------------------------------------------------------
# duality of block operators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("extent,cells", [([1.0, 1.3], [9, 11]), ([1.0, 0.8, 1.1], [4, 5, 6])])
@pytest.mark.parametrize("kind", [ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING])
def test_fourth_order_block_lies_between_q_and_n_q(kind, extent, cells):
    # Q = sum_k I x q_k x I drops only the cross terms 2 vol T_j x T_k of a,
    # which are positive semidefinite, so the pencil (a, Q) has its
    # eigenvalues in [1, n]; buckling's b is the Kronecker sum of its b_k
    dom = build_domain(len(cells), extent, cells)
    (block,) = assemble(dom, 0, kind).blocks
    eyes = [np.eye(c) for c in cells]
    kron = functools.partial(functools.reduce, np.kron)

    def kron_sum(factors):
        return sum(kron([factors[k] if j == k else eyes[j] for j in range(dom.dim)])
                   for k in range(dom.dim))

    q = kron_sum(es._axis_bounds(es._AxisPencil.of(block)))
    ratios = sla.eigh(block.a.toarray(), q, eigvals_only=True)
    assert ratios[0] >= 1.0 - 1e-10 and ratios[-1] <= dom.dim + 1e-10
    assert block.b_is_mass is (kind is ProblemKind.CLAMPED_PLATE)
    if not block.b_is_mass:
        b = kron_sum([dom.cell_volume * second for second, _ in block.axis_terms])
        assert np.allclose(block.b.toarray(), b, rtol=0.0, atol=1e-12 * np.abs(b).max())


@pytest.mark.parametrize("kind", [
    ProblemKind.CLAMPED_PLATE,
    ProblemKind.BUCKLING,
    ProblemKind.DIRICHLET_LAPLACE,
])
def test_blocks_identical_under_degree_complement(kind):
    dom = build_domain(3, [1.0, 1.0, 1.0], [3, 4, 5])
    for p in (0, 1):
        low = assemble(dom, p, kind)
        high = assemble(dom, 3 - p, kind)
        assert len(low.blocks) == len(high.blocks)
        for bl, bh in zip(low.blocks, high.blocks):
            assert (bl.a != bh.a).nnz == 0
            assert (bl.b != bh.b).nnz == 0


def test_absolute_blocks_match_direct_relative_assembly():
    # The dual of the absolute problem at degree p is the relative problem
    # at degree n-p: value where the face axis is NOT in the multi-index,
    # derivative where it is.  Built here directly from that rule and
    # compared blockwise against the absolute assembly under I -> I^c.
    dom = build_domain(3, [1.0, 1.0, 1.0], [3, 4, 3])
    n = dom.dim
    for p in (0, 1):
        absolute = assemble(dom, p, ProblemKind.ABSOLUTE_LAPLACE)
        rel_blocks = {}
        for comp in ComponentIndex.all_for(n, n - p):
            conds = tuple(
                FaceCondition.DERIVATIVE if axis in comp.axes else FaceCondition.VALUE
                for axis in range(1, n + 1)
            )
            rel_blocks[comp.axes] = ComponentBlock(
                component=comp, offset=0, **_second_order_block(dom, conds))
        for blk in absolute.blocks:
            complement = tuple(a for a in range(1, n + 1) if a not in blk.component.axes)
            rel = rel_blocks[complement]
            assert (blk.a != rel.a).nnz == 0
            assert (blk.b != rel.b).nnz == 0


def test_buckling_builds_its_laplacian_once(monkeypatch):
    # a and buckling's b share one K = sum_k I x T_k x I, built on first access
    import hodge_spectra.discretize as discretize

    builds = []
    real = discretize._laplacian

    def counted(block):
        builds.append(block.size)
        return real(block)

    monkeypatch.setattr(discretize, "_laplacian", counted)
    (block,) = assemble(build_domain(2, [1.0, 1.3], [9, 11]), 0, ProblemKind.BUCKLING).blocks
    a, b = block.a, block.b
    assert builds == [99]
    # bitwise the matrices of a block that reads them in the other order,
    # and b is vol K of a K built apart
    monkeypatch.undo()
    (fresh,) = assemble(build_domain(2, [1.0, 1.3], [9, 11]), 0, ProblemKind.BUCKLING).blocks
    assert (b != fresh.b).nnz == 0 and (a != fresh.a).nnz == 0
    assert (b != real(fresh) * fresh.domain.cell_volume).nnz == 0
