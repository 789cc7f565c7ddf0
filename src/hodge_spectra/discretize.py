"""Finite-difference assembly of the four eigenvalue problems for p-forms
on axis-aligned boxes.

On a flat box the Hodge Laplacian acts as the scalar Laplacian on each of
the C(n,p) components of a p-form, and the boundary systems decouple per
component per face, so every problem assembles as a block-diagonal pair of
scalar operators.  Grids are vertex-centered: `cells` interior nodes per
axis with spacing h = extent/(cells+1); a face whose condition fixes the
value eliminates its boundary nodes, a face whose condition fixes the
normal derivative keeps them and closes the stencil by ghost reflection
(ghost value = mirror interior value, the centered derivative = 0 rule).

`assemble` keeps every block as its dense per-axis factors and its grid,
with numpy alone, and the separable, dense and structured solvers work
from those.  A fourth-order block's operator is defined once, per axis:
a = vol (sum_k T_k)^2 + D, T_k the 1D second differences and D the
diagonal of face terms, which is the Gram form of the evaluation-grid
Laplacian (see `ComponentBlock.axis_terms`).  A block's sparse matrices
are assembled from the same factors on first access, and scipy.sparse is
imported only then.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "ProblemKind",
    "FaceCondition",
    "BoxDomain",
    "ComponentIndex",
    "ComponentBlock",
    "FormProblem",
    "build_domain",
    "component_conditions",
    "assemble",
]


class ProblemKind(str, enum.Enum):
    CLAMPED_PLATE = "clamped_plate"
    BUCKLING = "buckling"
    DIRICHLET_LAPLACE = "dirichlet_laplace"
    ABSOLUTE_LAPLACE = "absolute_laplace"

    @property
    def is_fourth_order(self) -> bool:
        return self in (ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING)


class FaceCondition(str, enum.Enum):
    VALUE = "value"                # component vanishes on the face
    DERIVATIVE = "derivative"      # normal derivative of the component vanishes
    CLAMPED = "clamped"            # both


def _representable_spacing(h: float) -> bool:
    try:
        return all(math.isfinite(x) and x != 0.0 for x in (h ** 4, h ** -4))
    except (OverflowError, ZeroDivisionError):
        return False


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with a uniform interior grid per axis."""

    dim: int
    extent: tuple[float, ...]
    cells: tuple[int, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be in {{1,2,3}}, got {self.dim}")
        for name, seq in (("extent", self.extent), ("cells", self.cells),
                          ("spacing", self.spacing)):
            if len(seq) != self.dim:
                raise ValueError(f"{name} must have length {self.dim}, got {seq!r}")
        if any(not (e > 0.0 and math.isfinite(e)) for e in self.extent):
            raise ValueError(f"extents must be positive and finite, got {self.extent}")
        if any(c < 3 for c in self.cells):
            raise ValueError(f"need at least 3 interior nodes per axis, got {self.cells}")
        if any(not _representable_spacing(h) for h in self.spacing):
            raise ValueError(
                f"spacing {self.spacing} is out of range: the fourth-order operators "
                "need h**4 and h**-4 to be finite nonzero floats")

    @property
    def key(self) -> tuple:
        return (self.dim, self.extent, self.cells)

    @property
    def interior_count(self) -> int:
        return int(np.prod(self.cells))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))


def build_domain(dim: int, extent: Sequence[float], cells: Sequence[int]) -> BoxDomain:
    """Validated BoxDomain with spacing h_k = extent_k / (cells_k + 1)."""
    extent_t = tuple(float(e) for e in extent)
    cells_t = tuple(int(c) for c in cells)
    spacing = tuple(e / (c + 1) for e, c in zip(extent_t, cells_t))
    return BoxDomain(dim=dim, extent=extent_t, cells=cells_t, spacing=spacing)


@dataclass(frozen=True)
class ComponentIndex:
    """Multi-index I of a component omega_I dx^I; axes are 1-based."""

    degree: int
    axes: tuple[int, ...]

    def __post_init__(self):
        if len(self.axes) != self.degree:
            raise ValueError(f"|axes| must equal degree, got {self.axes} vs {self.degree}")
        if any(a < 1 for a in self.axes):
            raise ValueError(f"axes are 1-based, got {self.axes}")
        if any(a >= b for a, b in zip(self.axes, self.axes[1:])):
            raise ValueError(f"axes must be strictly increasing, got {self.axes}")

    @staticmethod
    def all_for(n: int, p: int) -> tuple["ComponentIndex", ...]:
        """All C(n,p) components in lexicographic order."""
        if not 0 <= p <= n:
            raise ValueError(f"degree must satisfy 0 <= p <= {n}, got {p}")
        return tuple(
            ComponentIndex(degree=p, axes=axes)
            for axes in itertools.combinations(range(1, n + 1), p)
        )


def component_conditions(
    domain: BoxDomain, component: ComponentIndex, kind: ProblemKind
) -> tuple[FaceCondition, ...]:
    """Scalar condition on both faces of each axis, for one component.

    Entry k-1 holds the condition on the two faces normal to axis k.  The
    fourth-order kinds clamp every face; Dirichlet fixes the value; the
    absolute condition fixes the value where the face normal axis belongs to
    the component's multi-index and the normal derivative where it does not.
    """
    kind = ProblemKind(kind)
    if component.degree > domain.dim or (component.axes and component.axes[-1] > domain.dim):
        raise ValueError(f"component {component} does not fit in dimension {domain.dim}")
    if kind.is_fourth_order:
        return (FaceCondition.CLAMPED,) * domain.dim
    if kind is ProblemKind.DIRICHLET_LAPLACE:
        return (FaceCondition.VALUE,) * domain.dim
    return tuple(FaceCondition.VALUE if axis in component.axes else FaceCondition.DERIVATIVE
                 for axis in range(1, domain.dim + 1))


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------

def _axis_stiffness(cells: int, h: float, cond: FaceCondition) -> tuple[np.ndarray, np.ndarray]:
    """1D stiffness S (dense) and lumped mass weights w for one axis.

    VALUE faces drop the boundary nodes (classical interior Laplacian);
    DERIVATIVE faces keep them, with half mass weight and corner entries
    from the ghost reflection so that S stays symmetric.
    """
    if cond is FaceCondition.VALUE:
        m = cells
        main = np.full(m, 2.0 / h)
        weights = np.full(m, h)
    elif cond is FaceCondition.DERIVATIVE:
        m = cells + 2
        main = np.full(m, 2.0 / h)
        main[0] = main[-1] = 1.0 / h
        weights = np.full(m, h)
        weights[0] = weights[-1] = h / 2.0
    else:
        raise ValueError(f"no second-order axis operator for {cond}")
    off = np.full(m - 1, -1.0 / h)
    stiff = np.diag(main) + np.diag(off, -1) + np.diag(off, 1)
    return stiff, weights


def _kron_chain(mats: Iterable[sp.spmatrix]) -> sp.csr_matrix:
    import scipy.sparse as sp

    out = None
    for m in mats:
        out = m if out is None else sp.kron(out, m, format="csr")
    return out.tocsr()


def _kron_sum(mats: Sequence, others: Sequence[sp.spmatrix]) -> sp.csr_matrix:
    """sum_k others[0] x ... x mats[k] x ... x others[-1], for dense or sparse mats[k]."""
    import scipy.sparse as sp

    terms = [_kron_chain([sp.csr_matrix(mat) if j == k else other
                          for j, other in enumerate(others)]) for k, mat in enumerate(mats)]
    return sum(terms[1:], terms[0])


def _symmetrize(a: sp.spmatrix) -> sp.csr_matrix:
    out = ((a + a.T) * 0.5).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def _second_difference(cells: int, h: float) -> np.ndarray:
    """1D Dirichlet second difference T = tridiag(-1, 2, -1) / h^2, dense."""
    off = np.full(cells - 1, -1.0 / h ** 2)
    return np.diag(np.full(cells, 2.0 / h ** 2)) + np.diag(off, -1) + np.diag(off, 1)


def _laplacian(block: ComponentBlock) -> sp.csr_matrix:
    """K = sum_k I x T_k x I of a fourth-order block, assembled from the three
    diagonals of each T_k (a dense T_k would be scanned whole)."""
    import scipy.sparse as sp

    return _kron_sum([sp.diags([np.diag(second, j) for j in (-1, 0, 1)], [-1, 0, 1])
                      for second, _ in block.axis_terms],
                     [sp.identity(c, format="csr") for c in block.domain.cells])


@dataclass(frozen=True)
class ComponentBlock:
    """One scalar diagonal block of an assembled p-form problem.

    A block keeps its per-axis factors and its grid, from which the
    separable, dense and structured solves work.  A fourth-order block is
    its grid and the kind of its b: a = vol K^2 + D, with K = sum_k I x
    T_k x I and D = sum_k I x diag(d_k) x I from its `axis_terms`, against
    b = vol I (clamped plate) or vol K (buckling).  Its sparse pencil (`a`,
    `b`) is built on first access, since only the general solver and the
    tests read it.
    """

    component: ComponentIndex
    offset: int
    size: int
    signature: tuple
    domain: BoxDomain
    # second order: per-axis dense 1D pencils (S_k, w_k) whose Kronecker sum is (a, b)
    axis_factors: Optional[tuple[tuple[np.ndarray, np.ndarray], ...]] = None
    kernel_dim: int = 0                         # dimension of the kernel of a

    @property
    def b_is_mass(self) -> bool:
        """Whether b is a mass matrix: vol I for clamped plate, not buckling's vol K."""
        return self.signature[1] == "mass"

    @functools.cached_property
    def axis_terms(self) -> Optional[tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """Per axis k of a fourth-order block, its dense second difference T_k
        and its face terms d_k, (vol / 2) f_k^2 at both ends and 0 between.

        At a node of a face normal to axis k the value is zero on the whole
        face, and ghost reflection of the zero normal derivative leaves the
        Laplacian f_k u = -2 u / h_k^2, u the value at the adjacent interior
        node; the face node's trapezoidal weight is vol / 2.  So D is the
        face rows' share of the Gram form L^T M~ L of the evaluation-grid
        Laplacian L, and a the whole form (a node on two faces or more has
        a zero Laplacian, and no row).
        """
        if self.axis_factors is not None:
            return None
        half = self.domain.cell_volume / 2.0
        terms = []
        for c, h in zip(self.domain.cells, self.domain.spacing):
            face = -2.0 / h ** 2
            d = np.zeros(c)
            d[[0, -1]] = half * face * face
            terms.append((_second_difference(c, h), d))
        return tuple(terms)

    @functools.cached_property
    def a(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        if self.axis_factors is None:
            laplacian = _laplacian(self)
            a = (self.domain.cell_volume * laplacian) @ laplacian
            # a node's face terms follow its interior sum one by one, in axis
            # order, as the face rows of L follow its interior rows
            diagonal = a.diagonal().reshape(self.domain.cells)
            for k, (_, d) in enumerate(self.axis_terms):
                diagonal += d.reshape([-1 if j == k else 1 for j in range(self.domain.dim)])
            a.setdiag(diagonal.ravel())
            return _symmetrize(a)
        return _symmetrize(_kron_sum([s_k for s_k, _ in self.axis_factors],
                                     [sp.diags(w, format="csr") for _, w in self.axis_factors]))

    @functools.cached_property
    def b(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        if self.axis_factors is not None:
            return _kron_chain([sp.diags(w, format="csr") for _, w in self.axis_factors])
        volume = self.domain.cell_volume
        if self.b_is_mass:
            return (sp.identity(self.size, format="csr") * volume).tocsr()
        return _symmetrize(_laplacian(self) * volume)


@dataclass(frozen=True)
class FormProblem:
    """Assembled symmetric pencil (A, B) for one degree and problem kind.

    The solvers work block by block; the global block-diagonal matrices A
    and B are built on first access.
    """

    domain: BoxDomain
    degree: int
    kind: ProblemKind
    dof_count: int
    blocks: tuple[ComponentBlock, ...]

    def _global(self, name: str) -> sp.csr_matrix:
        """block_diag of each block's matrix `name`, taken from the first block
        of its signature, so that a signature's matrices are built once."""
        import scipy.sparse as sp

        first = {}
        for blk in self.blocks:
            first.setdefault(blk.signature, blk)
        return sp.block_diag([getattr(first[blk.signature], name) for blk in self.blocks],
                             format="csr")

    @functools.cached_property
    def A(self) -> sp.csr_matrix:
        return self._global("a")

    @functools.cached_property
    def B(self) -> sp.csr_matrix:
        return self._global("b")


def _fourth_order_block(domain: BoxDomain, kind: ProblemKind,
                        conds: tuple[FaceCondition, ...]) -> dict:
    """Clamped biharmonic block: its grid, and the kind of b in its signature
    (see `ComponentBlock`)."""
    mass = kind is ProblemKind.CLAMPED_PLATE
    return {
        "size": domain.interior_count,
        "signature": ("biharmonic", "mass" if mass else "stiffness", domain.key, conds),
        "domain": domain,
    }


def _second_order_block(domain: BoxDomain, conds: tuple[FaceCondition, ...]) -> dict:
    """Componentwise Laplacian with per-axis conditions, as a Kronecker sum.

    K = sum_k W_1 x ... x S_k x ... x W_n against M = W_1 x ... x W_n, where
    (S_k, w_k) is axis k's 1D pencil and W_k = diag(w_k).  The only kernel
    is the constant, present when every axis keeps its boundary nodes.
    """
    axes = tuple(_axis_stiffness(c, h, cond)
                 for c, h, cond in zip(domain.cells, domain.spacing, conds))
    return {
        "size": math.prod(w.size for _, w in axes),
        "signature": ("laplacian", "mass", domain.key, conds),
        "domain": domain,
        "axis_factors": axes,
        "kernel_dim": int(all(c is FaceCondition.DERIVATIVE for c in conds)),
    }


def assemble(domain: BoxDomain, degree: int, kind: ProblemKind) -> FormProblem:
    """Assemble the block-diagonal pencil (A, B) for p-forms of the given kind.

    Clamped plate: A = vol K^2 + D against the mass matrix vol I, K the
    Dirichlet Laplacian sum_k I x T_k x I.  Buckling: the same A against the
    stiffness vol K.  Dirichlet / absolute Laplacian: the stiffness against
    the (trapezoidal) mass, with per-component face conditions.
    Only the per-axis factors are built here (see `ComponentBlock`).
    Components with the same per-axis conditions share a block signature,
    so `solve_problem` solves their block once.
    """
    kind = ProblemKind(kind)
    n = domain.dim
    if not 0 <= degree <= n:
        raise ValueError(f"degree must satisfy 0 <= p <= {n}, got {degree}")
    blocks: list[ComponentBlock] = []
    offset = 0
    for comp in ComponentIndex.all_for(n, degree):
        conds = component_conditions(domain, comp, kind)
        built = (_fourth_order_block(domain, kind, conds) if kind.is_fourth_order
                 else _second_order_block(domain, conds))
        blocks.append(ComponentBlock(component=comp, offset=offset, **built))
        offset += built["size"]
    return FormProblem(
        domain=domain,
        degree=degree,
        kind=kind,
        dof_count=offset,
        blocks=tuple(blocks),
    )
