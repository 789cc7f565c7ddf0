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

`assemble` keeps every block as its grid and its per-axis face
conditions, in plain Python.  Each block's operator is defined once, per
axis.  A second-order block's 1D pencils (S_k, w_k) have their entries
written by `_axis_pencil` alone, in plain Python, which both the sparse
assembly and the numpy-free separable route (`separable`) read.  A
fourth-order block's is a = vol (sum_k T_k)^2 + D, T_k the 1D second
differences and D the diagonal of face terms, which is the Gram form of
the evaluation-grid Laplacian (see `ComponentBlock.axis_terms`); these
dense factors load numpy on first access.  A block's sparse matrices are
assembled from the same per-axis definitions on first access, and
scipy.sparse is imported only then.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import ProblemKind, _FrozenRecord

if TYPE_CHECKING:
    import numpy as np
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


class FaceCondition(str, enum.Enum):
    VALUE = "value"                # component vanishes on the face
    DERIVATIVE = "derivative"      # normal derivative of the component vanishes
    CLAMPED = "clamped"            # both


def _representable_spacing(h: float) -> bool:
    try:
        return all(math.isfinite(x) and x != 0.0 for x in (h ** 4, h ** -4))
    except (OverflowError, ZeroDivisionError):
        return False


class BoxDomain(_FrozenRecord):
    """Axis-aligned box with a uniform interior grid per axis."""

    dim: int
    extent: tuple[float, ...]
    cells: tuple[int, ...]
    spacing: tuple[float, ...]

    def __init__(self, dim, extent, cells, spacing):
        super().__init__(dim, extent, cells, spacing)
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
        return math.prod(self.cells)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)


def build_domain(dim: int, extent: Sequence[float], cells: Sequence[int]) -> BoxDomain:
    """Validated BoxDomain with spacing h_k = extent_k / (cells_k + 1)."""
    extent_t = tuple(float(e) for e in extent)
    cells_t = tuple(int(c) for c in cells)
    spacing = tuple(e / (c + 1) for e, c in zip(extent_t, cells_t))
    return BoxDomain(dim=dim, extent=extent_t, cells=cells_t, spacing=spacing)


class ComponentIndex(_FrozenRecord):
    """Multi-index I of a component omega_I dx^I; axes are 1-based."""

    degree: int
    axes: tuple[int, ...]

    def __init__(self, degree, axes):
        super().__init__(degree, axes)
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

def block_axes(block: ComponentBlock) -> list[tuple[int, float, bool]]:
    """(cells, spacing, whether its faces fix the derivative) of each axis of a
    second-order block."""
    return [(c, h, cond is FaceCondition.DERIVATIVE)
            for c, h, cond in zip(block.domain.cells, block.domain.spacing, block.conditions)]


def _axis_pencil(cells: int, h: float, derivative: bool) -> tuple[list[float], float, list[float]]:
    """The diagonal, off-diagonal and lumped mass weights of an axis's 1D pencil
    (S, w), the one definition of its entries.

    Value faces drop the boundary nodes (classical interior Laplacian);
    derivative faces keep them, with half mass weight and corner entries
    from the ghost reflection so that S stays symmetric.
    """
    if derivative:
        return ([1.0 / h] + [2.0 / h] * cells + [1.0 / h], -1.0 / h,
                [h / 2.0] + [h] * cells + [h / 2.0])
    return [2.0 / h] * cells, -1.0 / h, [h] * cells


def _kron_chain(mats: Iterable[sp.spmatrix]) -> sp.csr_matrix:
    import scipy.sparse as sp

    out = None
    for m in mats:
        out = m if out is None else sp.kron(out, m, format="csr")
    return out.tocsr()


def _kron_sum(mats: Sequence[sp.spmatrix], others: Sequence[sp.spmatrix]) -> sp.csr_matrix:
    """sum_k others[0] x ... x mats[k] x ... x others[-1], for mats[k] in any sparse format."""
    import scipy.sparse as sp

    terms = [_kron_chain([sp.csr_matrix(mat) if j == k else other
                          for j, other in enumerate(others)]) for k, mat in enumerate(mats)]
    return sum(terms[1:], terms[0])


def _second_difference(cells: int, h: float) -> np.ndarray:
    """1D Dirichlet second difference T = tridiag(-1, 2, -1) / h^2, dense."""
    import numpy as np

    off = np.full(cells - 1, -1.0 / h ** 2)
    return np.diag(np.full(cells, 2.0 / h ** 2)) + np.diag(off, -1) + np.diag(off, 1)


def _laplacian(block: ComponentBlock) -> sp.csr_matrix:
    """K = sum_k I x T_k x I of a fourth-order block, assembled from the three
    diagonals of each T_k (a dense T_k would be scanned whole)."""
    import numpy as np
    import scipy.sparse as sp

    return _kron_sum([sp.diags([np.diag(second, j) for j in (-1, 0, 1)], [-1, 0, 1])
                      for second, _ in block.axis_terms],
                     [sp.identity(c, format="csr") for c in block.domain.cells])


class ComponentBlock(_FrozenRecord):
    """One scalar diagonal block of an assembled p-form problem.

    A block is its grid and the face conditions of its axes, in its
    signature.  A second-order block is the Kronecker sum of its axes' 1D
    pencils (`block_axes`, `_axis_pencil`).  A fourth-order block is its
    grid and the kind of its b: a = vol K^2 + D, with K = sum_k I x T_k x I
    (`laplacian`) and D = sum_k I x diag(d_k) x I from its `axis_terms`,
    against b = vol I (clamped plate) or vol K (buckling).  The dense
    fourth-order factors are built on first access, with numpy, and the
    sparse pencil (`a`, `b`) too, since only the general solver and the
    tests read it; it is exactly symmetric as built from symmetric factors.
    """

    component: ComponentIndex
    offset: int
    size: int
    signature: tuple
    domain: BoxDomain
    kernel_dim: int = 0                         # dimension of the kernel of a

    def __init__(self, component, offset, size, signature, domain, kernel_dim=kernel_dim):
        super().__init__(component, offset, size, signature, domain, kernel_dim)

    @property
    def conditions(self) -> tuple[FaceCondition, ...]:
        """The condition on the faces of each axis (`component_conditions`)."""
        return self.signature[3]

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
        if self.signature[0] == "laplacian":
            return None
        import numpy as np

        half = self.domain.cell_volume / 2.0
        terms = []
        for c, h in zip(self.domain.cells, self.domain.spacing):
            face = -2.0 / h ** 2
            d = np.zeros(c)
            d[[0, -1]] = half * face * face
            terms.append((_second_difference(c, h), d))
        return tuple(terms)

    @functools.cached_property
    def laplacian(self) -> sp.csr_matrix:
        """K = sum_k I x T_k x I of a fourth-order block, built once for both `a`
        and buckling's `b`."""
        return _laplacian(self)

    @functools.cached_property
    def a(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        if self.axis_terms is not None:
            laplacian = self.laplacian
            a = (self.domain.cell_volume * laplacian) @ laplacian
            # a node's face terms follow its interior sum one by one, in axis
            # order, as the face rows of L follow its interior rows
            diagonal = a.diagonal().reshape(self.domain.cells)
            for k, (_, d) in enumerate(self.axis_terms):
                diagonal += d.reshape([-1 if j == k else 1 for j in range(self.domain.dim)])
            a.setdiag(diagonal.ravel())
            # exactly symmetric as formed (an entry and its transpose sum the
            # same one or two products), but scipy's product leaves the
            # column indices of a row unsorted
            a.sort_indices()
            return a
        pencils = [_axis_pencil(*axis) for axis in block_axes(self)]
        return _kron_sum([sp.diags([main, off, off], [0, -1, 1]) for main, off, _ in pencils],
                         [sp.diags(w, format="csr") for _, _, w in pencils])

    @functools.cached_property
    def b(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        if self.axis_terms is None:
            return _kron_chain([sp.diags(_axis_pencil(*axis)[2], format="csr")
                                for axis in block_axes(self)])
        volume = self.domain.cell_volume
        if self.b_is_mass:
            return (sp.identity(self.size, format="csr") * volume).tocsr()
        return self.laplacian * volume


class FormProblem(_FrozenRecord):
    """Assembled symmetric pencil (A, B) for one degree and problem kind.

    The solvers work block by block; the global block-diagonal matrices A
    and B are built on first access.
    """

    domain: BoxDomain
    degree: int
    kind: ProblemKind
    dof_count: int
    blocks: tuple[ComponentBlock, ...]

    def __init__(self, domain, degree, kind, dof_count, blocks):
        super().__init__(domain, degree, kind, dof_count, blocks)

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
    (S_k, w_k) is axis k's 1D pencil (`_axis_pencil`, read on first
    access) and W_k = diag(w_k): c_k nodes on an axis with value faces,
    c_k + 2 with derivative faces.  The only kernel is the constant, present
    when every axis keeps its boundary nodes.
    """
    return {
        "size": math.prod(c + 2 if cond is FaceCondition.DERIVATIVE else c
                          for c, cond in zip(domain.cells, conds)),
        "signature": ("laplacian", "mass", domain.key, conds),
        "domain": domain,
        "kernel_dim": int(all(c is FaceCondition.DERIVATIVE for c in conds)),
    }


def assemble(domain: BoxDomain, degree: int, kind: ProblemKind) -> FormProblem:
    """Assemble the block-diagonal pencil (A, B) for p-forms of the given kind.

    Clamped plate: A = vol K^2 + D against the mass matrix vol I, K the
    Dirichlet Laplacian sum_k I x T_k x I.  Buckling: the same A against the
    stiffness vol K.  Dirichlet / absolute Laplacian: the stiffness against
    the (trapezoidal) mass, with per-component face conditions.
    Only the grid and the face conditions are kept here (see `ComponentBlock`).
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
