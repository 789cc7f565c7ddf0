"""Symmetric generalized eigensolver for the assembled pencils.

Solves A x = theta B x for the m smallest eigenvalues with certified
residuals.  Pencils of at most DENSE_CUTOFF dof are reduced densely
(LAPACK, O(n^3)); larger ones use shift-invert Lanczos around a factorized
(A - sigma B).  The cutoff is the measured dense/sparse crossover:
`bench/crossover.py` times both paths for every problem kind in 2D and 3D
and records the table in BENCH_dense_cutoff.json.  Every returned
pair is polished by inverse iteration until the relative residual
||Ax - theta Bx|| / ||Ax|| meets the tolerance, and a run with identical
inputs and configuration is bitwise reproducible (fixed start vector,
deterministic merge order).

Known kernels (the Neumann constants) are removed by Wielandt deflation:
A' = A + c (B v)(B v)^T shifts each deflated direction to the eigenvalue c,
chosen above the Gershgorin bound of the pencil, and leaves every other
eigenpair untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import FormProblem, kernel_basis
from .errors import FactorizationFailure, NumericalFailure

__all__ = [
    "Spectrum",
    "DeflatedPencil",
    "deflate_kernel",
    "solve_generalized",
    "solve_pencil",
    "solve_problem",
    "DENSE_CUTOFF",
]

# largest block size (dof) solved densely; see BENCH_dense_cutoff.json
DENSE_CUTOFF = 225
DEFAULT_TOL = 1e-9
MAX_ITER = 10_000
_POLISH_STEPS = 4
_SEED = 0x5EEDBA11
# relative gap below which equal eigenvalues are labeled as one multiplet
MULTIPLICITY_GAP = 1e-7


@dataclass
class Spectrum:
    """Sorted smallest eigenvalues of one pencil with residual certificates."""

    kind: Optional[str]
    degree: Optional[int]
    values: np.ndarray
    residuals: np.ndarray
    vectors: Optional[np.ndarray] = None
    deflated_kernel_dim: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.residuals = np.asarray(self.residuals, dtype=float)
        if self.values.shape != self.residuals.shape:
            raise ValueError("values and residuals must align")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("values must be sorted ascending")
        if self.deflated_kernel_dim > 0 and self.values.size and self.values[0] <= 0.0:
            raise ValueError("deflated spectrum must be strictly positive")

    @property
    def label(self) -> str:
        kind = self.kind or "pencil"
        return f"{kind} p={self.degree}" if self.degree is not None else kind

    def multiplicity_of_first(self) -> int:
        """Number of reported values within the labeling gap of the smallest."""
        if self.values.size == 0:
            return 0
        first = self.values[0]
        scale = max(abs(first), 1e-300)
        return int(np.sum(np.abs(self.values - first) <= MULTIPLICITY_GAP * scale))


@dataclass(frozen=True)
class DeflatedPencil:
    """Pencil (A, B) restricted to the B-orthogonal complement of a kernel basis."""

    a: sp.csr_matrix
    b: sp.csr_matrix
    basis: Optional[np.ndarray] = None      # B-orthonormal kernel vectors, n x k
    b_basis: Optional[np.ndarray] = None    # B @ basis
    shift: float = 0.0                      # Wielandt target for deflated directions

    @property
    def kernel_dim(self) -> int:
        return 0 if self.basis is None else self.basis.shape[1]

    @property
    def size(self) -> int:
        return self.a.shape[0]


def _as_csr(matrix) -> sp.csr_matrix:
    out = sp.csr_matrix(matrix, dtype=float)
    out.sum_duplicates()
    out.sort_indices()
    return out


def _check_symmetry(matrix: sp.csr_matrix, name: str) -> None:
    gap = abs(matrix - matrix.T)
    if gap.nnz:
        scale = max(abs(matrix).max(), 1.0)
        if gap.max() > 1e-12 * scale:
            raise ValueError(f"{name} is not symmetric")


def _pencil_upper_bound(a: sp.csr_matrix, b: sp.csr_matrix) -> float:
    """Gershgorin-style bound on the largest eigenvalue of (A, B), diagonal B."""
    diag = b.diagonal()
    if b.nnz != np.count_nonzero(diag):
        raise ValueError("kernel deflation requires a diagonal mass matrix B")
    if np.any(diag <= 0.0):
        raise FactorizationFailure("B has nonpositive diagonal entries")
    row_sums = np.asarray(abs(a).sum(axis=1)).ravel()
    return float(np.max(row_sums / diag))


def deflate_kernel(a, b, basis: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> DeflatedPencil:
    """Restrict the pencil to the B-orthogonal complement of kernel vectors.

    Each basis vector must satisfy ||A v|| <= tol ||v||.  An empty basis
    returns the pencil unchanged.
    """
    a = _as_csr(a)
    b = _as_csr(b)
    vecs = [np.asarray(v, dtype=float) for v in basis]
    if not vecs:
        return DeflatedPencil(a=a, b=b)
    a_scale = max(abs(a).max(), 1.0)
    for v in vecs:
        if np.linalg.norm(a @ v) > tol * a_scale * np.linalg.norm(v):
            raise ValueError("basis vector is not in the kernel of A")
    # B-orthonormalize (modified Gram-Schmidt)
    ortho: list[np.ndarray] = []
    for v in vecs:
        w = v.copy()
        for u in ortho:
            w -= u * (u @ (b @ w))
        norm = math.sqrt(w @ (b @ w))
        if norm <= 1e-14 * np.linalg.norm(w):
            raise ValueError("kernel basis vectors are linearly dependent")
        ortho.append(w / norm)
    basis_mat = np.column_stack(ortho)
    shift = 2.0 * _pencil_upper_bound(a, b)
    return DeflatedPencil(a=a, b=b, basis=basis_mat, b_basis=b @ basis_mat, shift=shift)


def _residuals(a, b, values, vectors) -> np.ndarray:
    out = np.empty(len(values))
    for i, theta in enumerate(values):
        x = vectors[:, i]
        ax = a @ x
        norm_ax = np.linalg.norm(ax)
        gap = np.linalg.norm(ax - theta * (b @ x))
        out[i] = gap / norm_ax if norm_ax > 0.0 else gap
    return out


def _project_out(pencil: DeflatedPencil, x: np.ndarray) -> np.ndarray:
    if pencil.basis is None:
        return x
    return x - pencil.basis @ (pencil.b_basis.T @ x)


def _polish(pencil: DeflatedPencil, theta: float, x: np.ndarray, tol: float):
    """Inverse iteration against (A - sigma B) with sigma just below theta."""
    a, b = pencil.a, pencil.b
    residual = _residuals(a, b, [theta], x.reshape(-1, 1))[0]
    steps = 0
    while residual > 0.5 * tol and steps < _POLISH_STEPS and theta != 0.0:
        sigma = theta * (1.0 - 1e-5)
        try:
            factor = spla.splu((a - sigma * b).tocsc())
        except RuntimeError:
            break
        y = factor.solve(b @ x)
        y = _project_out(pencil, y)
        norm = math.sqrt(abs(y @ (b @ y)))
        if norm == 0.0:
            break
        y /= norm
        theta_new = float((y @ (a @ y)) / (y @ (b @ y)))
        x, theta = y, theta_new
        residual = _residuals(a, b, [theta], x.reshape(-1, 1))[0]
        steps += 1
    return theta, x, residual


def _dense_solve(pencil: DeflatedPencil, m: int) -> tuple[np.ndarray, np.ndarray]:
    a_dense = pencil.a.toarray()
    if pencil.kernel_dim:
        a_dense = a_dense + pencil.shift * (pencil.b_basis @ pencil.b_basis.T)
    try:
        values, vectors = sla.eigh(a_dense, pencil.b.toarray(),
                                   subset_by_index=(0, m - 1))
    except sla.LinAlgError as exc:
        raise FactorizationFailure(f"dense reduction failed: {exc}") from exc
    return values, vectors


def _sparse_solve(pencil: DeflatedPencil, m: int) -> tuple[np.ndarray, np.ndarray]:
    a, b = pencil.a, pencil.b
    n = pencil.size
    if pencil.kernel_dim:
        sigma = -1e-4 * pencil.shift
        w = pencil.b_basis
        c = pencil.shift
        a_op = spla.LinearOperator(
            (n, n), matvec=lambda x: a @ x + c * (w @ (w.T @ x)), dtype=float)
    else:
        trace_ratio = a.diagonal().sum() / b.diagonal().sum()
        sigma = -max(1e-8 * trace_ratio, 1e-300)
        w = None
        a_op = a
    try:
        factor = spla.splu((a - sigma * b).tocsc())
    except RuntimeError as exc:
        raise FactorizationFailure(f"shift-invert factorization failed: {exc}") from exc
    if w is not None:
        g = factor.solve(w)
        capacitance = np.linalg.inv(np.eye(w.shape[1]) / pencil.shift + w.T @ g)

        def op_inv(rhs):
            y = factor.solve(rhs)
            return y - g @ (capacitance @ (w.T @ y))
    else:
        op_inv = factor.solve
    op_inv_lo = spla.LinearOperator((n, n), matvec=op_inv, dtype=float)
    rng = np.random.default_rng(_SEED)
    v0 = rng.standard_normal(n)
    try:
        values, vectors = spla.eigsh(
            a_op, k=m, M=b, sigma=sigma, OPinv=op_inv_lo,
            which="LM", v0=v0, tol=0, maxiter=MAX_ITER)
    except spla.ArpackNoConvergence as exc:
        raise NumericalFailure(
            f"shift-invert iteration did not converge within {MAX_ITER} iterations",
            partial=(exc.eigenvalues, exc.eigenvectors),
        ) from exc
    order = np.argsort(values, kind="stable")
    return values[order], vectors[:, order]


def solve_pencil(pencil: DeflatedPencil, m: int, tol: float = DEFAULT_TOL,
                 kind: Optional[str] = None, degree: Optional[int] = None) -> Spectrum:
    """m smallest eigenpairs of a (possibly deflated) symmetric pencil."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    n = pencil.size
    available = n - pencil.kernel_dim
    if m > available:
        raise ValueError(f"requested {m} eigenvalues but only {available} remain")
    _check_symmetry(pencil.a, "A")
    _check_symmetry(pencil.b, "B")
    if n <= DENSE_CUTOFF or m >= n - 1:
        values, vectors = _dense_solve(pencil, m)
    else:
        values, vectors = _sparse_solve(pencil, m)
    # certify and, where needed, polish each pair
    out_values = np.empty(m)
    out_residuals = np.empty(m)
    for i in range(m):
        theta, x, residual = _polish(pencil, float(values[i]), vectors[:, i].copy(), tol)
        out_values[i] = theta
        out_residuals[i] = residual
        vectors[:, i] = x
    order = np.argsort(out_values, kind="stable")
    out_values = out_values[order]
    out_residuals = out_residuals[order]
    vectors = vectors[:, order]
    spectrum = Spectrum(
        kind=kind, degree=degree,
        values=out_values, residuals=out_residuals, vectors=vectors,
        deflated_kernel_dim=pencil.kernel_dim,
    )
    if np.any(out_residuals > tol):
        raise NumericalFailure(
            f"residual tolerance {tol} not met (worst {out_residuals.max():.3e})",
            partial=spectrum,
        )
    return spectrum


def solve_generalized(a, b, m: int, tol: float = DEFAULT_TOL,
                      kind: Optional[str] = None, degree: Optional[int] = None) -> Spectrum:
    """m smallest eigenpairs of A x = theta B x, A symmetric, B SPD."""
    a = _as_csr(a)
    b = _as_csr(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"A and B must be square and matched, got {a.shape} vs {b.shape}")
    return solve_pencil(DeflatedPencil(a=a, b=b), m, tol, kind=kind, degree=degree)


def _solve_block(block, m: int, tol: float, deflate_vectors: list[np.ndarray]) -> Spectrum:
    pencil = deflate_kernel(block.a, block.b, deflate_vectors, tol=tol)
    return solve_pencil(pencil, m, tol)


def solve_problem(problem: FormProblem, m: int, tol: float = DEFAULT_TOL,
                  cache: Optional[dict] = None) -> Spectrum:
    """Solve an assembled FormProblem blockwise and merge the spectra.

    Identical blocks are solved once and replicated, which keeps discrete
    degree-independence and Hodge duality exact at the bit level.  Known
    kernel directions (Neumann constants at p = 0) are deflated before the
    first positive eigenvalue is reported.  `cache` may be shared across
    problems on the same grid to reuse block solves.
    """
    deflate_full = kernel_basis(problem)
    # every block deflates each kernel vector's restriction to it
    available = problem.dof_count - len(deflate_full) * len(problem.blocks)
    if m > available:
        raise ValueError(
            f"m={m} exceeds the {available} eigenvalues left of dof_count="
            f"{problem.dof_count} after deflating {len(deflate_full)} kernel vector(s)")
    local_cache: dict = cache if cache is not None else {}
    merged: list[tuple[float, float, int, int]] = []
    block_results: dict[int, Spectrum] = {}
    for index, block in enumerate(problem.blocks):
        block_deflate = [vec[block.offset:block.offset + block.size] for vec in deflate_full]
        m_block = min(m, block.size - len(block_deflate))
        key = (block.signature, m_block, tol, len(block_deflate))
        if key not in local_cache:
            local_cache[key] = _solve_block(block, m_block, tol, block_deflate)
        result = local_cache[key]
        block_results[index] = result
        for j in range(m_block):
            merged.append((float(result.values[j]), float(result.residuals[j]), index, j))
    merged.sort(key=lambda item: (item[0], item[2], item[3]))
    chosen = merged[:m]
    values = np.array([item[0] for item in chosen])
    residuals = np.array([item[1] for item in chosen])
    vectors = np.zeros((problem.dof_count, len(chosen)))
    for col, (_, _, index, j) in enumerate(chosen):
        block = problem.blocks[index]
        vectors[block.offset:block.offset + block.size, col] = \
            block_results[index].vectors[:, j]
    kernel_dim = sum(
        block_results[i].deflated_kernel_dim for i in sorted(set(b[2] for b in merged))
    )
    return Spectrum(
        kind=problem.kind.value,
        degree=problem.degree,
        values=values,
        residuals=residuals,
        vectors=vectors,
        deflated_kernel_dim=kernel_dim,
    )
