"""Symmetric generalized eigensolver for the assembled pencils.

Solves A x = theta B x for the m smallest eigenvalues with certified
pairs.  Second-order blocks (Dirichlet and absolute Laplacian) are
Kronecker sums of 1D pencils (S_k, W_k): each 1D pencil is diagonalized
densely, the m smallest sums of 1D eigenvalues are the block's
eigenvalues, and the Kronecker products of the 1D eigenvectors are its
eigenvectors (Lynch, Rice & Thomas, Numer. Math. 6, 1964).  Every sum is
taken, so no eigenvalue below the reported ones is missed, and the kernel
(the constant mode, at absolute p = 0) is the known product of the 1D
kernel vectors, which is skipped rather than deflated.

Other pencils, the fourth-order blocks among them, take the general path:
at most DENSE_CUTOFF dof are reduced densely (LAPACK, O(n^3)); larger ones
use shift-invert Lanczos around a factorized (A - sigma B).  The cutoff is
the measured dense/sparse crossover: `bench/crossover.py` times both paths
and records the table in BENCH_dense_cutoff.json.

Every pair is certified once, straight from the eigensolver, with r =
Ax - theta Bx.  Its normwise backward error ||r|| / ((||A||_1 + |theta|
||B||_1) ||x||) must not exceed the tolerance (Higham & Higham, SIAM J.
Matrix Anal. Appl. 20, 1998); unlike ||r|| / ||Ax||, it has no rounding
floor that grows with the conditioning of the pencil.  Its error bound
||r||_{B^-1} / ||x||_B is the radius around theta that holds an eigenvalue
(Parlett, The Symmetric Eigenvalue Problem, ch. 15), up to the rounding
made in forming r.  It is free when B is diagonal; otherwise B is
factorized once per block.

A run with identical inputs and configuration is bitwise reproducible
(fixed start vector, deterministic merge order).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import ComponentBlock, FormProblem
from .errors import FactorizationFailure, NumericalFailure

__all__ = [
    "Spectrum",
    "solve_pencil",
    "solve_problem",
    "DENSE_CUTOFF",
]

# largest block size (dof) solved densely; see BENCH_dense_cutoff.json
DENSE_CUTOFF = 225
DEFAULT_TOL = 1e-9
MAX_ITER = 10_000
_SEED = 0x5EEDBA11
# relative gap below which equal eigenvalues are labeled as one multiplet
MULTIPLICITY_GAP = 1e-7


@dataclass
class Spectrum:
    """Sorted smallest eigenvalues of one pencil with their certificates.

    `residuals` holds each pair's normwise backward error, `error_bounds`
    an absolute bound on the distance from each value to an eigenvalue.
    """

    kind: Optional[str]
    degree: Optional[int]
    values: np.ndarray
    residuals: np.ndarray
    error_bounds: np.ndarray
    vectors: Optional[np.ndarray] = None
    deflated_kernel_dim: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.residuals = np.asarray(self.residuals, dtype=float)
        self.error_bounds = np.asarray(self.error_bounds, dtype=float)
        if not self.values.shape == self.residuals.shape == self.error_bounds.shape:
            raise ValueError("values, residuals and error_bounds must align")
        if not np.all(np.isfinite(self.error_bounds) & (self.error_bounds >= 0.0)):
            raise ValueError("error_bounds must be finite and >= 0")
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


def _check_tol(tol: float) -> None:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _residuals(a, b, values, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Backward errors and eigenvalue error bounds of the pairs (values, vectors)."""
    bx = b @ vectors
    r = a @ vectors - bx * values
    scale = spla.norm(a, 1) + np.abs(values) * spla.norm(b, 1)
    norm_r = np.linalg.norm(r, axis=0)
    eta = np.divide(norm_r, scale * np.linalg.norm(vectors, axis=0),
                    out=np.zeros_like(norm_r), where=norm_r != 0.0)
    if b.count_nonzero() == np.count_nonzero(b.diagonal()):
        b_inv_r = r / b.diagonal()[:, None]
    else:
        b_inv_r = spla.splu(b.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(r)
    delta = np.sqrt(np.abs(np.sum(r * b_inv_r, axis=0) / np.sum(vectors * bx, axis=0)))
    return eta, delta


def _certified(values, vectors, a, b, tol: float, kind=None, degree=None,
               kernel_dim: int = 0) -> Spectrum:
    """The pairs as a Spectrum; NumericalFailure carries it when a backward error exceeds tol."""
    residuals, error_bounds = _residuals(a, b, values, vectors)
    failed = not np.all(residuals <= tol)   # a NaN fails too
    try:
        spectrum = Spectrum(
            kind=kind, degree=degree, values=values, residuals=residuals,
            error_bounds=error_bounds, vectors=vectors, deflated_kernel_dim=kernel_dim,
        )
    except ValueError:
        if not failed:
            raise
        spectrum = None   # non-finite pairs cannot be reported
    if failed:
        raise NumericalFailure(
            f"residual tolerance {tol} not met (worst backward error {residuals.max():.3e})",
            partial=spectrum,
        )
    return spectrum


def _dense_solve(a, b, m: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        values, vectors = sla.eigh(a.toarray(), b.toarray(), subset_by_index=(0, m - 1))
    except sla.LinAlgError as exc:
        raise FactorizationFailure(f"dense reduction failed: {exc}") from exc
    return values, vectors


def _sparse_solve(a, b, m: int) -> tuple[np.ndarray, np.ndarray]:
    n = a.shape[0]
    trace_ratio = a.diagonal().sum() / b.diagonal().sum()
    sigma = -max(1e-8 * trace_ratio, 1e-300)
    try:
        factor = spla.splu((a - sigma * b).tocsc())
    except RuntimeError as exc:
        raise FactorizationFailure(f"shift-invert factorization failed: {exc}") from exc
    op_inv = spla.LinearOperator((n, n), matvec=factor.solve, dtype=float)
    rng = np.random.default_rng(_SEED)
    v0 = rng.standard_normal(n)
    try:
        values, vectors = spla.eigsh(
            a, k=m, M=b, sigma=sigma, OPinv=op_inv,
            which="LM", v0=v0, tol=0, maxiter=MAX_ITER)
    except spla.ArpackNoConvergence as exc:
        raise NumericalFailure(
            f"shift-invert iteration did not converge within {MAX_ITER} iterations",
            partial=(exc.eigenvalues, exc.eigenvectors),
        ) from exc
    order = np.argsort(values, kind="stable")
    return values[order], vectors[:, order]


def solve_pencil(a, b, m: int, tol: float = DEFAULT_TOL,
                 kind: Optional[str] = None, degree: Optional[int] = None) -> Spectrum:
    """m smallest eigenpairs of A x = theta B x, A symmetric, B SPD."""
    a = _as_csr(a)
    b = _as_csr(b)
    n = a.shape[0]
    if a.shape != b.shape or n != a.shape[1]:
        raise ValueError(f"A and B must be square and matched, got {a.shape} vs {b.shape}")
    if not 1 <= m <= n:
        raise ValueError(f"m must satisfy 1 <= m <= {n}, got {m}")
    _check_tol(tol)
    _check_symmetry(a, "A")
    _check_symmetry(b, "B")
    if n <= DENSE_CUTOFF or m >= n - 1:
        values, vectors = _dense_solve(a, b, m)
    else:
        values, vectors = _sparse_solve(a, b, m)
    return _certified(values, vectors, a, b, tol, kind=kind, degree=degree)


def _separable_solve(block: ComponentBlock, m: int, tol: float) -> Spectrum:
    """m smallest eigenpairs of a Kronecker-sum block from its 1D pencils.

    Axis k's pencil S_k v = lambda W_k v is diagonalized densely; the block's
    eigenvalues are all sums lambda_{j_1} + ... + lambda_{j_n}, formed in
    axis order, and its eigenvectors the matching Kronecker products, in the
    block's axis order (axis 1 slowest).  With a kernel, the all-lowest
    multi-index (flat index 0, the product of the 1D constants) is skipped.
    """
    pairs = [sla.eigh(stiff.toarray(), np.diag(weights))
             for stiff, weights in block.axis_factors]
    grid = pairs[0][0]
    for values, _ in pairs[1:]:
        grid = np.add.outer(grid, values)
    order = np.argsort(grid, axis=None, kind="stable")
    if block.kernel_dim:
        order = order[order != 0]
    chosen = order[:m]
    vectors = np.empty((block.size, m))
    for col, multi in enumerate(zip(*np.unravel_index(chosen, grid.shape))):
        vectors[:, col] = functools.reduce(
            np.kron, [axis_vectors[:, j] for (_, axis_vectors), j in zip(pairs, multi)])
    return _certified(grid.ravel()[chosen], vectors, block.a, block.b, tol,
                      kernel_dim=block.kernel_dim)


def solve_problem(problem: FormProblem, m: int, tol: float = DEFAULT_TOL,
                  cache: Optional[dict] = None) -> Spectrum:
    """Solve an assembled FormProblem blockwise and merge the spectra.

    Identical blocks are solved once and replicated, which keeps discrete
    degree-independence and Hodge duality exact at the bit level.  Blocks
    with 1D factors take the separable solve, the others `solve_pencil`.
    A block's kernel (the constants at absolute p = 0) is left out, so the
    first reported eigenvalue is positive.  `cache` may be shared across
    problems on the same grid to reuse block solves.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _check_tol(tol)
    kernel_dim = sum(block.kernel_dim for block in problem.blocks)
    available = problem.dof_count - kernel_dim
    if m > available:
        raise ValueError(
            f"m={m} exceeds the {available} eigenvalues left of dof_count="
            f"{problem.dof_count} after dropping {kernel_dim} kernel mode(s)")
    local_cache: dict = cache if cache is not None else {}
    merged: list[tuple[float, int, int]] = []
    block_results: dict[int, Spectrum] = {}
    for index, block in enumerate(problem.blocks):
        m_block = min(m, block.size - block.kernel_dim)
        key = (block.signature, m_block, tol)
        if key not in local_cache:
            local_cache[key] = (_separable_solve(block, m_block, tol)
                                if block.axis_factors is not None
                                else solve_pencil(block.a, block.b, m_block, tol))
        result = local_cache[key]
        block_results[index] = result
        for j in range(m_block):
            merged.append((float(result.values[j]), index, j))
    merged.sort()
    chosen = merged[:m]
    vectors = np.zeros((problem.dof_count, len(chosen)))
    for col, (_, index, j) in enumerate(chosen):
        block = problem.blocks[index]
        vectors[block.offset:block.offset + block.size, col] = \
            block_results[index].vectors[:, j]
    return Spectrum(
        kind=problem.kind.value,
        degree=problem.degree,
        values=np.array([value for value, _, _ in chosen]),
        residuals=np.array([block_results[i].residuals[j] for _, i, j in chosen]),
        error_bounds=np.array([block_results[i].error_bounds[j] for _, i, j in chosen]),
        vectors=vectors,
        deflated_kernel_dim=kernel_dim,
    )
