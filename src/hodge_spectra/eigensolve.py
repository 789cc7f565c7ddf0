"""Symmetric generalized eigensolver for the assembled pencils.

Solves A x = theta B x for the m smallest eigenvalues with certified
pairs, by one of three routes.

Separable (second order, numpy only).  Dirichlet and absolute Laplacian
blocks are Kronecker sums of 1D pencils (S_k, W_k): each 1D pencil is
diagonalized densely, the m smallest sums of 1D eigenvalues are the
block's eigenvalues, and the Kronecker products of the 1D eigenvectors are
its eigenvectors (Lynch, Rice & Thomas, Numer. Math. 6, 1964).  Every sum
is taken, so no eigenvalue below the reported ones is missed, and the
kernel (the constant mode, at absolute p = 0) is the known product of the
1D kernel vectors, which is skipped rather than deflated.  The pairs are
certified from the 1D pencils alone: the error bound is the sum of
per-axis bounds plus rounding terms (`_separable_certificate`).

Reflection classes (fourth order, numpy only: 3D blocks at any m, 2D
blocks asked for at most STRUCTURED_MAX_M values, and any block whose
largest class has at most DENSE_CUTOFF dof).  The clamped operator A =
vol (sum_k T_k)^2 + D, from the block's per-axis second differences T_k
and face terms d_k, and buckling's B = vol sum_k T_k are applied by
per-axis contractions with the T_k, clamped plate's B = vol I as a
scalar.  A and B commute with the reflection of each axis, so the block
splits into 2^n reflection classes, each again a per-axis pencil of about
N / 2^n dof (Bossavit, Comput. Methods Appl. Mech. Eng. 56, 1986).  A
class of at most DENSE_CUTOFF dof is reduced to B^-1/2 A B^-1/2 by the
contractions applied to the identity and solved once, completely, by
eigh; `_b_solver` applies B^-1/2, and B^-1 for the error bounds, buckling's
like Q^-1.  A larger class is solved by LOBPCG
(Knyazev, SIAM J. Sci. Comput. 23, 2001): A lies between the Kronecker
sum Q of the per-axis q_k = vol T_k^2 + diag(d_k) and n Q, and between P
/ n and P, P = (sum_k q_k^1/2)^2, for every h; P^-1, applied exactly by
per-axis eigendecompositions, preconditions it, and each class is
started from its own lowest Q modes, so none is left out.  Nothing is
assembled or factorized.  The classes' counts are grown until none can
hide an eigenvalue below the m-th; a class with no share of Q's m lowest
values is solved only if its per-axis lower bound does not prove it empty
below them.  Axes with bitwise-equal T_k and d_k (a cube, a square) are
interchangeable, and permuting them maps classes onto classes with the
same spectrum: one class per orbit is solved, and its vectors, their grid
axes transposed, serve the orbit's other classes, so the multiplets
across an orbit are bitwise equal.

General (`solve_pencil`: 1D fourth-order blocks, and 2D ones asked for
more than STRUCTURED_MAX_M values, whose largest class has more than
DENSE_CUTOFF dof; a class solve that fails its certificate; and any
assembled pencil, a fourth-order block's assembled from the same T_k and
d_k).  At most DENSE_CUTOFF dof are solved by scipy.linalg's dense
generalized eigh; larger pencils use shift-invert Lanczos around a
factorized (A - sigma B).  Only this route imports scipy, when it runs:
scipy.sparse, scipy.linalg for the dense solve, and scipy.sparse.linalg
for shift-invert and a non-diagonal B's factorization.  DENSE_CUTOFF
(dense against LOBPCG, on a block's largest class) is the threshold of
least summed time over the blocks `bench/crossover.py` sweeps
(BENCH_dense_cutoff.json), which also times the LOBPCG classes against
shift-invert Lanczos on 2D blocks.  This route's dense switch shares the
value without a measurement of its own.

Every pair is certified once, straight from the eigensolver, with r =
Ax - theta Bx.  Its normwise backward error ||r|| / ((||A||_1 + |theta|
||B||_1) ||x||) must not exceed the tolerance (Higham & Higham, SIAM J.
Matrix Anal. Appl. 20, 1998); unlike ||r|| / ||Ax||, it has no rounding
floor that grows with the conditioning of the pencil.  Its error bound
||r||_{B^-1} / ||x||_B is the radius around theta that holds an eigenvalue
(Parlett, The Symmetric Eigenvalue Problem, ch. 15); a componentwise
bound on the rounding made in forming r is added, so the bound encloses
the eigenvalue in floating point.  A structured residual is formed from
the per-axis factors, and its rounding bound also covers the entry
rounding of the assembled A and B (`_gram_residual`), so the bound holds
for the pencil the general route solves.  It is free when B is diagonal;
otherwise B^-1 comes from its per-axis factors (reflection classes,
`_b_solver`) or one factorization per block (general route).  Separable
pairs bound both from their 1D pencils instead.

A run with identical inputs and configuration is bitwise reproducible
(start vectors fixed by the block, deterministic merge order).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import DEFAULT_TOL
from .discretize import ComponentBlock, FormProblem
from .errors import FactorizationFailure, NumericalFailure

__all__ = [
    "Spectrum",
    "solve_pencil",
    "solve_problem",
    "DENSE_CUTOFF",
]

# largest reflection class (dof) solved densely, as bench/crossover.py
# measures it against LOBPCG classes (BENCH_dense_cutoff.json).
# solve_pencil's dense reduction shares the value unmeasured; a block of
# solve_problem reaches it only after a failed class solve, or when asked
# for n - 1 values or more
DENSE_CUTOFF = 216
MAX_ITER = 10_000
# largest number of values the class solve takes from a 2D block whose
# largest class is above DENSE_CUTOFF; more go to solve_pencil, as do such
# 1D blocks
STRUCTURED_MAX_M = 32
# structured fourth-order solve (`_structured_solve`): guard columns beyond
# the m reported, Q modes in the start space per column, the relative gap
# under which neighbouring Ritz values are kept together in the block, the
# backward error the iteration aims at, and the iterations without halving
# it after which it stops
GUARD = 2
START_SPAN = 3
CLUSTER_GAP = 3e-2
ROUNDING_TARGET = 4e-16
STALL_ITERATIONS = 10
LOBPCG_MAXITER = 200
_UNIT_ROUNDOFF = 2.0 ** -53
_SEED = 0x5EEDBA11
# relative gap below which equal eigenvalues are labeled as one multiplet
MULTIPLICITY_GAP = 1e-7


@dataclass
class Spectrum:
    """Sorted smallest eigenvalues of one pencil with their certificates.

    `residuals` holds each pair's normwise backward error (an upper bound
    on it for separable pairs), `error_bounds` an absolute bound on the
    distance from each value to an eigenvalue.
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


def _as_csr(matrix):
    import scipy.sparse as sp

    out = sp.csr_matrix(matrix, dtype=float)
    out.sum_duplicates()
    out.sort_indices()
    return out


def _check_symmetry(matrix, name: str) -> None:
    gap = abs(matrix - matrix.T)
    if gap.nnz:
        scale = max(abs(matrix).max(), 1.0)
        if gap.max() > 1e-12 * scale:
            raise ValueError(f"{name} is not symmetric")


def _check_tol(tol: float) -> None:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _norm1(matrix) -> float:
    """||M||_1 of a sparse matrix: its largest absolute column sum."""
    return abs(matrix).sum(axis=0).max()


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _residual_vectors(a, b, values, vectors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Computed r = Ax - theta Bx, Bx, and a componentwise bound on r's rounding error.

    Each entry of r is a dot product of at most d terms for each matrix
    (d its largest row nnz), then a scaling by theta and a subtraction, so
    |fl(r) - r| <= gamma_k (|A||x| + |theta| |B||x|) with k = d + 2 and
    gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.5).
    """
    values = np.asarray(values, dtype=float)
    bx = b @ vectors
    r = a @ vectors - bx * values
    k = max(np.diff(a.indptr).max(), np.diff(b.indptr).max()) + 2
    abs_x = np.abs(vectors)
    rounding = _gamma(k) * (abs(a) @ abs_x + (abs(b) @ abs_x) * np.abs(values))
    return r, bx, rounding


def _bounds(values, vectors, r, bx, rounding, norm_a: float, norm_b: float,
            b_solve) -> tuple[np.ndarray, np.ndarray]:
    """Backward errors and eigenvalue error bounds from a computed residual block.

    The bound is (||fl(r)||_{B^-1} + ||g||_{B^-1}) / ||x||_B, with g the
    rounding bound of the residual.  Since |fl(r) - r| <= g and the entries
    of B^-1 are >= 0 (B is diagonal, or an M-matrix for buckling), it bounds
    the exact ||r||_{B^-1} / ||x||_B.  `b_solve` applies B^-1 to a block of
    vectors.
    """
    scale = norm_a + np.abs(values) * norm_b
    norm_r = np.linalg.norm(r, axis=0)
    eta = np.divide(norm_r, scale * np.linalg.norm(vectors, axis=0),
                    out=np.zeros_like(norm_r), where=norm_r != 0.0)
    both = np.hstack([r, rounding])
    b_norms = np.sqrt(np.abs(np.sum(both * b_solve(both), axis=0)))
    m = r.shape[1]
    delta = (b_norms[:m] + b_norms[m:]) / np.sqrt(np.sum(vectors * bx, axis=0))
    return eta, delta


def _residuals(a, b, values, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Backward errors and eigenvalue error bounds of the pairs (values, vectors)
    of a sparse pencil (see `_bounds`); a non-diagonal B is factorized to apply
    B^-1.
    """
    r, bx, rounding = _residual_vectors(a, b, values, vectors)
    if b.count_nonzero() == np.count_nonzero(b.diagonal()):
        diagonal = b.diagonal()[:, None]

        def b_solve(v):
            return v / diagonal
    else:
        import scipy.sparse.linalg as spla

        b_solve = spla.splu(b.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
    return _bounds(values, vectors, r, bx, rounding, _norm1(a), _norm1(b), b_solve)


def _certified(values, vectors, certificates, tol: float, kernel_dim: int = 0) -> Spectrum:
    """The pairs as a Spectrum, given their (backward errors, error bounds);
    NumericalFailure carries it when a backward error exceeds tol."""
    residuals, error_bounds = certificates
    failed = not np.all(residuals <= tol)   # a NaN fails too
    try:
        spectrum = Spectrum(
            kind=None, degree=None, values=values, residuals=residuals,
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


def _sparse_solve(a, b, m: int) -> tuple[np.ndarray, np.ndarray]:
    import scipy.sparse.linalg as spla

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


def solve_pencil(a, b, m: int, tol: float = DEFAULT_TOL) -> Spectrum:
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
        import scipy.linalg as sla

        try:
            values, vectors = sla.eigh(a.toarray(), b.toarray(), subset_by_index=[0, m - 1])
        except sla.LinAlgError as exc:
            raise FactorizationFailure(f"dense reduction failed: {exc}") from exc
    else:
        values, vectors = _sparse_solve(a, b, m)
    return _certified(values, vectors, _residuals(a, b, values, vectors), tol)


def _smallest_sums(pairs, count: int, skip_first: bool = False, multiplet_limit: int = 0):
    """The `count` smallest sums of 1D eigenvalues, their Kronecker-product vectors and indices.

    Ties are broken by stable argsort of the flat grid; vectors are in the
    block's axis order (axis 1 slowest).  `skip_first` drops flat index 0,
    the all-lowest multi-index.  With `multiplet_limit`, count grows, up to
    that limit, until the next sum lies outside the last one's multiplet.
    The grid holds each axis's first `cap` values only: the 1D values ascend,
    so an index past the cap comes after at least cap others in (value, flat
    index) order, and the order of the rest is unchanged.
    """
    cap = max(count, multiplet_limit + 1) + skip_first
    grid = functools.reduce(np.add.outer, [values[:cap] for values, _ in pairs])   # in axis order
    order = np.argsort(grid, axis=None, kind="stable")
    if skip_first:
        order = order[order != 0]
    if multiplet_limit:
        ranked = grid.ravel()[order[:multiplet_limit + 1]]
        while (count < ranked.size - 1
               and ranked[count] <= ranked[count - 1] * (1.0 + MULTIPLICITY_GAP)):
            count += 1
    chosen = order[:count]
    multi = np.unravel_index(chosen, grid.shape)
    vectors = np.empty((math.prod(v.shape[0] for _, v in pairs), chosen.size))
    for col, indices in enumerate(zip(*multi)):
        vectors[:, col] = functools.reduce(
            np.kron, [axis_vectors[:, j] for (_, axis_vectors), j in zip(pairs, indices)])
    return grid.ravel()[chosen], vectors, multi


def _along_axes(mats, x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Apply mats[j] along axis j of every column of x (columns of length prod(shape));
    a None entry leaves its axis alone.  A c'_j x c_j matrix changes axis j's length
    to c'_j."""
    shape = list(shape)
    out = x
    for j, mat in enumerate(mats):
        if mat is not None:
            out = np.matmul(mat, out.reshape(math.prod(shape[:j]), shape[j], -1))
            shape[j] = mat.shape[0]
    return out.reshape((math.prod(shape),) + x.shape[1:])


def _kron_sum_solver(pairs, power: float = 1):
    """x -> (sum_k I x M_k x I)^-power x on a block of vectors, from the eigenpairs of each M_k.

    The inverse is U diag(1 / sums^power) U^T with U the Kronecker product of
    the 1D eigenvector matrices (Lynch, Rice & Thomas, Numer. Math. 6, 1964):
    2n tensor contractions, O(N sum_k c_k) work per column.
    """
    sums = functools.reduce(np.add.outer, [vals for vals, _ in pairs]).reshape(-1, 1)
    inverse_sums = 1.0 / sums ** power
    shape = tuple(vectors.shape[0] for _, vectors in pairs)
    forward = [vectors.T for _, vectors in pairs]
    backward = [vectors for _, vectors in pairs]

    def solve(x):
        return _along_axes(backward, _along_axes(forward, x, shape) * inverse_sums, shape)

    return solve


def _eighs(mats, pairs: Optional[dict] = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """np.linalg.eigh of each square matrix, one call per bitwise-distinct matrix.

    `pairs` holds the decompositions by the matrix's bytes (their count fixes
    the order), so that the equal per-axis factors of interchangeable axes,
    and of the reflection classes that share an axis's parity, share one.
    """
    pairs = {} if pairs is None else pairs
    out = []
    for mat in mats:
        key = mat.tobytes()
        if key not in pairs:
            pairs[key] = np.linalg.eigh(mat)
        out.append(pairs[key])
    return out


def _axis_pairs(factors) -> list[tuple[np.ndarray, np.ndarray]]:
    """All eigenpairs of each 1D pencil (S_k, W_k), from the symmetric
    W_k^-1/2 S_k W_k^-1/2: its eigenvectors times W_k^-1/2 are W_k-orthonormal.
    Where the rows of S_k sum to exactly 0 (derivative faces), the lowest pair is
    exactly (0, 1 / sqrt(sum w_k)); eigh's value, of order u ||S_k||, would swamp
    the other axes' values in the sums at small h_k."""
    pairs = []
    for stiff, weights in factors:
        scale = 1.0 / np.sqrt(weights)
        axis_values, axis_vectors = np.linalg.eigh(stiff * np.outer(scale, scale))
        axis_vectors *= scale[:, None]
        if not np.any(stiff.sum(axis=1)):
            axis_values[0] = 0.0
            axis_vectors[:, 0] = 1.0 / math.sqrt(weights.sum())
        pairs.append((axis_values, axis_vectors))
    return pairs


def _axis_certificate(stiff, weights, values, vectors) -> np.ndarray:
    """Per-axis certificate pieces of the 1D pairs (lambda, v) of (S, W), one column each.

    rho = S v - lambda W v is formed with |fl(rho) - rho| <= g = gamma_4
    (|S||v| + |lambda| W|v|) (at most 3 nonzero terms, two products, one
    subtraction; Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., sec. 3.5).  Rows: (||fl(rho)||_{W^-1} + ||g||_{W^-1}) / ||v||_W,
    which bounds ||rho||_{W^-1} / ||v||_W; ||(|S||v|)||_{W^-1} / ||v||_W;
    ||fl(rho)||_2 / ||Wv||_2; and ||Wv||_2 / ||v||_2.
    """
    w = weights[:, None]
    wv = w * vectors
    rho = stiff @ vectors - wv * values
    abs_sv = np.abs(stiff) @ np.abs(vectors)
    rounding = _gamma(4) * (abs_sv + w * np.abs(vectors) * np.abs(values))
    rho_w, rounding_w, abs_sv_w = np.sqrt(np.sum(np.stack([rho, rounding, abs_sv]) ** 2 / w,
                                                 axis=1))
    norm_v = np.sqrt(np.sum(vectors * wv, axis=0))
    norm_wv = np.linalg.norm(wv, axis=0)
    return np.stack([(rho_w + rounding_w) / norm_v, abs_sv_w / norm_v,
                     np.linalg.norm(rho, axis=0) / norm_wv,
                     norm_wv / np.linalg.norm(vectors, axis=0)])


def _separable_norms(factors) -> tuple[float, float]:
    """||A||_1 and ||B||_1 of the Kronecker-sum pencil: the largest entry of
    |A| 1 = sum_k w_1 x ... x |S_k| 1 x ... x w_n (A is symmetric), and the
    product of the largest weights, which rounds as B's largest entry does."""
    weights = [w for _, w in factors]
    row_sums = sum(functools.reduce(np.multiply.outer,
                                    weights[:k] + [np.abs(stiff).sum(axis=1)] + weights[k + 1:])
                   for k, (stiff, _) in enumerate(factors))
    return row_sums.max(), math.prod(w.max() for w in weights)


def _separable_certificate(factors, pairs, values, multi) -> tuple[np.ndarray, np.ndarray]:
    """Backward errors and error bounds of the pairs (theta, x) of the Kronecker-sum
    pencil (K, M) of 1D pencils (S_k, W_k), from the 1D pairs that `multi` indexes.

    For x = v_1 x ... x v_n and theta = fl(sum_k lambda_k) in axis order,
    Kx - theta Mx is the sum over k of rho_k (`_axis_certificate`) times
    W_j v_j on the other axes, plus (sum_k lambda_k - theta) Mx.  The M^-1
    norm of a Kronecker product is the product of the W_j^-1 norms, so the
    error bound is at most the sum of the per-axis bounds plus gamma_{n-1}
    sum_k |lambda_k|.  The assembled `block.a`, `block.b` round each entry of
    K through at most 2n - 2 factors and of M through n - 1: that adds
    gamma_{2n-2} (sum_k ||(|S_k||v_k|)||_{W_k^-1} / ||v_k||_{W_k} + |theta|)
    and a factor (1 - gamma_{n-1})^-1.  The sum takes at most 2c + n + 19
    roundings of nonnegative numbers (c the longest axis); one factor 1 +
    gamma_{2c+2n+24} covers them, that factor and its own.  The backward
    error bounds ||Kx - theta Mx||_2 by sum_k ||rho_k||_2 prod_{j != k}
    ||W_j v_j||_2 + |sum_k lambda_k - theta| ||Mx||_2.
    """
    n = len(factors)
    bound, assembly, rho, scale = np.stack(
        [_axis_certificate(stiff, weights, *pair)[:, index]
         for (stiff, weights), pair, index in zip(factors, pairs, multi)], axis=1)
    theta_rounding = _gamma(n - 1) * np.sum(np.abs(np.stack(
        [axis_values[index] for (axis_values, _), index in zip(pairs, multi)])), axis=0)
    theta = np.abs(values)
    norm_a, norm_b = _separable_norms(factors)
    eta = ((np.sum(rho, axis=0) + theta_rounding) * np.prod(scale, axis=0)
           / (norm_a + theta * norm_b))
    delta = (np.sum(bound, axis=0) + theta_rounding
             + _gamma(2 * n - 2) * (np.sum(assembly, axis=0) + theta))
    return eta, delta * (1.0 + _gamma(2 * max(w.size for _, w in factors) + 2 * n + 24))


def _separable_solve(block: ComponentBlock, m: int, tol: float) -> Spectrum:
    """m smallest eigenpairs of a Kronecker-sum block from its 1D pencils.

    The block's eigenvalues are all sums lambda_{j_1} + ... + lambda_{j_n}
    of 1D eigenvalues and its eigenvectors the matching Kronecker products;
    with a kernel, the product of the 1D constants is skipped.
    """
    pairs = _axis_pairs(block.axis_factors)
    values, vectors, multi = _smallest_sums(pairs, m, skip_first=bool(block.kernel_dim))
    return _certified(values, vectors,
                      _separable_certificate(block.axis_factors, pairs, values, multi),
                      tol, kernel_dim=block.kernel_dim)


@dataclass(frozen=True, eq=False)
class _AxisPencil:
    """A fourth-order pencil given by its per-axis factors: a whole block, or one
    reflection class of it (`_reflection_classes`).

    A = vol (sum_k I x T_k x I)^2 + D, D = sum_k I x diag(d_k) x I, against
    B = vol I (`b_is_mass`, clamped plate) or vol sum_k I x T_k x I (buckling),
    on a grid of `shape`, axis 1 slowest.
    """

    terms: tuple[tuple[np.ndarray, np.ndarray], ...]   # (T_k, d_k) per axis
    volume: float
    b_is_mass: bool

    @classmethod
    def of(cls, block: ComponentBlock) -> "_AxisPencil":
        return cls(block.axis_terms, block.domain.cell_volume, block.b_is_mass)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(d.size for _, d in self.terms)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @functools.cached_property
    def face_diagonal(self) -> np.ndarray:
        """The diagonal of D, the terms added in axis order."""
        return functools.reduce(np.add.outer, [d for _, d in self.terms]).ravel()


def _axis_sum(mats, x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """(sum_k I x mats[k] x I) x on every column of x, the terms added in axis order."""
    total = _along_axes(mats[:1], x, shape)
    for k in range(1, len(mats)):
        total += _along_axes([None] * k + [mats[k]], x, shape)
    return total


def _gram_products(pencil: _AxisPencil, x: np.ndarray,
                   magnitudes: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(A x, B x) of a fourth-order pencil on a block of vectors, by 2n per-axis contractions.

    y = vol sum_k T_k x is buckling's B x, and A x = sum_k T_k y + D x;
    clamped plate's B = vol I is applied as a scalar.  With `magnitudes`,
    the same contractions with |T_k| give (|A| x, |B| x) of a whole block:
    every entry of (sum_k T_k)^2 is a sum of products of one sign (the grid
    graph has no triangles), so |A| = vol (sum_k |T_k|)^2 + D entrywise.
    """
    seconds = [np.abs(second) if magnitudes else second for second, _ in pencil.terms]
    y = pencil.volume * _axis_sum(seconds, x, pencil.shape)
    ax = _axis_sum(seconds, y, pencil.shape) + pencil.face_diagonal[:, None] * x
    return ax, (pencil.volume * x if pencil.b_is_mass else y)


def _gram_norms(pencil: _AxisPencil) -> tuple[float, float]:
    """||A||_1 and ||B||_1 of a fourth-order block: the largest entries of |A| 1 and |B| 1."""
    abs_a, abs_b = _gram_products(pencil, np.ones((pencil.size, 1)), magnitudes=True)
    return abs_a.max(), abs_b.max()


def _gram_residual(pencil: _AxisPencil, values,
                   vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Computed r = Ax - theta Bx of a fourth-order block by `_gram_products`, Bx, and a
    componentwise bound g on the distance from fl(r) to the exact residual.

    The bound holds both for the pencil of the per-axis factors (A* = vol
    (sum_k T_k)^2 + D, B* = vol sum_k T_k or vol I, exact in the float T_k,
    vol and face entries f_k, D holding the terms (vol / 2) f_k^2) and for
    the assembled `block.a`, `block.b`.  Evaluation (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 3.5): each T_k product
    is a dot product of at most 3 nonzero terms, the axis sum adds n - 1
    roundings and the scaling by vol one, so y, and buckling's Bx, carry
    gamma_{n+3} |B*||x|; the second contraction adds n + 2, the addition of
    Dx one (D itself is within gamma_{n+1} of its exact terms), so Ax
    carries gamma_{2n+6} |A*||x|; theta Bx and the subtraction add two, so
    |fl(r) - r*| <= gamma_{2n+7} (|A*||x| + |theta| |B*||x|).  Assembly:
    `block.a` is (vol K) K, K = sum_k I x T_k x I, with a node's face terms
    then added one by one.  An entry is a sum of at most 2n + 1 terms of one
    sign (the grid graph has no triangles): products, each off by up to 2n
    roundings (K's diagonal is a sum of n terms), and face terms, off by
    two; the sum adds 2n, so |a - A*| <= gamma_{4n} |A*|.  An entry
    of vol K is off by at most n roundings, so |b - B*| <= gamma_n |B*|.
    Together g = gamma_{6n+7} (|A||x| + |theta||B||x|); the factor 1 +
    gamma_{2n+10} covers the roundings made in computing g itself, a sum of
    nonnegative terms.
    """
    n = len(pencil.shape)
    values = np.asarray(values, dtype=float)
    ax, bx = _gram_products(pencil, vectors)
    r = ax - bx * values
    abs_ax, abs_bx = _gram_products(pencil, np.abs(vectors), magnitudes=True)
    rounding = (_gamma(6 * n + 7) * (1.0 + _gamma(2 * n + 10))) * (abs_ax + abs_bx * np.abs(values))
    return r, bx, rounding


def _b_solver(pencil: _AxisPencil, power: float = 1):
    """x -> B^-power x on a block of vectors of a fourth-order pencil: a division for
    B = vol I, `_kron_sum_solver` over the eigenpairs of each vol T_k for B = vol sum_k T_k."""
    if pencil.b_is_mass:
        divisor = pencil.volume ** power
        return lambda x: x / divisor
    return _kron_sum_solver(_eighs([pencil.volume * second for second, _ in pencil.terms]),
                            power)


def _gram_certificate(pencil: _AxisPencil, values, vectors: np.ndarray,
                      norms: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Backward errors and error bounds (`_bounds`) of pairs of a fourth-order block, from
    `_gram_residual`, the norms of `_gram_norms` and `_b_solver`'s B^-1."""
    return _bounds(values, vectors, *_gram_residual(pencil, values, vectors), *norms,
                   _b_solver(pencil))


def _dense_class(pencil: _AxisPencil) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a reflection class: eigh of B^-1/2 A B^-1/2, by `_gram_products` and
    `_b_solver` on the identity, and x = B^-1/2 y (Golub & Van Loan, Matrix Computations, 8.7)."""
    half = _b_solver(pencil, 0.5)
    reduced = half(_gram_products(pencil, half(np.eye(pencil.size)))[0])
    values, vectors = np.linalg.eigh((reduced + reduced.T) / 2)
    return values, half(vectors)


def _b_orthonormalize(vs: tuple) -> tuple:
    """A B-orthonormal basis of span(v), by SVQB, for vs = (v, images..., Bv); each
    image of v (such as Av and Bv) follows the same combination.

    Directions whose share of the scaled Gram matrix lies below rounding are
    dropped, so the basis stays well conditioned (Stathopoulos & Wu, SIAM J.
    Sci. Comput. 23, 2002).
    """
    v, bv = vs[0], vs[-1]
    gram = v.T @ bv
    scale = np.sqrt(np.abs(np.diag(gram)))
    keep = scale > 0.0
    scale = scale[keep]
    s, z = np.linalg.eigh(gram[np.ix_(keep, keep)] / np.outer(scale, scale))
    kept = s > 1e-14 * s[-1] if s.size else s > 0.0
    t = np.zeros((keep.size, np.count_nonzero(kept)))
    t[keep] = z[:, kept] / np.sqrt(s[kept]) / scale[:, None]
    return tuple(u @ t for u in vs)


def _b_orthogonalize(vs: tuple, bases) -> tuple:
    """vs = (v, images...) with v made B-orthogonal, in two passes, to each B-orthonormal
    basis (u, images of u..., Bu) in bases; the images of v follow the combinations."""
    for _ in range(2):
        for base in bases:
            coefficients = base[-1].T @ vs[0]
            vs = tuple(v - u @ coefficients for v, u in zip(vs, base))
    return vs


def _lobpcg(apply, norms: tuple[float, float], precond, span: np.ndarray,
            m: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenpairs of (A, B) by LOBPCG with soft locking, from a start space.

    `apply` maps a block of vectors x to (Ax, Bx), and `norms` are ||A||_1
    and ||B||_1.  The block is the m + GUARD lowest Ritz vectors of `span`,
    widened while the next Ritz value lies within CLUSTER_GAP of the last, so
    that no cluster is cut.  Each step does Rayleigh-Ritz on the
    B-orthonormal basis [X, W, P], W the preconditioned residuals of the
    columns not yet converged and P the previous update W c_W + P c_P
    (Knyazev, SIAM J. Sci. Comput. 23, 2001; Hetmaniuk & Lehoucq, J.
    Comput. Phys. 218, 2006).  A step applies the pencil twice, to W and to
    the new X; the images of P follow the combinations that form it, and
    the Gram matrix is filled block by block into one array.  It stops once
    the m first columns reach a backward error of ROUNDING_TARGET, or after
    STALL_ITERATIONS without halving the backward error, and returns the
    best iterate: near the rounding floor the error can creep down by
    noise, a new best every few steps, for hundreds of steps.
    """
    norm_a, norm_b = norms
    x, ax, _ = _b_orthonormalize((span, *apply(span)))
    gram = x.T @ ax
    theta, c = np.linalg.eigh((gram + gram.T) / 2)
    k = m + GUARD
    while k < theta.size // 2 and theta[k] <= theta[k - 1] * (1.0 + CLUSTER_GAP):
        k += 1
    theta, x = theta[:k], x @ c[:, :k]
    ax, bx = apply(x)
    p = None
    best, best_worst = (theta, x), math.inf
    progress, progress_step = math.inf, 0
    for step in range(LOBPCG_MAXITER):
        r = ax - bx * theta
        eta = np.sqrt(np.einsum("ij,ij->j", r, r) / np.einsum("ij,ij->j", x, x)) / (
            norm_a + np.abs(theta) * norm_b)
        worst = eta[:m].max()
        if worst < best_worst:
            best, best_worst = (theta, x), worst
        if worst <= progress / 2:
            progress, progress_step = worst, step
        if worst <= ROUNDING_TARGET or step - progress_step >= STALL_ITERATIONS:
            break
        parts = [(x, ax, bx)] + ([] if p is None else [p])
        (w,) = _b_orthogonalize((precond(r[:, eta > ROUNDING_TARGET]),), parts)
        w = _b_orthonormalize((w, *apply(w)))
        if w[0].shape[1] == 0:
            break
        parts.insert(1, w)
        # the basis is B-orthonormal, so Rayleigh-Ritz is a standard problem
        spans = _spans(u.shape[1] for u, _, _ in parts)
        gram = np.empty((spans[-1].stop, spans[-1].stop))
        for i, (u, _, _) in enumerate(parts):
            for j in range(i, len(parts)):
                gram[spans[i], spans[j]] = u.T @ parts[j][1]
                gram[spans[j], spans[i]] = gram[spans[i], spans[j]].T
        theta, c = np.linalg.eigh((gram + gram.T) / 2)
        theta, c = theta[:k], c[:, :k]
        # P is the update [0; c_W; c_P] made orthonormal to c in coefficient
        # space, where the basis is orthonormal (B is I there), so that X and
        # P come out B-orthonormal; eigh's c is orthonormal to working
        # precision, so one pass does (a second changed no iteration count)
        d = c.copy()
        d[:x.shape[1]] = 0.0
        d -= c @ (c.T @ d)
        d = _b_orthonormalize((d, d))[0]
        x = _combine([u for u, _, _ in parts], c)
        ax, bx = apply(x)
        p = tuple(_combine(arrays, d) for arrays in zip(*parts)) if d.shape[1] else None
    return best


def _spans(widths) -> list[slice]:
    """Consecutive ranges of the given widths, from 0."""
    ends = list(itertools.accumulate(widths))
    return [slice(start, end) for start, end in zip([0] + ends, ends)]


def _combine(arrays, coefficients: np.ndarray) -> np.ndarray:
    """[arrays[0], arrays[1], ...] @ coefficients, without joining the arrays."""
    rows = _spans(u.shape[1] for u in arrays)
    return sum(u @ coefficients[part] for u, part in zip(arrays, rows))


def _axis_bounds(pencil: _AxisPencil) -> list[np.ndarray]:
    """Per-axis q_k = vol T_k^2 + diag(d_k) of a fourth-order pencil.

    A = sum_k I x q_k x I + 2 vol sum_{j<k} T_j x T_k.  Dropping the cross
    terms, which are positive semidefinite, leaves Q = sum_k I x q_k x I, so
    Q <= A <= n Q for every h.  With s_k = q_k^1/2 >= vol^1/2 T_k (the
    square root is operator monotone), P = (sum_k I x s_k x I)^2 = Q + 2
    sum_{j<k} s_j x s_k >= A, and P <= n Q <= n A: P / n <= A <= P, with
    A's cross terms matched away from the faces (`_preconditioner`).
    """
    return [pencil.volume * (second @ second) + np.diag(d) for second, d in pencil.terms]


def _preconditioner(q_pairs):
    """x -> P^-1 x, P = (sum_k I x q_k^1/2 x I)^2 (`_axis_bounds`), from the eigenpairs of
    each q_k: P is diagonal in their Kronecker basis, with the values (sum_k mu_k^1/2)^2,
    so it costs what Q^-1 costs."""
    return _kron_sum_solver([(np.sqrt(values), vectors) for values, vectors in q_pairs], power=2)


def _fold_bases(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases, c x ceil(c/2) and c x floor(c/2), of the vectors of length c
    that are even and odd under the reflection i -> c - 1 - i."""
    half = c // 2
    pairs = np.arange(half)
    even, odd = np.zeros((c, c - half)), np.zeros((c, half))
    even[pairs, pairs] = even[c - 1 - pairs, pairs] = odd[pairs, pairs] = math.sqrt(0.5)
    odd[c - 1 - pairs, pairs] = -math.sqrt(0.5)
    if c % 2:
        even[half, half] = 1.0
    return even, odd


def _reflection_classes(pencil: _AxisPencil) -> list[tuple[_AxisPencil, list[np.ndarray]]]:
    """The 2^n reflection classes of a fourth-order pencil, each with its per-axis folds.

    Each T_k and d_k is symmetric under the reflection of its axis, so A, B
    and Q commute with the reflection of every axis (Bossavit, Comput.
    Methods Appl. Mech. Eng. 56, 1986).  Class (s_1, ..., s_n) holds the
    vectors even (s_k = 0) or odd (s_k = 1) along each axis k.  With F_k
    the orthonormal basis of that parity (`_fold_bases`), the pencil on the
    class is again a per-axis pencil, of terms F_k^T T_k F_k and d_k's first
    half (d_k is even), and its vectors unfold by F_1 x ... x F_n
    (`_along_axes`).  Classes come in lexicographic parity order.
    """
    per_axis = [[(fold, (fold.T @ second @ fold, d[:fold.shape[1]]))
                 for fold in _fold_bases(d.size)] for second, d in pencil.terms]
    return [(_AxisPencil(tuple(term for _, term in choice), pencil.volume, pencil.b_is_mass),
             [fold for fold, _ in choice])
            for choice in itertools.product(*per_axis)]


def _class_orbits(pencil: _AxisPencil) -> list[tuple[int, tuple[int, ...]]]:
    """Per reflection class (in `_reflection_classes` order), the index of its orbit's
    representative and the axis order that maps the representative's grid tensors onto it.

    Axes whose (T_k, d_k) are bitwise equal are interchangeable: permuting
    them maps A, B and Q onto themselves, and class (s_1, ..., s_n) onto the
    class of the permuted parities, with the same eigenvalues (Fässler &
    Stiefel, Group Theoretical Methods and Their Applications, 1992).  An
    orbit's representative has its parities sorted within each group of
    interchangeable axes.  A vector x of the representative, as a grid
    tensor, becomes one of the member's by np.transpose(x, axes): the
    member's axis k is the representative's axis axes[k].
    """
    n = len(pencil.terms)
    keys = [(second.tobytes(), d.tobytes()) for second, d in pencil.terms]
    groups = [[k for k in range(n) if keys[k] == key] for key in dict.fromkeys(keys)]
    parities = list(itertools.product((0, 1), repeat=n))
    orbits = []
    for s in parities:
        representative, axes = list(s), list(range(n))
        for group in groups:
            order = sorted(range(len(group)), key=lambda t: s[group[t]])
            for t, u in enumerate(order):
                representative[group[t]] = s[group[u]]
                axes[group[u]] = group[t]
        orbits.append((parities.index(tuple(representative)), tuple(axes)))
    return orbits


def _class_shares(q_pairs, m: int) -> list[int]:
    """Each class's share of the m smallest eigenvalues of Q, over all classes: the first
    guess of the number of values it needs, less one."""
    lowest = [np.sort(functools.reduce(np.add.outer, [values[:m] for values, _ in pairs]),
                      axis=None)[:m] for pairs in q_pairs]
    labels = np.repeat(np.arange(len(lowest)), [values.size for values in lowest])
    shares = labels[np.argsort(np.concatenate(lowest), kind="stable")[:m]]
    return [int(share) for share in np.bincount(shares, minlength=len(lowest))]


def _lowered(x: float, k: int) -> float:
    """A float at most x / (1 + gamma_k): below the exact value of a nonnegative x
    computed with at most k roundings of nonnegative terms."""
    return math.nextafter(x * (1.0 - _gamma(k + 2)), -math.inf)


def _lowest_floor(matrix: np.ndarray, spread: float, pair=None) -> float:
    """A lower bound on the smallest eigenvalue of every symmetric matrix within
    `spread` (in the 2-norm) of `matrix`, from eigh's pairs (lambda_i, v_i), or `pair`:
    M is the symmetric matrix of `matrix`'s lower triangle, which eigh reads.

    With V the computed vectors, G = V^T M V has the eigenvalues of M scaled
    by factors in [1 - e, 1 + e], e >= ||V^T V - I||_2 (Ostrowski, Proc.
    Natl. Acad. Sci. 45, 1959), and by Weyl's theorem its smallest lies
    within w >= ||G - diag(lambda)||_2 of lambda_1.  So lambda_min(M) >=
    lambda_1 - w - (|lambda_1| + w) e / (1 - e), and the matrices within
    `spread` lie at most `spread` lower.  Both norms are of symmetric
    matrices, so at most their largest absolute row sums, here of the
    computed products plus their rounding, gamma_{2c+1} |V|^T |M| |V| and
    gamma_{c+1} |V|^T |V| (c the order; Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 3.5).  One factor 1 + gamma_{4c+12}
    covers the roundings of the margin, a sum of nonnegative terms, and the
    final subtraction is rounded down.
    """
    matrix = np.tril(matrix) + np.tril(matrix, -1).T   # the lower triangle eigh reads
    values, vectors = np.linalg.eigh(matrix) if pair is None else pair
    c = values.size
    abs_v = np.abs(vectors)
    weyl = (np.abs(vectors.T @ (matrix @ vectors) - np.diag(values))
            + _gamma(2 * c + 1) * (abs_v.T @ (np.abs(matrix) @ abs_v))).sum(axis=1).max()
    skew = (np.abs(vectors.T @ vectors - np.eye(c))
            + _gamma(c + 1) * (abs_v.T @ abs_v)).sum(axis=1).max()
    if not skew < 0.5:
        return -math.inf
    lowest = float(values[0])
    margin = weyl + (abs(lowest) + weyl) * skew / (1.0 - skew) + spread
    return math.nextafter(lowest - margin * (1.0 + _gamma(4 * c + 12)), -math.inf)


def _class_floor(whole: _AxisPencil, pencil: _AxisPencil, q_pairs) -> float:
    """A lower bound on every eigenvalue of a reflection class of `whole`, given by its
    folded per-axis terms (`pencil`) and the eigenpairs of its q_k (`q_pairs`).

    With tau_k = lambda_min(T_k), mu_k = lambda_min(q_k) and c_k =
    lambda_min(q_k, vol T_k), A = sum_k q_k + 2 vol sum_{j<k} T_j x T_k
    (`_axis_bounds`) gives
      clamped plate (B = vol I): lambda >= (sum_k mu_k + 2 vol sum_{j<k}
        tau_j tau_k) / vol, as T_j x T_k >= tau_j tau_k I;
      buckling (B = vol sum_k T_k): lambda >= min_k (c_k + sum_{j != k}
        tau_j), as q_k >= c_k vol T_k and 2 T_j x T_k >= tau_k T_j + tau_j T_k.
    The bound holds for the class of the pencil of the per-axis factors
    (`_gram_residual`), whose exact folded terms differ from the computed
    ones.  Each product of a fold is a sum of at most two nonzero terms, and
    the fold's entries are within u of 1/sqrt(2), so ||T_k - T'_k||_2 <=
    gamma_6 t_k = e_k, t_k >= ||T_k||_2 the largest row sum of the unfolded
    |T_k|.  q_k's product has at most three nonzero terms, then the scaling
    and the face terms, so ||q_k - q'_k||_2 <= gamma_5 (vol (t_k + e_k)^2 +
    max d_k) + vol e_k (2 t_k + e_k) <= gamma_7 (3 vol t_k^2 + max d_k).
    tau_k and mu_k are `_lowest_floor` of T'_k and q'_k with these spreads.
    c_k is estimated from eigh of W^T q'_k W / vol, W T'_k's eigenvectors
    scaled by tau'^-1/2, and then proved: with L the floor of q'_k - c
    vol T'_k (spread the two above and gamma_2 of its terms),
    q_k - c vol T_k >= L I >= (L / tau_k) T_k if L < 0, so c + min(L, 0) /
    (vol tau_k) is a valid c_k.  Every floor is clipped at 0 (T_k and q_k
    are positive definite), and the sums are lowered by `_lowered`.
    """
    volume, n = pencil.volume, len(pencil.terms)
    taus, mus, cs = [], [], []
    for (whole_second, _), (second, d), q, q_pair in zip(
            whole.terms, pencil.terms, _axis_bounds(pencil), q_pairs):
        t = np.abs(whole_second).sum(axis=1).max() * (1.0 + _gamma(3))
        spread_t = _gamma(6) * t
        spread_q = _gamma(7) * (3.0 * volume * t * t + d.max())
        t_values, t_vectors = t_pair = np.linalg.eigh(second)
        taus.append(max(_lowest_floor(second, spread_t, t_pair), 0.0))
        mus.append(max(_lowest_floor(q, spread_q, q_pair), 0.0))
        if pencil.b_is_mass:
            continue
        if not (taus[-1] > 0.0 and t_values[0] > 0.0):
            cs.append(0.0)
            continue
        scaled = t_vectors / np.sqrt(t_values)
        c = max(float(np.linalg.eigvalsh(scaled.T @ q @ scaled)[0]) / volume, 0.0)
        floor = _lowest_floor(q - (c * volume) * second,
                              spread_q + c * volume * spread_t
                              + _gamma(3) * (np.abs(q).sum(axis=1).max() + c * volume * t))
        if floor < 0.0:
            c = math.nextafter(c + floor / (volume * taus[-1]) * (1.0 + _gamma(4)), -math.inf)
        cs.append(max(c, 0.0))
    if pencil.b_is_mass:
        cross = sum(taus[j] * taus[k] for j, k in itertools.combinations(range(n), 2))
        return _lowered((sum(mus) + 2.0 * volume * cross) / volume, n * n + 6)
    return min(_lowered(c + sum(tau for j, tau in enumerate(taus) if j != k), n)
               for k, c in enumerate(cs))


def _structured_solve(block: ComponentBlock, m: int, tol: float) -> Spectrum:
    """m smallest eigenpairs of a fourth-order block, by reflection class.

    A and B are applied from the block's per-axis factors
    (`_gram_products`).  The block splits into 2^n reflection classes
    (`_reflection_classes`), each a per-axis pencil of about N / 2^n dof.  A
    class of at most DENSE_CUTOFF dof is solved once, completely, by
    `_dense_class`; each later count re-slices its pairs.  A larger class is
    solved by LOBPCG, preconditioned by its P^-1, applied exactly from the
    eigenpairs of its q_k (P / n <= A <= P makes the iteration count
    independent of h; `_axis_bounds`), and started from the START_SPAN
    (count + GUARD) lowest eigenvectors of its Q, whole multiplets, which A
    ranks by Rayleigh-Ritz.  An iteration never leaves the classes its start
    holds.

    Each orbit of classes under permutations of interchangeable axes
    (`_class_orbits`) is solved once, by its representative, asked first
    for the largest over its members of their share of Q's m lowest values
    plus one (`_class_shares`; summation order can break Q's ties
    differently in each member); an orbit whose share is 0 is not solved
    yet.  Each member takes the representative's unfolded vectors with the
    grid axes transposed, an exact permutation, and its values bit for bit.
    With sigma the m-th smallest value over the classes solved and its
    bound, a solved orbit with a class whose top value is not clearly above
    sigma (top - its bound <= sigma) doubles its count, and an orbit not
    solved is solved for one value if its lower bound (`_class_floor`) is
    not above sigma; this repeats until no orbit changes.  A class solved
    then holds no eigenvalue below sigma that it did not return (as long as
    each class returns its lowest values, as a dense class does by
    construction), and one never solved is proven to hold none, so none is
    missed.  A class solve that stops short of tol fails the block at once,
    since its wide bounds would only grow it.  The pairs are unfolded,
    merged by (value, class), and certified on the whole block
    (`_gram_certificate`), so the certificate does not rest on the folding;
    `_certified` judges the result.
    """
    whole = _AxisPencil.of(block)
    norms = _gram_norms(whole)
    classes = _reflection_classes(whole)
    q_eighs: dict = {}
    q_pairs = [_eighs(_axis_bounds(pencil), q_eighs) for pencil, _ in classes]
    shares = _class_shares(q_pairs, m)
    orbits = _class_orbits(whole)

    @functools.cache
    def floor(i: int) -> float:
        return _class_floor(whole, classes[i][0], q_pairs[i])

    @functools.cache
    def dense(i: int) -> tuple[np.ndarray, np.ndarray]:
        return _dense_class(classes[i][0])

    # the count each orbit's representative is solved for, once it is solved
    counts: dict = {}
    for i, (representative, _) in enumerate(orbits):
        if shares[i]:
            counts[representative] = max(counts.get(representative, 0),
                                         min(shares[i] + 1, classes[i][0].size))
    solved: dict = {}
    while True:
        for i in sorted(counts):
            pencil, folds = classes[i]
            if i not in solved or solved[i][0].size < counts[i]:
                if pencil.size <= DENSE_CUTOFF:
                    values, vectors = dense(i)
                else:
                    start = _smallest_sums(q_pairs[i], START_SPAN * (counts[i] + GUARD),
                                           multiplet_limit=pencil.size // 2)[1]
                    values, vectors = _lobpcg(functools.partial(_gram_products, pencil), norms,
                                              _preconditioner(q_pairs[i]), start, counts[i])
                solved[i] = (values[:counts[i]],
                             _along_axes(folds, vectors[:, :counts[i]], pencil.shape))
        # each member of a solved orbit takes its representative's pairs, its
        # grid axes transposed
        members = [(i, representative, axes) for i, (representative, axes) in enumerate(orbits)
                   if representative in solved]
        values = np.concatenate([solved[representative][0] for _, representative, _ in members])
        vectors = np.hstack([
            np.transpose(solved[representative][1].reshape(whole.shape + (-1,)),
                         axes + (len(axes),)).reshape(whole.size, -1)
            for _, representative, axes in members])
        eta, delta = _gram_certificate(whole, values, vectors, norms)
        if not np.all(eta <= tol):
            # a class that stopped short of tol has wide bounds, which the
            # rule below would answer by doubling its count round after round
            raise NumericalFailure(f"a reflection class missed the residual tolerance {tol} "
                                   f"(worst backward error {eta.max():.3e})")
        sizes = [solved[representative][0].size for _, representative, _ in members]
        order = np.lexsort((np.repeat([i for i, _, _ in members], sizes), values))
        sigma = values[order[m - 1]] + delta[order[m - 1]] if values.size >= m else math.inf
        tops = np.cumsum(sizes) - 1
        grow = {representative for (i, representative, _), top in zip(members, tops)
                if counts[representative] < classes[i][0].size
                and values[top] - delta[top] <= sigma}
        new = {representative for representative, _ in orbits
               if representative not in counts and floor(representative) <= sigma}
        if not grow and not new:
            break
        for i in grow:
            counts[i] = min(2 * counts[i], classes[i][0].size)
        for i in new:
            counts[i] = 1
    chosen = order[:m]
    return _certified(values[chosen], vectors[:, chosen], (eta[chosen], delta[chosen]), tol)


def _solve_fourth_order(block: ComponentBlock, m: int, tol: float) -> Spectrum:
    """m smallest eigenpairs of a fourth-order block: by reflection class, numpy
    alone (`_structured_solve`), unless its largest class has more than
    DENSE_CUTOFF dof and the block is 1D, or 2D and asked for more than
    STRUCTURED_MAX_M values; those, and a block whose class solve fails its
    certificate, go to `solve_pencil`."""
    largest = math.prod((d.size + 1) // 2 for _, d in block.axis_terms)
    dim = block.domain.dim
    if largest > DENSE_CUTOFF and (dim == 1 or (dim == 2 and m > STRUCTURED_MAX_M)):
        return solve_pencil(block.a, block.b, m, tol)
    try:
        return _structured_solve(block, m, tol)
    except NumericalFailure:
        return solve_pencil(block.a, block.b, m, tol)


def solve_problem(problem: FormProblem, m: int, tol: float = DEFAULT_TOL,
                  cache: Optional[dict] = None) -> Spectrum:
    """Solve an assembled FormProblem blockwise and merge the spectra.

    Identical blocks are solved once and replicated, which keeps discrete
    degree-independence and Hodge duality exact at the bit level.  Blocks
    with 1D factors take the separable solve, fourth-order blocks the route
    `_solve_fourth_order` picks.
    A block's kernel (the constants at absolute p = 0) is left out, so the
    first reported eigenvalue is positive.  `cache` may be shared across
    problems on the same grid to reuse block solves: a block is served by
    a cached solve of the same block and tolerance for at least as many
    values, of which the merge reads the first ones.
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
        key = (block.signature, tol)
        # a cached solve for at least m_block values serves: only its first m_block are read
        if key not in local_cache or local_cache[key].values.size < m_block:
            solve = _separable_solve if block.axis_factors is not None else _solve_fourth_order
            local_cache[key] = solve(block, m_block, tol)
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
