"""Symmetric generalized eigensolver for the assembled pencils.

Solves A x = theta B x for the m smallest eigenvalues with certified
pairs.  `solve_problem` and `Spectrum` are `blockwise`'s, bound here too:
the problem solve sends each fourth-order block to `_solve_fourth_order`,
and Dirichlet and absolute blocks, Kronecker sums of 1D pencils, to
`separable`, which solves and certifies them from closed-form 1D
eigenpairs with the standard library alone.  A fourth-order block takes
one of two routes.

Reflection classes (fourth order, numpy only: 3D blocks at any m, 2D
blocks asked for at most STRUCTURED_MAX_M values, and any block whose
largest class has at most DENSE_CUTOFF dof).  The clamped operator A =
vol (sum_k T_k)^2 + D, from the block's per-axis second differences T_k
and face terms d_k, and buckling's B = vol sum_k T_k are applied by
per-axis contractions with the T_k, clamped plate's B = vol I as a
scalar.  A and B commute with the reflection of each axis, so the block
splits into 2^n reflection classes, each again a per-axis pencil of about
N / 2^n dof (Bossavit, Comput. Methods Appl. Mech. Eng. 56, 1986); the
premises, bitwise reflection-symmetric T_k and d_k and exact folds, are
checked.  A class of at most DENSE_CUTOFF dof is reduced to B^-1/2 A
B^-1/2 by the contractions applied to the identity and solved once,
completely, by eigh; `_b_solver` applies B^-1/2, and B^-1 for the error
bounds, buckling's like Q^-1.  A larger class is solved by LOBPCG
(Knyazev, SIAM J. Sci. Comput. 23, 2001) in the eigenbasis of the per-axis
q_k = vol T_k^2 + diag(d_k) (Lynch, Rice & Thomas, Numer. Math. 6, 1964):
there their Kronecker sum Q, with Q <= A <= n Q, and P = (sum_k
q_k^1/2)^2, with P / n <= A <= P for every h, are diagonal, so P^-1
preconditions elementwise, and each class is started from the unit
vectors of its own lowest Q values, so none is left out.  Nothing is
assembled or factorized.  The classes' counts are grown until none can
hide an eigenvalue below the m-th; a class with no share of Q's m lowest
values is solved only if its per-axis lower bound does not prove it empty
below them.  Axes with bitwise-equal T_k and d_k (a cube, a square) are
interchangeable, and permuting them maps classes onto classes with the
same spectrum: one class per orbit is solved and certified, and its
vectors, their grid axes transposed, serve the orbit's other classes, so
the multiplets across an orbit are bitwise equal.

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
for the pencil the general route solves.  A reflection class's pairs are
certified on its folded pencil, and the bound adds the proven distance
from the computed folds to the exact ones and the assembly's entry
rounding, normwise (`_gram_certificate`), so it holds for the unfolded
pairs of the whole block.  The B^-1-norm is free when B is diagonal;
otherwise B^-1 comes from its per-axis factors (reflection classes,
`_b_solver`) or one factorization per block (general route).

A run with identical inputs and configuration is bitwise reproducible
(start vectors fixed by the block, deterministic merge order).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from typing import NamedTuple, Optional

import numpy as np

from . import DEFAULT_TOL, _FrozenRecord
# Spectrum and solve_problem are bound here for the library's callers
from .blockwise import Spectrum, _check_tol, _gamma, ordered_sums, smallest_sums, solve_problem
from .discretize import ComponentBlock
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
_SEED = 0x5EEDBA11


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


def _norm1(matrix) -> float:
    """||M||_1 of a sparse matrix: its largest absolute column sum."""
    return abs(matrix).sum(axis=0).max()


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
    numerator, x_norm = _b_norms(vectors, r, bx, rounding, b_solve)
    return _backward_errors(values, vectors, r, norm_a, norm_b), numerator / x_norm


def _backward_errors(values, vectors, r, norm_a: float, norm_b: float) -> np.ndarray:
    """||r|| / ((||A||_1 + |theta| ||B||_1) ||x||) per column, 0 where r is 0."""
    scale = norm_a + np.abs(values) * norm_b
    norm_r = np.linalg.norm(r, axis=0)
    return np.divide(norm_r, scale * np.linalg.norm(vectors, axis=0),
                     out=np.zeros_like(norm_r), where=norm_r != 0.0)


def _b_norms(vectors, r, bx, rounding, b_solve) -> tuple[np.ndarray, np.ndarray]:
    """(||fl(r)||_{B^-1} + ||g||_{B^-1}, ||x||_B) per column (see `_bounds`)."""
    both = np.hstack([r, rounding])
    b_norms = np.sqrt(np.abs(np.sum(both * b_solve(both), axis=0)))
    m = r.shape[1]
    return b_norms[:m] + b_norms[m:], np.sqrt(np.sum(vectors * bx, axis=0))


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


def _certified(values, vectors, certificates, tol: float) -> Spectrum:
    """The pairs as a Spectrum, given their vectors (or the function that forms them)
    and their (backward errors, error bounds); NumericalFailure carries it when a
    backward error exceeds tol."""
    residuals, error_bounds = certificates
    failed = not np.all(residuals <= tol)   # a NaN fails too
    try:
        spectrum = Spectrum(kind=None, degree=None, values=values, residuals=residuals,
                            error_bounds=error_bounds, vectors=vectors)
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


class _AxisPencil(_FrozenRecord):
    """A fourth-order pencil given by its per-axis factors: a whole block, or one
    reflection class of it (`_reflection_classes`).

    A = vol (sum_k I x T_k x I)^2 + D, D = sum_k I x diag(d_k) x I, against
    B = vol I (`b_is_mass`, clamped plate) or vol sum_k I x T_k x I (buckling),
    on a grid of `shape`, axis 1 slowest.
    """

    terms: tuple[tuple[np.ndarray, np.ndarray], ...]   # (T_k, d_k) per axis
    volume: float
    b_is_mass: bool

    # compared and hashed as an object: its terms are arrays
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, terms, volume, b_is_mass):
        super().__init__(terms, volume, b_is_mass)

    @classmethod
    def of(cls, block: ComponentBlock) -> "_AxisPencil":
        return cls(block.axis_terms, block.domain.cell_volume, block.b_is_mass)

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(d.size for _, d in self.terms)

    @functools.cached_property
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


def _a_products(pencil: _AxisPencil, x: np.ndarray,
                magnitudes: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(A x, y) of a fourth-order pencil on a block of vectors, by 2n per-axis contractions:
    y = vol sum_k T_k x, and A x = sum_k T_k y + D x (see `_gram_products`)."""
    seconds = [np.abs(second) if magnitudes else second for second, _ in pencil.terms]
    y = pencil.volume * _axis_sum(seconds, x, pencil.shape)
    return _axis_sum(seconds, y, pencil.shape) + pencil.face_diagonal[:, None] * x, y


def _gram_products(pencil: _AxisPencil, x: np.ndarray,
                   magnitudes: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(A x, B x) of a fourth-order pencil on a block of vectors (`_a_products`).

    y = vol sum_k T_k x is buckling's B x; clamped plate's B = vol I is
    applied as a scalar.  With `magnitudes`, the same contractions with
    |T_k| give (|A| x, |B| x) of a whole block: every entry of (sum_k
    T_k)^2 is a sum of products of one sign (the grid graph has no
    triangles), so |A| = vol (sum_k |T_k|)^2 + D entrywise.
    """
    ax, y = _a_products(pencil, x, magnitudes)
    return ax, (pencil.volume * x if pencil.b_is_mass else y)


def _gram_norms(pencil: _AxisPencil) -> tuple[float, float]:
    """||A||_1 and ||B||_1 of a fourth-order block: the largest entries of |A| 1 and |B| 1."""
    abs_a, abs_b = _gram_products(pencil, np.ones((pencil.size, 1)), magnitudes=True)
    return abs_a.max(), abs_b.max()


def _gram_residual(pencil: _AxisPencil, values, vectors: np.ndarray,
                   assembled: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    nonnegative terms.  Without `assembled`, g covers the evaluation alone,
    gamma_{2n+7}: a reflection class's certificate bounds the assembly
    normwise (`_gram_certificate`), and the same argument holds for a
    class's folded T_k, tridiagonal too, with |A| <= vol (sum_k |T_k|)^2 + D.
    """
    n = len(pencil.shape)
    values = np.asarray(values, dtype=float)
    ax, bx = _gram_products(pencil, vectors)
    r = ax - bx * values
    abs_ax, abs_bx = _gram_products(pencil, np.abs(vectors), magnitudes=True)
    share = _gamma((6 if assembled else 2) * n + 7) * (1.0 + _gamma(2 * n + 10))
    rounding = share * (abs_ax + abs_bx * np.abs(values))
    return r, bx, rounding


def _b_solver(pencil: _AxisPencil, power: float = 1, pairs: Optional[dict] = None):
    """x -> B^-power x on a block of vectors of a fourth-order pencil: a division for
    B = vol I, `_kron_sum_solver` over the eigenpairs of each vol T_k for B = vol sum_k T_k
    (`_eighs`, which keeps them in `pairs`)."""
    if pencil.b_is_mass:
        divisor = pencil.volume ** power
        return lambda x: x / divisor
    return _kron_sum_solver(_eighs([pencil.volume * second for second, _ in pencil.terms], pairs),
                            power)


class _Fold(NamedTuple):
    """What a reflection class's certificate needs of its whole block (`_fold_terms`)."""

    t: float         # >= sum_k ||T_k||_2
    e: float         # >= sum_k ||T'_k - T~_k||_2, for a class's computed and exact folds
    b_floor: float   # <= lambda_min(B) of the whole block, so of every class


def _gram_certificate(pencil: _AxisPencil, values, vectors: np.ndarray,
                      norms: tuple[float, float], fold: Optional[_Fold] = None,
                      pairs: Optional[dict] = None) -> tuple[np.ndarray, np.ndarray]:
    """Backward errors and error bounds (`_bounds`) of pairs of a fourth-order pencil, from
    `_gram_residual`, the whole block's norms (`_gram_norms`) and `_b_solver`'s B^-1
    (its eigenpairs kept in `pairs`).

    With `fold`, `pencil` is a reflection class of a block (`_reflection_classes`)
    and `vectors` hold class coordinates y; each bound then encloses an
    eigenvalue of the whole block, certified by the exact unfolding x = F* y.
    Each computed fold is F = F* S, F* exactly orthonormal and S diagonal
    within u of I (`_is_fold`), so the unfolding that `_along_axes` computes
    lies within gamma_{2n} |x| of x.  A and B commute with every axis
    reflection, so the whole block's residual of x has the 2-norm and
    B^-1-norm of the exact class residual (A~ - theta B~) y, A~ = vol K~^2 + D
    the class pencil of the exact folds T~_k = F*^T T_k F*, K~ = sum_k T~_k.
    That residual differs from the one of the computed class pencil, K' =
    sum_k T'_k, which `_gram_residual` bounds, by
      vol (K~^2 - K'^2) y = vol (E K~ + K' E) y, E = K~ - K', ||E|| <= e
        (`_class_floor`'s spread), ||K~ y|| <= ||K' y|| + e ||y||, ||K'|| <= t + e:
        at most vol e (||K' y|| + (t + 2e) ||y||), where vol ||K' y||^2 <= y^T A' y
        = y^T r + theta y^T B' y <= ||y|| (||r|| + |theta| ||B' y||);
      buckling's theta vol E y: at most |theta| vol e ||y||.
    The assembled block differs from A* and B* entrywise by gamma_{4n} |A*| and
    gamma_n |B*| (`_gram_residual`), so its residual of x by at most
    (gamma_{4n} ||A||_1 + gamma_n |theta| ||B||_1) ||y||, the 2-norm of a
    nonnegative symmetric matrix being at most its largest row sum.  Over
    sqrt(b_floor), these 2-norms bound their B^-1-norms.  For buckling, B~ >=
    (1 - rho) B', rho = vol e / (b_floor - vol e), turns the B'-norms that
    `_bounds` evaluates into B~-norms.  A class with no such bound raises
    NumericalFailure.
    """
    r, bx, rounding = _gram_residual(pencil, values, vectors, assembled=fold is None)
    eta = _backward_errors(values, vectors, r, *norms)
    numerator, x_norm = _b_norms(vectors, r, bx, rounding, _b_solver(pencil, pairs=pairs))
    if fold is None:
        return eta, numerator / x_norm
    n, volume, mass = len(pencil.shape), pencil.volume, pencil.b_is_mass
    t, e, b_floor = fold
    norm_a, norm_b = norms
    theta = np.abs(np.asarray(values, dtype=float))
    y_norm = np.linalg.norm(vectors, axis=0)
    by_norm = (volume * y_norm if mass else
               np.linalg.norm(bx, axis=0) + _gamma(n + 3) * volume * (t + e) * y_norm)
    r_norm = np.linalg.norm(r, axis=0) + np.linalg.norm(rounding, axis=0)
    k_norm = np.sqrt(y_norm * (r_norm + theta * by_norm) / volume)
    spread = (volume * e * (k_norm + (t + 2.0 * e + (0.0 if mass else theta)) * y_norm)
              + (_gamma(4 * n) * norm_a + _gamma(n) * theta * norm_b) * y_norm)
    rho = 0.0 if mass else volume * e / (b_floor - volume * e)
    if not (b_floor > 0.0 and 0.0 <= rho < 1.0):
        raise NumericalFailure("no lower bound on a reflection class's B")
    scale = math.sqrt(1.0 - rho)
    return eta, (numerator / scale + spread * (1.0 + _gamma(8)) / math.sqrt(b_floor)) / (
        scale * x_norm)


def _dense_class(pencil: _AxisPencil,
                 pairs: Optional[dict] = None) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a reflection class: eigh of B^-1/2 A B^-1/2, by `_a_products` and
    `_b_solver` (its eigenpairs kept in `pairs`) on the identity, and x = B^-1/2 y (Golub &
    Van Loan, Matrix Computations, 8.7).  For B = vol I that is eigh of A itself, its
    values divided by vol and its vectors by vol^1/2."""
    if pencil.b_is_mass:
        a = _a_products(pencil, np.eye(pencil.size))[0]
        values, vectors = np.linalg.eigh((a + a.T) / 2)
        return values / pencil.volume, vectors / math.sqrt(pencil.volume)
    half = _b_solver(pencil, 0.5, pairs)
    reduced = half(_a_products(pencil, half(np.eye(pencil.size)))[0])
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
    the new X (in a class's Q basis, `_q_basis`, 2(n - 1) contractions each,
    2n - 1 for buckling, and `precond` is elementwise); the images of P
    follow the combinations that form it, and the Gram matrix is filled
    block by block into one array.  It stops once
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
    A's cross terms matched away from the faces (`_q_basis`).
    """
    return [pencil.volume * (second @ second) + np.diag(d) for second, d in pencil.terms]


def _q_basis(pencil: _AxisPencil, q_pairs, rotated: Optional[dict] = None):
    """(apply, precondition, unrotate) of a fourth-order pencil in the eigenbasis
    V = V_1 x ... x V_n of its q_k (`_axis_bounds`), from the eigenpairs (mu_k, V_k).

    In that basis (Lynch, Rice & Thomas, Numer. Math. 6, 1964) Q = diag(sum_k
    mu_k) and P^-1 = 1 / (sum_k mu_k^1/2)^2 are diagonal, and A = Q + 2 vol
    sum_{j<k} R_j x R_k, with R_k = V_k^T T_k V_k; buckling's B is vol sum_k
    R_k and clamped plate's vol I.  `apply` maps y to (A y, B y) by 2(n - 1)
    contractions, 2n - 1 for buckling, summing the cross terms from the last
    axis down, sum_j R_j (sum_{k>j} R_k y); `precondition` multiplies by P^-1;
    `unrotate` forms x = V y by n contractions.  `rotated` keeps each R_k by
    the bytes of (T_k, V_k), so that classes sharing a factor share it.
    """
    rotated = {} if rotated is None else rotated
    shape, n = pencil.shape, len(pencil.shape)
    seconds = []
    for (second, _), (_, vectors) in zip(pencil.terms, q_pairs):
        key = (second.tobytes(), vectors.tobytes())
        if key not in rotated:
            rotated[key] = vectors.T @ second @ vectors
        seconds.append(rotated[key])
    diagonal = functools.reduce(np.add.outer, [values for values, _ in q_pairs]).reshape(-1, 1)
    inverse_p = 1.0 / functools.reduce(
        np.add.outer, [np.sqrt(values) for values, _ in q_pairs]).reshape(-1, 1) ** 2

    def along(k: int, y: np.ndarray) -> np.ndarray:
        return _along_axes([None] * k + [seconds[k]], y, shape)

    def apply(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cross = suffix = None   # sum_{j<k} R_j R_k y, and sum_{k>j} R_k y
        for j in reversed(range(n)):
            if suffix is not None:
                term = along(j, suffix)
                cross = term if cross is None else cross + term
            if j or not pencil.b_is_mass:
                term = along(j, y)
                suffix = term if suffix is None else suffix + term
        ay = diagonal * y
        if cross is not None:
            ay += (2.0 * pencil.volume) * cross
        return ay, pencil.volume * (y if pencil.b_is_mass else suffix)

    def precondition(r: np.ndarray) -> np.ndarray:
        return r * inverse_p

    def unrotate(y: np.ndarray) -> np.ndarray:
        return _along_axes([vectors for _, vectors in q_pairs], y, shape)

    return apply, precondition, unrotate


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


def _is_fold(fold: np.ndarray, odd: bool) -> bool:
    """Whether `fold` is F* S, F* an exactly orthonormal basis of the vectors of its
    length that are even (odd) under the reflection i -> c - 1 - i, and S
    diagonal within u of I.

    Its rows reflected give the fold (its negative), so each column has that
    parity; each row holds at most one nonzero, so the columns have disjoint
    supports; each column is a mirror pair of entries fl(sqrt(1/2)) in
    magnitude, or the middle entry 1; and it has as many columns as the
    parity has dimensions, so the columns span it.
    """
    c = fold.shape[0]
    nonzero = fold != 0.0
    sizes = nonzero.sum(axis=0)
    return (fold.shape[1] == (c // 2 if odd else c - c // 2)
            and np.array_equal(fold[::-1], -fold if odd else fold)
            and bool(np.all(nonzero.sum(axis=1) <= 1))
            and bool(np.all((sizes == 1) | (sizes == 2)))
            and np.array_equal(np.abs(fold), nonzero * np.where(sizes == 2, math.sqrt(0.5), 1.0)))


def _reflection_classes(pencil: _AxisPencil) -> list[tuple[_AxisPencil, list[np.ndarray]]]:
    """The 2^n reflection classes of a fourth-order pencil, each with its per-axis folds.

    Each T_k and d_k is symmetric under the reflection of its axis, so A, B
    and Q commute with the reflection of every axis (Bossavit, Comput.
    Methods Appl. Mech. Eng. 56, 1986).  Class (s_1, ..., s_n) holds the
    vectors even (s_k = 0) or odd (s_k = 1) along each axis k.  With F_k
    the orthonormal basis of that parity (`_fold_bases`), the pencil on the
    class is again a per-axis pencil, of terms F_k^T T_k F_k and d_k's first
    half (d_k is even), and its vectors unfold by F_1 x ... x F_n
    (`_along_axes`).  Classes come in lexicographic parity order.  The
    premises are checked: a T_k or d_k that is not bitwise reflection
    symmetric, or a fold that `_is_fold` refuses, raises NumericalFailure.
    """
    for second, d in pencil.terms:
        if not (np.array_equal(second[::-1, ::-1], second) and np.array_equal(d[::-1], d)):
            raise NumericalFailure("a per-axis term is not reflection symmetric")
    bases = {c: _fold_bases(c) for c in dict.fromkeys(d.size for _, d in pencil.terms)}
    if not all(_is_fold(fold, odd) for folds in bases.values() for odd, fold in enumerate(folds)):
        raise NumericalFailure("a fold is not an orthonormal basis of its parity")
    per_axis = [[(fold, (fold.T @ second @ fold, d[:fold.shape[1]])) for fold in bases[d.size]]
                for second, d in pencil.terms]
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
    guess of the number of values it needs, less one.

    A class's values of Q are its sums of per-axis values (`ordered_sums`,
    which yields them lazily, in order; its first m need only each axis's m
    lowest).  The classes' sums are merged by (value, class index), so a
    tie goes to the lower class, and the merge pulls about m + 2^n of them.
    """
    merged = heapq.merge(*[
        zip((value for value, _, _ in ordered_sums([values[:m].tolist() for values, _ in pairs])),
            itertools.repeat(index))
        for index, pairs in enumerate(q_pairs)])
    chosen = [index for _, index in itertools.islice(merged, m)]
    return [chosen.count(index) for index in range(len(q_pairs))]


def _merge_classes(values: np.ndarray, bounds: np.ndarray, labels: np.ndarray,
                   m: int) -> tuple[np.ndarray, float]:
    """The order of the classes' pairs by (value, class index), and sigma, the m-th
    value plus its bound (inf with fewer than m pairs): what closes a round of
    `_structured_solve`."""
    order = np.lexsort((labels, values))
    sigma = values[order[m - 1]] + bounds[order[m - 1]] if values.size >= m else math.inf
    return order, sigma


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


def _floor(floors: dict, matrix: np.ndarray, spread: float, pair=None) -> float:
    """`_lowest_floor(matrix, spread, pair)`, computed once per lower triangle of
    `matrix` and spread: `floors` holds them for one block, whose classes share
    their folded factors."""
    key = (np.tril(matrix).tobytes(), spread)
    if key not in floors:
        floors[key] = _lowest_floor(matrix, spread, pair)
    return floors[key]


def _class_floor(whole: _AxisPencil, pencil: _AxisPencil, q_pairs, floors: dict,
                 eighs: dict) -> float:
    """A lower bound on every eigenvalue of a reflection class of `whole`, given by its
    folded per-axis terms (`pencil`) and the eigenpairs of its q_k (`q_pairs`); the
    floors are taken from the block's table `floors` (`_floor`), and T'_k's eigenpairs
    from `eighs` (`_eighs`).

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
        t, spread_t = _fold_spread(whole_second)
        spread_q = _gamma(7) * (3.0 * volume * t * t + d.max())
        t_values, t_vectors = t_pair = _eighs([second], eighs)[0]
        taus.append(max(_floor(floors, second, spread_t, t_pair), 0.0))
        mus.append(max(_floor(floors, q, spread_q, q_pair), 0.0))
        if pencil.b_is_mass:
            continue
        if not (taus[-1] > 0.0 and t_values[0] > 0.0):
            cs.append(0.0)
            continue
        scaled = t_vectors / np.sqrt(t_values)
        c = max(float(np.linalg.eigvalsh(scaled.T @ q @ scaled)[0]) / volume, 0.0)
        floor = _floor(floors, q - (c * volume) * second,
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


def _fold_spread(second: np.ndarray) -> tuple[float, float]:
    """(t, e) of an axis's T_k: t >= ||T_k||_2, the largest row sum of |T_k| rounded
    up, and e = gamma_6 t >= ||T'_k - T~_k||_2, the distance from either computed fold
    fl(F^T T_k F) to the exact F*^T T_k F* (`_class_floor`)."""
    t = np.abs(second).sum(axis=1).max() * (1.0 + _gamma(3))
    return t, _gamma(6) * t


def _fold_terms(whole: _AxisPencil, classes, floors: dict, eighs: dict) -> _Fold:
    """The sums over the axes of `_fold_spread`, and a lower bound on lambda_min(B) of
    the whole block: vol for clamped plate; for buckling, vol sum_k tau_k, tau_k the
    smaller of the floors (`_floor`, spread e_k, from the block's table `floors`) of
    axis k's two folded T_k, whose spectra make up T_k's, from their eigenpairs in
    `eighs` (`_eighs`)."""
    n = len(whole.terms)
    spreads = [_fold_spread(second) for second, _ in whole.terms]
    t, e = (sum(column) * (1.0 + _gamma(n)) for column in zip(*spreads))
    if whole.b_is_mass:
        return _Fold(t, e, whole.volume)
    taus = []
    for k, (_, spread) in enumerate(spreads):
        seconds = [pencil.terms[k][0] for pencil, _ in classes]
        taus.append(min(max(_floor(floors, second, spread, pair), 0.0)
                        for second, pair in zip(seconds, _eighs(seconds, eighs))))
    return _Fold(t, e, _lowered(whole.volume * sum(taus), n + 1))


def _structured_solve(block: ComponentBlock, m: int, tol: float) -> Spectrum:
    """m smallest eigenpairs of a fourth-order block, by reflection class.

    The block splits into 2^n reflection classes (`_reflection_classes`, which
    checks their premises), each a per-axis pencil of about N / 2^n dof.  A
    class of at most DENSE_CUTOFF dof is solved once, completely, by
    `_dense_class`; each later count re-slices its pairs.  A larger class is
    solved by LOBPCG in the eigenbasis of its q_k (`_q_basis`), where Q and
    the preconditioner P^-1 are diagonal (P / n <= A <= P makes the
    iteration count independent of h; `_axis_bounds`), started from the unit
    vectors of the START_SPAN (count + GUARD) lowest values of Q, whole
    multiplets, which A ranks by Rayleigh-Ritz; its vectors are then rotated
    back to the class.  An iteration never leaves the class it starts in.

    Each orbit of classes under permutations of interchangeable axes
    (`_class_orbits`) is solved once, by its representative, asked first
    for the largest over its members of their share of Q's m lowest values
    plus one (`_class_shares`; summation order can break Q's ties
    differently in each member); an orbit whose share is 0 is not solved
    yet.  Each solve is certified on its folded class pencil
    (`_gram_certificate` with the block's `_fold_terms`), with bounds that
    hold for the unfolded pairs of the whole block; a class not solved again
    keeps its certificate, and each member of an orbit takes its
    representative's values and certificates bit for bit.  With sigma the
    m-th smallest value over the classes solved and its bound
    (`_merge_classes`), a solved orbit with a class whose top value is not
    clearly above sigma (top - its bound <= sigma) doubles its count, and an
    orbit not solved is solved for one value if its lower bound
    (`_class_floor`) is not above sigma; this repeats until no orbit
    changes.  A class solved then holds no eigenvalue below sigma that it
    did not return (as long as each class returns its lowest values, as a
    dense class does by construction), and one never solved is proven to
    hold none, so none is missed.  A class solve that stops short of tol
    fails the block at the end of its round, since its wide bounds would
    only grow it.  Only the class coordinates of the m pairs chosen, by
    (value, class), are kept; `_certified` judges the result, and its
    `vectors` unfolds them on first access (`_unfold`), each member's with
    the grid axes transposed, an exact permutation.
    """
    whole = _AxisPencil.of(block)
    norms = _gram_norms(whole)
    classes = _reflection_classes(whole)
    # eigenpairs of the classes' q_k and T_k, and floors, by matrix, shared by the
    # classes that share a factor
    eighs: dict = {}
    floors: dict = {}
    fold = _fold_terms(whole, classes, floors, eighs)
    b_eighs: dict = {}
    rotated: dict = {}
    q_pairs = [_eighs(_axis_bounds(pencil), eighs) for pencil, _ in classes]
    shares = _class_shares(q_pairs, m)
    orbits = _class_orbits(whole)

    @functools.cache
    def floor(i: int) -> float:
        return _class_floor(whole, classes[i][0], q_pairs[i], floors, eighs)

    @functools.cache
    def dense(i: int) -> tuple[np.ndarray, np.ndarray]:
        return _dense_class(classes[i][0], b_eighs)

    def solve(i: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        pencil = classes[i][0]
        if pencil.size <= DENSE_CUTOFF:
            values, vectors = dense(i)
            return values[:count], vectors[:, :count]
        apply, precondition, unrotate = _q_basis(pencil, q_pairs[i], rotated)
        multis = smallest_sums([values.tolist() for values, _ in q_pairs[i]],
                               START_SPAN * (count + GUARD), multiplet_limit=pencil.size // 2)[1]
        start = np.zeros((pencil.size, len(multis)))
        start[np.ravel_multi_index(tuple(zip(*multis)), pencil.shape),
              np.arange(len(multis))] = 1.0
        values, vectors = _lobpcg(apply, norms, precondition, start, count)
        return values[:count], unrotate(vectors[:, :count])

    # the count each orbit's representative is solved for, once it is solved
    counts: dict = {}
    for i, (representative, _) in enumerate(orbits):
        if shares[i]:
            counts[representative] = max(counts.get(representative, 0),
                                         min(shares[i] + 1, classes[i][0].size))
    # per representative: its values, class vectors, backward errors and bounds
    solved: dict = {}
    while True:
        for i in sorted(counts):
            if i not in solved or solved[i][0].size < counts[i]:
                values, vectors = solve(i, counts[i])
                solved[i] = (values, vectors, *_gram_certificate(
                    classes[i][0], values, vectors, norms, fold, b_eighs))
        members = [(i, representative, axes) for i, (representative, axes) in enumerate(orbits)
                   if representative in solved]
        values, eta, delta = (np.concatenate([solved[representative][field]
                                              for _, representative, _ in members])
                              for field in (0, 2, 3))
        if not np.all(eta <= tol):
            # a class that stopped short of tol has wide bounds, which the
            # rule below would answer by doubling its count round after round
            raise NumericalFailure(f"a reflection class missed the residual tolerance {tol} "
                                   f"(worst backward error {eta.max():.3e})")
        sizes = [solved[representative][0].size for _, representative, _ in members]
        order, sigma = _merge_classes(values, delta, np.repeat([i for i, _, _ in members], sizes),
                                      m)
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
    # keep the class coordinates of the chosen pairs only, per member its
    # representative's, to be unfolded on first access
    owner = np.repeat(np.arange(len(members)), sizes)[chosen]
    column = np.concatenate([np.arange(size) for size in sizes])[chosen]
    parts = []
    for index, (_, representative, axes) in enumerate(members):
        picked = np.flatnonzero(owner == index)
        if picked.size:
            parts.append((picked, solved[representative][1][:, column[picked]],
                          classes[representative][1], axes))
    return _certified(values[chosen], functools.partial(_unfold, whole.shape, parts),
                      (eta[chosen], delta[chosen]), tol)


def _unfold(shape: tuple[int, ...], parts) -> np.ndarray:
    """A block's vectors, of grid `shape`, from the class coordinates of its chosen pairs
    (`_structured_solve`): per part, the columns `picked`, unfolded by their class's
    folds and transposed to their member's axis order."""
    size = math.prod(shape)
    vectors = np.empty((size, sum(picked.size for picked, *_ in parts)))
    for picked, coordinates, folds, axes in parts:
        x = _along_axes(folds, coordinates, tuple(fold.shape[1] for fold in folds))
        vectors[:, picked] = np.transpose(x.reshape(shape + (-1,)),
                                          axes + (len(axes),)).reshape(size, -1)
    return vectors


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
