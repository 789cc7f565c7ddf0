"""Second-order blocks solved from closed-form 1D eigenpairs, with the
standard library alone.

A Dirichlet or absolute Laplacian block is the Kronecker sum of the 1D
pencils (S_k, W_k) whose entries `discretize._axis_pencil` writes, whose
eigenpairs are known in closed form (Lynch, Rice & Thomas, Numer. Math. 6,
1964).  On an axis of c cells and spacing h, with N = c + 1, they are
lambda_j = (4 / h^2) sin^2(j pi / (2N)), for j = 1..c with value faces and
j = 0..N with derivative faces, and the vectors sin(j pi i / N) on the
interior nodes i = 1..c (DST-I) and cos(j pi i / N) on the nodes i = 0..N
(DCT-I), scaled to ||v||_{W_k} = 1.  Every 1D eigenvalue is known, so the
count of block eigenvalues below any value is exact: the m smallest sums of
1D values (`smallest_sums`) are the block's m smallest eigenvalues, none
missed, and the constant kernel at absolute p = 0, the all-lowest
multi-index, is skipped rather than deflated.

The pairs are certified from the 1D pencils alone (`_axis_certificate`,
`_certificates`), read from the same `_axis_pencil` that the assembled
`block.a` and `block.b` are built from, so the bounds hold for the
Kronecker product of the float 1D vectors against those too.  No vector of
block size is formed to solve or certify a block: `solve_block` leaves
`block_vectors`, which forms the Kronecker products with numpy, to run on
first access to its spectrum's `vectors`.  `blockwise.solve_problem` sends
second-order blocks here, so `box` and `converge` on them load neither
numpy nor `eigensolve`.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING

from . import discretize
from .blockwise import Spectrum, _gamma, smallest_sums
from .errors import NumericalFailure

if TYPE_CHECKING:
    from .discretize import ComponentBlock


def _sin_pi(num: int, den: int) -> float:
    """sin(pi num / den) for integers num and den > 0, the angle reduced exactly to
    [0, pi / 2] first, so that it carries one relative rounding at any num."""
    num %= 2 * den
    sign = 1.0
    if num >= den:
        num, sign = num - den, -1.0
    if 2 * num > den:
        num = den - num
    return sign * math.sin(math.pi * num / den)


def axis_values(cells: int, h: float, derivative: bool, count: int) -> list[float]:
    """The `count` smallest eigenvalues of an axis's 1D pencil (all, if it has fewer),
    ascending; with derivative faces the first is exactly 0."""
    size, first = (cells + 2, 0) if derivative else (cells, 1)
    return [(2.0 * _sin_pi(j, 2 * cells + 2) / h) ** 2
            for j in range(first, first + min(count, size))]


def axis_vector(cells: int, h: float, derivative: bool, index: int) -> list[float]:
    """The W-normalized eigenvector of the `index`-th smallest eigenvalue of an axis's
    1D pencil (counted from 0)."""
    n = cells + 1
    if derivative:
        # cos(j pi i / N) = sin(pi (N - 2 j i) / (2N)), j = index
        scale = math.sqrt((1.0 if index in (0, n) else 2.0) / (h * n))
        return [scale * _sin_pi(n - 2 * index * i, 2 * n) for i in range(n + 1)]
    scale = math.sqrt(2.0 / (h * n))
    return [scale * _sin_pi((index + 1) * i, n) for i in range(1, n)]


def _axis_certificate(cells: int, h: float, derivative: bool, index: int,
                      value: float) -> tuple[float, float, float, float]:
    """Per-axis certificate pieces of the 1D pair (lambda, v) of (S, W), v the
    `index`-th closed-form vector and lambda = `value`.

    rho = S v - lambda W v is formed with |fl(rho) - rho| <= g = gamma_4
    (|S||v| + |lambda| W|v|) (at most 3 nonzero terms, two products, one
    subtraction; Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., sec. 3.5).  Returns (||fl(rho)||_{W^-1} + ||g||_{W^-1}) / ||v||_W,
    which bounds ||rho||_{W^-1} / ||v||_W; ||(|S||v|)||_{W^-1} / ||v||_W;
    ||fl(rho)||_2 / ||Wv||_2; and ||Wv||_2 / ||v||_2.  The sums run node by node.
    """
    main, off, weights = discretize._axis_pencil(cells, h, derivative)
    v = axis_vector(cells, h, derivative, index)
    padded = [0.0] + v + [0.0]
    g = _gamma(4)
    rho_w = rounding_w = abs_sv_w = v_wv = wv_wv = rho_rho = v_v = 0.0
    for i, (d, w, x) in enumerate(zip(main, weights, v)):
        left, right = padded[i], padded[i + 2]
        wv = w * x
        rho = (off * left + d * x) + off * right - wv * value
        abs_sv = (abs(off) * abs(left) + abs(d) * abs(x)) + abs(off) * abs(right)
        rounding = g * (abs_sv + w * abs(x) * abs(value))
        rho_w += rho * rho / w
        rounding_w += rounding * rounding / w
        abs_sv_w += abs_sv * abs_sv / w
        v_wv += x * wv
        wv_wv += wv * wv
        rho_rho += rho * rho
        v_v += x * x
    norm_v, norm_wv = math.sqrt(v_wv), math.sqrt(wv_wv)
    return ((math.sqrt(rho_w) + math.sqrt(rounding_w)) / norm_v, math.sqrt(abs_sv_w) / norm_v,
            math.sqrt(rho_rho) / norm_wv, norm_wv / math.sqrt(v_v))


def _norms(axes) -> tuple[float, float]:
    """||A||_1 and ||B||_1 of the Kronecker-sum pencil.  A is symmetric, so ||A||_1 is
    the largest entry of |A| 1 = sum_k w_1 x ... x |S_k| 1 x ... x w_n, taken over
    the distinct (weight, row sum) pairs of each axis (its end and inner nodes),
    every combination of which is a node of the grid; ||B||_1 is the product of the
    largest weights, which rounds as B's largest entry does."""
    per_axis, largest = [], []
    for axis in axes:
        main, off, weights = discretize._axis_pencil(*axis)
        ends = (weights[0], abs(main[0]) + abs(off))
        inner = (weights[1], abs(off) + abs(main[1]) + abs(off))
        per_axis.append((ends, inner))
        largest.append(max(weights))
    norm_a = max(sum(math.prod(row if j == k else weight for j, (weight, row) in enumerate(nodes))
                     for k in range(len(nodes)))
                 for nodes in itertools.product(*per_axis))
    return norm_a, math.prod(largest)


def _certificates(axes, values, sums, multis) -> tuple[list[float], list[float]]:
    """Backward errors and error bounds of the pairs (theta, x) of the Kronecker-sum
    pencil (K, M) of the 1D pencils (S_k, W_k) of `axes`, from the 1D pairs that
    `multis` index in `values`.

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
    ||W_j v_j||_2 + |sum_k lambda_k - theta| ||Mx||_2.  Each distinct 1D pair
    is certified once, interchangeable axes included.
    """
    n = len(axes)
    norm_a, norm_b = _norms(axes)
    longest = max(c + 2 if derivative else c for c, _, derivative in axes)
    widen = 1.0 + _gamma(2 * longest + 2 * n + 24)
    pieces: dict = {}
    eta, delta = [], []
    for theta, multi in zip(sums, multis):
        parts, lambdas = [], []
        for axis, axis_values, index in zip(axes, values, multi):
            if (axis, index) not in pieces:
                pieces[axis, index] = _axis_certificate(*axis, index, axis_values[index])
            parts.append(pieces[axis, index])
            lambdas.append(abs(axis_values[index]))
        bound, assembly, rho, scale = zip(*parts)
        theta_rounding = _gamma(n - 1) * sum(lambdas)
        eta.append((sum(rho) + theta_rounding) * math.prod(scale)
                   / (norm_a + abs(theta) * norm_b))
        delta.append((sum(bound) + theta_rounding
                      + _gamma(2 * n - 2) * (sum(assembly) + abs(theta))) * widen)
    return eta, delta


def block_vectors(block: ComponentBlock, multis):
    """The eigenvectors of a second-order block's pairs: Kronecker products of its
    closed-form 1D vectors (`axis_vector`), one column per multi-index in `multis`.
    Loads numpy."""
    import numpy as np

    axes = discretize.block_axes(block)

    @functools.cache
    def column(k: int, j: int):
        return np.array(axis_vector(*axes[k], j))

    return _kron_columns(block.size, column, multis)


def _kron_columns(size: int, column, multis):
    """Kronecker products of 1D vectors, one column of `size` per multi-index in
    `multis`, the factor of axis k being column(k, multi[k]) (axis 1 slowest)."""
    import numpy as np

    vectors = np.empty((size, len(multis)))
    for col, multi in enumerate(multis):
        vectors[:, col] = functools.reduce(np.kron, [column(k, j) for k, j in enumerate(multi)])
    return vectors


def solve_block(block: ComponentBlock, m: int, tol: float) -> Spectrum:
    """m smallest eigenpairs of a second-order block from its 1D pencils, as values and
    certificates, its vectors formed on first access (`block_vectors`);
    NumericalFailure carries them when a backward error exceeds tol.

    The block's eigenvalues are all sums lambda_{j_1} + ... + lambda_{j_n} of
    1D eigenvalues; an index past m (m + 1 with a kernel) on any axis comes
    after at least as many others, so each axis's m (+ 1) lowest suffice.
    """
    axes = discretize.block_axes(block)
    skip = bool(block.kernel_dim)
    values = [axis_values(*axis, m + skip) for axis in axes]
    sums, multis = smallest_sums(values, m, skip_first=skip)
    eta, delta = _certificates(axes, values, sums, multis)
    spectrum = Spectrum(kind=None, degree=None, values=sums, residuals=eta, error_bounds=delta,
                        vectors=lambda: block_vectors(block, multis),
                        deflated_kernel_dim=block.kernel_dim)
    if not all(r <= tol for r in eta):
        raise NumericalFailure(
            f"residual tolerance {tol} not met (worst backward error {max(eta):.3e})",
            partial=spectrum)
    return spectrum
