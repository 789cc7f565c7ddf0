"""The library's one result type and one problem solve, with the standard
library alone, and what the two block solvers share.

`Spectrum` holds a problem's or a block's smallest eigenvalues with their
certificates, as tuples of floats, and forms its eigenvectors on first
access to `vectors`.  `solve_problem` solves a problem block by block and
merges the blocks' spectra: it sends a Dirichlet or absolute block to
`separable.solve_block` and a fourth-order one to
`eigensolve._solve_fourth_order`, loading each on first call, so a
second-order problem loads neither numpy nor `eigensolve`, and a
fourth-order one never loads `separable`.  Both solvers read from here the
ordered sums of per-axis values (`ordered_sums`, `smallest_sums`), the
multiplet gap, the rounding constant gamma_k and the tolerance check.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Optional

from . import DEFAULT_TOL, _Record

if TYPE_CHECKING:
    from .discretize import FormProblem

_UNIT_ROUNDOFF = 2.0 ** -53
# relative gap below which equal eigenvalues are labeled as one multiplet
MULTIPLICITY_GAP = 1e-7


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _check_tol(tol: float) -> None:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def ordered_sums(values: list):
    """Yield (sum, flat index, multi-index) for every choice of one value per axis,
    in (sum, flat index) order, lazily.

    `values` holds each axis's values in ascending order.  A sum is added in
    axis order, so it equals the entry of the grid
    functools.reduce(np.add.outer, values) bit for bit, and the sums come in
    the order a stable argsort of that grid ranks them, axis 1 slowest.

    A heap holds the frontier: each multi-index is pushed by its one parent,
    itself less its last nonzero axis by one, whose sum and flat index are no
    larger (the values ascend, and rounding is monotone).  So every
    multi-index pops after its parent and before any of larger (value, flat
    index), and each is pushed once.
    """
    shape = [len(axis) for axis in values]
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]

    def entry(multi):
        total_value = values[0][multi[0]]
        for axis, index in zip(values[1:], multi[1:]):
            total_value += axis[index]
        return total_value, sum(s * i for s, i in zip(strides, multi)), multi

    heap = [entry((0,) * len(shape))]
    while heap:
        item = heapq.heappop(heap)
        multi = item[2]
        last = max((k for k, index in enumerate(multi) if index), default=0)
        for k in range(last, len(shape)):
            if multi[k] + 1 < shape[k]:
                heapq.heappush(heap, entry(multi[:k] + (multi[k] + 1,) + multi[k + 1:]))
        yield item


def smallest_sums(values: list, count: int, skip_first: bool = False,
                  multiplet_limit: int = 0) -> tuple[list[float], list[tuple[int, ...]]]:
    """The `count` smallest sums of one value per axis, with their multi-indices, in
    the order of `ordered_sums`.

    `skip_first` drops flat index 0, the all-lowest multi-index.  With
    `multiplet_limit`, count grows, up to that limit, until the next sum lies
    outside the last one's multiplet.
    """
    limit = min(multiplet_limit, math.prod(len(axis) for axis in values) - skip_first - 1)
    sums, multis = [], []
    for value, flat, multi in ordered_sums(values):
        if skip_first and flat == 0:
            continue
        if len(sums) >= count and not (len(sums) < limit
                                       and value <= sums[-1] * (1.0 + MULTIPLICITY_GAP)):
            break
        sums.append(value)
        multis.append(multi)
    return sums, multis


class Spectrum(_Record):
    """Sorted smallest eigenvalues of a problem or a block with their certificates.

    `values`, `residuals` and `error_bounds` are tuples of floats:
    `residuals` holds each pair's normwise backward error (an upper bound on
    it for second-order pairs), `error_bounds` an absolute bound on the
    distance from each value to an eigenvalue.  `vectors`, one column per
    value, is given as an array, as None, or as a function of no arguments
    that forms the array, called on first access; a solve leaves such a
    function, so that no vector is formed unless a caller reads them.
    """

    kind: Optional[str]
    degree: Optional[int]
    values: tuple[float, ...]
    residuals: tuple[float, ...]
    error_bounds: tuple[float, ...]
    deflated_kernel_dim: int = 0

    def __init__(self, kind, degree, values, residuals, error_bounds, vectors=None,
                 deflated_kernel_dim=deflated_kernel_dim):
        super().__init__(kind, degree, _floats(values), _floats(residuals),
                         _floats(error_bounds), deflated_kernel_dim)
        self._vectors = vectors
        if not len(self.values) == len(self.residuals) == len(self.error_bounds):
            raise ValueError("values, residuals and error_bounds must align")
        if not all(math.isfinite(bound) and bound >= 0.0 for bound in self.error_bounds):
            raise ValueError("error_bounds must be finite and >= 0")
        if any(later < earlier for earlier, later in zip(self.values, self.values[1:])):
            raise ValueError("values must be sorted ascending")
        if self.deflated_kernel_dim > 0 and self.values and self.values[0] <= 0.0:
            raise ValueError("deflated spectrum must be strictly positive")

    @property
    def vectors(self):
        if callable(self._vectors):
            self._vectors = self._vectors()
        return self._vectors

    @property
    def label(self) -> str:
        kind = self.kind or "pencil"
        return f"{kind} p={self.degree}" if self.degree is not None else kind

    def multiplicity_of_first(self) -> int:
        """Number of reported values within the labeling gap of the smallest."""
        if not self.values:
            return 0
        first = self.values[0]
        scale = max(abs(first), 1e-300)
        return sum(abs(value - first) <= MULTIPLICITY_GAP * scale for value in self.values)


def _floats(items) -> tuple[float, ...]:
    """`items` as a tuple of floats; nested items (the rows of a 2D array) do not align
    with the flat ones."""
    if any(hasattr(item, "__len__") for item in items):
        raise ValueError("values, residuals and error_bounds must align")
    return tuple(float(item) for item in items)


def solve_problem(problem: FormProblem, m: int, tol: float = DEFAULT_TOL,
                  cache: Optional[dict] = None) -> Spectrum:
    """The m smallest eigenvalues of a problem with their certificates: the m smallest
    (value, block index, index in its block's solve) over its blocks' solves.

    A Dirichlet or absolute block is solved by `separable.solve_block`, a
    fourth-order one by `eigensolve._solve_fourth_order`.  Identical blocks
    are solved once and replicated, which keeps discrete degree-independence
    and Hodge duality exact at the bit level.  A block's kernel (the
    constants at absolute p = 0) is left out, so the first value is
    positive.  `cache` may be shared across problems on the same grid to
    reuse block solves: a block is served by a cached solve of the same
    block and tolerance for at least as many values, of which the merge
    reads the first ones.  The vectors, formed on first access, place each
    chosen block column at its block's offset (`_place_columns`).
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
    if problem.kind.is_fourth_order:
        from .eigensolve import _solve_fourth_order as solve
    else:
        from .separable import solve_block as solve
    cache = {} if cache is None else cache
    merged, results = [], {}
    for index, block in enumerate(problem.blocks):
        m_block = min(m, block.size - block.kernel_dim)
        key = (block.signature, tol)
        if key not in cache or len(cache[key].values) < m_block:
            cache[key] = solve(block, m_block, tol)
        results[index] = cache[key]
        merged.extend((cache[key].values[j], index, j) for j in range(m_block))
    merged.sort()
    chosen = merged[:m]
    # what the vectors need, without the problem, whose blocks may hold
    # assembled matrices
    dof_count = problem.dof_count
    columns = [(problem.blocks[i].offset, results[i], j) for _, i, j in chosen]
    return Spectrum(
        kind=problem.kind.value,
        degree=problem.degree,
        values=[value for value, _, _ in chosen],
        residuals=[results[i].residuals[j] for _, i, j in chosen],
        error_bounds=[results[i].error_bounds[j] for _, i, j in chosen],
        vectors=lambda: _place_columns(dof_count, columns),
        deflated_kernel_dim=kernel_dim,
    )


def _place_columns(dof_count: int, columns):
    """A problem's vectors, of `dof_count` rows: for each (offset, block spectrum, j) of
    `columns`, a column holding the block's j-th vector at the offset.  Loads numpy."""
    import numpy as np

    vectors = np.zeros((dof_count, len(columns)))
    for col, (offset, spectrum, j) in enumerate(columns):
        block_vectors = spectrum.vectors
        vectors[offset:offset + block_vectors.shape[0], col] = block_vectors[:, j]
    return vectors
