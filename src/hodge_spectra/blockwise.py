"""What the two block solvers share, with the standard library alone: the
blockwise merge of a problem's block solves (`merge_blocks`), the ordered
sums of per-axis values (`ordered_sums`, `smallest_sums`), the multiplet
gap, the rounding constant gamma_k and the tolerance check.

`separable` solves second-order blocks and `eigensolve` fourth-order ones;
both read these from here, so a fourth-order command never loads
`separable`, which re-exports them.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Callable, Optional

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


def merge_blocks(problem: FormProblem, m: int, tol: float, cache: Optional[dict],
                 solve: Callable) -> tuple[list[tuple[float, int, int]], dict]:
    """The m smallest (value, block index, index in its block's solve) over the blocks of
    a problem, and each block's solve by index.

    `solve(block, m, tol)` solves one block.  Identical blocks are solved
    once and replicated, which keeps discrete degree-independence and Hodge
    duality exact at the bit level.  `cache` may be shared across problems on
    the same grid to reuse block solves: a block is served by a cached solve
    of the same block and tolerance for at least as many values, of which the
    merge reads the first ones.
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
    cache = {} if cache is None else cache
    merged, results = [], {}
    for index, block in enumerate(problem.blocks):
        m_block = min(m, block.size - block.kernel_dim)
        key = (block.signature, tol)
        if key not in cache or len(cache[key].values) < m_block:
            cache[key] = solve(block, m_block, tol)
        results[index] = cache[key]
        merged.extend((float(cache[key].values[j]), index, j) for j in range(m_block))
    merged.sort()
    return merged[:m], results
