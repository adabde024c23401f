"""``MPI_Type_create_subarray``: an n-dimensional slab of a larger array.

The paper benchmarks this as its second derived-type scheme: a
``1 x N`` subarray of a ``2 x N`` array picks out one row interleaved
with the other, giving exactly the stride-2 layout of the vector type.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

from ..errors import DatatypeError
from .datatype import Datatype
from .runs import ContigRun, Run, StridedRuns, coalesce, runs_from_blocks

__all__ = ["SubarrayType", "make_subarray", "ORDER_C", "ORDER_FORTRAN"]

ORDER_C = "C"
ORDER_FORTRAN = "F"

#: Guard for the sparse-oldtype slow path (outer offsets x inner runs).
_EXPANSION_LIMIT = 1_000_000


class SubarrayType(Datatype):
    """The subarray ``[starts, starts+subsizes)`` of an array of shape
    ``sizes`` whose elements are ``oldtype``.

    Per the MPI standard, the extent of the subarray type is the extent
    of the *full* array, so consecutive elements tile full arrays.
    """

    combiner = "subarray"

    def __init__(
        self,
        sizes: Sequence[int],
        subsizes: Sequence[int],
        starts: Sequence[int],
        oldtype: Datatype,
        order: str = ORDER_C,
    ):
        sizes = [int(s) for s in sizes]
        subsizes = [int(s) for s in subsizes]
        starts = [int(s) for s in starts]
        ndim = len(sizes)
        if ndim == 0:
            raise DatatypeError("Type_create_subarray: zero-dimensional array")
        if not (len(subsizes) == len(starts) == ndim):
            raise DatatypeError("Type_create_subarray: dimension mismatch")
        if any(s <= 0 for s in sizes):
            raise DatatypeError("Type_create_subarray: array sizes must be positive")
        if any(s < 0 for s in subsizes):
            raise DatatypeError("Type_create_subarray: negative subsizes")
        for d in range(ndim):
            if starts[d] < 0 or starts[d] + subsizes[d] > sizes[d]:
                raise DatatypeError(
                    f"Type_create_subarray: dimension {d}: "
                    f"[{starts[d]}, {starts[d] + subsizes[d]}) outside [0, {sizes[d]})"
                )
        if order not in (ORDER_C, ORDER_FORTRAN):
            raise DatatypeError(f"Type_create_subarray: unknown order {order!r}")
        oldtype._check_not_freed()
        nelems = prod(subsizes)
        super().__init__(
            size=nelems * oldtype.size,
            lb=0,
            ub=prod(sizes) * oldtype.extent,
            name=f"subarray({sizes},{subsizes},{starts},{order},{oldtype.name})",
        )
        self.sizes = sizes
        self.subsizes = subsizes
        self.starts = starts
        self.order = order
        self.oldtype = oldtype
        self._snapshot = self._snapshot_runs()

    # ------------------------------------------------------------------
    def _element_strides(self) -> list[int]:
        """Stride of each dimension in old-type elements."""
        ndim = len(self.sizes)
        strides = [1] * ndim
        if self.order == ORDER_C:
            for d in range(ndim - 2, -1, -1):
                strides[d] = strides[d + 1] * self.sizes[d + 1]
        else:
            for d in range(1, ndim):
                strides[d] = strides[d - 1] * self.sizes[d - 1]
        return strides

    def _snapshot_runs(self) -> list[Run]:
        if any(s == 0 for s in self.subsizes) or self.oldtype.size == 0:
            return []
        old = self.oldtype
        ext = old.extent
        strides = self._element_strides()
        ndim = len(self.sizes)
        inner = ndim - 1 if self.order == ORDER_C else 0
        outer_dims = [d for d in range(ndim) if d != inner]
        # Iteration over the outer dims follows the element order of the
        # subarray (row-major for C, column-major for Fortran); for C
        # order that is plain row-major over outer_dims, for Fortran it
        # is column-major, i.e. row-major over reversed(outer_dims).
        iter_dims = outer_dims if self.order == ORDER_C else list(reversed(outer_dims))
        inner_start = self.starts[inner] * strides[inner] * ext
        inner_count = self.subsizes[inner]
        inner_runs = old.flatten(inner_count)
        # Per outer dim: (block count, byte step), in iteration order
        # (first dim slowest).
        dim_specs = [(self.subsizes[d], strides[d] * ext) for d in iter_dims]
        base = inner_start + sum(self.starts[d] * strides[d] * ext for d in iter_dims)
        if len(inner_runs) == 1 and isinstance(inner_runs[0], ContigRun):
            run = inner_runs[0]
            analytic = _analytic_blocks(base + run.offset, dim_specs, run.length)
            if analytic is not None:
                return coalesce(analytic)
            offsets = _fold_offsets(dim_specs) + base + run.offset
            return coalesce(_uniform_blocks(offsets, run.length))
        offsets = _fold_offsets(dim_specs) + base
        if offsets.size * len(inner_runs) > _EXPANSION_LIMIT:
            raise DatatypeError(
                f"{self.name}: sparse old type over {offsets.size} outer blocks exceeds "
                f"the expansion limit; use a dense old type"
            )
        out: list[Run] = []
        for shift in offsets.tolist():
            out.extend(run.shifted(shift) for run in inner_runs)
        return coalesce(out)

    def _build_runs(self) -> list[Run]:
        return list(self._snapshot)


def _fold_offsets(dim_specs: list[tuple[int, int]]) -> np.ndarray:
    """Outer-block byte offsets (without start contributions): the fold
    of ``i_d * step_d`` over the iteration dims, first dim slowest."""
    offsets = np.zeros(1, dtype=np.int64)
    for count, step in dim_specs:
        axis = np.arange(count, dtype=np.int64) * step
        offsets = (offsets[:, None] + axis[None, :]).reshape(-1)
    return offsets


def _analytic_blocks(first_offset: int, dim_specs: list[tuple[int, int]],
                     length: int) -> list[Run] | None:
    """O(1) run construction when the nested outer dims iterate at one
    uniform stride — i.e. each dim's step equals the inner dims' full
    span (``step_d == count_{d+1} * step_{d+1}``).  Returns ``None``
    when the pattern is not uniform (caller falls back to arrays)."""
    specs = [(c, s) for c, s in dim_specs if c > 1]
    if not specs:
        return [ContigRun(first_offset, length)]
    for (c_outer, s_outer), (c_inner, s_inner) in zip(specs, specs[1:]):
        if s_outer != c_inner * s_inner:
            return None
    total = 1
    for c, _ in specs:
        total *= c
    step = specs[-1][1]
    if step == length:
        return [ContigRun(first_offset, length * total)]
    if abs(step) < length:
        return None
    return [StridedRuns(first_offset, total, length, step)]


def _uniform_blocks(offsets: np.ndarray, length: int) -> list[Run]:
    """Runs for equal-length blocks at the given offsets."""
    return runs_from_blocks(offsets, np.full(offsets.shape, length, dtype=np.int64))


def make_subarray(
    sizes: Sequence[int],
    subsizes: Sequence[int],
    starts: Sequence[int],
    oldtype: Datatype,
    order: str = ORDER_C,
) -> SubarrayType:
    """Functional constructor mirroring ``MPI_Type_create_subarray``."""
    return SubarrayType(sizes, subsizes, starts, oldtype, order)
