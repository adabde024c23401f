"""``MPI_Type_vector`` and ``MPI_Type_create_hvector``.

The workhorse of the paper: the benchmark's non-contiguous layout is
``Type_vector(count=N/2, blocklength=1, stride=2, DOUBLE)`` — every
other element of a double array.
"""

from __future__ import annotations

from ..errors import DatatypeError
from .datatype import Datatype
from .runs import ContigRun, Run, StridedRuns, coalesce, replicate

__all__ = ["VectorType", "HVectorType", "make_vector", "make_hvector"]


class _BaseVector(Datatype):
    """Shared implementation; ``stride_bytes`` differs per subclass."""

    def __init__(
        self,
        count: int,
        blocklength: int,
        stride_bytes: int,
        oldtype: Datatype,
        *,
        name: str,
    ):
        if count < 0:
            raise DatatypeError(f"{name}: negative count")
        if blocklength < 0:
            raise DatatypeError(f"{name}: negative blocklength")
        oldtype._check_not_freed()
        block_extent = blocklength * oldtype.extent
        if count > 0 and blocklength > 0:
            # Bounds: the typemap is monotone in the block index, so the
            # extremes occur at the first and last block.
            first = 0
            last = (count - 1) * stride_bytes
            lo = min(first, last) + oldtype.lb
            hi = max(first, last) + (blocklength - 1) * oldtype.extent + oldtype.ub
        else:
            lo, hi = oldtype.lb, oldtype.lb
        super().__init__(size=count * blocklength * oldtype.size, lb=lo, ub=hi, name=name)
        self.count = count
        self.blocklength = blocklength
        self.stride_bytes = stride_bytes
        self.oldtype = oldtype
        self._snapshot = self._snapshot_runs()

    def _snapshot_runs(self) -> list[Run]:
        if self.count == 0 or self.blocklength == 0 or self.oldtype.size == 0:
            return []
        block_runs = self.oldtype.flatten(self.blocklength)
        if len(block_runs) == 1 and isinstance(block_runs[0], ContigRun):
            run = block_runs[0]
            if self.count == 1:
                return [run]
            if self.stride_bytes == run.length:
                return [ContigRun(run.offset, run.length * self.count)]
            if abs(self.stride_bytes) < run.length:
                raise DatatypeError(
                    f"{self.name}: blocks overlap (stride {self.stride_bytes} bytes "
                    f"< block {run.length} bytes); overlapping typemaps are not supported"
                )
            return [StridedRuns(run.offset, self.count, run.length, self.stride_bytes)]
        return coalesce(replicate(block_runs, self.count, self.stride_bytes))

    def _build_runs(self) -> list[Run]:
        return list(self._snapshot)


class VectorType(_BaseVector):
    """``MPI_Type_vector``: stride counted in old-type extents."""

    combiner = "vector"

    def __init__(self, count: int, blocklength: int, stride: int, oldtype: Datatype):
        self.stride = stride
        super().__init__(
            count,
            blocklength,
            stride * oldtype.extent,
            oldtype,
            name=f"vector({count},{blocklength},{stride},{oldtype.name})",
        )


class HVectorType(_BaseVector):
    """``MPI_Type_create_hvector``: stride counted in bytes."""

    combiner = "hvector"

    def __init__(self, count: int, blocklength: int, stride: int, oldtype: Datatype):
        super().__init__(
            count,
            blocklength,
            stride,
            oldtype,
            name=f"hvector({count},{blocklength},{stride}B,{oldtype.name})",
        )
        self.stride = stride


def make_vector(count: int, blocklength: int, stride: int, oldtype: Datatype) -> VectorType:
    """Functional constructor mirroring ``MPI_Type_vector``."""
    return VectorType(count, blocklength, stride, oldtype)


def make_hvector(count: int, blocklength: int, stride: int, oldtype: Datatype) -> HVectorType:
    """Functional constructor mirroring ``MPI_Type_create_hvector``."""
    return HVectorType(count, blocklength, stride, oldtype)
