"""``MPI_Type_create_struct``: heterogeneous fields at byte displacements."""

from __future__ import annotations

from typing import Sequence

from ..errors import DatatypeError
from .datatype import Datatype
from .runs import Run, coalesce

__all__ = ["StructType", "make_struct"]


class StructType(Datatype):
    """``blocklengths[i]`` elements of ``types[i]`` at byte
    ``displacements[i]``, for each field ``i``.

    Like real MPI, no alignment padding is invented: the extent is
    exactly the typemap's span.  Wrap in ``ResizedType`` to emulate C
    struct padding.
    """

    combiner = "struct"

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements: Sequence[int],
        types: Sequence[Datatype],
    ):
        blocklengths = [int(b) for b in blocklengths]
        displacements = [int(d) for d in displacements]
        types = list(types)
        if not (len(blocklengths) == len(displacements) == len(types)):
            raise DatatypeError("Type_create_struct: argument lists must have equal length")
        if any(b < 0 for b in blocklengths):
            raise DatatypeError("Type_create_struct: negative blocklength")
        for t in types:
            t._check_not_freed()
        size = sum(b * t.size for b, t in zip(blocklengths, types))
        bounds = [
            (d + t.lb, d + (b - 1) * t.extent + t.ub)
            for b, d, t in zip(blocklengths, displacements, types)
            if b > 0
        ]
        if bounds:
            lo = min(x for x, _ in bounds)
            hi = max(y for _, y in bounds)
        else:
            lo = hi = 0
        super().__init__(size=size, lb=lo, ub=hi, name=f"struct(n={len(types)})")
        self.blocklengths = blocklengths
        self.displacements = displacements
        self.types = types
        self._snapshot = self._snapshot_runs()

    def _snapshot_runs(self) -> list[Run]:
        out: list[Run] = []
        for blen, disp, dtype in zip(self.blocklengths, self.displacements, self.types):
            if blen == 0 or dtype.size == 0:
                continue
            out.extend(run.shifted(disp) for run in dtype.flatten(blen))
        return coalesce(out)

    def _build_runs(self) -> list[Run]:
        return list(self._snapshot)


def make_struct(
    blocklengths: Sequence[int],
    displacements: Sequence[int],
    types: Sequence[Datatype],
) -> StructType:
    """Functional constructor mirroring ``MPI_Type_create_struct``."""
    return StructType(blocklengths, displacements, types)
