"""``MPI_Type_contiguous``."""

from __future__ import annotations

from ..errors import DatatypeError
from .datatype import Datatype
from .runs import Run

__all__ = ["ContiguousType", "make_contiguous"]


class ContiguousType(Datatype):
    """``count`` consecutive elements of ``oldtype``.

    Layout is snapshotted from the old type at construction, so freeing
    the old type later does not invalidate this one (MPI semantics).
    """

    combiner = "contiguous"

    def __init__(self, count: int, oldtype: Datatype):
        if count < 0:
            raise DatatypeError(f"Type_contiguous: negative count {count}")
        oldtype._check_not_freed()
        super().__init__(
            size=count * oldtype.size,
            lb=oldtype.lb,
            ub=oldtype.lb + count * oldtype.extent,
            name=f"contiguous({count},{oldtype.name})",
        )
        self.count = count
        self.oldtype = oldtype
        self._snapshot: list[Run] = oldtype.flatten(count) if count > 0 else []

    def _build_runs(self) -> list[Run]:
        return list(self._snapshot)


def make_contiguous(count: int, oldtype: Datatype) -> ContiguousType:
    """Functional constructor mirroring ``MPI_Type_contiguous``."""
    return ContiguousType(count, oldtype)
