"""``MPI_Type_create_resized``: override a type's lower bound and extent.

The standard tool for adjusting element stepping — e.g. making a
one-column type of a matrix step by one element so columns interleave.
"""

from __future__ import annotations

from .datatype import Datatype
from .runs import Run

__all__ = ["ResizedType", "make_resized"]


class ResizedType(Datatype):
    """Same typemap as ``oldtype``; new ``lb`` and ``extent``."""

    combiner = "resized"

    def __init__(self, oldtype: Datatype, lb: int, extent: int):
        oldtype._check_not_freed()
        super().__init__(
            size=oldtype.size,
            lb=int(lb),
            ub=int(lb) + int(extent),
            name=f"resized({oldtype.name},lb={lb},extent={extent})",
        )
        self.oldtype = oldtype
        self._snapshot: list[Run] = list(oldtype._flatten())

    def _build_runs(self) -> list[Run]:
        return list(self._snapshot)


def make_resized(oldtype: Datatype, lb: int, extent: int) -> ResizedType:
    """Functional constructor mirroring ``MPI_Type_create_resized``."""
    return ResizedType(oldtype, lb, extent)
