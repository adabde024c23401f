"""Named basic datatypes (MPI_DOUBLE, MPI_INT, ...).

Each basic type is backed by a numpy dtype; basic types are born
committed, cannot be freed (MPI forbids freeing named types), and are
the leaves of every derived type.  ``PACKED`` is the special byte-like
type produced by ``MPI_Pack``.
"""

from __future__ import annotations

import numpy as np

from ..errors import DatatypeError
from .datatype import Datatype
from .runs import ContigRun, Run

__all__ = [
    "BasicType",
    "from_numpy_dtype",
    "BYTE",
    "PACKED",
    "CHAR",
    "SIGNED_CHAR",
    "UNSIGNED_CHAR",
    "SHORT",
    "UNSIGNED_SHORT",
    "INT",
    "UNSIGNED",
    "LONG",
    "UNSIGNED_LONG",
    "LONG_LONG",
    "UNSIGNED_LONG_LONG",
    "FLOAT",
    "DOUBLE",
    "C_FLOAT_COMPLEX",
    "C_DOUBLE_COMPLEX",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "UINT8",
    "UINT16",
    "UINT32",
    "UINT64",
    "FLOAT32",
    "FLOAT64",
    "BASIC_TYPES",
]


class BasicType(Datatype):
    """A named elementary datatype backed by a numpy dtype."""

    combiner = "named"

    # Plans come from the named-type memo, not the shared plan LRU
    # (see plan_for).
    _plan_uncached = True

    def __init__(self, name: str, np_dtype: np.dtype | str):
        dtype = np.dtype(np_dtype)
        super().__init__(size=dtype.itemsize, lb=0, ub=dtype.itemsize, name=name)
        self.np_dtype = dtype
        self._committed = True  # named types are always committed

    def _build_runs(self) -> list[Run]:
        return [ContigRun(0, self.np_dtype.itemsize)]

    def free(self) -> None:
        raise DatatypeError(f"named datatype {self.name!r} cannot be freed")

    Free = free


# ----------------------------------------------------------------------
# The named type table
# ----------------------------------------------------------------------
BYTE = BasicType("BYTE", np.uint8)
PACKED = BasicType("PACKED", np.uint8)
CHAR = BasicType("CHAR", np.int8)
SIGNED_CHAR = BasicType("SIGNED_CHAR", np.int8)
UNSIGNED_CHAR = BasicType("UNSIGNED_CHAR", np.uint8)
SHORT = BasicType("SHORT", np.int16)
UNSIGNED_SHORT = BasicType("UNSIGNED_SHORT", np.uint16)
INT = BasicType("INT", np.int32)
UNSIGNED = BasicType("UNSIGNED", np.uint32)
LONG = BasicType("LONG", np.int64)
UNSIGNED_LONG = BasicType("UNSIGNED_LONG", np.uint64)
LONG_LONG = BasicType("LONG_LONG", np.int64)
UNSIGNED_LONG_LONG = BasicType("UNSIGNED_LONG_LONG", np.uint64)
FLOAT = BasicType("FLOAT", np.float32)
DOUBLE = BasicType("DOUBLE", np.float64)
C_FLOAT_COMPLEX = BasicType("C_FLOAT_COMPLEX", np.complex64)
C_DOUBLE_COMPLEX = BasicType("C_DOUBLE_COMPLEX", np.complex128)
INT8 = BasicType("INT8", np.int8)
INT16 = BasicType("INT16", np.int16)
INT32 = BasicType("INT32", np.int32)
INT64 = BasicType("INT64", np.int64)
UINT8 = BasicType("UINT8", np.uint8)
UINT16 = BasicType("UINT16", np.uint16)
UINT32 = BasicType("UINT32", np.uint32)
UINT64 = BasicType("UINT64", np.uint64)
FLOAT32 = BasicType("FLOAT32", np.float32)
FLOAT64 = BasicType("FLOAT64", np.float64)

#: All named types by name.
BASIC_TYPES: dict[str, BasicType] = {
    t.name: t
    for t in (
        BYTE,
        PACKED,
        CHAR,
        SIGNED_CHAR,
        UNSIGNED_CHAR,
        SHORT,
        UNSIGNED_SHORT,
        INT,
        UNSIGNED,
        LONG,
        UNSIGNED_LONG,
        LONG_LONG,
        UNSIGNED_LONG_LONG,
        FLOAT,
        DOUBLE,
        C_FLOAT_COMPLEX,
        C_DOUBLE_COMPLEX,
        INT8,
        INT16,
        INT32,
        INT64,
        UINT8,
        UINT16,
        UINT32,
        UINT64,
        FLOAT32,
        FLOAT64,
    )
}

_BY_NP_DTYPE: dict[np.dtype, BasicType] = {}
for _t in (DOUBLE, FLOAT, INT, LONG, UINT8, INT8, INT16, UINT16, UINT32, UINT64,
           C_FLOAT_COMPLEX, C_DOUBLE_COMPLEX):
    _BY_NP_DTYPE.setdefault(_t.np_dtype, _t)


def from_numpy_dtype(dtype: np.dtype | str) -> BasicType:
    """The canonical named type for a numpy dtype (automatic datatype
    discovery, as mpi4py does for buffer arguments)."""
    key = np.dtype(dtype)
    try:
        return _BY_NP_DTYPE[key]
    except KeyError:
        raise DatatypeError(f"no basic MPI datatype for numpy dtype {key!r}") from None
