"""MPI derived datatypes: named types, constructors, and the pack engine.

The public constructor functions mirror the MPI-3 C API::

    vec = make_vector(count=500, blocklength=1, stride=2, oldtype=DOUBLE)
    vec.commit()

See :mod:`repro.mpi.datatypes.datatype` for lifecycle semantics and
:mod:`repro.mpi.datatypes.engine` for pack/unpack.
"""

from .basic import (
    BASIC_TYPES,
    BYTE,
    C_DOUBLE_COMPLEX,
    C_FLOAT_COMPLEX,
    CHAR,
    DOUBLE,
    FLOAT,
    FLOAT32,
    FLOAT64,
    INT,
    INT8,
    INT16,
    INT32,
    INT64,
    LONG,
    LONG_LONG,
    PACKED,
    SHORT,
    SIGNED_CHAR,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    UNSIGNED,
    UNSIGNED_CHAR,
    UNSIGNED_LONG,
    UNSIGNED_LONG_LONG,
    UNSIGNED_SHORT,
    BasicType,
    from_numpy_dtype,
)
from .contiguous import ContiguousType, make_contiguous
from .datatype import Datatype
from .engine import check_fits, pack_bytes, unpack_bytes
from .indexed import (
    HIndexedType,
    IndexedBlockType,
    IndexedType,
    make_hindexed,
    make_indexed,
    make_indexed_block,
)
from .plan import (
    TransferPlan,
    clear_plan_cache,
    compile_plan,
    invalidate_plans,
    plan_cache_capacity,
    plan_cache_stats,
    plan_for,
)
from .resized import ResizedType, make_resized
from .runs import ContigRun, IrregularRuns, Run, StridedRuns, coalesce, replicate, segments_of
from .struct import StructType, make_struct
from .subarray import ORDER_C, ORDER_FORTRAN, SubarrayType, make_subarray
from .vector import HVectorType, VectorType, make_hvector, make_vector

__all__ = [
    # base + engine
    "Datatype",
    "pack_bytes",
    "unpack_bytes",
    "check_fits",
    # transfer plans
    "TransferPlan",
    "plan_for",
    "compile_plan",
    "invalidate_plans",
    "plan_cache_stats",
    "plan_cache_capacity",
    "clear_plan_cache",
    # runs
    "Run",
    "ContigRun",
    "StridedRuns",
    "IrregularRuns",
    "coalesce",
    "replicate",
    "segments_of",
    # constructors
    "BasicType",
    "from_numpy_dtype",
    "ContiguousType",
    "make_contiguous",
    "VectorType",
    "HVectorType",
    "make_vector",
    "make_hvector",
    "IndexedType",
    "HIndexedType",
    "IndexedBlockType",
    "make_indexed",
    "make_hindexed",
    "make_indexed_block",
    "StructType",
    "make_struct",
    "SubarrayType",
    "make_subarray",
    "ORDER_C",
    "ORDER_FORTRAN",
    "ResizedType",
    "make_resized",
    # named types
    "BASIC_TYPES",
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
]
