"""``MPI_Type_indexed``, ``MPI_Type_create_hindexed`` and
``MPI_Type_create_indexed_block``.

These describe irregularly spaced blocks — the FEM-boundary case from
the paper's introduction and the "less regular spacing" experiment of
section 4.7.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DatatypeError
from .datatype import Datatype
from .runs import ContigRun, Run, coalesce, runs_from_blocks

__all__ = [
    "IndexedType",
    "HIndexedType",
    "IndexedBlockType",
    "make_indexed",
    "make_hindexed",
    "make_indexed_block",
]


class _BaseIndexed(Datatype):
    """Shared implementation over byte displacements."""

    def __init__(
        self,
        blocklengths: Sequence[int],
        byte_displacements: Sequence[int],
        oldtype: Datatype,
        *,
        name: str,
    ):
        lengths = np.ascontiguousarray(blocklengths, dtype=np.int64)
        disps = np.ascontiguousarray(byte_displacements, dtype=np.int64)
        if lengths.ndim != 1 or lengths.shape != disps.shape:
            raise DatatypeError(f"{name}: blocklengths and displacements must match in length")
        if np.any(lengths < 0):
            raise DatatypeError(f"{name}: negative blocklength")
        oldtype._check_not_freed()
        nonzero = lengths > 0
        size = int(lengths.sum()) * oldtype.size
        if np.any(nonzero):
            lo = int((disps[nonzero]).min()) + oldtype.lb
            ends = disps[nonzero] + (lengths[nonzero] - 1) * oldtype.extent
            hi = int(ends.max()) + oldtype.ub
        else:
            lo, hi = oldtype.lb, oldtype.lb
        super().__init__(size=size, lb=lo, ub=hi, name=name)
        self._lengths = lengths
        self._byte_disps = disps
        self.oldtype = oldtype
        self._snapshot = self._snapshot_runs()

    def _snapshot_runs(self) -> list[Run]:
        mask = self._lengths > 0
        if not np.any(mask) or self.oldtype.size == 0:
            return []
        lengths = self._lengths[mask]
        disps = self._byte_disps[mask]
        old = self.oldtype
        old_runs = old._flatten()
        if len(old_runs) == 1 and isinstance(old_runs[0], ContigRun) and old.extent == old.size:
            # Dense old type: each block is one contiguous byte run.
            return runs_from_blocks(disps + old_runs[0].offset, lengths * old.size)
        # Sparse old type: expand each block individually (bounded by the
        # number of blocks, which is small for indexed types in practice).
        out: list[Run] = []
        for disp, blen in zip(disps.tolist(), lengths.tolist()):
            out.extend(run.shifted(disp) for run in old.flatten(int(blen)))
        return coalesce(out)

    def _build_runs(self) -> list[Run]:
        return list(self._snapshot)


class IndexedType(_BaseIndexed):
    """``MPI_Type_indexed``: displacements in old-type extents."""

    combiner = "indexed"

    def __init__(self, blocklengths: Sequence[int], displacements: Sequence[int], oldtype: Datatype):
        disps = np.ascontiguousarray(displacements, dtype=np.int64)
        self.displacements = disps
        super().__init__(
            blocklengths,
            disps * oldtype.extent,
            oldtype,
            name=f"indexed(n={len(disps)},{oldtype.name})",
        )


class HIndexedType(_BaseIndexed):
    """``MPI_Type_create_hindexed``: displacements in bytes."""

    combiner = "hindexed"

    def __init__(self, blocklengths: Sequence[int], displacements: Sequence[int], oldtype: Datatype):
        super().__init__(
            blocklengths,
            displacements,
            oldtype,
            name=f"hindexed(n={len(list(displacements))},{oldtype.name})",
        )


class IndexedBlockType(_BaseIndexed):
    """``MPI_Type_create_indexed_block``: equal-length blocks."""

    combiner = "indexed_block"

    def __init__(self, blocklength: int, displacements: Sequence[int], oldtype: Datatype):
        if blocklength < 0:
            raise DatatypeError("Type_create_indexed_block: negative blocklength")
        disps = np.ascontiguousarray(displacements, dtype=np.int64)
        self.blocklength = blocklength
        self.displacements = disps
        super().__init__(
            np.full(disps.shape, blocklength, dtype=np.int64),
            disps * oldtype.extent,
            oldtype,
            name=f"indexed_block({blocklength},n={disps.size},{oldtype.name})",
        )


def make_indexed(
    blocklengths: Sequence[int], displacements: Sequence[int], oldtype: Datatype
) -> IndexedType:
    """Functional constructor mirroring ``MPI_Type_indexed``."""
    return IndexedType(blocklengths, displacements, oldtype)


def make_hindexed(
    blocklengths: Sequence[int], displacements: Sequence[int], oldtype: Datatype
) -> HIndexedType:
    """Functional constructor mirroring ``MPI_Type_create_hindexed``."""
    return HIndexedType(blocklengths, displacements, oldtype)


def make_indexed_block(
    blocklength: int, displacements: Sequence[int], oldtype: Datatype
) -> IndexedBlockType:
    """Functional constructor mirroring ``MPI_Type_create_indexed_block``."""
    return IndexedBlockType(blocklength, displacements, oldtype)
