"""Non-contiguous data layouts used by the benchmark.

The paper's workhorse is the simplest derived type: every other element
of a double array (``blocklen=1, stride=2``).  Section 4.7 motivates
two variations, both provided here: larger block sizes (better
cache-line utilization) and irregular spacings (worse prefetch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.fingerprint import CanonicalOnce
from ..mpi.buffers import SimBuffer
from ..mpi.datatypes import (
    DOUBLE,
    Datatype,
    make_indexed_block,
    make_subarray,
    make_vector,
)

__all__ = ["Layout", "StridedLayout", "IrregularLayout", "strided_for_bytes"]

_ELEM = DOUBLE.np_dtype.itemsize  # 8 bytes

#: Largest source, in bytes, served from the per-process ramp.  A larger
#: one is built for its cell and dropped with it: ``materialize_limit``
#: is chosen by the caller, and a daemon's pool workers live long.
RAMP_CAP = 1 << 22

#: The per-process source pattern: read-only doubles with
#: ``_ramp[i] == i``, a power-of-two count, grown on demand.
_ramp = np.empty(0, dtype=np.float64)


def _build_ramp(nelements: int) -> np.ndarray:
    """``nelements`` read-only doubles counting up from 0, 64-byte aligned."""
    ramp = SimBuffer.alloc(nelements * _ELEM, zero=False).view(np.float64)
    ramp[:] = np.arange(nelements, dtype=np.float64)
    ramp.flags.writeable = False
    return ramp


def _source_pattern(nelements: int) -> np.ndarray:
    """The first ``nelements`` doubles of the source pattern, read-only.

    Every materialized source and every expected payload reads one
    per-process ramp, so a strided cell neither fills a source nor
    builds an index array.  Above :data:`RAMP_CAP` the pattern is built
    for the caller alone.
    """
    global _ramp
    ramp = _ramp
    if nelements > ramp.size:
        size = 1 << (nelements - 1).bit_length()
        if size * _ELEM > RAMP_CAP:
            return _build_ramp(nelements)
        # A thread growing it at the same time may put back a shorter
        # ramp; that only costs a later rebuild.
        ramp = _ramp = _build_ramp(size)
    return ramp[:nelements]


@dataclass(frozen=True)
class Layout(CanonicalOnce):
    """Base layout: ``nblocks`` blocks of ``blocklen`` doubles each."""

    nblocks: int
    blocklen: int = 1

    def __post_init__(self) -> None:
        if self.nblocks <= 0:
            raise ValueError("nblocks must be positive")
        if self.blocklen <= 0:
            raise ValueError("blocklen must be positive")

    @property
    def nelements(self) -> int:
        """Payload doubles."""
        return self.nblocks * self.blocklen

    @property
    def message_bytes(self) -> int:
        """Payload bytes on the wire."""
        return self.nelements * _ELEM

    @property
    def source_elements(self) -> int:
        """Doubles in the source array (span, padded to whole blocks)."""
        raise NotImplementedError

    @property
    def source_bytes(self) -> int:
        return self.source_elements * _ELEM

    # ------------------------------------------------------------------
    def make_datatype(self) -> Datatype:
        """The canonical committed derived type for this layout."""
        raise NotImplementedError

    def payload_indices(self) -> np.ndarray:
        """Element indices of the payload within the source array."""
        raise NotImplementedError

    def make_source(self, materialize: bool) -> SimBuffer:
        """The source buffer: read-only doubles with ``source[i] == i``."""
        if not materialize:
            return SimBuffer.virtual(self.source_bytes)
        return SimBuffer.from_array(_source_pattern(self.source_elements))

    def expected_payload(self) -> np.ndarray:
        """What a correct transfer delivers (for materialized runs): the
        source's payload elements, in pack order."""
        return _source_pattern(self.source_elements)[self.payload_indices()]


@dataclass(frozen=True)
class StridedLayout(Layout):
    """``blocklen`` doubles out of every ``stride`` — the paper's layout
    is ``StridedLayout(nblocks=N/2, blocklen=1, stride=2)``."""

    stride: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.stride < self.blocklen:
            raise ValueError("stride must be at least blocklen")

    @property
    def source_elements(self) -> int:
        # Full rows of `stride`, so the subarray view is well defined.
        return self.nblocks * self.stride

    def make_datatype(self) -> Datatype:
        """``MPI_Type_vector`` over the layout."""
        return make_vector(self.nblocks, self.blocklen, self.stride, DOUBLE).commit()

    def make_subarray_datatype(self) -> Datatype:
        """The same layout expressed as ``MPI_Type_create_subarray``:
        the first ``blocklen`` columns of an ``nblocks x stride`` array."""
        return make_subarray(
            sizes=[self.nblocks, self.stride],
            subsizes=[self.nblocks, self.blocklen],
            starts=[0, 0],
            oldtype=DOUBLE,
        ).commit()

    def payload_indices(self) -> np.ndarray:
        base = np.arange(self.nblocks, dtype=np.int64) * self.stride
        return (base[:, None] + np.arange(self.blocklen, dtype=np.int64)[None, :]).reshape(-1)

    def expected_payload(self) -> np.ndarray:
        # The first ``blocklen`` columns of the source as ``nblocks`` rows
        # of ``stride``: a view for single-double or dense blocks (numpy
        # copies other shapes), and no index array either way.
        rows = _source_pattern(self.source_elements).reshape(self.nblocks, self.stride)
        return rows[:, : self.blocklen].reshape(-1)


@dataclass(frozen=True)
class IrregularLayout(Layout):
    """Equal-length blocks at jittered displacements (section 4.7 item 1).

    ``jitter`` in [0, 1): 0 reproduces the regular stride, larger values
    scatter the block starts further from the regular grid (without
    reordering or overlapping blocks).
    """

    stride: int = 2
    jitter: float = 0.5
    seed: int = 1234

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.stride < self.blocklen:
            raise ValueError("stride must be at least blocklen")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")

    def _displacements(self) -> np.ndarray:
        """Block start indices, jittered but strictly increasing."""
        regular = np.arange(self.nblocks, dtype=np.int64) * self.stride
        if self.jitter == 0.0 or self.nblocks == 1:
            return regular
        slack = self.stride - self.blocklen
        if slack <= 0:
            return regular
        rng = np.random.default_rng(self.seed)
        offsets = rng.integers(0, int(slack * self.jitter) + 1, size=self.nblocks)
        return regular + offsets

    @property
    def source_elements(self) -> int:
        disps = self._displacements()
        return int(disps[-1]) + self.blocklen

    def make_datatype(self) -> Datatype:
        return make_indexed_block(self.blocklen, self._displacements(), DOUBLE).commit()

    def payload_indices(self) -> np.ndarray:
        disps = self._displacements()
        return (disps[:, None] + np.arange(self.blocklen, dtype=np.int64)[None, :]).reshape(-1)


def strided_for_bytes(message_bytes: int, *, blocklen: int = 1, stride: int | None = None) -> StridedLayout:
    """The paper's layout for a target payload of ``message_bytes``.

    Rounds down to a whole number of blocks (at least one).  Default
    stride is ``2 * blocklen`` (half-dense, like the stride-2 vector).
    """
    if message_bytes <= 0:
        raise ValueError("message_bytes must be positive")
    if stride is None:
        stride = 2 * blocklen
    nblocks = max(1, message_bytes // (_ELEM * blocklen))
    return StridedLayout(nblocks=nblocks, blocklen=blocklen, stride=stride)
