"""Simulation buffers and the attached (Bsend) buffer pool.

:class:`SimBuffer` is the communication buffer abstraction.  It comes in
two flavours:

* **materialized** — backed by a 64-byte-aligned numpy allocation (the
  paper allocates all buffers 64-byte aligned, section 3.2); transfers
  really move the bytes, so correctness is verifiable.  A ping-pong
  cell moves and verifies real bytes in its last timed iteration only;
  the other iterations only account costs (``World.move_bytes``).
* **virtual** — size-only.  Transfers do full cost accounting but skip
  byte movement.  The benchmark harness uses virtual buffers above a
  validation threshold so gigabyte sweeps stay fast; the virtual/
  materialized choice never changes virtual time.

:class:`AttachedBuffer` models ``MPI_Buffer_attach`` capacity
accounting, including ``BSEND_OVERHEAD`` per message.
"""

from __future__ import annotations

import numpy as np

from .errors import BufferError_

__all__ = ["SimBuffer", "AttachedBuffer", "as_simbuffer", "BSEND_OVERHEAD"]

#: Per-message bookkeeping charged against the attached buffer.
BSEND_OVERHEAD = 512


class SimBuffer:
    """A communication buffer; see module docstring.

    Use :meth:`alloc` (materialized, aligned, zeroed) or
    :meth:`virtual`.  ``view()`` reinterprets the bytes under any numpy
    dtype, which is how typed user arrays are exposed.
    """

    __slots__ = ("_nbytes", "_bytes")

    def __init__(self, nbytes: int, backing: np.ndarray | None):
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if backing is not None:
            if backing.dtype != np.uint8 or backing.ndim != 1:
                raise TypeError("backing must be a 1-D uint8 array")
            if backing.size != nbytes:
                raise ValueError(f"backing holds {backing.size} bytes, expected {nbytes}")
        self._nbytes = nbytes
        self._bytes = backing

    # ------------------------------------------------------------------
    @classmethod
    def alloc(cls, nbytes: int, *, align: int = 64, zero: bool = True) -> "SimBuffer":
        """A materialized buffer, ``align``-byte aligned and zeroed.

        Zeroing doubles as the paper's explicit page instantiation.
        """
        if align <= 0 or align & (align - 1):
            raise ValueError("align must be a positive power of two")
        raw = np.empty(nbytes + align, dtype=np.uint8)
        shift = (-raw.ctypes.data) % align
        backing = raw[shift : shift + nbytes]
        if zero:
            backing[:] = 0
        return cls(nbytes, backing)

    @classmethod
    def virtual(cls, nbytes: int) -> "SimBuffer":
        """A size-only buffer: cost accounting without byte movement."""
        return cls(nbytes, None)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "SimBuffer":
        """Wrap an existing C-contiguous numpy array (zero-copy)."""
        if not array.flags.c_contiguous:
            raise ValueError("array must be C-contiguous")
        flat = array.view(np.uint8).reshape(-1)
        return cls(flat.size, flat)

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def materialized(self) -> bool:
        return self._bytes is not None

    @property
    def bytes(self) -> np.ndarray:
        """The raw uint8 view; raises on virtual buffers."""
        if self._bytes is None:
            raise BufferError_("virtual buffer has no backing bytes")
        return self._bytes

    def view(self, dtype: np.dtype | str) -> np.ndarray:
        """The buffer reinterpreted as ``dtype`` (whole elements only)."""
        dt = np.dtype(dtype)
        if self._nbytes % dt.itemsize:
            raise ValueError(f"{self._nbytes} bytes is not a whole number of {dt} items")
        return self.bytes.view(dt)

    def fill_zero(self) -> None:
        """Explicitly zero (page-instantiate) the buffer; no-op if virtual."""
        if self._bytes is not None:
            self._bytes[:] = 0

    def __len__(self) -> int:
        return self._nbytes

    def __repr__(self) -> str:
        kind = "materialized" if self.materialized else "virtual"
        return f"<SimBuffer {self._nbytes}B {kind}>"


def as_simbuffer(buf: "SimBuffer | np.ndarray") -> SimBuffer:
    """Accept either a :class:`SimBuffer` or a numpy array."""
    if isinstance(buf, SimBuffer):
        return buf
    if isinstance(buf, np.ndarray):
        return SimBuffer.from_array(buf)
    raise TypeError(f"expected SimBuffer or numpy array, got {type(buf).__name__}")


class AttachedBuffer:
    """Capacity accounting for ``MPI_Buffer_attach``.

    Each in-flight ``Bsend`` reserves its packed size plus
    :data:`BSEND_OVERHEAD`; the reservation is released when the message
    has left the buffer (transfer complete).
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise BufferError_(
                f"attached buffer capacity must be non-negative, got {capacity}"
            )
        self.capacity = capacity
        self.in_use = 0
        self._reservations = 0

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def active_messages(self) -> int:
        return self._reservations

    def reserve(self, payload_bytes: int, overhead: int = BSEND_OVERHEAD) -> int:
        """Reserve room for one buffered message; returns bytes reserved."""
        need = payload_bytes + overhead
        if need > self.available:
            raise BufferError_(
                f"attached buffer exhausted: need {need} bytes "
                f"({payload_bytes} payload + {overhead} overhead), "
                f"have {self.available} of {self.capacity}"
            )
        self.in_use += need
        self._reservations += 1
        return need

    def release(self, reserved_bytes: int) -> None:
        """Release a prior reservation."""
        if reserved_bytes > self.in_use or self._reservations == 0:
            raise BufferError_("attached-buffer release without matching reservation")
        self.in_use -= reserved_bytes
        self._reservations -= 1

    def detach_check(self) -> None:
        """``MPI_Buffer_detach`` must wait for in-flight messages; we
        surface a still-busy buffer as an error for the caller to
        handle (the simulated harness always drains first)."""
        if self._reservations:
            raise BufferError_(
                f"cannot detach: {self._reservations} buffered sends still in flight"
            )
