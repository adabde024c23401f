"""Cost model: maps MPI-level operations to virtual seconds.

One :class:`CostModel` instance per simulated job.  Every price bottoms
out in the platform's machine models; this module only encodes *which*
hardware work each MPI operation performs — the paper's section 2
analysis, made executable:

* contiguous send — wire time only (NIC streams it, constant 1);
* manual copy — a user-space gather, then a contiguous send (constant 3);
* derived-type direct send — an *internal* gather (staging), penalized
  beyond the large-message threshold (section 4.1's drop);
* ``MPI_Pack`` — a user-space gather at pack efficiency, plus per-call
  overhead (the packing(e) killer);
* buffered send — an extra copy into the attached buffer plus a
  bandwidth penalty (section 4.2);
* one-sided — fence synchronization overhead plus a platform-dependent
  bandwidth factor (section 4.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..machine.access import AccessPattern
from ..machine.platform import Platform
from .datatypes.plan import TransferPlan

__all__ = ["CostModel"]

#: Methods that price a memory-access shape accept either a bare
#: :class:`AccessPattern` or a compiled :class:`TransferPlan` — passing
#: the plan guarantees the cost model prices exactly the runs the byte
#: mover will execute.
Priceable = AccessPattern | TransferPlan


def _pattern_of(pattern: Priceable) -> AccessPattern:
    if isinstance(pattern, TransferPlan):
        return pattern.pattern
    return pattern


@dataclass(frozen=True)
class CostModel:
    """Prices for one job on one platform.

    ``concurrent_streams`` models several communicating pairs sharing a
    node's injection bandwidth (the section 4.7 all-cores experiment).

    ``eager_choices`` records every answer :meth:`uses_eager` gave this
    job, keyed by its question ``(nbytes, packed, derived)``.  That
    method is the only place a job reads the tuning's eager limit, so
    another limit that answers each recorded question the same way runs
    the job to the same outcome (the serve daemon re-prices by this).
    """

    platform: Platform
    concurrent_streams: int = 1
    eager_choices: dict[tuple[int, bool, bool], bool] = field(
        default_factory=dict, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    # Network
    # ------------------------------------------------------------------
    @property
    def latency(self) -> float:
        return self.platform.network.latency

    @property
    def send_overhead(self) -> float:
        return self.platform.network.send_overhead

    @property
    def recv_overhead(self) -> float:
        return self.platform.network.recv_overhead

    def wire(self, nbytes: int, *, factor: float = 1.0) -> float:
        """Serialization time for ``nbytes``, with a protocol bandwidth
        factor (1.0 = full fabric speed)."""
        if factor <= 0:
            raise ValueError("bandwidth factor must be positive")
        return self.platform.network.wire_time(nbytes, self.concurrent_streams) / factor

    # ------------------------------------------------------------------
    # CPU
    # ------------------------------------------------------------------
    def call(self) -> float:
        """Fixed cost of one MPI call."""
        return self.platform.cpu.call_overhead

    def datatype_commit(self) -> float:
        return self.platform.cpu.datatype_setup_overhead

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def gather(self, pattern: Priceable, warm: bool) -> float:
        """User-space gather of ``pattern`` into a contiguous buffer."""
        return self.platform.memory.gather_cost(_pattern_of(pattern), warm).total

    def scatter(self, pattern: Priceable, warm: bool) -> float:
        """User-space scatter of a contiguous buffer into ``pattern``."""
        return self.platform.memory.scatter_cost(_pattern_of(pattern), warm).total

    def memcpy(self, nbytes: int, warm: bool) -> float:
        """Dense copy of ``nbytes``."""
        return self.platform.memory.contiguous_copy_cost(nbytes, warm)

    def flush(self, nbytes: int) -> float:
        """Rewriting an ``nbytes`` array to evict the caches."""
        return self.platform.memory.hierarchy.flush_cost(nbytes)

    # ------------------------------------------------------------------
    # Protocol pieces
    # ------------------------------------------------------------------
    def staging(self, pattern: Priceable, warm: bool) -> float:
        """MPI-internal gather for a direct derived-type send.

        Matches a user copy for moderate sizes (section 4.1: "sending a
        derived datatype ... tracks manual copying very well") but picks
        up the implementation's internal-buffer bookkeeping penalty
        beyond the large-message threshold.
        """
        pattern = _pattern_of(pattern)
        tuning = self.platform.tuning
        base = self.platform.memory.gather_cost(pattern, warm).total
        nbytes = pattern.total_bytes
        if nbytes <= tuning.large_message_threshold:
            return base
        chunks = math.ceil(nbytes / tuning.internal_chunk_bytes)
        return base / tuning.large_message_bw_factor + chunks * tuning.chunk_bookkeeping

    def staging_chunks(self, nbytes: int) -> int:
        """Internal staging-buffer passes for an ``nbytes`` derived send.

        One pass below the large-message threshold; chunked through
        ``internal_chunk_bytes`` buffers beyond it (the bookkeeping the
        paper's section 4.1 drop is made of).
        """
        tuning = self.platform.tuning
        if nbytes <= tuning.large_message_threshold:
            return 1
        return math.ceil(nbytes / tuning.internal_chunk_bytes)

    def unstaging(self, pattern: Priceable, warm: bool) -> float:
        """Receiver-side mirror of :meth:`staging` (scatter direction)."""
        pattern = _pattern_of(pattern)
        tuning = self.platform.tuning
        base = self.platform.memory.scatter_cost(pattern, warm).total
        nbytes = pattern.total_bytes
        if nbytes <= tuning.large_message_threshold:
            return base
        chunks = math.ceil(nbytes / tuning.internal_chunk_bytes)
        return base / tuning.large_message_bw_factor + chunks * tuning.chunk_bookkeeping

    def eager_bounce(self, nbytes: int, warm: bool) -> float:
        """Receiver-side copy out of the eager bounce buffer."""
        if not self.platform.tuning.eager_bounce_copy:
            return 0.0
        return self.memcpy(nbytes, warm)

    def pack(self, pattern: Priceable, warm: bool, ncalls: int = 1) -> float:
        """``MPI_Pack`` of a whole datatype (``ncalls`` = 1) or a
        per-element pack loop (``ncalls`` = element count)."""
        pattern = _pattern_of(pattern)
        tuning = self.platform.tuning
        move = self.platform.memory.gather_cost(pattern, warm).total / tuning.pack_bw_factor
        return move + self.platform.cpu.pack_loop_cost(ncalls)

    def unpack(self, pattern: Priceable, warm: bool, ncalls: int = 1) -> float:
        """``MPI_Unpack`` mirror of :meth:`pack`."""
        pattern = _pattern_of(pattern)
        tuning = self.platform.tuning
        move = self.platform.memory.scatter_cost(pattern, warm).total / tuning.pack_bw_factor
        return move + self.platform.cpu.pack_loop_cost(ncalls)

    # ------------------------------------------------------------------
    # Scheme-specific bandwidth factors
    # ------------------------------------------------------------------
    def bsend_factor(self, nbytes: int) -> float:
        """Bandwidth factor for a buffered-send transfer.

        The attached buffer lives in user space, but the *transfer* out
        of it still runs through the library's internal machinery — the
        paper's section 4.2 finding is precisely that ``Bsend`` does not
        escape the large-message penalty."""
        tuning = self.platform.tuning
        factor = tuning.bsend_bw_factor
        if nbytes > tuning.large_message_threshold:
            factor *= tuning.large_message_bw_factor
        return factor

    def onesided_factor(self, nbytes: int) -> float:
        tuning = self.platform.tuning
        if nbytes > tuning.large_message_threshold:
            return tuning.onesided_large_bw_factor
        return tuning.onesided_bw_factor

    def fence(self, nranks: int) -> float:
        tuning = self.platform.tuning
        return tuning.fence_base + nranks * tuning.fence_per_rank

    # ------------------------------------------------------------------
    # Protocol selection
    # ------------------------------------------------------------------
    def uses_eager(self, nbytes: int, *, packed: bool, derived: bool) -> bool:
        eager = self.platform.tuning.uses_eager(nbytes, packed=packed, derived=derived)
        self.eager_choices[nbytes, packed, derived] = eager
        return eager

    def rendezvous_hop_time(self) -> float:
        """One-way time of an RTS or CTS control message."""
        return self.latency

    @property
    def rendezvous_extra_hops(self) -> int:
        return self.platform.tuning.rendezvous_extra_hops

    @property
    def rendezvous_overhead(self) -> float:
        """Fixed setup cost per rendezvous transfer (section 4.5)."""
        return self.platform.tuning.rendezvous_overhead
