"""MPI-implementation tuning knobs.

Everything here is a property of the MPI *library*, not the hardware:
the eager limit, internal staging behaviour for derived-datatype sends,
buffered-send penalties, and one-sided synchronization costs.  The four
platform profiles in :mod:`repro.machine.registry` differ mostly in
these knobs, which is exactly the paper's observation that the
differences between installations (section 4.8) come from the MPI
implementations' buffer management.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

__all__ = ["MpiTuning"]


@dataclass(frozen=True)
class MpiTuning:
    """Tuning profile of one MPI installation.

    Protocol knobs
    --------------
    eager_limit:
        Messages of at most this many bytes use the eager protocol (no
        handshake); larger ones use rendezvous (section 4.5).  ``None``
        asks for no rendezvous at all (the paper's "eager limit over
        the maximum message size" experiment) — but see
        ``max_eager_bytes``.
    max_eager_bytes:
        Hard implementation cap on eager buffering: the bounce-buffer
        pool is finite, so user eager-limit settings are clamped to
        this.  It is why the paper's raise-the-limit test "did not
        appreciably change the results for large messages" — the knob
        cannot take effect there.
    rendezvous_extra_hops:
        Number of extra one-way latencies the RTS/CTS handshake adds.
    rendezvous_overhead:
        Fixed extra seconds per rendezvous transfer beyond the bare
        handshake latencies (CTS processing, transfer-pipeline
        restart).  This is what makes messages just over the eager
        limit worse *per byte* than just under it (section 4.5).
    eager_bounce_copy:
        Eager messages land in an internal bounce buffer at the receiver
        and are copied out on match; this prices that copy.

    Derived-datatype staging knobs (section 4.1)
    --------------------------------------------
    internal_chunk_bytes:
        Direct sends of non-contiguous datatypes are staged through
        internal pipeline buffers of this size.
    chunk_bookkeeping:
        Seconds of bookkeeping per staged chunk once the message exceeds
        ``large_message_threshold`` — the "internal buffer bookkeeping
        becomes complicated" penalty the paper observes beyond a few
        tens of megabytes.
    large_message_threshold:
        Bytes beyond which the large-message staging penalty applies.
    large_message_bw_factor:
        Multiplier (<= 1) on internal staging bandwidth beyond the
        threshold.

    Buffered-send knobs (section 4.2)
    ---------------------------------
    bsend_overhead_bytes:
        Per-message metadata charged against the attached buffer
        (``MPI_BSEND_OVERHEAD``).
    bsend_bw_factor:
        Multiplier (<= 1) on the transfer bandwidth of buffered sends;
        below 1 on every measured installation ("in most MPI
        implementations it performs worse, even for intermediate
        message sizes").

    One-sided knobs (section 2.5, 4.4)
    ----------------------------------
    fence_base:
        Seconds per ``MPI_Win_fence`` epoch boundary (the "more
        complicated synchronization mechanism ... large overhead").
    fence_per_rank:
        Additional fence cost per participating rank.
    onesided_bw_factor:
        Multiplier on transfer bandwidth for ``MPI_Put`` of intermediate
        size (MVAPICH2's is several factors below 1).
    onesided_large_bw_factor:
        Same for large messages (Cray's stays at 1.0; Stampede2's
        degrades).

    Packing knobs (section 2.6)
    ---------------------------
    pack_bw_factor:
        Efficiency of ``MPI_Pack``'s internal copy relative to a
        user-coded loop (the paper finds it is exactly as efficient,
        i.e. 1.0).

    Quirks
    ------
    quirks:
        Named installation oddities, never mutated after construction
        (platform fingerprints are computed once per instance; derive a
        changed tuning with ``dataclasses.replace``).  Recognized keys:

        ``"packed_eager_limit_factor"``
            Multiplier on the eager limit seen by sends of packed
            buffers (Cray MPICH shows its eager drop at double the size
            for the packing scheme, section 4.5).
        ``"derived_always_rendezvous"``
            Direct derived-datatype sends always use rendezvous, hiding
            the eager drop for those schemes (Cray MPICH, section 4.5).
    """

    eager_limit: int | None = 64 * 1024
    max_eager_bytes: int = 4 * 1024 * 1024
    rendezvous_extra_hops: int = 2
    rendezvous_overhead: float = 0.0
    eager_bounce_copy: bool = True

    internal_chunk_bytes: int = 8 * 1024 * 1024
    chunk_bookkeeping: float = 0.0
    large_message_threshold: int = 32_000_000
    large_message_bw_factor: float = 1.0

    bsend_overhead_bytes: int = 512
    bsend_bw_factor: float = 1.0

    fence_base: float = 10e-6
    fence_per_rank: float = 1e-6
    onesided_bw_factor: float = 1.0
    onesided_large_bw_factor: float = 1.0

    pack_bw_factor: float = 1.0

    quirks: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.eager_limit is not None and self.eager_limit < 0:
            raise ValueError("eager_limit must be non-negative or None")
        if self.max_eager_bytes <= 0:
            raise ValueError("max_eager_bytes must be positive")
        if self.rendezvous_extra_hops < 0:
            raise ValueError("rendezvous_extra_hops must be non-negative")
        if self.rendezvous_overhead < 0:
            raise ValueError("rendezvous_overhead must be non-negative")
        if self.internal_chunk_bytes <= 0:
            raise ValueError("internal_chunk_bytes must be positive")
        if self.chunk_bookkeeping < 0:
            raise ValueError("chunk_bookkeeping must be non-negative")
        if self.large_message_threshold < 0:
            raise ValueError("large_message_threshold must be non-negative")
        for name in (
            "large_message_bw_factor",
            "bsend_bw_factor",
            "onesided_bw_factor",
            "onesided_large_bw_factor",
            "pack_bw_factor",
        ):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.bsend_overhead_bytes < 0:
            raise ValueError("bsend_overhead_bytes must be non-negative")
        if self.fence_base < 0 or self.fence_per_rank < 0:
            raise ValueError("fence costs must be non-negative")

    # ------------------------------------------------------------------
    def effective_eager_limit(self, *, packed: bool = False) -> int:
        """The eager limit applied to a message: the configured limit
        (quirk-adjusted), clamped to the implementation cap."""
        limit = self.eager_limit if self.eager_limit is not None else self.max_eager_bytes
        if packed:
            factor = float(self.quirks.get("packed_eager_limit_factor", 1.0))
            limit = int(limit * factor)
        return min(limit, self.max_eager_bytes)

    def uses_eager(self, nbytes: int, *, packed: bool = False, derived: bool = False) -> bool:
        """Whether a message of ``nbytes`` takes the eager path."""
        if derived and self.quirks.get("derived_always_rendezvous", False):
            return False
        return nbytes <= self.effective_eager_limit(packed=packed)

    def with_eager_limit(self, eager_limit: int | None) -> "MpiTuning":
        """A copy of this tuning with a different eager limit."""
        return replace(self, eager_limit=eager_limit)

    def fingerprint(self) -> str:
        """Stable content digest of every tuning knob (quirks included).

        Two tunings share a fingerprint iff every knob is bit-identical;
        the cell-execution cache folds this into its keys so a re-tuned
        platform can never serve another tuning's cached results.
        """
        from .fingerprint import digest_of

        return digest_of(self)
