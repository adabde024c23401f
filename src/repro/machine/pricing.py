"""Closed-form ping-pong pricing: the paper's section 2 model.

These formulas are the analytic counterpart of the discrete-event
simulation: the simulator composes the same costs event by event, so
for simple scenarios the two must agree.  Tests cross-check them, and
the ``model`` experiment reports them next to the measured values.

Every formula takes an :class:`AccessPattern`, so any derived datatype
the IR can canonicalize is priced through the same machine model;
``stride2_pattern(nbytes)`` is the paper's own layout (every other
double).  Predictions are for one ping-pong in the paper's harness
(zero-byte pong, cold caches).

Scheme keys mirror ``repro.core.schemes`` (the machine layer must not
import it; a test pins the two lists against each other).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .access import AccessPattern
from .platform import Platform

if TYPE_CHECKING:  # machine must not import net at runtime
    from ..net.transport import Transport

__all__ = ["PRICED_SCHEMES", "SchemePricer", "predicted_copying_slowdown"]

#: Every scheme the pricer knows a closed form for, in the paper's
#: figure order.  Must match ``repro.core.schemes.PAPER_ORDER``.
PRICED_SCHEMES = (
    "reference",
    "copying",
    "buffered",
    "vector",
    "subarray",
    "onesided",
    "packing-element",
    "packing-vector",
)


@dataclass(frozen=True)
class SchemePricer:
    """First-order ping-pong predictions for one platform and any
    access pattern.

    ``transport`` selects the fabric the in-flight legs are priced on.
    ``None`` (and any network transport) keeps the historical closed
    form byte-for-byte; an shm transport reprices the delivery, pong,
    and one-sided drain legs through that transport's copy-based model
    while every CPU-side leg (gathers, packs, overheads, fences) stays
    identical — so on-node and off-node predictions differ exactly
    where the wire does."""

    platform: Platform
    transport: "Transport | None" = None

    def _wire_transport(self) -> "Transport | None":
        """The non-network transport to price in-flight legs on, if any."""
        transport = self.transport
        if transport is None or transport.kind == "network":
            return None
        return transport

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def overheads(self) -> float:
        """Per ping-pong fixed software cost on the critical path.

        Each of the two messages exposes one call overhead (the send
        side's) plus the network send and receive overheads; the
        receive-posting calls happen while the message is in flight and
        hide completely."""
        net = self.platform.network
        cpu = self.platform.cpu
        return 2 * (cpu.call_overhead + net.send_overhead + net.recv_overhead)

    def wire(self, nbytes: int) -> float:
        return self.platform.network.wire_time(nbytes)

    def gather_time(self, pattern: AccessPattern, *, internal: bool = False) -> float:
        """Cold gather of ``pattern``, optionally through the library's
        internal staging (large-message penalty)."""
        base = self.platform.memory.gather_cost(pattern, warm=False).total
        nbytes = pattern.total_bytes
        tuning = self.platform.tuning
        if internal and nbytes > tuning.large_message_threshold:
            chunks = -(-nbytes // tuning.internal_chunk_bytes)
            return base / tuning.large_message_bw_factor + chunks * tuning.chunk_bookkeeping
        return base

    def transport_time(self, nbytes: int, *, packed: bool = False,
                       derived: bool = False, wire_factor: float = 1.0) -> float:
        """One-way delivery: protocol handshakes + serialization +
        receiver-side eager bounce where applicable."""
        transport = self._wire_transport()
        if transport is not None:
            # Copy-based transports fold the receiver-side copy into the
            # transfer itself, so there is no separate eager bounce.
            return transport.in_flight_time(
                nbytes, packed=packed, derived=derived, factor=wire_factor
            )
        net = self.platform.network
        tuning = self.platform.tuning
        if tuning.uses_eager(nbytes, packed=packed, derived=derived):
            bounce = (
                self.platform.memory.contiguous_copy_cost(nbytes, warm=True)
                if tuning.eager_bounce_copy
                else 0.0
            )
            return net.latency + self.wire(nbytes) / wire_factor + bounce
        hops = 1 + tuning.rendezvous_extra_hops  # RTS + CTS + data
        return (
            hops * net.latency
            + tuning.rendezvous_overhead
            + self.wire(nbytes) / wire_factor
        )

    def pong_time(self) -> float:
        """The zero-byte return message."""
        transport = self._wire_transport()
        if transport is not None:
            return transport.control_latency
        return self.platform.network.latency

    # ------------------------------------------------------------------
    # Per-scheme ping-pong predictions
    # ------------------------------------------------------------------
    def reference(self, pattern: AccessPattern) -> float:
        """Contiguous send of the same payload size (wire only)."""
        return (
            self.overheads()
            + self.transport_time(pattern.total_bytes)
            + self.pong_time()
        )

    def copying(self, pattern: AccessPattern) -> float:
        """A user gather, then the contiguous send."""
        return self.gather_time(pattern) + self.reference(pattern)

    def vector(self, pattern: AccessPattern) -> float:
        """Derived-type send: internal staging, then the transport (with
        the large-message penalty and any derived-type protocol
        quirks)."""
        return (
            self.overheads()
            + self.gather_time(pattern, internal=True)
            + self.transport_time(pattern.total_bytes, derived=True)
            + self.pong_time()
        )

    def subarray(self, pattern: AccessPattern) -> float:
        """Subarray send: same library path as the vector type — the
        committed typemaps are identical, only the constructor differs."""
        return self.vector(pattern)

    def packing_vector(self, pattern: AccessPattern) -> float:
        """packing(v): a user-space MPI_Pack (as efficient as the copy
        loop) plus a PACKED contiguous send."""
        pack = self.gather_time(pattern) / self.platform.tuning.pack_bw_factor
        pack += self.platform.cpu.pack_element_overhead + self.platform.cpu.call_overhead
        return (
            self.overheads()
            + pack
            + self.transport_time(pattern.total_bytes, packed=True)
            + self.pong_time()
        )

    def packing_element(self, pattern: AccessPattern,
                        nelements: int | None = None) -> float:
        """packing(e): packing(v) plus one call overhead per packed
        element.  ``nelements`` defaults to the paper's doubles
        (``total_bytes // 8``)."""
        ncalls = pattern.total_bytes // 8 if nelements is None else nelements
        return (
            self.packing_vector(pattern)
            + (ncalls - 1) * self.platform.cpu.pack_element_overhead
        )

    def buffered(self, pattern: AccessPattern) -> float:
        """Bsend: a gather into the attached buffer, then a dense
        transfer at the buffered-send bandwidth derating (which includes
        the large-message factor — Bsend does not escape it)."""
        nbytes = pattern.total_bytes
        tuning = self.platform.tuning
        factor = tuning.bsend_bw_factor
        if nbytes > tuning.large_message_threshold:
            factor *= tuning.large_message_bw_factor
        return (
            self.overheads()
            + self.gather_time(pattern)
            + self.transport_time(nbytes, wire_factor=factor)
            + self.pong_time()
        )

    def onesided(self, pattern: AccessPattern) -> float:
        """Put/fence: staging at Put, transfer drained at the closing
        fence at the one-sided bandwidth factor, plus the fence
        synchronization fee — no pong message."""
        nbytes = pattern.total_bytes
        tuning = self.platform.tuning
        net = self.platform.network
        cpu = self.platform.cpu
        factor = (
            tuning.onesided_large_bw_factor
            if nbytes > tuning.large_message_threshold
            else tuning.onesided_bw_factor
        )
        fence = tuning.fence_base + 2 * tuning.fence_per_rank
        transport = self._wire_transport()
        if transport is not None:
            drain = transport.transfer_time(nbytes, factor=factor)
            land = transport.control_latency
        else:
            drain = self.wire(nbytes) / factor
            land = net.latency
        # Put call + staging, then at the fence: drain (wire + latency)
        # and the synchronization fee; the fence call itself adds one
        # overhead.
        return (
            2 * cpu.call_overhead
            + self.gather_time(pattern, internal=True)
            + drain
            + land
            + fence
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def price(self, key: str, pattern: AccessPattern,
              nelements: int | None = None) -> float:
        """Predicted ping-pong time of scheme ``key`` for ``pattern``."""
        if key == "reference":
            return self.reference(pattern)
        if key == "copying":
            return self.copying(pattern)
        if key == "buffered":
            return self.buffered(pattern)
        if key == "vector":
            return self.vector(pattern)
        if key == "subarray":
            return self.subarray(pattern)
        if key == "onesided":
            return self.onesided(pattern)
        if key == "packing-element":
            return self.packing_element(pattern, nelements)
        if key == "packing-vector":
            return self.packing_vector(pattern)
        raise KeyError(f"no pricing formula for scheme {key!r}")


def predicted_copying_slowdown(platform: Platform) -> float:
    """The asymptotic copying slowdown — the paper's 'factor of
    three' once memory and network bandwidths are equal."""
    net = platform.network.bandwidth
    mem = platform.memory.hierarchy
    return 1.0 + net * (2.0 / mem.dram_read_bandwidth + 0.5 / mem.dram_write_bandwidth)
