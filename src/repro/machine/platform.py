"""The :class:`Platform` aggregate: one machine + one MPI installation.

A platform bundles the hardware models (memory hierarchy, network
fabric, CPU overheads) with the MPI tuning profile and optional noise
model.  Everything in the simulator that needs a price asks the
platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from ..net.topology import Topology
from .cpu import CpuModel
from .memory import MemoryModel
from .network import NetworkModel, ShmModel
from .noise import NoiseModel
from .tuning import MpiTuning

__all__ = ["Platform"]


@dataclass(frozen=True)
class Platform:
    """A named machine/MPI combination.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"skx-impi"``.
    description:
        Human-readable provenance (cluster, fabric, MPI library).
    memory / network / cpu:
        The hardware models.
    tuning:
        The MPI installation's tuning profile.
    noise:
        Optional measurement jitter (``None`` = deterministic).
    shm:
        Optional intra-node shared-memory transport.  Only *reachable*
        (and hence only priced, and only fingerprinted) when the
        topology places more than one rank per node; co-located rank
        pairs then bypass the network entirely (see
        :mod:`repro.net.transport`).
    topology:
        Optional interconnect structure (``None`` or flat = the
        closed-form single-wire model; anything else turns on the
        :class:`~repro.net.flows.FlowEngine`).
    figure:
        Which paper figure this platform reproduces, if any.
    """

    name: str
    description: str
    memory: MemoryModel
    network: NetworkModel
    cpu: CpuModel
    tuning: MpiTuning = field(default_factory=MpiTuning)
    noise: NoiseModel | None = None
    shm: ShmModel | None = None
    topology: Topology | None = None
    figure: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("platform name must be non-empty")

    # Convenience accessors -------------------------------------------------
    @property
    def cache_line(self) -> int:
        return self.memory.hierarchy.line_size

    def with_tuning(self, tuning: MpiTuning) -> "Platform":
        """Copy of this platform with a replaced tuning profile."""
        return replace(self, tuning=tuning)

    def with_noise(self, noise: NoiseModel | None) -> "Platform":
        """Copy of this platform with a replaced noise model."""
        return replace(self, noise=noise)

    def with_topology(self, topology: Topology | None) -> "Platform":
        """Copy of this platform with a replaced interconnect topology."""
        return replace(self, topology=topology)

    def with_shm(self, shm: ShmModel | None) -> "Platform":
        """Copy of this platform with a replaced intra-node transport."""
        return replace(self, shm=shm)

    @property
    def shm_reachable(self) -> bool:
        """Whether any rank pair can ever use the shared-memory
        transport: a model must be attached *and* the topology must
        co-locate ranks (non-flat, more than one rank per node)."""
        return (
            self.shm is not None
            and self.topology is not None
            and not self.topology.is_flat
            and self.topology.ranks_per_node > 1
        )

    def with_name(self, name: str, description: str | None = None) -> "Platform":
        """Copy of this platform under a new name."""
        return replace(
            self, name=name, description=description if description is not None else self.description
        )

    def fingerprint(self) -> str:
        """Stable content digest of everything that prices a simulation.

        Covers the hardware models, the MPI tuning profile (see
        :meth:`MpiTuning.fingerprint`), the noise model, and — when a
        non-flat interconnect is selected — the topology.  It does *not*
        cover ``name``/``description``/``figure``, which are labels: a
        renamed copy of a platform prices identically and fingerprints
        identically.  The topology key is added *conditionally* so that
        ``topology=None`` and ``topology=flat()`` (both priced by the
        closed-form model) keep every historical digest byte-identical.
        The shared-memory model follows the same rule: it is keyed only
        when :attr:`shm_reachable` — attaching an ``shm`` model to a
        flat (or one-rank-per-node) configuration changes nothing the
        simulator prices, so it must not orphan cached results either.

        Computed once per instance: a platform is frozen and its
        ``tuning.quirks`` is never mutated, and the ``with_*`` copies
        are new instances with their own value.
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        from .fingerprint import digest_of

        return digest_of(self._priced(self.tuning))

    @cached_property
    def base_fingerprint(self) -> str:
        """:meth:`fingerprint` with the tuning's ``eager_limit`` left out.

        Platforms that differ only in eager limit share it; a cell keyed
        by it must still check each eager choice against the limit (see
        :attr:`repro.exec.CellSpec.base_digest`).  Computed once per
        instance, like the fingerprint.
        """
        from .fingerprint import canonical, digest_of

        tuning = canonical(self.tuning)
        del tuning["eager_limit"]
        return digest_of(self._priced(tuning))

    def _priced(self, tuning: object) -> dict[str, object]:
        """What the fingerprints digest, with ``tuning`` in its slot."""
        payload = {
            "memory": self.memory,
            "network": self.network,
            "cpu": self.cpu,
            "tuning": tuning,
            "noise": self.noise,
        }
        if self.topology is not None and not self.topology.is_flat:
            payload["topology"] = self.topology
        if self.shm_reachable:
            payload["shm"] = self.shm
        return payload

    def describe(self) -> str:
        """Multi-line summary used by the CLI's ``platforms`` command."""
        net = self.network
        tun = self.tuning
        eager = "unlimited" if tun.eager_limit is None else f"{tun.eager_limit} B"
        lines = [
            f"{self.name}: {self.description}",
            f"  network: latency {net.latency * 1e6:.2f} us, bandwidth "
            f"{net.bandwidth / 1e9:.2f} GB/s, NIC offload {'on' if net.nic_offload else 'off'}",
            f"  memory: DRAM read {self.memory.hierarchy.dram_read_bandwidth / 1e9:.2f} GB/s, "
            f"{len(self.memory.hierarchy.levels)} cache levels",
            f"  tuning: eager limit {eager}, staging chunk {tun.internal_chunk_bytes} B, "
            f"large-message threshold {tun.large_message_threshold} B",
        ]
        if self.topology is not None:
            lines.append(f"  topology: {self.topology.describe()}")
        if self.shm is not None:
            eager_shm = (
                "unlimited" if self.shm.eager_limit is None else f"{self.shm.eager_limit} B"
            )
            mode = "single-copy" if self.shm.single_copy else "double-copy"
            lines.append(
                f"  shm: latency {self.shm.latency * 1e6:.2f} us, eager limit {eager_shm}, "
                f"segment {self.shm.segment_bytes} B, {mode} rendezvous"
                + ("" if self.shm_reachable else " (unreachable: no co-located ranks)")
            )
        if self.figure:
            lines.append(f"  reproduces: {self.figure}")
        return "\n".join(lines)
