"""Cost-driven scheme selection over a datatype's access pattern.

``advise_datatype`` prices ``dtype.access_pattern(count)`` — the
pattern a :class:`~repro.mpi.datatypes.plan.TransferPlan` carries and
the simulator charges — for every candidate send scheme through
:class:`~repro.machine.pricing.SchemePricer`.  The cheapest candidate
is the advice; the ``auto`` scheme (:mod:`repro.core.schemes.auto`),
the halo experiment and the ``repro advise`` CLI are thin wrappers
over it.

``reference`` is priced for the slowdown column but never a candidate:
it sends an already-contiguous buffer and cannot deliver a
non-contiguous layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..machine.access import AccessPattern
from ..machine.platform import Platform
from ..machine.pricing import SchemePricer
from ..machine.registry import get_platform
from .schemes import PAPER_ORDER

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime import
    from ..mpi.datatypes import Datatype
    from ..net.transport import Transport

__all__ = [
    "AUTO_CANDIDATES",
    "Advice",
    "CandidatePrice",
    "advise_datatype",
    "advise_layout",
    "select_scheme",
]

#: Schemes ``auto`` chooses among: every paper scheme that actually
#: delivers a non-contiguous layout (all but ``reference``), in the
#: paper's figure order (the deterministic tie-break).
AUTO_CANDIDATES: tuple[str, ...] = tuple(k for k in PAPER_ORDER if k != "reference")


@dataclass(frozen=True)
class CandidatePrice:
    """One candidate scheme's modeled ping-pong time."""

    key: str
    modeled_time: float
    #: Relative to the contiguous reference send of the same payload.
    slowdown: float


@dataclass(frozen=True)
class Advice:
    """The full output of one selection: the priced pattern and table."""

    platform: str
    source: str
    count: int
    nbytes: int
    pattern: AccessPattern
    reference_time: float
    #: Sorted cheapest-first; ties broken by paper figure order.
    prices: tuple[CandidatePrice, ...]
    #: The transport the in-flight legs were priced on ("network" when
    #: no transport was supplied — the historical behaviour).
    transport: str = "network"

    @property
    def chosen(self) -> str:
        return self.prices[0].key

    def render(self) -> str:
        """Human-readable advice table for the CLI."""
        lines = [
            f"advise: {self.count} x {self.source} on {self.platform}",
            f"payload {self.nbytes} B in {self.pattern.nblocks} blocks, "
            f"span {self.pattern.span_bytes} B, "
            f"regularity {self.pattern.regularity:.2f}",
            "",
            f"  {'scheme':<18} {'modeled time':>14} {'vs reference':>13}",
        ]
        for price in self.prices:
            marker = "*" if price.key == self.chosen else " "
            lines.append(
                f"{marker} {price.key:<18} {price.modeled_time * 1e6:>11.3f} us "
                f"{price.slowdown:>12.2f}x"
            )
        lines.append("")
        lines.append(f"recommended: {self.chosen}")
        return "\n".join(lines)


def advise_datatype(
    dtype: "Datatype",
    *,
    count: int = 1,
    platform: str | Platform = "skx-impi",
    candidates: Iterable[str] = AUTO_CANDIDATES,
    transport: "Transport | None" = None,
) -> Advice:
    """Price every candidate scheme for ``count`` elements of ``dtype``
    on ``platform``.

    ``transport`` reprices the in-flight legs on a non-network fabric
    (e.g. an intra-node shm transport for a co-located peer); ``None``
    keeps the historical network pricing."""
    plat = platform if isinstance(platform, Platform) else get_platform(platform)
    keys = tuple(candidates)
    if not keys:
        raise ValueError("candidates must not be empty")
    pattern = dtype.access_pattern(count)
    pricer = SchemePricer(plat, transport=transport)
    reference_time = pricer.reference(pattern)
    prices = tuple(
        sorted(
            (
                CandidatePrice(
                    key=key,
                    modeled_time=(t := pricer.price(key, pattern)),
                    slowdown=t / reference_time if reference_time > 0 else 1.0,
                )
                for key in keys
            ),
            key=lambda p: (p.modeled_time, PAPER_ORDER.index(p.key)),
        )
    )
    return Advice(
        platform=plat.name,
        source=dtype.name,
        count=count,
        nbytes=pattern.total_bytes,
        pattern=pattern,
        reference_time=reference_time,
        prices=prices,
        transport=transport.kind if transport is not None else "network",
    )


def advise_layout(
    layout,
    *,
    platform: str | Platform = "skx-impi",
    candidates: Iterable[str] = AUTO_CANDIDATES,
    transport: "Transport | None" = None,
) -> Advice:
    """Advice for a benchmark layout (anything with ``make_datatype``)."""
    dtype = layout.make_datatype()
    try:
        return advise_datatype(
            dtype, count=1, platform=platform, candidates=candidates,
            transport=transport,
        )
    finally:
        dtype.free()


def select_scheme(
    layout, platform: str | Platform, transport: "Transport | None" = None
) -> str:
    """The ``auto`` scheme's resolution: the cheapest candidate for
    ``layout`` on ``platform``.  Deterministic — pure host-side
    arithmetic over the machine model."""
    return advise_layout(layout, platform=platform, transport=transport).chosen
