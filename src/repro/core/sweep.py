"""Sweep configuration: message-size grids and scheme selections."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .layout import Layout, strided_for_bytes
from .schemes import PAPER_ORDER
from .timing import TimingPolicy

__all__ = ["default_message_sizes", "SweepConfig"]


def default_message_sizes(
    min_bytes: int = 1_000,
    max_bytes: int = 1_000_000_000,
    per_decade: int = 2,
) -> list[int]:
    """Log-spaced message sizes, snapped to whole stride-2 double blocks
    (multiples of 16 bytes) — the paper's 10^3..10^9 horizontal axis."""
    if min_bytes <= 0 or max_bytes < min_bytes:
        raise ValueError("need 0 < min_bytes <= max_bytes")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    lo, hi = np.log10(min_bytes), np.log10(max_bytes)
    npoints = int(round((hi - lo) * per_decade)) + 1
    raw = np.logspace(lo, hi, npoints)
    sizes = sorted({max(16, int(round(s / 16)) * 16) for s in raw})
    return sizes


@dataclass(frozen=True)
class SweepConfig:
    """One figure's worth of work: schemes x sizes + how to measure.

    ``layout_factory`` maps a target byte count to a layout; the default
    is the paper's stride-2 single-double-block layout.
    ``materialize_limit`` bounds real byte movement: cells at or below
    it move and verify actual payloads, larger ones run virtual.
    """

    sizes: tuple[int, ...] = field(default_factory=lambda: tuple(default_message_sizes()))
    schemes: tuple[str, ...] = PAPER_ORDER
    policy: TimingPolicy = field(default_factory=TimingPolicy)
    materialize_limit: int = 1 << 20
    concurrent_streams: int = 1
    layout_factory: Callable[[int], Layout] = strided_for_bytes

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("sweep needs at least one size")
        if not self.schemes:
            raise ValueError("sweep needs at least one scheme")
        if any(s <= 0 for s in self.sizes):
            raise ValueError("sizes must be positive")

    def layout_for(self, message_bytes: int) -> Layout:
        return self.layout_factory(message_bytes)

    @cached_property
    def layouts(self) -> tuple[Layout, ...]:
        """One layout per size, built once per config: every cell of a
        size shares it, across schemes and platforms, so each cell
        digest reuses its memoized canonical form."""
        return tuple(self.layout_for(size) for size in self.sizes)

    @property
    def layout_factory_id(self) -> str:
        """The layout factory's identity, for sweep provenance.

        Recorded in ``SweepResult.metadata`` so two sweeps over the same
        sizes but different layout shapes can be told apart after the
        fact.  (Cache keys do not need this: cells are keyed by the
        concrete ``Layout`` the factory produced.)
        """
        fn = self.layout_factory
        module = getattr(fn, "__module__", None)
        qualname = getattr(fn, "__qualname__", None)
        if module and qualname:
            return f"{module}.{qualname}"
        return repr(fn)

    def materialize(self, message_bytes: int) -> bool:
        return message_bytes <= self.materialize_limit

    # Convenience copies -------------------------------------------------
    def with_sizes(self, sizes: Sequence[int]) -> "SweepConfig":
        return replace(self, sizes=tuple(sizes))

    def with_schemes(self, schemes: Sequence[str]) -> "SweepConfig":
        return replace(self, schemes=tuple(schemes))

    def with_policy(self, policy: TimingPolicy) -> "SweepConfig":
        return replace(self, policy=policy)

    def with_layout_factory(self, factory: Callable[[int], Layout]) -> "SweepConfig":
        return replace(self, layout_factory=factory)

    @classmethod
    def quick(cls, *, schemes: Sequence[str] = PAPER_ORDER) -> "SweepConfig":
        """A fast smoke-test sweep (small grid, few iterations)."""
        return cls(
            sizes=tuple(default_message_sizes(1_000, 10_000_000, per_decade=1)),
            schemes=tuple(schemes),
            policy=TimingPolicy(iterations=5),
        )
