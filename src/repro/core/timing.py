"""The paper's measurement protocol (section 3.2).

Twenty ping-pongs, each timed individually with ``MPI_Wtime``; the
reported figure is the mean, after dismissing measurements more than
one standard deviation above the mean — a filter the paper notes is
never actually triggered on its deterministic-enough systems (we assert
the same in tests, and exercise it with the optional noise model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..machine.fingerprint import CanonicalOnce

__all__ = ["TimingPolicy", "TimingStats", "summarize"]


@dataclass(frozen=True)
class TimingPolicy(CanonicalOnce):
    """How a single (scheme, size) cell is measured."""

    #: Ping-pongs per measurement (the paper uses 20).
    iterations: int = 20
    #: Rewrite a scratch array between ping-pongs to flush the caches.
    flush: bool = True
    #: Size of the flush array (the paper uses 50 MB).
    flush_bytes: int = 50_000_000
    #: Dismiss measurements more than this many standard deviations
    #: above the mean.  ``None`` disables the filter.
    dismiss_sigma: float | None = 1.0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.flush_bytes < 0:
            raise ValueError("flush_bytes must be non-negative")
        if self.dismiss_sigma is not None and self.dismiss_sigma <= 0:
            raise ValueError("dismiss_sigma must be positive")


@dataclass(frozen=True)
class TimingStats:
    """Summary of one cell's individually-timed ping-pongs."""

    times: tuple[float, ...]
    mean: float
    std: float
    kept_mean: float
    dismissed: int
    minimum: float
    maximum: float

    @property
    def n(self) -> int:
        return len(self.times)


def summarize(times: list[float], dismiss_sigma: float | None = 1.0) -> TimingStats:
    """Apply the paper's outlier-dismissal rule and summarize.

    Only *high* outliers are dismissed (OS noise makes measurements
    slower, never faster).  Plain sequential arithmetic: at the paper's
    20 iterations, numpy's per-call overhead would cost more than the
    sums it vectorizes.
    """
    if not times:
        raise ValueError("no measurements to summarize")
    if any(t < 0 for t in times):
        raise ValueError("negative measurement")
    n = len(times)
    mean = sum(times) / n
    # (t - mean) * (t - mean), not ** 2: ``pow`` is not guaranteed
    # correctly rounded and can differ from the multiply by 1 ulp,
    # which would move the pinned golden times.
    var = sum((t - mean) * (t - mean) for t in times) / n
    std = math.sqrt(var)
    # A spread at floating-point rounding level is not a measurement
    # effect; the filter must not fire on it.
    negligible = std <= 1e-9 * abs(mean)
    if dismiss_sigma is None or negligible:
        kept = list(times)
    else:
        cutoff = mean + dismiss_sigma * std
        kept = [t for t in times if t <= cutoff] or list(times)
    return TimingStats(
        times=tuple(times),
        mean=mean,
        std=std,
        kept_mean=sum(kept) / len(kept),
        dismissed=n - len(kept),
        minimum=min(times),
        maximum=max(times),
    )
