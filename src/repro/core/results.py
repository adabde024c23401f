"""Result data model: measurements, per-scheme series, sweep results.

Everything serializes to/from plain JSON so sweeps can be cached on
disk and reports regenerated without re-running the simulator.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["Measurement", "SchemeSeries", "SweepResult"]


@dataclass(frozen=True)
class Measurement:
    """One (scheme, message size) cell of a sweep."""

    scheme: str
    label: str
    message_bytes: int
    time: float
    min_time: float
    max_time: float
    std: float
    dismissed: int
    verified: bool

    @property
    def bandwidth(self) -> float:
        """Effective bandwidth, bytes/s."""
        return self.message_bytes / self.time if self.time > 0 else 0.0


@dataclass
class SchemeSeries:
    """All sizes of one scheme, ordered by message size."""

    scheme: str
    label: str
    sizes: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)

    def add(self, message_bytes: int, time: float) -> None:
        self.sizes.append(message_bytes)
        self.times.append(time)

    def sort(self) -> None:
        order = np.argsort(self.sizes)
        self.sizes = [self.sizes[i] for i in order]
        self.times = [self.times[i] for i in order]

    def bandwidths(self) -> list[float]:
        return [s / t if t > 0 else 0.0 for s, t in zip(self.sizes, self.times)]

    def time_at(self, message_bytes: int) -> float:
        """Time at an exact recorded size; raises ``KeyError`` if absent."""
        try:
            return self.times[self.sizes.index(message_bytes)]
        except ValueError:
            raise KeyError(f"{self.scheme}: no measurement at {message_bytes} bytes") from None

    def __len__(self) -> int:
        return len(self.sizes)


@dataclass
class SweepResult:
    """A full scheme x size sweep on one platform."""

    platform: str
    measurements: list[Measurement] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def add(self, measurement: Measurement) -> None:
        self.measurements.append(measurement)

    def schemes(self) -> list[str]:
        """Scheme keys, in first-appearance order."""
        seen: dict[str, None] = {}
        for m in self.measurements:
            seen.setdefault(m.scheme, None)
        return list(seen)

    def sizes(self) -> list[int]:
        """All message sizes, sorted."""
        return sorted({m.message_bytes for m in self.measurements})

    def series(self, scheme: str) -> SchemeSeries:
        """The ordered series of one scheme."""
        out: SchemeSeries | None = None
        for m in self.measurements:
            if m.scheme == scheme:
                if out is None:
                    out = SchemeSeries(scheme=m.scheme, label=m.label)
                out.add(m.message_bytes, m.time)
        if out is None:
            raise KeyError(f"no measurements for scheme {scheme!r}")
        out.sort()
        return out

    def all_series(self) -> dict[str, SchemeSeries]:
        return {key: self.series(key) for key in self.schemes()}

    def slowdowns(self, scheme: str, reference: str = "reference") -> list[tuple[int, float]]:
        """(size, slowdown-vs-reference) pairs at sizes both schemes have."""
        ref = self.series(reference)
        ser = self.series(scheme)
        out = []
        for size, time in zip(ser.sizes, ser.times):
            try:
                ref_time = ref.time_at(size)
            except KeyError:
                continue
            out.append((size, time / ref_time if ref_time > 0 else float("inf")))
        return out

    def all_verified(self) -> bool:
        return all(m.verified for m in self.measurements)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "platform": self.platform,
            "metadata": self.metadata,
            "measurements": [asdict(m) for m in self.measurements],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SweepResult":
        return cls(
            platform=data["platform"],
            metadata=dict(data.get("metadata", {})),
            measurements=[Measurement(**m) for m in data["measurements"]],
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "SweepResult":
        """Read a sweep written by :meth:`save`.  A file that is not one
        raises ``ValueError`` naming the path; IO errors propagate."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}: not a saved sweep ({type(exc).__name__}: {exc})"
            ) from exc
