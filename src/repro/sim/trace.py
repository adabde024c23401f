"""Structured event tracing.

The MPI layer records one :class:`TraceEvent` per interesting protocol
step (pack, eager send, RTS/CTS, delivery, fence, ...).  Tests assert on
traces to verify that a scheme exercised the code path the paper says it
does — e.g. that a direct derived-type send staged through internal
chunks while packing(v) did not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["TraceEvent", "Tracer", "NullTracer", "WakeCause", "WaitEdge"]


@dataclass(frozen=True)
class WakeCause:
    """Provenance of a wakeup: why a blocked task was allowed to resume.

    ``hops`` is a sequence of ``(begin, end, resource)`` intervals that
    tile virtual time from ``origin_time`` up to the woken task's resume
    time — e.g. an eager delivery is a latency hop followed by a wire
    hop.  ``origin`` names the task in whose execution context the chain
    started (``None`` when the chain began in kernel context and the
    recorded waker should be used instead).
    """

    label: str
    origin: str | None = None
    origin_time: float | None = None
    hops: tuple[tuple[float, float, str], ...] = ()


@dataclass(frozen=True)
class WaitEdge:
    """One resolved wait: task ``task`` blocked at ``block_begin`` with
    ``reason`` and resumed at ``resume_time`` because ``waker`` woke it
    at ``notify_time`` (optionally carrying a :class:`WakeCause`)."""

    task: str
    block_begin: float
    resume_time: float
    reason: str
    waker: str | None
    notify_time: float
    cause: WakeCause | None = None

    def format(self) -> str:
        who = self.waker or "kernel"
        why = f" [{self.cause.label}]" if self.cause is not None else ""
        return (
            f"{self.task} blocked on {self.reason!r} at t={self.block_begin:.9g}, "
            f"woken by {who}{why} at t={self.resume_time:.9g}"
        )


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulation event."""

    time: float
    category: str
    fields: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def format(self) -> str:
        body = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"[{self.time:.9f}] {self.category} {body}".rstrip()


class Tracer:
    """Collects :class:`TraceEvent` records in arrival order."""

    #: When True the kernel records wait-for edges, sleep segments and
    #: task lifetimes (the raw material of the critical-path profiler).
    #: Off on the base tracer; ``SpanRecorder`` turns it on.  A class
    #: attribute so the disabled check is one attribute load.
    wait_edges_enabled: bool = False
    #: Whether ``record`` keeps flat events.  Sites whose only output
    #: is flat events (link-utilization samples, queue depths) skip
    #: their work when it is False: on ``NullTracer`` and on a
    #: recorder that keeps spans only.
    keeps_events: bool = True

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    @property
    def enabled(self) -> bool:
        return True

    # -- wait-for graph hooks (no-ops unless wait_edges_enabled) -------
    def record_wait_edge(self, edge: WaitEdge) -> None:
        pass

    def record_sleep(self, task: str, begin: float, end: float) -> None:
        pass

    def record_task_start(self, task: str, time: float) -> None:
        pass

    def record_task_finish(self, task: str, time: float) -> None:
        pass

    def wait_edges(self) -> list[WaitEdge]:
        return []

    def record(self, time: float, category: str, **fields: Any) -> None:
        """Append one event."""
        self._events.append(TraceEvent(time=time, category=category, fields=fields))

    def events(self, category: str | None = None, **match: Any) -> list[TraceEvent]:
        """Events, optionally filtered by category and field values."""
        out: Iterable[TraceEvent] = self._events
        if category is not None:
            out = (e for e in out if e.category == category)
        for key, value in match.items():
            out = (e for e in out if e.get(key) == value)
        return list(out)

    def count(self, category: str | None = None, **match: Any) -> int:
        return len(self.events(category, **match))

    def categories(self) -> set[str]:
        return {e.category for e in self._events}

    def clear(self) -> None:
        self._events.clear()

    def format(self) -> str:
        """The whole trace as one printable block."""
        return "\n".join(e.format() for e in self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)


class NullTracer(Tracer):
    """A tracer that drops everything (the default, for speed)."""

    keeps_events = False

    @property
    def enabled(self) -> bool:
        return False

    def record(self, time: float, category: str, **fields: Any) -> None:
        pass
