"""Host-side wall-clock telemetry (``repro.obs.host``).

Everything else in ``repro.obs`` observes *virtual* time — the
simulated clock the pricing model advances.  This module observes the
*host*: wall-clock spans and events with monotonic timestamps, thread
and process ids, and a metrics registry of counters / gauges /
latency histograms, covering the layers that burn real CPU seconds:

* the **executor** — per-worker busy timelines (one lane per worker
  process), chunk dispatch/complete events, a queue-depth gauge;
* the **result store** — hit/miss/write counters and IO latency
  histograms;
* **plan gather/scatter** — which path each transfer took (a single
  run, the per-run loop, or the whole-plan table);
* the **flow engine** — re-solve counts and solve-time histograms.

Like the virtual-time flight recorder (PR 1), host telemetry is
**zero-cost when off**: every instrumentation site guards on the
module attribute :data:`active` being non-``None`` before touching the
clock or building any record — the disabled path is one module-attr
load and an ``is None`` test, it never calls :func:`_now`.  The
structural leg of the tracing-overhead gate pins this by counting
:func:`_now` invocations during an untraced, telemetry-off run.

Timestamps come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux),
which is comparable across forked worker processes on the same boot —
that is what lets worker-measured chunk spans land on a shared
timeline.  Under a ``spawn`` start method workers see a fresh
interpreter and report no spans (graceful degradation); set
``REPRO_HOST_TELEMETRY=1`` in the environment to re-enable telemetry
in spawned workers at import time.

Use :func:`enable` / :func:`disable` for process lifetime control (the
CLI's ``--host-trace``), or :func:`capturing` to scope a capture to a
``with`` block (the perf-gate engine wraps every gate run in one).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator

from .metrics import MetricsRegistry

__all__ = [
    "HostEvent",
    "HostSpan",
    "HostTelemetry",
    "active",
    "enable",
    "disable",
    "capturing",
    "host_telemetry",
    "ENV_VAR",
]

#: Environment variable that enables host telemetry at import time
#: (covers spawned worker processes, which re-import this module).
ENV_VAR = "REPRO_HOST_TELEMETRY"


def _now() -> float:
    """The telemetry clock.  Every host timestamp funnels through this
    one module-level function so the zero-cost-when-off guard can count
    (and must count zero) clock reads while telemetry is disabled."""
    return perf_counter()


@dataclass(frozen=True)
class HostEvent:
    """An instantaneous host-side occurrence (chunk dispatch, queue
    depth sample, ...)."""

    name: str
    time: float  #: monotonic seconds (perf_counter domain)
    lane: str
    pid: int
    tid: int
    fields: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class HostSpan:
    """A host-side interval: wall-clock begin/end plus provenance."""

    name: str
    begin: float
    end: float
    lane: str
    pid: int
    tid: int
    fields: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.begin


class HostTelemetry:
    """One capture of host-side spans, events, and metrics.

    Lanes name timeline rows: the main process records on ``"main"``
    (or ``"thread-<ident>"`` off the main thread), worker processes
    appear as ``"worker-<pid>"`` — the Chrome exporter renders one
    thread lane per name.
    """

    #: Mirrors the recorder convention: instrumentation may also guard
    #: on ``telemetry.enabled`` when handed an instance explicitly.
    enabled = True

    def __init__(self) -> None:
        self.origin = _now()
        self.pid = os.getpid()
        self.spans: list[HostSpan] = []
        self.events: list[HostEvent] = []
        self.metrics = MetricsRegistry()
        self._main_tid = threading.get_ident()

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Monotonic host seconds (same domain as span timestamps)."""
        return _now()

    def _lane(self, lane: str | None, tid: int) -> str:
        if lane is not None:
            return lane
        return "main" if tid == self._main_tid else f"thread-{tid}"

    def event(self, name: str, *, lane: str | None = None, **fields: Any) -> HostEvent:
        tid = threading.get_ident()
        ev = HostEvent(name, _now(), self._lane(lane, tid), os.getpid(), tid, fields)
        self.events.append(ev)
        return ev

    def add_span(
        self,
        name: str,
        begin: float,
        end: float,
        *,
        lane: str | None = None,
        pid: int | None = None,
        tid: int | None = None,
        **fields: Any,
    ) -> HostSpan:
        """Record an already-measured interval (e.g. one a worker
        process timed and shipped back with its results)."""
        owner_tid = tid if tid is not None else threading.get_ident()
        span = HostSpan(
            name,
            begin,
            end,
            self._lane(lane, owner_tid),
            pid if pid is not None else os.getpid(),
            owner_tid,
            fields,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, *, lane: str | None = None, **fields: Any) -> Iterator[None]:
        """Measure a ``with`` block as one host span."""
        begin = _now()
        try:
            yield
        finally:
            self.add_span(name, begin, _now(), lane=lane, **fields)

    # ------------------------------------------------------------------
    def lanes(self) -> list[str]:
        """Every lane that recorded at least one span or event, sorted
        with ``"main"`` first."""
        names = {s.lane for s in self.spans} | {e.lane for e in self.events}
        return sorted(names, key=lambda n: (n != "main", n))

    def busy_seconds(self) -> dict[str, float]:
        """Total span-covered wall time per lane — the busy side of the
        busy/idle timeline (idle is the complement within the capture)."""
        busy: dict[str, float] = {}
        for span in self.spans:
            busy[span.lane] = busy.get(span.lane, 0.0) + span.duration
        return busy

    def wall_seconds(self) -> float:
        """Elapsed host time since this capture began."""
        return _now() - self.origin

    def snapshot(self) -> dict[str, Any]:
        """A machine-readable summary: per-lane span/busy accounting
        plus the full metrics dump — plain JSON-serializable data,
        compact, not the raw event stream."""
        busy = self.busy_seconds()
        span_counts: dict[str, int] = {}
        for span in self.spans:
            span_counts[span.lane] = span_counts.get(span.lane, 0) + 1
        return {
            "pid": self.pid,
            "wall_seconds": self.wall_seconds(),
            "events": len(self.events),
            "spans": len(self.spans),
            "lanes": {
                lane: {
                    "spans": span_counts.get(lane, 0),
                    "busy_seconds": busy.get(lane, 0.0),
                }
                for lane in self.lanes()
            },
            "metrics": self.metrics.snapshot(),
        }


# ----------------------------------------------------------------------
# The ambient capture.
#
# ``active`` is THE hot-path guard: instrumentation sites do
#
#     from repro.obs import host as _host
#     ...
#     if _host.active is not None:
#         _host.active.event(...)
#
# so a disabled process pays one module-attribute load per site.
# ----------------------------------------------------------------------
active: HostTelemetry | None = None


def enable() -> HostTelemetry:
    """Start (or restart) a process-wide capture and return it."""
    global active
    active = HostTelemetry()
    return active


def disable() -> HostTelemetry | None:
    """Stop the ambient capture; returns it for inspection/export."""
    global active
    captured, active = active, None
    return captured


def host_telemetry() -> HostTelemetry | None:
    """The ambient capture, or ``None`` when telemetry is off."""
    return active


@contextmanager
def capturing() -> Iterator[HostTelemetry]:
    """Capture host telemetry for a ``with`` block, restoring the
    previous ambient state (possibly ``None``) on exit."""
    global active
    previous = active
    active = HostTelemetry()
    try:
        yield active
    finally:
        active = previous


if os.environ.get(ENV_VAR, "") not in ("", "0"):  # pragma: no cover - env hook
    enable()
