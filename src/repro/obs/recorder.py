"""Span recorder: the flight recorder behind ``world.obs``.

:class:`SpanRecorder` *is a* :class:`~repro.sim.trace.Tracer`, so it
drops into ``Kernel(tracer=...)`` unchanged and keeps every flat-event
consumer (timeline rendering, ``tracer.count(...)`` assertions)
working, while adding the hierarchical span API on top.

:class:`SpanOnlyRecorder` is a :class:`SpanRecorder` that drops flat
events: it keeps spans, wait edges, sleeps and task lifetimes, which is
everything :func:`~repro.obs.critical.extract_critical_path` reads, and
skips what only the timeline and the Chrome exporter read.

:class:`NullRecorder` *is a* :class:`~repro.sim.trace.NullTracer` and
is what a non-traced world sees: instrumentation sites guard on
``recorder.enabled`` before doing any span work, so the disabled path
costs one attribute read per site.  The null recorder counts (but
otherwise ignores) any ``begin`` calls it receives, which lets tests
assert structurally that the disabled path never builds a span.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..sim.trace import NullTracer, Tracer, WaitEdge
from .spans import Span

__all__ = ["SpanRecorder", "SpanOnlyRecorder", "NullRecorder", "NULL_RECORDER"]

#: Sentinel: ``begin(parent=AUTO)`` parents to the owning rank's
#: innermost open scoped span; ``parent=None`` forces a detached root.
_AUTO = object()


class SpanRecorder(Tracer):
    """Collects spans (and, via the base class, flat trace events)."""

    AUTO = _AUTO
    wait_edges_enabled = True

    def __init__(self) -> None:
        super().__init__()
        self._spans: list[Span] = []
        self._next_sid = 1
        #: per-rank stacks of open *scoped* spans (auto-parent targets)
        self._stacks: dict[int | None, list[Span]] = {}
        #: wait-for graph raw material, filled by the kernel
        self._wait_edges: list[WaitEdge] = []
        self._sleeps: dict[str, list[tuple[float, float]]] = {}
        self._task_starts: dict[str, float] = {}
        self._task_finishes: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Wait-for graph recording (called by the kernel)
    # ------------------------------------------------------------------
    def record_wait_edge(self, edge: WaitEdge) -> None:
        self._wait_edges.append(edge)

    def record_sleep(self, task: str, begin: float, end: float) -> None:
        self._sleeps.setdefault(task, []).append((begin, end))

    def record_task_start(self, task: str, time: float) -> None:
        self._task_starts.setdefault(task, time)

    def record_task_finish(self, task: str, time: float) -> None:
        self._task_finishes[task] = time

    def wait_edges(self) -> list[WaitEdge]:
        return list(self._wait_edges)

    def task_sleeps(self) -> dict[str, list[tuple[float, float]]]:
        return {name: list(segs) for name, segs in self._sleeps.items()}

    def task_starts(self) -> dict[str, float]:
        return dict(self._task_starts)

    def task_finishes(self) -> dict[str, float]:
        return dict(self._task_finishes)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(
        self,
        time: float,
        name: str,
        *,
        rank: int | None = None,
        category: str = "",
        parent: Span | None | object = _AUTO,
        **attrs: Any,
    ) -> Span:
        """Open a span at virtual ``time``.

        ``parent=AUTO`` (default) nests under the owning rank's
        innermost scoped span; ``parent=None`` creates a detached root
        (in-flight protocol spans whose lifetime is event-driven).
        """
        if parent is _AUTO:
            stack = self._stacks.get(rank)
            parent = stack[-1] if stack else None
        parent_id = parent.sid if isinstance(parent, Span) else None
        span = Span(
            sid=self._next_sid,
            name=name,
            category=category,
            rank=rank,
            begin=time,
            parent_id=parent_id,
            attrs=attrs,
        )
        self._next_sid += 1
        self._spans.append(span)
        return span

    def end(self, span: Span, time: float, **attrs: Any) -> Span:
        """Close ``span`` at virtual ``time``, merging extra attrs."""
        if span.end is not None:
            raise ValueError(f"span {span.name!r} (sid={span.sid}) already closed")
        if time < span.begin:
            raise ValueError(
                f"span {span.name!r} would close at {time} before its begin {span.begin}"
            )
        span.end = time
        if attrs:
            span.attrs.update(attrs)
        return span

    def push(self, rank: int | None, span: Span) -> None:
        """Make ``span`` the auto-parent target for ``rank``."""
        self._stacks.setdefault(rank, []).append(span)

    def pop(self, rank: int | None, span: Span) -> None:
        stack = self._stacks.get(rank)
        if not stack or stack[-1] is not span:
            raise ValueError(f"span stack for rank {rank} does not end with {span.name!r}")
        stack.pop()

    def complete(
        self,
        begin: float,
        end: float,
        name: str,
        *,
        rank: int | None = None,
        category: str = "",
        parent: Span | None | object = _AUTO,
        **attrs: Any,
    ) -> Span:
        """Record an already-finished span in one call.

        This is the workhorse for instrumentation that charges a merged
        sleep and reconstructs the phase boundaries afterwards — the
        traced and untraced runs then execute the *same* kernel events.
        """
        span = self.begin(begin, name, rank=rank, category=category, parent=parent, **attrs)
        return self.end(span, end)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def spans(
        self,
        name: str | None = None,
        *,
        rank: int | None = None,
        category: str | None = None,
        **attr_match: Any,
    ) -> list[Span]:
        """Spans in creation (begin-time per rank) order, filtered."""
        out: Iterable[Span] = self._spans
        if name is not None:
            out = (s for s in out if s.name == name)
        if rank is not None:
            out = (s for s in out if s.rank == rank)
        if category is not None:
            out = (s for s in out if s.category == category)
        for key, value in attr_match.items():
            out = (s for s in out if s.get(key) == value)
        return list(out)

    def span_count(self, name: str | None = None, **kwargs: Any) -> int:
        return len(self.spans(name, **kwargs))

    def span_by_id(self, sid: int) -> Span | None:
        for span in self._spans:
            if span.sid == sid:
                return span
        return None

    def children(self, span: Span) -> list[Span]:
        return [s for s in self._spans if s.parent_id == span.sid]

    def roots(self) -> list[Span]:
        return [s for s in self._spans if s.parent_id is None]

    def open_spans(self) -> list[Span]:
        return [s for s in self._spans if s.end is None]

    def all_spans(self) -> list[Span]:
        return list(self._spans)

    def span_names(self) -> set[str]:
        return {s.name for s in self._spans}

    def __contains__(self, name: str) -> bool:
        return any(s.name == name for s in self._spans)


class SpanOnlyRecorder(SpanRecorder):
    """A :class:`SpanRecorder` that keeps no flat events.

    For runs that only extract the critical path: ``record`` is a no-op
    and ``keeps_events`` is False, so sites whose sole output is flat
    events skip their work.  Spans and the wait-for graph are recorded
    exactly as by the full recorder.
    """

    keeps_events = False

    def record(self, time: float, category: str, **fields: Any) -> None:
        pass


class NullRecorder(NullTracer):
    """The disabled flight recorder: drops everything.

    ``begin_calls`` counts (erroneous) span openings so tests can
    assert the zero-cost-when-off contract structurally: a disabled run
    must never reach ``begin`` at all.
    """

    AUTO = _AUTO

    def __init__(self) -> None:
        super().__init__()
        self.begin_calls = 0

    def begin(self, time: float, name: str, **kwargs: Any) -> None:
        self.begin_calls += 1
        return None

    def end(self, span: Any, time: float, **attrs: Any) -> None:
        return None

    def complete(self, begin: float, end: float, name: str, **kwargs: Any) -> None:
        self.begin_calls += 1
        return None

    def push(self, rank: int | None, span: Any) -> None:
        pass

    def pop(self, rank: int | None, span: Any) -> None:
        pass

    def spans(self, name: str | None = None, **kwargs: Any) -> list[Span]:
        return []

    def span_count(self, name: str | None = None, **kwargs: Any) -> int:
        return 0

    def children(self, span: Any) -> list[Span]:
        return []

    def roots(self) -> list[Span]:
        return []

    def open_spans(self) -> list[Span]:
        return []

    def all_spans(self) -> list[Span]:
        return []

    def span_names(self) -> set[str]:
        return set()


#: Shared no-op recorder for non-traced worlds.  It carries no state
#: besides the diagnostic counter, so one instance serves everywhere.
NULL_RECORDER = NullRecorder()
