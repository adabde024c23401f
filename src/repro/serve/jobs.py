"""Job bookkeeping for the sweep daemon.

A :class:`Job` is one accepted ``POST /sweep``: its compiled grid, a
live status, per-cell results keyed by digest, and an append-only event
log that ``GET /jobs/<id>/events`` streams as NDJSON.  All mutation
happens on the daemon's event-loop thread (worker threads hand results
over via ``loop.call_soon_threadsafe``), so jobs need no locking; the
only cross-thread reader is the event stream, which also runs on the
loop.
"""

from __future__ import annotations

import asyncio
from typing import Any

from .protocol import SweepRequest

__all__ = ["Job", "JobRegistry", "SOURCES"]

#: Job lifecycle: queued -> running -> done | failed.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: How a job obtains a cell, the ``source`` of its wire form (see
#: :func:`~repro.serve.protocol.encode_cell`); each is tallied per job.
SOURCES = ("reused", "recomputed", "deduped", "equivalent")


class Job:
    """One submitted sweep request and everything that happens to it."""

    def __init__(self, job_id: str, request: SweepRequest, total: int):
        self.id = job_id
        self.request = request
        self.total = total  #: unique cells in the compiled grid
        self.status = QUEUED
        self.error: str | None = None
        #: How each cell reached this job, tallied per source.
        self.reused = 0
        self.recomputed = 0
        self.deduped = 0
        self.equivalent = 0
        #: digest -> wire cell dict (protocol.encode_cell form).
        self.cells: dict[str, dict[str, Any]] = {}
        #: Append-only NDJSON event log plus its wakeup signal.
        self.events: list[dict[str, Any]] = []
        self._signal = asyncio.Event()
        self.finished = asyncio.Event()

    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return len(self.cells)

    @property
    def terminal(self) -> bool:
        return self.status in (DONE, FAILED)

    def emit(self, event: dict[str, Any]) -> None:
        """Append one event and wake every streaming reader.  Must run
        on the event-loop thread."""
        self.events.append(event)
        self._signal.set()

    async def next_events(self, cursor: int) -> tuple[list[dict[str, Any]], int]:
        """Events from ``cursor`` on, waiting for at least one unless
        the job is already terminal.  Returns ``(events, new_cursor)``;
        an empty batch means the job ended with nothing further."""
        while cursor >= len(self.events) and not self.terminal:
            self._signal.clear()
            # Re-check after clearing: emit() may have landed between
            # the length test and the clear (same thread, but an await
            # boundary sits in between for repeat callers).
            if cursor < len(self.events) or self.terminal:
                break
            await self._signal.wait()
        batch = self.events[cursor:]
        return batch, cursor + len(batch)

    # ------------------------------------------------------------------
    def tallies(self) -> dict[str, int]:
        """Cells per source, in :data:`SOURCES` order."""
        return {source: getattr(self, source) for source in SOURCES}

    def record_cell(self, cell: dict[str, Any]) -> None:
        """Absorb one finished cell (wire form) and tally its source;
        a source outside :data:`SOURCES` raises ``ValueError``."""
        digest = cell["digest"]
        source = cell["source"]
        if source not in SOURCES:
            raise ValueError(f"unknown cell source {source!r}")
        if digest in self.cells:
            return
        self.cells[digest] = cell
        setattr(self, source, getattr(self, source) + 1)
        self.emit(
            {
                "event": "cell",
                "job": self.id,
                "completed": self.completed,
                "total": self.total,
                **cell,
            }
        )

    def finish(self, error: str | None = None) -> None:
        self.status = FAILED if error else DONE
        self.error = error
        self.emit(
            {
                "event": "error" if error else "done",
                "job": self.id,
                "status": self.status,
                **({"error": error} if error else {}),
                **self.tallies(),
            }
        )
        self.finished.set()

    # ------------------------------------------------------------------
    def snapshot(self, *, include_cells: bool = False) -> dict[str, Any]:
        """The ``GET /jobs/<id>`` body."""
        out: dict[str, Any] = {
            "job": self.id,
            "status": self.status,
            "total": self.total,
            "completed": self.completed,
            **self.tallies(),
            "salt": self.request.salt,
            "tags": dict(self.request.tags),
        }
        if self.error is not None:
            out["error"] = self.error
        if include_cells:
            out["cells"] = dict(self.cells)
        return out


class JobRegistry:
    """Monotonic job ids -> jobs, for the life of the daemon."""

    def __init__(self) -> None:
        self._jobs: dict[str, Job] = {}
        self._next = 0

    def create(self, request: SweepRequest, total: int) -> Job:
        self._next += 1
        job = Job(f"job-{self._next:04d}", request, total)
        self._jobs[job.id] = job
        return job

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def __len__(self) -> int:
        return len(self._jobs)

    def counts(self) -> dict[str, int]:
        counts = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for job in self._jobs.values():
            counts[job.status] = counts.get(job.status, 0) + 1
        return counts
