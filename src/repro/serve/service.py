"""The sweep service: classify, dedup, execute, fan out.

One :class:`SweepService` owns the daemon's state — job registry,
in-flight table, the result store of the model it prices, and service
metrics — and runs every accepted request through the same pipeline:

1. **compile** the request into unique cell digests (protocol layer);
2. **classify** each digest: ``reused`` (result-store hit), ``deduped``
   (another job is already executing it — join its future),
   ``equivalent`` (a cell this daemon executed differs from it only in
   eager limit, and its limit answers each of that cell's eager
   choices alike — see :class:`ChoiceIndex`), or *owned* (this job
   claims it and will execute);
3. **execute** the owned set through a per-job
   :class:`~repro.exec.Executor` on a worker thread (the event loop
   never blocks on simulation), persisting and resolving each cell the
   moment it completes.  Every job's executor shares the daemon's one
   :class:`~repro.exec.WorkerPool`, forked at the first parallel batch
   and joined by :meth:`SweepService.close`;
4. **fan out**: joiners receive resolved outcomes; if an owner fails,
   joiners re-classify once (the store may have the cell, else they
   claim it themselves) instead of failing with it.

Counts are per job and truthful: a cell the executor found already
persisted (a classify/execute race with another process) is reported
``reused`` even though this job nominally owned it, so summing
``recomputed`` across jobs equals the number of actual executions.

All service state mutates on the event-loop thread; worker threads hand
results back via ``loop.call_soon_threadsafe``.  The one cross-thread
touch point is the in-flight digest set, which the result store's
eviction pass reads (``protect=``) under its own lock.
"""

from __future__ import annotations

import asyncio
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from ..exec import CellOutcome, CellSpec, Executor, ResultStore, WorkerPool
from ..obs import MetricsRegistry
from ..obs import host as _host
from .dedup import InFlightTable
from .jobs import SOURCES, Job, JobRegistry, RUNNING
from .protocol import CompiledSweep, SweepRequest, encode_cell

__all__ = ["ChoiceIndex", "SweepService"]

#: Executed cells a :class:`ChoiceIndex` keeps; past it, the oldest go.
CHOICE_INDEX_CAP = 10_000


class ChoiceIndex:
    """Executed outcomes by base digest, each with its eager choices.

    A run reads the tuning's eager limit only through
    ``CostModel.uses_eager`` (its ``eager_choices``), so a cell that
    differs from an executed one only in eager limit, and whose limit
    answers every recorded choice the same way, has that outcome bit for
    bit.  ``auto`` outcomes carry no choices and are never indexed.
    Holds at most :data:`CHOICE_INDEX_CAP` outcomes (read at
    construction) and drops the oldest first, which only loses sharing.
    """

    def __init__(self) -> None:
        self.cap = CHOICE_INDEX_CAP
        self._by_base: dict[str, list[CellOutcome]] = {}
        self._order: deque[str] = deque()

    def __len__(self) -> int:
        return len(self._order)

    def add(self, spec: CellSpec, outcome: CellOutcome) -> None:
        """Index a freshly executed ``outcome`` of ``spec``; one whose
        choices an indexed outcome already made adds nothing."""
        choices = outcome.eager_choices
        if choices is None:
            return
        base = spec.base_digest
        entries = self._by_base.setdefault(base, [])
        if any(known.eager_choices == choices for known in entries):
            return
        entries.append(outcome)
        self._order.append(base)
        if len(self._order) > self.cap:
            oldest = self._order.popleft()
            entries = self._by_base[oldest]
            del entries[0]
            if not entries:
                del self._by_base[oldest]

    def lookup(self, spec: CellSpec) -> CellOutcome | None:
        """The first indexed outcome under ``spec``'s base digest whose
        every choice ``spec``'s tuning makes alike, else ``None``."""
        uses_eager = spec.platform.tuning.uses_eager
        for outcome in self._by_base.get(spec.base_digest, ()):
            if all(
                uses_eager(nbytes, packed=packed, derived=derived) == eager
                for (nbytes, packed, derived), eager in outcome.eager_choices.items()
            ):
                return outcome
        return None


class SweepService:
    """Everything behind the HTTP surface (and directly drivable in
    tests — the server module adds transport, nothing else).

    Parameters
    ----------
    store_root:
        Result-store directory (default: the shared cache dir).  The
        daemon reads and writes the generation of its own
        ``MODEL_VERSION`` there.
    cache:
        ``False`` disables the store, and with it the choice index:
        every cell is executed (in-flight dedup still collapses
        concurrent duplicates).
    jobs:
        Worker processes: one pool for the daemon's lifetime, shared by
        every job.
    max_store_bytes:
        Optional store size bound; eviction never touches in-flight
        digests (the store's ``protect`` hook reads the table).
    max_concurrent_jobs:
        Jobs allowed past classification into execution at once.
    executor_factory:
        Test hook: ``factory(store) -> Executor`` replaces the default
        construction.
    """

    def __init__(
        self,
        *,
        store_root: str | Path | None = None,
        cache: bool = True,
        jobs: int = 1,
        max_store_bytes: int | None = None,
        max_concurrent_jobs: int = 4,
        executor_factory: Callable[[ResultStore | None], Executor] | None = None,
    ):
        if max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be >= 1")
        if max_store_bytes is not None and max_store_bytes < 0:
            raise ValueError("max_store_bytes must be non-negative")
        self.registry = JobRegistry()
        self.inflight = InFlightTable()
        #: Always-on service metrics (request counters, job latency,
        #: dedup tallies) — independent of host telemetry.
        self.metrics = MetricsRegistry()
        #: The one result store (``None`` under ``cache=False``).
        self.store = (
            ResultStore(
                store_root, max_bytes=max_store_bytes, protect=self.inflight.snapshot
            )
            if cache
            else None
        )
        #: Cells this daemon executed, by base digest (``None`` without
        #: a store): what ``equivalent`` cells are served from.
        self.choices = ChoiceIndex() if cache else None
        self._jobs = jobs
        self._pool = WorkerPool(jobs) if jobs > 1 else None
        self._executor_factory = executor_factory
        self._semaphore = asyncio.Semaphore(max_concurrent_jobs)
        self._tasks: set[asyncio.Task] = set()
        self.started = perf_counter()

    # ------------------------------------------------------------------
    def _executor(self, store: ResultStore | None) -> Executor:
        if self._executor_factory is not None:
            return self._executor_factory(store)
        return Executor(jobs=self._jobs, cache=store, pool=self._pool)

    # ------------------------------------------------------------------
    def submit(self, request: SweepRequest) -> Job:
        """Accept a validated request: compile it, register a job, and
        schedule its run.  Raises :class:`ProtocolError` on unknown
        platforms (compilation re-validates against the registry)."""
        compiled = request.compile()
        unique: dict[str, CellSpec] = {}
        for sweep in compiled:
            for spec in sweep.specs:
                unique.setdefault(spec.digest, spec)
        job = self.registry.create(request, total=len(unique))
        self.metrics.counter("serve.jobs_submitted").inc()
        self.metrics.gauge("serve.jobs_queued").add(1)
        if _host.active is not None:
            _host.active.event("serve.job_submitted", job=job.id, cells=job.total)
        job.emit(
            {
                "event": "job",
                "job": job.id,
                "status": job.status,
                "total": job.total,
            }
        )
        task = asyncio.get_running_loop().create_task(self._run_job(job, unique))
        # Keep a strong reference until done (asyncio only holds weakly).
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job

    async def _run_job(self, job: Job, unique: dict[str, CellSpec]) -> None:
        loop = asyncio.get_running_loop()
        begin = perf_counter()
        async with self._semaphore:
            self.metrics.gauge("serve.jobs_queued").add(-1)
            self.metrics.gauge("serve.jobs_active").add(1)
            if _host.active is not None:
                _host.active.metrics.gauge("serve.jobs_active").add(1)
            job.status = RUNNING
            job.emit({"event": "job", "job": job.id, "status": job.status})
            try:
                owned: list[CellSpec] = []
                joins: dict[str, asyncio.Future] = {}
                self._classify(job, unique, loop, owned, joins)
                if owned:
                    await self._execute_owned(job, owned, loop)
                for digest, future in joins.items():
                    try:
                        outcome = await future
                    except Exception:
                        # The owner died; this job recovers on its own.
                        await self._reclaim(job, unique[digest], loop)
                    else:
                        self._record(job, unique[digest], outcome, "deduped")
                job.finish()
            except Exception as exc:  # noqa: BLE001 - job-level containment
                job.finish(error=f"{type(exc).__name__}: {exc}")
                self.metrics.counter("serve.jobs_failed").inc()
            finally:
                self.metrics.gauge("serve.jobs_active").add(-1)
                elapsed = perf_counter() - begin
                self.metrics.histogram("serve.job_seconds", "latency").observe(elapsed)
                if _host.active is not None:
                    _host.active.metrics.gauge("serve.jobs_active").add(-1)
                    _host.active.add_span(
                        "serve.job",
                        begin,
                        perf_counter(),
                        job=job.id,
                        cells=job.total,
                        status=job.status,
                    )

    # ------------------------------------------------------------------
    def _classify(
        self,
        job: Job,
        unique: dict[str, CellSpec],
        loop: asyncio.AbstractEventLoop,
        owned: list[CellSpec],
        joins: dict[str, asyncio.Future],
    ) -> None:
        """Partition the grid: store hits and equivalent cells recorded
        immediately, live flights joined, the rest claimed for
        execution."""
        store = self.store
        for digest, spec in unique.items():
            existing = self.inflight.peek(digest)
            if existing is not None:
                joins[digest] = existing
                continue
            hit = store.get(spec) if store is not None else None
            if hit is not None:
                self._record(job, spec, hit, "reused")
                continue
            if self._serve_equivalent(job, spec):
                continue
            is_owner, future = self.inflight.claim(digest, loop)
            if is_owner:
                owned.append(spec)
            else:  # pragma: no cover - claim follows peek on one thread
                joins[digest] = future
        if store is not None:
            store.flush_counters()

    async def _execute_owned(
        self,
        job: Job,
        owned: list[CellSpec],
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        """Run this job's claimed cells on a worker thread, resolving
        each flight (and recording the cell) the moment it lands."""
        executor = self._executor(self.store)

        def on_outcome(index: int, outcome: CellOutcome, cached: bool) -> None:
            # Worker-thread context: hop to the loop before touching
            # jobs or the in-flight table.
            loop.call_soon_threadsafe(
                self._complete_owned, job, owned[index], outcome, cached
            )

        try:
            await asyncio.to_thread(executor.execute_batch, owned, on_outcome=on_outcome)
        except BaseException as exc:
            # Resolved flights stay resolved; everything still pending
            # fails over to its joiners, who re-classify.
            for spec in owned:
                self.inflight.fail(spec.digest, exc)
            raise
        self.metrics.counter("serve.cells_executed").inc(executor.cells_executed)

    def _complete_owned(
        self, job: Job, spec: CellSpec, outcome: CellOutcome, cached: bool
    ) -> None:
        self.inflight.resolve(spec.digest, outcome)
        if self.choices is not None:
            self.choices.add(spec, outcome)
        # Truthful accounting: the executor double-checks the store, so
        # a cell another process persisted between classification and
        # execution comes back cached — that is a reuse, not a recompute.
        self._record(job, spec, outcome, "reused" if cached else "recomputed")

    async def _reclaim(
        self,
        job: Job,
        spec: CellSpec,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        """Joiner recovery after an owner failure: take the store hit if
        the owner got that far, or an equivalent cell, else execute the
        cell ourselves."""
        hit = self.store.get(spec) if self.store is not None else None
        if hit is not None:
            self._record(job, spec, hit, "reused")
            return
        if self._serve_equivalent(job, spec):
            return
        is_owner, future = self.inflight.claim(spec.digest, loop)
        if not is_owner:
            # A third job beat us to the retry; second failures are not
            # retried again — at that point the cell itself is broken.
            outcome = await future
            self._record(job, spec, outcome, "deduped")
            return
        await self._execute_owned(job, [spec], loop)

    def _serve_equivalent(self, job: Job, spec: CellSpec) -> bool:
        """Serve ``spec`` from an executed cell its eager limit cannot
        tell apart, persisted under its own digest; ``False`` when the
        index holds none."""
        if self.choices is None:
            return False
        outcome = self.choices.lookup(spec)
        if outcome is None:
            return False
        self.store.put(spec, outcome)
        self._record(job, spec, outcome, "equivalent")
        return True

    def _record(self, job: Job, spec: CellSpec, outcome: CellOutcome, source: str) -> None:
        job.record_cell(encode_cell(spec, outcome, source=source))
        self.metrics.counter(f"serve.cells_{source}").inc()

    # ------------------------------------------------------------------
    def read_cell(self, digest: str) -> dict[str, Any] | None:
        """The persisted payload behind ``GET /cells/<digest>``."""
        return self.store.read_digest(digest) if self.store is not None else None

    def stats(self) -> dict[str, Any]:
        """The ``GET /stats`` body: job counts, cells per source, the
        store's stats (``None`` without a store), and the raw metrics
        snapshot."""
        cells = {s: self.metrics.counter_value(f"serve.cells_{s}") for s in SOURCES}
        served = sum(cells.values())
        store = None
        if self.store is not None:
            s = self.store.stats()
            store = {
                "salt": s.salt,
                "entries": s.entries,
                "bytes": s.bytes,
                "hits": s.hits,
                "misses": s.misses,
                "writes": s.writes,
                "evictions": s.evictions,
            }
        return {
            "uptime_seconds": perf_counter() - self.started,
            "jobs": self.registry.counts(),
            "cells": {"served": served, **cells},
            "dedup_hit_rate": (
                (served - cells["recomputed"]) / served if served else None
            ),
            "inflight": len(self.inflight),
            "store": store,
            "metrics": self.metrics.snapshot(),
        }

    async def drain(self) -> None:
        """Wait for every scheduled job to finish (shutdown path)."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    def close(self) -> None:
        """Join the worker pool (shutdown path, after :meth:`drain`)."""
        if self._pool is not None:
            self._pool.close()
