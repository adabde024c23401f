"""The cell executor: *how* a batch of specs gets run.

Every sweep and experiment reduces to a batch of :class:`CellSpec`\\ s;
the :class:`Executor` turns batches into results three ways, all
bit-identical:

* **serially** (``jobs=1``, the default) — in-process, cell by cell,
  exactly the pre-split double loop;
* **in parallel** (``jobs=N``) — fanned out over a :class:`WorkerPool`
  in *chunks* of many cells per worker task.  Cells are pure functions
  of their specs (deterministic kernel, per-cell noise seeding), so
  worker placement, chunking, and completion order cannot affect any
  result.  The pool is forked at the first batch that needs it and
  reused by every later batch of the command (or daemon) until
  :meth:`Executor.close`.  Each chunk carries the batch's shared tables
  (platform pricing models, timing policies) once, plus slim per-cell
  payloads (scheme key, layout, table indices), so dispatch cost is
  amortized over the whole chunk instead of paid per cell;
* **from cache** — when a :class:`~repro.exec.store.ResultStore` is
  attached, hits skip execution entirely and misses are persisted the
  moment they complete, making interrupted batches resumable.

Per-cell metrics registries are merged (commutatively, so parallel
completion order does not matter) into :attr:`Executor.metrics`;
traced runs (``repro trace``/``explain``) keep calling
:func:`~repro.core.pingpong.run_pingpong` directly, since a trace wants
one world's recorder, not an aggregate.

The *ambient* executor (:func:`current_executor`/:func:`using_executor`)
is how the CLI threads ``--jobs``/``--no-cache`` through every code
path — ``run_sweep``, figures, claims, experiments, and validation all
ask for the ambient executor unless handed one explicitly.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from ..core.layout import Layout
from ..core.pingpong import PingPongResult
from ..core.timing import TimingPolicy
from ..machine.platform import Platform
from ..obs import MetricsRegistry
from ..obs import host as _host
from .spec import CellOutcome, CellSpec, execute_spec
from .store import ResultStore

__all__ = ["Executor", "WorkerPool", "current_executor", "using_executor"]

#: ``on_result`` callback: (index into the batch, finished cell).
OnResult = Callable[[int, PingPongResult], None]

#: ``on_outcome`` callback: (index, raw outcome, served-from-cache).
OnOutcome = Callable[[int, CellOutcome, bool], None]

#: Auto chunking aims for this many task waves per worker: big enough
#: chunks to amortize dispatch, enough waves that a slow chunk cannot
#: straggle the whole batch.
_CHUNK_WAVES = 4


def _ignore_sigint() -> None:
    """Worker initializer: Ctrl-C belongs to the parent, which cancels
    queued chunks and joins the workers; an idle worker must not die of
    it on its own."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _fork_pool(jobs: int) -> ProcessPoolExecutor:
    """A process pool, forked where available so workers inherit the
    already-imported simulator instead of re-importing numpy per spawn."""
    context = (
        multiprocessing.get_context("fork")
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    return ProcessPoolExecutor(
        max_workers=jobs, mp_context=context, initializer=_ignore_sigint
    )


class WorkerPool:
    """The worker processes behind every parallel batch of one command
    or daemon.

    Forked lazily by the first submission, then reused by every later
    one, from any thread (the serve daemon's concurrent jobs share one
    pool).  A pool broken by a dead worker is replaced at the next
    submission.  :meth:`close` joins the workers.
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Future:
        with self._lock:
            if self._pool is not None:
                try:
                    return self._pool.submit(fn, *args)
                except BrokenProcessPool:
                    self._pool.shutdown(wait=True)
            self._pool = _fork_pool(self.jobs)
            return self._pool.submit(fn, *args)

    def close(self) -> None:
        """Join the workers (a later submission forks new ones)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


# ----------------------------------------------------------------------
# Worker-side chunk machinery.
#
# Every chunk carries the batch's shared tables (platforms, policies)
# once and references them by index per cell.  Pickling a Platform
# (memory/cache/network/CPU models, tuning, noise) per cell is what made
# ``--jobs 2`` slower than serial; once per chunk is noise.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SlimSpec:
    """A :class:`CellSpec` with its heavy shared fields replaced by
    indices into the worker tables — the per-cell task payload."""

    scheme: str
    layout: Layout
    platform_idx: int
    policy_idx: int
    materialize: bool
    concurrent_streams: int

    def rebuild(
        self, platforms: Sequence[Platform], policies: Sequence[TimingPolicy]
    ) -> CellSpec:
        return CellSpec(
            scheme=self.scheme,
            layout=self.layout,
            platform=platforms[self.platform_idx],
            policy=policies[self.policy_idx],
            materialize=self.materialize,
            concurrent_streams=self.concurrent_streams,
        )


def _slim_specs(
    specs: Sequence[CellSpec],
) -> tuple[list[_SlimSpec], tuple[Platform, ...], tuple[TimingPolicy, ...]]:
    """Split a batch into slim per-cell payloads plus the shared tables
    (deduplicated by object identity — equal-but-distinct platforms get
    separate entries, which only costs a few table slots)."""
    platforms: list[Platform] = []
    policies: list[TimingPolicy] = []
    platform_idx: dict[int, int] = {}
    policy_idx: dict[int, int] = {}
    slims: list[_SlimSpec] = []
    for spec in specs:
        pkey = id(spec.platform)
        if pkey not in platform_idx:
            platform_idx[pkey] = len(platforms)
            platforms.append(spec.platform)
        tkey = id(spec.policy)
        if tkey not in policy_idx:
            policy_idx[tkey] = len(policies)
            policies.append(spec.policy)
        slims.append(
            _SlimSpec(
                scheme=spec.scheme,
                layout=spec.layout,
                platform_idx=platform_idx[pkey],
                policy_idx=policy_idx[tkey],
                materialize=spec.materialize,
                concurrent_streams=spec.concurrent_streams,
            )
        )
    return slims, tuple(platforms), tuple(policies)


def _execute_chunk(
    platforms: Sequence[Platform],
    policies: Sequence[TimingPolicy],
    slims: Sequence[_SlimSpec],
) -> tuple[list[CellOutcome], tuple[int, float, float, int] | None]:
    """Worker entry point: run one chunk of slim specs against the
    tables shipped with it; outcomes come back in chunk order, paired
    with a busy-span report when telemetry is active (workers forked
    from a telemetry-on parent inherit ``_host.active``; spawned workers
    re-enable via ``REPRO_HOST_TELEMETRY``)."""
    telemetry = _host.active
    begin = telemetry.now() if telemetry is not None else 0.0
    outcomes = [execute_spec(slim.rebuild(platforms, policies)) for slim in slims]
    if telemetry is None:
        return outcomes, None
    return outcomes, (os.getpid(), begin, telemetry.now(), len(slims))


class Executor:
    """Runs batches of cell specs serially, in parallel, or from cache.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) executes in-process.
    cache:
        Optional on-disk result store.  Hits bypass execution; fresh
        outcomes are persisted per cell as they complete.
    chunk_size:
        Cells per worker task in parallel mode.  ``None`` (default)
        sizes chunks automatically so each worker sees about
        ``_CHUNK_WAVES`` tasks.  Chunking is invisible in every result
        (cells are pure), it only moves the dispatch/compute ratio.
    pool:
        Workers shared with other executors (the serve daemon's jobs);
        the sharer closes it.  By default a ``jobs > 1`` executor owns
        a pool of ``jobs`` workers, forked at its first parallel batch
        and joined by :meth:`close` (or ``with Executor(...)``).
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: ResultStore | None = None,
        chunk_size: int | None = None,
        pool: WorkerPool | None = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.chunk_size = chunk_size
        self._owns_pool = pool is None and jobs > 1
        self.pool = WorkerPool(jobs) if self._owns_pool else pool
        #: Batch-aggregated metrics from every freshly executed cell.
        self.metrics = MetricsRegistry()
        self.cells_executed = 0
        self.cells_cached = 0

    def close(self) -> None:
        """Join the workers of an owned pool (a no-op when serial or
        sharing another's pool)."""
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run_cell(self, spec: CellSpec) -> PingPongResult:
        """Run (or fetch) a single cell."""
        return self.run_batch([spec])[0]

    def run_batch(
        self,
        specs: Sequence[CellSpec],
        *,
        on_result: OnResult | None = None,
    ) -> list[PingPongResult]:
        """Run every spec; return results in spec order.

        ``on_result(index, cell)`` fires as each cell finishes — in
        batch order serially, in completion order under ``jobs > 1``
        (live progress, not an ordering guarantee).

        On ``KeyboardInterrupt``, cells already completed have been
        persisted to the cache (when one is attached); the exception
        propagates so callers can print a resume hint.
        """
        specs = list(specs)
        results: list[PingPongResult | None] = [None] * len(specs)

        def convert(i: int, outcome: CellOutcome, cached: bool) -> None:
            results[i] = specs[i].to_result(outcome, cached=cached)
            if on_result is not None:
                on_result(i, results[i])

        self.execute_batch(specs, on_outcome=convert)
        return results  # type: ignore[return-value]  # every slot is filled

    def execute_batch(
        self,
        specs: Sequence[CellSpec],
        *,
        on_outcome: OnOutcome | None = None,
    ) -> list[tuple[CellOutcome, bool]]:
        """Run every spec; return raw ``(outcome, cached)`` pairs in
        spec order.

        This is the outcome-level twin of :meth:`run_batch` — same
        cache/serial/parallel dispatch, same accounting, same
        interrupt contract — minus the per-cell
        :class:`~repro.core.pingpong.PingPongResult` reconstitution.
        The serve daemon uses it so a cell crosses the wire once as
        raw hex times instead of twice as derived stats.
        ``on_outcome(index, outcome, cached)`` fires as each cell
        finishes (completion order under ``jobs > 1``).
        """
        specs = list(specs)
        out: list[tuple[CellOutcome, bool] | None] = [None] * len(specs)
        pending: list[int] = []
        try:
            for i, spec in enumerate(specs):
                hit = self.cache.get(spec) if self.cache is not None else None
                if hit is not None:
                    self.cells_cached += 1
                    out[i] = (hit, True)
                    if on_outcome is not None:
                        on_outcome(i, hit, True)
                else:
                    pending.append(i)

            if self.jobs == 1 or len(pending) <= 1:
                for i in pending:
                    if _host.active is not None:
                        with _host.active.span(
                            "cell.execute", scheme=specs[i].scheme
                        ):
                            outcome = execute_spec(specs[i])
                    else:
                        outcome = execute_spec(specs[i])
                    self._absorb(specs[i], outcome)
                    out[i] = (outcome, False)
                    if on_outcome is not None:
                        on_outcome(i, outcome, False)
            elif pending:
                self._run_parallel(specs, pending, out, on_outcome)
        finally:
            # Completed cells' store counters become durable even when
            # the batch is interrupted (same contract as cached cells).
            if self.cache is not None:
                self.cache.flush_counters()
        return out  # type: ignore[return-value]  # every slot is filled

    def _resolve_chunk_size(self, npending: int) -> int:
        """Cells per worker task: the explicit setting, or enough per
        chunk that each worker sees about ``_CHUNK_WAVES`` tasks."""
        if self.chunk_size is not None:
            return self.chunk_size
        workers = min(self.jobs, npending)
        return max(1, math.ceil(npending / (workers * _CHUNK_WAVES)))

    def _run_parallel(
        self,
        specs: list[CellSpec],
        pending: list[int],
        out: list[tuple[CellOutcome, bool] | None],
        on_outcome: OnOutcome | None,
    ) -> None:
        slims, platforms, policies = _slim_specs([specs[i] for i in pending])
        size = self._resolve_chunk_size(len(pending))
        chunks = [
            (pending[lo : lo + size], slims[lo : lo + size])
            for lo in range(0, len(pending), size)
        ]
        telemetry = _host.active
        futures: dict[Future, list[int]] = {}
        chunk_ids: dict[Future, int] = {}
        try:
            for chunk_id, (indices, chunk_slims) in enumerate(chunks):
                fut = self.pool.submit(_execute_chunk, platforms, policies, chunk_slims)
                futures[fut] = indices
                chunk_ids[fut] = chunk_id
                if telemetry is not None:
                    telemetry.event(
                        "chunk.dispatch", chunk=chunk_id, cells=len(indices)
                    )
            not_done = set(futures)
            if telemetry is not None:
                telemetry.metrics.gauge("exec.queue_depth").set(len(not_done))
                telemetry.event("exec.queue_depth", depth=len(not_done))
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                if telemetry is not None:
                    telemetry.metrics.gauge("exec.queue_depth").set(len(not_done))
                    telemetry.event("exec.queue_depth", depth=len(not_done))
                for fut in done:
                    # Results stream back per chunk; the metrics merge
                    # stays commutative, so chunk completion order is
                    # unobservable in the aggregate.
                    outcomes, report = fut.result()
                    if telemetry is not None:
                        telemetry.metrics.counter("exec.chunks_completed").inc()
                        telemetry.event(
                            "chunk.complete", chunk=chunk_ids[fut], cells=len(outcomes)
                        )
                        if report is not None:
                            wpid, begin, end, ncells = report
                            telemetry.add_span(
                                "worker.chunk",
                                begin,
                                end,
                                lane=f"worker-{wpid}",
                                pid=wpid,
                                chunk=chunk_ids[fut],
                                cells=ncells,
                            )
                    for i, outcome in zip(futures[fut], outcomes):
                        self._absorb(specs[i], outcome)
                        out[i] = (outcome, False)
                        if on_outcome is not None:
                            on_outcome(i, outcome, False)
        except BaseException:
            # Persisted cells survive; this batch's queued chunks are
            # dropped now so Ctrl-C does not wait behind them (the
            # pool's owner joins the workers).
            for fut in futures:
                fut.cancel()
            raise

    def _absorb(self, spec: CellSpec, outcome: CellOutcome) -> None:
        """Account and persist one freshly executed outcome."""
        self.cells_executed += 1
        if self.cache is not None:
            self.cache.put(spec, outcome)
        if outcome.metrics is not None:
            self.metrics.merge(outcome.metrics)

    # ------------------------------------------------------------------
    def starmap(self, fn: Callable[..., Any], argtuples: Sequence[tuple]) -> list[Any]:
        """Generic fan-out for cell-shaped work that is not a
        :class:`CellSpec` (e.g. payload-validation deliveries).

        ``fn`` must be picklable (module-level) and pure; results come
        back in argument order.  No caching — only specs are
        content-addressed.
        """
        argtuples = list(argtuples)
        if self.jobs == 1 or len(argtuples) <= 1:
            return [fn(*args) for args in argtuples]
        futures = [self.pool.submit(fn, *args) for args in argtuples]
        try:
            return [f.result() for f in futures]
        except BaseException:
            for f in futures:
                f.cancel()
            raise

    def describe(self) -> str:
        cache = "off" if self.cache is None else str(self.cache.root)
        chunk = "auto" if self.chunk_size is None else str(self.chunk_size)
        return (
            f"executor: jobs={self.jobs}, chunk={chunk}, cache={cache} "
            f"({self.cells_executed} executed, {self.cells_cached} cache hits)"
        )


# ----------------------------------------------------------------------
# The ambient executor.
# ----------------------------------------------------------------------
_ambient: Executor | None = None
_default: Executor | None = None


def current_executor() -> Executor:
    """The executor in effect: the innermost :func:`using_executor`
    installation, else a process-wide serial, cache-less default that
    reproduces pre-split behaviour exactly."""
    global _default
    if _ambient is not None:
        return _ambient
    if _default is None:
        _default = Executor()
    return _default


@contextmanager
def using_executor(executor: Executor) -> Iterator[Executor]:
    """Install ``executor`` as the ambient executor for a ``with`` block
    (the CLI wraps each command in one; tests use it for isolation)."""
    global _ambient
    previous = _ambient
    _ambient = executor
    try:
        yield executor
    finally:
        _ambient = previous
