"""Deterministic discrete-event kernel with thread-backed tasks.

Design
------
User code (an MPI "rank program") runs in an ordinary Python thread and
calls blocking APIs (``comm.Send``, ``task.sleep``, ...).  A single
virtual clock advances by draining a priority queue of events in
``(time, sequence-number)`` order; exactly one thread runs at any
instant, so execution is fully deterministic regardless of OS
scheduling, and no shared-state locking is needed.

Scheduling is *baton passing*: there is no kernel thread.  The thread
that suspends holds the baton and drains the heap itself, running
``call`` callbacks inline with no current task (kernel context, so
:attr:`Kernel.current_task` is ``None`` inside them).  When an event
resumes a task, one of two things happens:

* it is the suspending task itself — the thread just returns, with no
  thread switch (:attr:`Kernel.self_resumes`);
* it is another task — the thread releases that task's lock and blocks
  on its own (:attr:`Kernel.handoffs`).

A task whose function returns carries on draining the same way until
it hands the baton on.  The thread that called :meth:`Kernel.run`
drains until the first task starts, then only waits for the end of the
run.

This is the classic "threads as coroutines" PDES construction; the
threads exist only to give rank programs a natural blocking call style
(matching real MPI code, see ``examples/``) without rewriting them as
generators.

One CPU per run
---------------
Only one thread of a run is ever runnable, so :meth:`Kernel.run` binds
its calling thread to the CPU it is on for the length of the run (or
keeps the one CPU it is already bound to).  CPU affinity is per thread
on Linux, so every task thread the run starts inherits that mask: a
handoff then wakes the next thread on the same core, with the
interpreter's hot state still in its caches, instead of on whichever
core the OS picks.  The caller's mask is restored when the run ends.
Where binding is unavailable, the run proceeds unbound.  Binding only
moves host time; the event order, and so every virtual time, is the
same either way.
"""

from __future__ import annotations

import ctypes
import heapq
import itertools
import os
import threading
from collections.abc import Callable
from enum import Enum
from typing import Any

from ..obs import host as _host
from .errors import DeadlockError, EventLimitExceeded, KernelStateError, SimError
from .trace import NullTracer, Tracer, WaitEdge, WakeCause

__all__ = ["Kernel", "SimTask", "TaskState"]


def _load_sched_getcpu() -> Callable[[], int] | None:
    """glibc's ``sched_getcpu``: the CPU the calling thread is on (-1
    on error), or ``None`` where the C library lacks it."""
    try:
        fn = ctypes.CDLL(None, use_errno=True).sched_getcpu
    except (OSError, AttributeError):
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return fn


_sched_getcpu = _load_sched_getcpu()


def _bind_to_one_cpu() -> set[int] | None:
    """Bind the calling thread to the CPU it is on; return the mask to
    restore afterwards, or ``None`` when nothing was changed (already
    bound to one CPU, or binding unavailable)."""
    if _sched_getcpu is None or not hasattr(os, "sched_setaffinity"):
        return None
    try:
        mask = os.sched_getaffinity(0)
        cpu = _sched_getcpu()
        if len(mask) == 1 or cpu not in mask:
            return None
        os.sched_setaffinity(0, (cpu,))
    except OSError:
        return None
    return mask


class _TaskKilled(BaseException):
    """Injected into a suspended task to unwind its thread on abort.

    Derives from ``BaseException`` so ordinary ``except Exception``
    blocks in user code cannot swallow it.
    """


class TaskState(Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    SLEEPING = "sleeping"
    BLOCKED = "blocked"
    FINISHED = "finished"
    KILLED = "killed"


class SimTask:
    """One cooperatively-scheduled task (an MPI rank, usually).

    Created via :meth:`Kernel.spawn`; the public surface for code
    running *inside* the task is :meth:`sleep`, :meth:`wait_until`, and
    the :attr:`now` clock.
    """

    def __init__(self, kernel: "Kernel", fn: Callable[..., Any], args: tuple, name: str):
        self._kernel = kernel
        self._fn = fn
        self._args = args
        self.name = name
        self.state = TaskState.NEW
        self.block_reason = ""
        self.result: Any = None
        # Held while the thread runs or is parked; released by whoever
        # passes this task the baton (or unwinds it on abort).
        self._baton = threading.Lock()
        self._baton.acquire()
        self._killed = False
        self._wake_token = 0
        self._block_begin = 0.0
        # Set by wake() while edge recording is on: (waker, notify_time,
        # cause); consumed when the resume event fires.
        self._pending_wake: tuple[str | None, float, WakeCause | None] | None = None
        self._thread = threading.Thread(target=self._thread_body, name=f"sim:{name}", daemon=True)

    # ------------------------------------------------------------------
    # Thread plumbing (private)
    # ------------------------------------------------------------------
    def _thread_body(self) -> None:
        kernel = self._kernel
        try:
            self.state = TaskState.RUNNING
            self.result = self._fn(*self._args)
            self.state = TaskState.FINISHED
        except _TaskKilled:
            self.state = TaskState.KILLED
            return
        except BaseException as exc:  # noqa: BLE001 - forwarded to kernel
            self.state = TaskState.FINISHED
            kernel._record_failure(exc, self)
        kernel._task_done(self)
        # Still holding the baton: carry the run on until another task
        # takes it (or the run ends).
        kernel._current = None
        kernel._pass(kernel._advance())

    def _suspend(self) -> None:
        """Drain events on this thread until one resumes a task; park
        here unless that task is this one."""
        self._wake_token += 1
        kernel = self._kernel
        kernel._current = None
        task = kernel._advance()
        if task is self:
            kernel.self_resumes += 1
            kernel._current = self
        else:
            kernel._pass(task)
            self._baton.acquire()
            if self._killed:
                raise _TaskKilled()
        self.state = TaskState.RUNNING

    # ------------------------------------------------------------------
    # Public task API (call only from inside the task)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._kernel.now

    @property
    def alive(self) -> bool:
        return self.state not in (TaskState.FINISHED, TaskState.KILLED)

    def sleep(self, duration: float) -> None:
        """Advance this task's clock by ``duration`` virtual seconds."""
        self._kernel._check_current(self)
        if duration < 0:
            raise ValueError(f"cannot sleep for negative duration {duration!r}")
        if duration == 0:
            return
        if self._kernel.tracer.wait_edges_enabled:
            now = self._kernel.now
            self._kernel.tracer.record_sleep(self.name, now, now + duration)
        self.state = TaskState.SLEEPING
        self.block_reason = f"sleep({duration:.3g})"
        # _suspend() increments the wake token on entry, so the token
        # valid *while suspended* is the current value plus one.
        self._kernel._schedule_resume(self, self._kernel.now + duration, self._wake_token + 1)
        self._suspend()

    def wait_until(self, time: float) -> None:
        """Sleep until virtual ``time`` (no-op if already past it)."""
        self.sleep(max(0.0, time - self._kernel.now))

    def block(self, reason: str) -> None:
        """Suspend until another party calls :meth:`wake`.

        Building block for condition variables and message matching; the
        ``reason`` string surfaces in deadlock diagnostics.
        """
        self._kernel._check_current(self)
        self.state = TaskState.BLOCKED
        self.block_reason = reason
        self._block_begin = self._kernel.now
        self._pending_wake = None
        self._suspend()

    def wake(self, delay: float = 0.0, cause: WakeCause | None = None) -> None:
        """Schedule this (suspended) task to resume ``delay`` from now.

        Calling ``wake`` on a task that is not currently suspended is a
        programming error: there is no suspension for the wakeup to
        target.  ``cause`` (only stored while edge recording is on)
        documents *why* — it becomes part of the wait-for edge emitted
        when the resume fires.
        """
        if not self.alive:
            return
        if self.state not in (TaskState.SLEEPING, TaskState.BLOCKED):
            raise KernelStateError(f"cannot wake {self.name!r}: state is {self.state.value}")
        kernel = self._kernel
        if kernel.tracer.wait_edges_enabled:
            waker = kernel._current
            self._pending_wake = (waker.name if waker is not None else None, kernel.now, cause)
        # The task is suspended, so its wake token already carries the
        # suspended value.
        kernel._schedule_resume(self, kernel.now + delay, self._wake_token)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimTask {self.name} {self.state.value}>"


class Kernel:
    """The event loop.  See module docstring for the execution model."""

    def __init__(self, tracer: Tracer | None = None):
        self._heap: list[tuple[float, int, str, Any]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._tasks: list[SimTask] = []
        self._live_count = 0
        self._current: SimTask | None = None
        self._failure: BaseException | None = None
        # An exception raised while draining (a callback's, or the
        # event limit): run() re-raises it.
        self._error: BaseException | None = None
        self._max_events: int | None = None
        self._ran = False
        # Set by the thread that ends the run; _aborted asks the baton
        # holder to end it at its next suspend (Ctrl-C in run()).
        self._over = False
        self._aborted = False
        # Held by run() until the thread that ends the run releases it.
        self._done = threading.Lock()
        self._events_processed = 0
        #: Resumes handed to a parked task's thread by another thread.
        self.handoffs = 0
        #: Resumes a suspending task drew for itself: no thread switch.
        #: In a run that completes, ``handoffs + self_resumes`` is the
        #: number of suspends.
        self.self_resumes = 0
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time, seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def tasks(self) -> list[SimTask]:
        return list(self._tasks)

    @property
    def current_task(self) -> SimTask | None:
        return self._current

    # ------------------------------------------------------------------
    # Construction-time API
    # ------------------------------------------------------------------
    def spawn(self, fn: Callable[..., Any], *args: Any, name: str | None = None) -> SimTask:
        """Create a task that starts running at the current virtual time."""
        task = SimTask(self, fn, args, name or f"task{len(self._tasks)}")
        self._tasks.append(task)
        self._live_count += 1
        task.state = TaskState.READY
        self._push(self._now, "start", task)
        return task

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule a kernel-context callback ``delay`` from now.

        Callbacks run in kernel context (on whichever thread holds the
        baton, with no current task) and must not block; they are the
        mechanism for timed deliveries (a message "arriving").
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self._push(self._now + delay, "call", (fn, args))

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, max_events: int | None = None) -> None:
        """Drain the event queue; returns when every task has finished.

        Raises :class:`DeadlockError` if live tasks remain with no
        events pending, re-raises the first exception any task raised,
        and raises :class:`EventLimitExceeded` past ``max_events``.
        The calling thread, and so every task thread, is bound to one
        CPU until the run ends (see "One CPU per run" above).
        """
        if self._ran:
            raise KernelStateError("a Kernel can only be run once")
        self._ran = True
        self._max_events = max_events
        self._done.acquire()
        previous_mask = _bind_to_one_cpu()
        try:
            task = self._advance()
            if task is not None:
                # The task threads carry the run from here; this thread
                # only waits for its end.
                self._pass(task)
                self._done.acquire()
            if self._error is not None:
                raise self._error
            if self._failure is not None:
                raise self._failure
            if self._live_count > 0:
                blocked = [
                    (t.name, t.block_reason or t.state.value, t._block_begin)
                    for t in self._tasks
                    if t.alive
                ]
                raise DeadlockError(blocked, edges=self.tracer.wait_edges())
        finally:
            self._abort_remaining()
            if previous_mask is not None:
                try:
                    os.sched_setaffinity(0, previous_mask)
                except OSError:
                    pass  # the thread stays bound; the run's outcome stands
            if _host.active is not None:
                counters = _host.active.metrics
                counters.counter("sim.handoffs").inc(self.handoffs)
                counters.counter("sim.self_resumes").inc(self.self_resumes)
                counters.counter("sim.events").inc(self._events_processed)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: str, payload: Any) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), kind, payload))

    def _schedule_resume(self, task: SimTask, time: float, token: int) -> None:
        self._push(time, "resume", (task, token))

    def _advance(self) -> SimTask | None:
        """Process events on the calling thread until one resumes a
        task, and return that task.

        Returns ``None`` once the run is over: queue drained, a task
        failed, an exception was raised here, or :meth:`run` asked for
        an abort.  :meth:`run` raises the outcome.  Returning, rather
        than parking inside this frame, drops the last event's payload
        before the calling thread parks.
        """
        try:
            while self._heap and self._failure is None and not self._aborted:
                time, _seq, kind, payload = heapq.heappop(self._heap)
                self._now = time
                self._events_processed += 1
                if self._max_events is not None and self._events_processed > self._max_events:
                    raise EventLimitExceeded(
                        f"exceeded {self._max_events} events at virtual time {time:.6g}"
                    )
                if kind == "call":
                    fn, args = payload
                    fn(*args)
                elif kind == "start":
                    if self.tracer.wait_edges_enabled:
                        self.tracer.record_task_start(payload.name, time)
                    return payload
                elif kind == "resume":
                    task, token = payload
                    if (
                        task.state in (TaskState.SLEEPING, TaskState.BLOCKED)
                        and token == task._wake_token
                    ):
                        if task.state is TaskState.BLOCKED and self.tracer.wait_edges_enabled:
                            pending = task._pending_wake
                            waker, notify_time, cause = (
                                pending if pending is not None else (None, time, None)
                            )
                            self.tracer.record_wait_edge(
                                WaitEdge(
                                    task=task.name,
                                    block_begin=task._block_begin,
                                    resume_time=time,
                                    reason=task.block_reason,
                                    waker=waker,
                                    notify_time=notify_time,
                                    cause=cause,
                                )
                            )
                        return task
                else:  # pragma: no cover - defensive
                    raise SimError(f"unknown event kind {kind!r}")
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            self._error = exc
        self._over = True
        return None

    def _pass(self, task: SimTask | None) -> None:
        """Hand the baton to ``task``'s thread, or end the run (``None``).

        Everything the caller does after this is park or exit.
        """
        if task is None:
            self._done.release()
            return
        self._current = task
        if task._thread.ident is None:
            # Threads start lazily so tasks spawned mid-run work the
            # same as tasks spawned up front.
            task._thread.start()
        else:
            self.handoffs += 1
            task._baton.release()

    def _check_current(self, task: SimTask) -> None:
        if self._current is not task:
            raise KernelStateError(
                f"task API for {task.name!r} called outside its own execution context"
            )

    def _record_failure(self, exc: BaseException, task: SimTask) -> None:
        if self._failure is None:
            exc.add_note(f"raised in simulated task {task.name!r} at t={self._now:.6g}s")
            self._failure = exc

    def _task_done(self, task: SimTask) -> None:
        self._live_count -= 1
        if self.tracer.wait_edges_enabled and task.state is TaskState.FINISHED:
            self.tracer.record_task_finish(task.name, self._now)

    def _abort_remaining(self) -> None:
        """Unwind any still-parked task threads so they don't leak.

        If :meth:`run` is leaving early (Ctrl-C) while a task thread
        still holds the baton, that thread is first asked to stop at its
        next suspend, so no task runs while the parked ones unwind.
        """
        if not self._over:
            self._aborted = True
            self._done.acquire(timeout=10.0)
        for task in self._tasks:
            if task._thread.is_alive() and task.alive:
                task._killed = True
                task._baton.release()
        for task in self._tasks:
            if task._thread.is_alive():
                task._thread.join(timeout=10.0)
