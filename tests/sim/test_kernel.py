"""Kernel unit tests: scheduling, clocks, wake tokens, failure modes."""

from __future__ import annotations

import errno
import json
import os
import signal
import threading
import weakref
from pathlib import Path

import pytest

from repro.obs import host
from repro.sim import (
    DeadlockError,
    EventLimitExceeded,
    Kernel,
    KernelStateError,
    SimCondition,
    TaskState,
)


def test_single_task_sleep_advances_clock():
    k = Kernel()
    seen = []

    def main():
        t = k.tasks[0]
        seen.append(t.now)
        t.sleep(2.5)
        seen.append(t.now)
        t.sleep(0.5)
        seen.append(t.now)

    k.spawn(main, name="solo")
    k.run()
    assert seen == [0.0, 2.5, 3.0]
    assert k.now == 3.0


def test_zero_sleep_is_noop():
    k = Kernel()

    def main():
        t = k.tasks[0]
        t.sleep(0.0)
        assert t.now == 0.0

    k.spawn(main)
    k.run()
    assert k.events_processed == 1  # just the start event


def test_negative_sleep_rejected():
    k = Kernel()
    def main():
        k.tasks[0].sleep(-1.0)
    k.spawn(main)
    with pytest.raises(ValueError, match="negative"):
        k.run()


def test_tasks_interleave_by_virtual_time():
    k = Kernel()
    order = []

    def make(name, delay):
        def body():
            task = next(t for t in k.tasks if t.name == name)
            task.sleep(delay)
            order.append((name, task.now))
        return body

    k.spawn(make("slow", 5.0), name="slow")
    k.spawn(make("fast", 1.0), name="fast")
    k.spawn(make("mid", 3.0), name="mid")
    k.run()
    assert order == [("fast", 1.0), ("mid", 3.0), ("slow", 5.0)]


def test_equal_times_resolve_in_spawn_order():
    k = Kernel()
    order = []

    def make(tag):
        def body():
            t = [t for t in k.tasks if t.name == tag][0]
            t.sleep(1.0)
            order.append(tag)
        return body

    for tag in ("a", "b", "c"):
        k.spawn(make(tag), name=tag)
    k.run()
    assert order == ["a", "b", "c"]


def test_task_results_and_finish_states():
    k = Kernel()

    def main():
        k.tasks[0].sleep(1.0)
        return 42

    task = k.spawn(main)
    k.run()
    assert task.result == 42
    assert task.state == TaskState.FINISHED
    assert not task.alive


def test_call_later_runs_in_kernel_context():
    k = Kernel()
    fired = []

    def main():
        t = k.tasks[0]
        k.call_later(2.0, lambda: fired.append(k.now))
        t.sleep(5.0)

    k.spawn(main)
    k.run()
    assert fired == [2.0]


def test_call_later_negative_delay_rejected():
    k = Kernel()
    with pytest.raises(ValueError):
        k.call_later(-0.1, lambda: None)


def test_exception_propagates_with_task_note():
    k = Kernel()

    def boom():
        k.tasks[0].sleep(1.0)
        raise RuntimeError("kaput")

    k.spawn(boom, name="boomtask")
    with pytest.raises(RuntimeError, match="kaput") as exc_info:
        k.run()
    assert any("boomtask" in note for note in exc_info.value.__notes__)


def test_first_failure_wins():
    k = Kernel()

    def fail_at(t_fail, msg):
        def body():
            task = [t for t in k.tasks if t.name == msg][0]
            task.sleep(t_fail)
            raise ValueError(msg)
        return body

    k.spawn(fail_at(2.0, "late"), name="late")
    k.spawn(fail_at(1.0, "early"), name="early")
    with pytest.raises(ValueError, match="early"):
        k.run()


def test_deadlock_reports_blocked_tasks():
    k = Kernel()
    cond = SimCondition(k, "never")

    def stuck():
        cond.wait(k.tasks[0], reason="waiting-for-godot")

    k.spawn(stuck, name="estragon")
    with pytest.raises(DeadlockError, match="estragon.*waiting-for-godot"):
        k.run()


def test_deadlock_not_raised_when_tasks_finish():
    k = Kernel()
    k.spawn(lambda: None)
    k.run()  # must not raise


def test_event_limit():
    k = Kernel()

    def spin():
        t = k.tasks[0]
        while True:
            t.sleep(1.0)

    k.spawn(spin)
    with pytest.raises(EventLimitExceeded):
        k.run(max_events=50)


def test_kernel_single_use():
    k = Kernel()
    k.spawn(lambda: None)
    k.run()
    with pytest.raises(KernelStateError):
        k.run()


def test_task_api_outside_context_rejected():
    k = Kernel()
    captured = {}

    def main():
        captured["task"] = k.tasks[0]

    k.spawn(main)
    k.run()
    with pytest.raises(KernelStateError):
        captured["task"].sleep(1.0)


def test_wait_until_past_time_is_noop():
    k = Kernel()

    def main():
        t = k.tasks[0]
        t.sleep(5.0)
        t.wait_until(3.0)  # already past
        assert t.now == 5.0
        t.wait_until(7.0)
        assert t.now == 7.0

    k.spawn(main)
    k.run()


def test_wake_while_running_rejected():
    k = Kernel()

    def main():
        task = k.tasks[0]
        with pytest.raises(KernelStateError):
            task.wake()

    k.spawn(main)
    k.run()


def test_spawn_mid_run():
    k = Kernel()
    log = []

    def child():
        t = [t for t in k.tasks if t.name == "child"][0]
        t.sleep(1.0)
        log.append(("child", t.now))

    def parent():
        t = k.tasks[0]
        t.sleep(2.0)
        k.spawn(child, name="child")
        t.sleep(2.0)
        log.append(("parent", t.now))

    k.spawn(parent, name="parent")
    k.run()
    assert log == [("child", 3.0), ("parent", 4.0)]


def test_stale_wakeups_ignored():
    """A task woken through a condition must not be resumed again by a
    stale event from an earlier suspension."""
    k = Kernel()
    cond = SimCondition(k, "c")
    log = []

    def waiter():
        t = [t for t in k.tasks if t.name == "w"][0]
        cond.wait(t)
        log.append(("woken", t.now))
        t.sleep(10.0)
        log.append(("slept", t.now))

    def notifier():
        t = [t for t in k.tasks if t.name == "n"][0]
        t.sleep(1.0)
        cond.notify_all()
        t.sleep(1.0)
        cond.notify_all()  # nobody waiting; must not disturb the sleep

    k.spawn(waiter, name="w")
    k.spawn(notifier, name="n")
    k.run()
    assert log == [("woken", 1.0), ("slept", 11.0)]


def test_determinism_fingerprint():
    """Two identical runs process identical event counts and times."""

    def build():
        k = Kernel()
        cond = SimCondition(k, "c")

        def a():
            t = k.tasks[0]
            for _ in range(10):
                t.sleep(0.3)
                cond.notify_all()

        def b():
            t = k.tasks[1]
            for _ in range(3):
                cond.wait(t)

        k.spawn(a, name="a")
        k.spawn(b, name="b")
        k.run()
        return (k.now, k.events_processed)

    assert build() == build()


# ----------------------------------------------------------------------
# Baton passing: kernel context on task threads, clean unwinding, and
# the handoff/self-resume accounting.
# ----------------------------------------------------------------------
def test_callback_drained_on_a_task_thread_is_kernel_context():
    k = Kernel()
    seen = []

    def main():
        k.call_later(1.0, lambda: seen.append((k.current_task, threading.current_thread().name)))
        k.tasks[0].sleep(2.0)

    k.spawn(main, name="solo")
    k.run()
    # The suspending task's own thread ran the callback, with no task
    # current: task APIs called from it are rejected as before.
    assert seen == [(None, "sim:solo")]


def test_parked_thread_does_not_pin_a_delivered_payload():
    """The thread that drains a delivery and then parks must not keep
    the delivered payload alive in its frame."""
    k = Kernel()
    refs = []

    class Payload:
        pass

    def deliver(payload, task):
        refs.append(weakref.ref(payload))
        task.wake()

    def receiver():
        k.tasks[0].block("recv")
        # The sender drained the delivery, handed over and parked.
        assert refs[0]() is None

    def sender():
        k.call_later(1.0, deliver, Payload(), k.tasks[0])
        k.tasks[1].sleep(5.0)

    k.spawn(receiver, name="rx")
    k.spawn(sender, name="tx")
    k.run()
    assert len(refs) == 1


def test_interrupt_while_ranks_run_unwinds_every_thread(capfd):
    """Ctrl-C lands in the thread calling run() while a rank holds the
    baton: the rank stops at its next suspend and every task thread
    unwinds, with nothing reported on stderr."""
    assert threading.current_thread() is threading.main_thread()
    baseline = threading.active_count()
    k = Kernel()

    def rank(i):
        task = k.tasks[i]
        task.sleep(1.0)
        if i == 0:
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        while True:
            task.sleep(1.0)

    for i in range(3):
        k.spawn(rank, i, name=f"r{i}")
    with pytest.raises(KeyboardInterrupt):
        k.run()
    assert threading.active_count() == baseline
    assert all(t.state is TaskState.KILLED for t in k.tasks)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("ending", ["deadlock", "failure", "event-limit"])
def test_abnormal_ends_leave_no_task_threads(ending, capfd):
    baseline = threading.active_count()
    k = Kernel()
    cond = SimCondition(k, "never")

    def waiter():
        cond.wait(k.tasks[0], reason="forever")

    def other():
        task = k.tasks[1]
        task.sleep(1.0)
        if ending == "failure":
            raise RuntimeError("kaput")
        while ending == "event-limit":
            task.sleep(1.0)
        cond.wait(task, reason="forever")

    k.spawn(waiter, name="w")
    k.spawn(other, name="o")
    expected = {"deadlock": DeadlockError, "failure": RuntimeError,
                "event-limit": EventLimitExceeded}[ending]
    with pytest.raises(expected):
        k.run(max_events=50)
    assert threading.active_count() == baseline
    assert capfd.readouterr().err == ""


def _golden_vector_cell() -> tuple[str, int]:
    """The pinned ``skx-impi/mid-1MB/vector`` cell: (time hex, events)."""
    golden = json.loads(
        (Path(__file__).parent.parent / "core" / "golden_scheme_times.json").read_text()
    )["skx-impi/mid-1MB/vector"]
    return golden["time"], golden["events"]


def _run_vector_cell() -> tuple[str, int]:
    from repro.core import StridedLayout, TimingPolicy, run_pingpong

    cell = run_pingpong(
        "vector",
        StridedLayout(nblocks=125_000, blocklen=1, stride=2),
        "skx-impi",
        policy=TimingPolicy(iterations=3, flush=True),
        materialize=False,
    )
    return cell.time.hex(), cell.events


def test_handoffs_and_self_resumes_sum_to_suspends(monkeypatch):
    """Pinned on one golden cell: every suspend is resumed either in
    place or by one handoff, and the golden times are unchanged."""
    from repro.sim.kernel import SimTask

    kernels, suspends = [], [0]
    real_run, real_suspend = Kernel.run, SimTask._suspend

    def run(self, max_events=None):
        kernels.append(self)
        return real_run(self, max_events)

    def suspend(self):
        suspends[0] += 1
        return real_suspend(self)

    monkeypatch.setattr(Kernel, "run", run)
    monkeypatch.setattr(SimTask, "_suspend", suspend)
    assert _run_vector_cell() == _golden_vector_cell()
    (kernel,) = kernels
    assert kernel.handoffs + kernel.self_resumes == suspends[0]
    assert (kernel.handoffs, kernel.self_resumes) == (26, 25)


def test_a_captured_run_adds_its_counts_to_the_host_counters():
    k = Kernel()
    cond = SimCondition(k, "c")

    def a():
        for _ in range(3):
            k.tasks[0].sleep(1.0)
            cond.notify_all()

    def b():
        for _ in range(3):
            cond.wait(k.tasks[1])
        k.tasks[1].sleep(0.5)

    k.spawn(a, name="a")
    k.spawn(b, name="b")
    with host.capturing() as capture:
        k.run()
    counters = capture.metrics
    assert k.handoffs > 0 and k.self_resumes > 0
    assert (
        counters.counter_value("sim.handoffs"),
        counters.counter_value("sim.self_resumes"),
        counters.counter_value("sim.events"),
    ) == (k.handoffs, k.self_resumes, k.events_processed)


# ----------------------------------------------------------------------
# One CPU per run: the task threads inherit the caller's one-CPU mask
# for the length of the run, and the caller gets its own mask back.
# ----------------------------------------------------------------------
needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
)


def _sample_masks(k: Kernel, ntasks: int, ending: str = "normal") -> list[set[int]]:
    """Run ``ntasks`` sleeping tasks on ``k``; each reports its thread's
    CPU mask before and after a switch.  ``ending`` makes task 0 raise
    or block forever after its first sample."""
    masks: list[set[int]] = []
    cond = SimCondition(k, "never")

    def rank(i):
        task = k.tasks[i]
        masks.append(os.sched_getaffinity(0))
        task.sleep(1.0 + i)
        if i == 0 and ending == "failure":
            raise RuntimeError("kaput")
        if i == 0 and ending == "deadlock":
            cond.wait(task, reason="forever")
        masks.append(os.sched_getaffinity(0))

    for i in range(ntasks):
        k.spawn(rank, i, name=f"r{i}")
    expected = {"normal": None, "failure": RuntimeError, "deadlock": DeadlockError}[ending]
    if expected is None:
        k.run()
    else:
        with pytest.raises(expected):
            k.run()
    return masks


@needs_affinity
def test_a_runs_task_threads_share_one_cpu_and_other_threads_keep_theirs():
    caller = os.sched_getaffinity(0)
    go, sampled = threading.Event(), threading.Event()
    helper_masks = []

    def helper():
        go.wait(10)
        helper_masks.append(os.sched_getaffinity(0))
        sampled.set()

    def sample_helper():
        go.set()
        sampled.wait(10)

    helper_thread = threading.Thread(target=helper)
    helper_thread.start()
    k = Kernel()
    k.call_later(0.5, sample_helper)
    masks = _sample_masks(k, 4)
    helper_thread.join(timeout=10)
    assert not helper_thread.is_alive()
    assert len(masks) == 8
    (cpus,) = {frozenset(m) for m in masks}
    assert len(cpus) == 1 and cpus <= caller
    assert helper_masks == [caller]
    assert os.sched_getaffinity(0) == caller


@needs_affinity
def test_a_caller_bound_to_one_cpu_keeps_it():
    caller = os.sched_getaffinity(0)
    cpu = max(caller)
    os.sched_setaffinity(0, {cpu})
    try:
        masks = _sample_masks(Kernel(), 2)
        assert os.sched_getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, caller)
    assert masks == [{cpu}] * 4


@needs_affinity
@pytest.mark.parametrize("ending", ["normal", "failure", "deadlock"])
def test_the_callers_mask_is_restored_however_the_run_ends(ending):
    caller = os.sched_getaffinity(0)
    masks = _sample_masks(Kernel(), 2, ending)
    assert masks and all(len(m) == 1 and m <= caller for m in masks)
    assert os.sched_getaffinity(0) == caller


@needs_affinity
def test_a_run_proceeds_unbound_where_binding_is_refused(monkeypatch):
    def refuse(pid, mask):
        raise OSError(errno.EPERM, "binding refused")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    caller = os.sched_getaffinity(0)
    assert _sample_masks(Kernel(), 2) == [caller] * 4
    assert _run_vector_cell() == _golden_vector_cell()
    assert os.sched_getaffinity(0) == caller


@needs_affinity
def test_a_refused_restore_does_not_fail_the_run(monkeypatch):
    real = os.sched_setaffinity
    caller = os.sched_getaffinity(0)
    calls = []

    def bind_once(pid, mask):
        calls.append(set(mask))
        if len(calls) > 1:
            raise OSError(errno.EPERM, "restore refused")
        real(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", bind_once)
    try:
        assert _run_vector_cell() == _golden_vector_cell()
    finally:
        real(0, caller)
    if len(caller) > 1:
        assert len(calls[0]) == 1 and calls[1:] == [caller]
