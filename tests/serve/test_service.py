"""The sweep service's classify/dedup/execute/fan-out pipeline, driven
directly (no HTTP) with controllable executors for deterministic
concurrency assertions."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.exec import Executor, execute_spec
from repro.serve import PlatformSpec, SweepRequest, SweepService


def make_request(
    sizes=(2048,),
    schemes=("copying", "reference"),
    eager_limit=None,
    salt=None,
    platforms=("ideal",),
):
    body = {
        "platforms": [
            {"name": name, **({"eager_limit": eager_limit} if eager_limit else {})}
            for name in platforms
        ],
        "sizes": list(sizes),
        "schemes": list(schemes),
        "policy": {"iterations": 2, "flush": False},
    }
    if salt is not None:
        body["salt"] = salt
    return SweepRequest.from_json(body)


async def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never came true"
        await asyncio.sleep(0.01)


class GatedExecutor:
    """Executor stand-in that blocks on a gate before executing, so a
    test can hold a flight open while other jobs classify against it."""

    def __init__(self, store, gate: threading.Event | None):
        self.store = store
        self.gate = gate
        self.cells_executed = 0

    def execute_batch(self, specs, *, on_outcome=None):
        if self.gate is not None:
            assert self.gate.wait(timeout=30), "test gate never released"
        results = []
        for index, spec in enumerate(specs):
            hit = self.store.get(spec) if self.store is not None else None
            cached = hit is not None
            outcome = hit if cached else execute_spec(spec)
            if not cached:
                self.cells_executed += 1
                if self.store is not None:
                    self.store.put(spec, outcome)
            if on_outcome is not None:
                on_outcome(index, outcome, cached)
            results.append((outcome, cached))
        return results


class ExplodingExecutor:
    """Waits for the gate, then dies before producing anything."""

    def __init__(self, gate: threading.Event):
        self.gate = gate
        self.cells_executed = 0

    def execute_batch(self, specs, *, on_outcome=None):
        assert self.gate.wait(timeout=30)
        raise RuntimeError("simulated executor crash")


# ----------------------------------------------------------------------
def test_concurrent_identical_jobs_execute_once(tmp_path):
    """The in-flight table collapses concurrent duplicates: the second
    job joins the first's flights and recomputes nothing."""
    gate = threading.Event()

    async def run():
        service = SweepService(
            store_root=tmp_path,
            executor_factory=lambda store: GatedExecutor(store, gate),
        )
        job_a = service.submit(make_request())
        await wait_for(lambda: len(service.inflight) == job_a.total)
        job_b = service.submit(make_request())
        # Let B's task run to its join-await before releasing the owner.
        await wait_for(lambda: job_b.status == "running")
        await asyncio.sleep(0.05)
        gate.set()
        await asyncio.gather(job_a.finished.wait(), job_b.finished.wait())
        return service, job_a, job_b

    service, job_a, job_b = asyncio.run(run())
    assert (job_a.status, job_b.status) == ("done", "done")
    assert (job_a.recomputed, job_a.deduped, job_a.reused) == (2, 0, 0)
    assert (job_b.recomputed, job_b.deduped, job_b.reused) == (0, 2, 0)
    # One execution per unique digest, service-wide.
    assert service.metrics.counter_value("serve.cells_executed") == 2
    assert len(service.inflight) == 0
    # And both jobs carry bit-identical cells (only the source differs).
    assert set(job_a.cells) == set(job_b.cells)
    for digest, cell in job_a.cells.items():
        twin = job_b.cells[digest]
        assert cell["source"] == "recomputed" and twin["source"] == "deduped"
        assert {**cell, "source": None} == {**twin, "source": None}


def test_finished_cells_are_reused_not_reexecuted(tmp_path):
    async def run():
        service = SweepService(store_root=tmp_path)
        first = service.submit(make_request())
        await first.finished.wait()
        second = service.submit(make_request())
        await second.finished.wait()
        return service, first, second

    service, first, second = asyncio.run(run())
    assert first.recomputed == 2 and first.reused == 0
    assert second.reused == 2 and second.recomputed == 0
    stats = service.stats()
    assert stats["cells"] == {
        "served": 4, "reused": 2, "recomputed": 2, "deduped": 0,
    }
    assert stats["dedup_hit_rate"] == pytest.approx(0.5)
    assert stats["jobs"]["done"] == 2


def test_perturbed_fingerprint_reprices_only_invalidated_cells(tmp_path):
    """The incremental contract: an eager-limit override changes the
    affected digests, so a follow-up mixing a perturbed and an unchanged
    platform recomputes exactly the perturbed half."""

    async def run():
        service = SweepService(store_root=tmp_path)
        warm = service.submit(make_request())
        await warm.finished.wait()
        mixed_request = SweepRequest(
            platforms=(
                PlatformSpec(name="ideal"),
                PlatformSpec(name="ideal", eager_limit=9000),
            ),
            sizes=(2048,),
            schemes=("copying", "reference"),
            iterations=2,
            flush=False,
        )
        mixed = service.submit(mixed_request)
        await mixed.finished.wait()
        return warm, mixed

    warm, mixed = asyncio.run(run())
    assert warm.recomputed == 2
    assert mixed.total == 4
    assert (mixed.reused, mixed.recomputed) == (2, 2)
    perturbed = [c for c in mixed.cells.values() if c["source"] == "recomputed"]
    assert len(perturbed) == 2


def test_salt_bump_invalidates_the_whole_generation(tmp_path):
    async def run():
        service = SweepService(store_root=tmp_path)
        v1 = service.submit(make_request(salt="v1"))
        await v1.finished.wait()
        v2 = service.submit(make_request(salt="v2"))
        await v2.finished.wait()
        return service, v1, v2

    service, v1, v2 = asyncio.run(run())
    assert v1.recomputed == 2 and v2.recomputed == 2
    stats = service.stats()
    assert set(stats["stores"]) == {"v1", "v2"}
    assert stats["stores"]["v1"]["entries"] == 2
    assert stats["stores"]["v2"]["entries"] == 2


def test_cache_off_still_dedups_in_flight(tmp_path):
    gate = threading.Event()

    async def run():
        service = SweepService(
            cache=False,
            executor_factory=lambda store: GatedExecutor(None, gate),
        )
        job_a = service.submit(make_request())
        await wait_for(lambda: len(service.inflight) == job_a.total)
        job_b = service.submit(make_request())
        await wait_for(lambda: job_b.status == "running")
        await asyncio.sleep(0.05)
        gate.set()
        await asyncio.gather(job_a.finished.wait(), job_b.finished.wait())
        # With no store, a third job recomputes from scratch.
        job_c = service.submit(make_request())
        await job_c.finished.wait()
        return job_a, job_b, job_c

    job_a, job_b, job_c = asyncio.run(run())
    assert job_a.recomputed == 2 and job_b.deduped == 2
    assert job_c.recomputed == 2 and job_c.reused == 0


def test_owner_failure_fails_its_job_but_joiners_recover(tmp_path):
    """An owner crash fails only the owning job: joiners re-classify,
    claim the digests themselves, and finish with recomputed cells."""
    gate = threading.Event()
    factories = []

    def factory(store):
        factories.append(store)
        if len(factories) == 1:
            return ExplodingExecutor(gate)
        return Executor(jobs=1, cache=store)

    async def run():
        service = SweepService(store_root=tmp_path, executor_factory=factory)
        job_a = service.submit(make_request())
        await wait_for(lambda: len(service.inflight) == job_a.total)
        job_b = service.submit(make_request())
        await wait_for(lambda: job_b.status == "running")
        await asyncio.sleep(0.05)
        gate.set()
        await asyncio.gather(job_a.finished.wait(), job_b.finished.wait())
        return service, job_a, job_b

    service, job_a, job_b = asyncio.run(run())
    assert job_a.status == "failed"
    assert "simulated executor crash" in job_a.error
    assert job_b.status == "done"
    assert job_b.recomputed == 2 and job_b.completed == job_b.total
    # The failed flights were retired either way.
    assert len(service.inflight) == 0
    assert service.metrics.counter_value("serve.jobs_failed") == 1


def test_unknown_platform_fails_at_submit(tmp_path):
    from repro.serve import ProtocolError

    request = SweepRequest(
        platforms=(PlatformSpec(name="cray-xk7"),),
        sizes=(2048,),
        schemes=("copying",),
    )

    async def run():
        service = SweepService(store_root=tmp_path)
        with pytest.raises(ProtocolError, match="unknown platform"):
            service.submit(request)

    asyncio.run(run())


def test_negative_store_bound_is_rejected_at_construction(tmp_path):
    with pytest.raises(ValueError, match="max_store_bytes must be non-negative"):
        SweepService(store_root=tmp_path, max_store_bytes=-5)
    assert SweepService(store_root=tmp_path, max_store_bytes=0)  # evict all


def test_drain_waits_for_scheduled_jobs(tmp_path):
    async def run():
        service = SweepService(store_root=tmp_path)
        job = service.submit(make_request())
        await service.drain()
        assert job.terminal
        return job

    job = asyncio.run(run())
    assert job.status == "done"


def test_jobs_share_one_worker_pool_joined_on_close(tmp_path):
    """Every job's executor runs on the daemon's one pool, forked at the
    first multi-cell batch; close() joins its workers."""
    import multiprocessing

    before = set(multiprocessing.active_children())
    executors = []

    async def run():
        service = SweepService(store_root=tmp_path, jobs=2)
        build = service._executor

        def spy(store):
            executors.append(build(store))
            return executors[-1]

        service._executor = spy
        for eager in (4096, 8192):
            job = service.submit(make_request(sizes=(2048, 65536), eager_limit=eager))
            await job.finished.wait()
            assert (job.status, job.recomputed) == ("done", 4)
        return service

    service = asyncio.run(run())
    first, second = executors
    assert first.pool is second.pool is not None
    assert len(set(multiprocessing.active_children()) - before) == 2
    service.close()
    assert set(multiprocessing.active_children()) <= before
