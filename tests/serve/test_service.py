"""The sweep service's classify/dedup/execute/fan-out pipeline, driven
directly (no HTTP) with controllable executors for deterministic
concurrency assertions."""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exec import Executor, ResultStore, execute_spec
from repro.machine.fingerprint import MODEL_VERSION
from repro.serve import Job, PlatformSpec, SweepRequest, SweepService
from repro.serve.jobs import SOURCES


def make_request(
    sizes=(2048,),
    schemes=("copying", "reference"),
    eager_limit=None,
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
        "served": 4, "reused": 2, "recomputed": 2, "deduped": 0, "equivalent": 0,
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


def run_plain_then_perturbed(tmp_path, eager_limit, **grid):
    """A plain ``ideal`` job, then the same grid at ``eager_limit``."""

    async def run():
        service = SweepService(store_root=tmp_path)
        plain = service.submit(make_request(**grid))
        await plain.finished.wait()
        perturbed = service.submit(make_request(eager_limit=eager_limit, **grid))
        await perturbed.finished.wait()
        return service, plain, perturbed

    return asyncio.run(run())


def test_a_perturbation_that_flips_no_choice_executes_nothing(tmp_path):
    """ideal's 1000 B limit and a 1500 B one both send 2048 and 4096 B
    by rendezvous, so every perturbed cell is its plain twin's outcome,
    equal to a fresh execution and persisted under its own digest."""
    service, plain, perturbed = run_plain_then_perturbed(
        tmp_path, 1500, sizes=(2048, 4096)
    )
    assert plain.tallies() == {"reused": 0, "recomputed": 4, "deduped": 0, "equivalent": 0}
    assert perturbed.tallies() == {
        "reused": 0, "recomputed": 0, "deduped": 0, "equivalent": 4,
    }
    assert service.metrics.counter_value("serve.cells_executed") == 4
    stats = service.stats()
    assert stats["cells"]["served"] == 8 and stats["cells"]["equivalent"] == 4
    assert stats["dedup_hit_rate"] == pytest.approx(0.5)
    assert stats["store"]["entries"] == 8
    specs = list(make_request(sizes=(2048, 4096), eager_limit=1500).iter_specs())
    assert {spec.digest for spec in specs} == set(perturbed.cells)
    for spec in specs:
        fresh = execute_spec(spec)
        wire = perturbed.cells[spec.digest]
        assert wire["source"] == "equivalent"
        assert wire["times_hex"] == [t.hex() for t in fresh.times]
        assert wire["virtual_time_hex"] == fresh.virtual_time.hex()
        assert (wire["events"], wire["verified"]) == (fresh.events, fresh.verified)
        stored = service.read_cell(spec.digest)
        assert stored["times_hex"] == wire["times_hex"]


def test_a_perturbation_that_flips_a_choice_recomputes(tmp_path):
    """A 3000 B limit sends 2048 B eager where 1000 B sent it by
    rendezvous: those cells execute, the 4096 B ones stay shared."""
    _, _, perturbed = run_plain_then_perturbed(tmp_path, 3000, sizes=(2048, 4096))
    assert (perturbed.recomputed, perturbed.equivalent) == (2, 2)
    sources = {(c["message_bytes"], c["source"]) for c in perturbed.cells.values()}
    assert sources == {(2048, "recomputed"), (4096, "equivalent")}


def test_auto_cells_are_never_shared(tmp_path):
    _, plain, perturbed = run_plain_then_perturbed(tmp_path, 1500, schemes=("auto",))
    assert plain.recomputed == perturbed.recomputed == 1
    assert perturbed.equivalent == 0


def test_a_job_tallies_every_source_and_served_is_their_sum(tmp_path):
    """One job meets a store hit, a live flight, an equivalent cell and
    cells of its own; ``/stats`` folds ``equivalent`` into ``served``
    and the hit rate."""
    held = threading.Event()
    gates = [None, held, None]

    async def run():
        service = SweepService(
            store_root=tmp_path,
            executor_factory=lambda store: GatedExecutor(store, gates.pop(0)),
        )
        warm = service.submit(make_request(schemes=("copying",)))
        await warm.finished.wait()
        flight = service.submit(make_request(sizes=(8192,), schemes=("copying",)))
        await wait_for(lambda: len(service.inflight) == 1)
        mixed = service.submit(
            SweepRequest(
                platforms=(
                    PlatformSpec(name="ideal"),
                    PlatformSpec(name="ideal", eager_limit=1500),
                    PlatformSpec(name="ideal", eager_limit=3000),
                ),
                sizes=(2048, 8192),
                schemes=("copying",),
                iterations=2,
                flush=False,
            )
        )
        await wait_for(lambda: mixed.recomputed == 3)
        held.set()
        await asyncio.gather(flight.finished.wait(), mixed.finished.wait())
        return service, mixed

    service, mixed = asyncio.run(run())
    assert mixed.status == "done"
    # 2048 B: plain reused, 1500 B equivalent, 3000 B flips.  8192 B:
    # plain joins the flight; both perturbed twins execute, as the
    # flight had not landed when the job classified them.
    assert mixed.tallies() == {"reused": 1, "recomputed": 3, "deduped": 1, "equivalent": 1}
    assert sum(mixed.snapshot()[source] for source in SOURCES) == mixed.total == 6
    assert {k: mixed.events[-1][k] for k in SOURCES} == mixed.tallies()
    cells = service.stats()["cells"]
    assert cells == {
        "served": 8, "reused": 1, "recomputed": 5, "deduped": 1, "equivalent": 1,
    }
    assert service.stats()["dedup_hit_rate"] == pytest.approx(3 / 8)


def test_a_job_refuses_an_unknown_source():
    job = Job("job-0001", make_request(), total=2)
    job.record_cell({"digest": "a", "source": "equivalent"})
    with pytest.raises(ValueError, match="unknown cell source 'guessed'"):
        job.record_cell({"digest": "b", "source": "guessed"})
    assert job.completed == 1 and job.tallies()["equivalent"] == 1


def test_stats_report_the_one_store_of_this_model(tmp_path):
    """The daemon keeps one store, for its own ``MODEL_VERSION``:
    ``stats()["store"]`` reports it, and is ``None`` without a store."""

    async def run(cache):
        service = SweepService(store_root=tmp_path, cache=cache)
        job = service.submit(make_request(sizes=(2048, 4096)))
        await job.finished.wait()
        return service, job

    service, job = asyncio.run(run(True))
    store = service.stats()["store"]
    assert store["salt"] == MODEL_VERSION
    executed = service.metrics.counter_value("serve.cells_executed")
    assert store["entries"] == executed == job.recomputed == 4
    assert store["writes"] == 4 and store["bytes"] > 0
    uncached, _ = asyncio.run(run(False))
    assert uncached.stats()["store"] is None


def test_a_cache_clear_under_a_live_service_is_seen_by_the_next_batch(tmp_path):
    """``repro cache clear`` from another process removes the database
    under the daemon; the next batch's cells land in a new file that a
    fresh store reads, not in the unlinked one."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"),
        REPRO_CACHE_DIR=str(tmp_path),
    )

    async def run():
        service = SweepService(store_root=tmp_path)
        before = service.submit(make_request(sizes=(2048,)))
        await before.finished.wait()
        subprocess.run([sys.executable, "-m", "repro", "cache", "clear"],
                       env=env, check=True, capture_output=True, timeout=120)
        after = service.submit(make_request(sizes=(4096,)))
        await after.finished.wait()
        return service, before, after

    service, before, after = asyncio.run(run())
    assert before.recomputed == after.recomputed == 2
    fresh = ResultStore(tmp_path)
    assert fresh.stats().entries == service.stats()["store"]["entries"] == 2
    assert all(fresh.read_digest(digest) is not None for digest in after.cells)
    assert not any(fresh.read_digest(digest) for digest in before.cells)


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
        # Each limit flips both sizes' choices, so both jobs execute.
        for eager in (1024, 65536):
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
