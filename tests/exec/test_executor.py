"""Executor equivalence: serial, parallel, and cached runs of the same
specs are bit-identical.

The strongest form pins all three modes against the pre-split golden
timings in ``tests/core/golden_scheme_times.json``: if a worker process
or a cache roundtrip moves any cell by one ulp, the goldens catch it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.core import (
    PAPER_ORDER,
    StridedLayout,
    SweepConfig,
    TimingPolicy,
    run_sweep,
    strided_for_bytes,
)
from repro.core.validate import validate_schemes
from repro.exec import (
    CellSpec,
    Executor,
    ResultStore,
    current_executor,
    execute_spec,
    using_executor,
)
from repro.exec.executor import WorkerPool
from repro.exec.executor import _execute_chunk as _real_execute_chunk

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "core" / "golden_scheme_times.json").read_text()
)
GOLDEN_PLATFORMS = ("skx-impi", "skx-mvapich2", "ls5-cray", "knl-impi")
GOLDEN_LAYOUTS = {
    "small-2KB": dict(nblocks=256, blocklen=1, stride=2),
    "mid-1MB": dict(nblocks=125_000, blocklen=1, stride=2),
}
#: Must match the golden capture run exactly.
GOLDEN_POLICY = TimingPolicy(iterations=3, flush=True)


def golden_batch() -> tuple[list[str], list[CellSpec]]:
    """All 64 golden cells as specs, with their golden keys."""
    from repro.machine import get_platform

    keys, specs = [], []
    for platform in GOLDEN_PLATFORMS:
        for lname, kwargs in GOLDEN_LAYOUTS.items():
            for scheme in PAPER_ORDER:
                keys.append(f"{platform}/{lname}/{scheme}")
                specs.append(
                    CellSpec(
                        scheme=scheme,
                        layout=StridedLayout(**kwargs),
                        platform=get_platform(platform),
                        policy=GOLDEN_POLICY,
                        materialize=False,
                    )
                )
    return keys, specs


def assert_matches_goldens(keys, cells):
    for key, cell in zip(keys, cells):
        got = {
            "time": cell.time.hex(),
            "virtual_time": cell.virtual_time.hex(),
            "events": cell.events,
        }
        assert got == GOLDEN[key], key


def quick_config() -> SweepConfig:
    return SweepConfig(
        sizes=(1_024, 65_536),
        schemes=("reference", "copying", "packing-vector"),
        policy=TimingPolicy(iterations=3, flush=False),
    )


class TestGoldenEquivalence:
    def test_parallel_and_cached_match_the_pre_split_goldens(self, tmp_path):
        keys, specs = golden_batch()
        store = ResultStore(tmp_path)

        # Cold: two worker processes, persisting every cell.
        cold = Executor(jobs=2, cache=store)
        assert_matches_goldens(keys, cold.run_batch(specs))
        assert cold.cells_executed == len(specs) and cold.cells_cached == 0

        # Warm: same batch served entirely from disk, still golden.
        warm = Executor(jobs=1, cache=store)
        assert_matches_goldens(keys, warm.run_batch(specs))
        assert warm.cells_executed == 0 and warm.cells_cached == len(specs)
        assert all(c.cached for c in warm.run_batch(specs))


class TestSerialParallelEquivalence:
    def test_sweep_identical_across_modes(self, ideal, tmp_path):
        cfg = quick_config()
        serial = run_sweep(ideal, cfg)
        with using_executor(Executor(jobs=2)):
            parallel = run_sweep(ideal, cfg)
        store = ResultStore(tmp_path)
        cold = run_sweep(ideal, cfg, executor=Executor(jobs=2, cache=store))
        warm = run_sweep(ideal, cfg, executor=Executor(jobs=1, cache=store))
        assert parallel.to_dict() == serial.to_dict()
        assert cold.to_dict() == serial.to_dict()
        assert warm.to_dict() == serial.to_dict()

    def test_on_result_fires_for_every_cell(self, ideal):
        _, specs = golden_batch()
        sample = specs[:5]
        seen: list[int] = []
        results = Executor(jobs=2).run_batch(
            sample, on_result=lambda i, cell: seen.append(i)
        )
        assert sorted(seen) == list(range(5))
        assert all(r is not None for r in results)

    def test_starmap_parallel_matches_serial(self):
        args = [(s, 4_096) for s in ("reference", "copying")]
        serial = Executor(jobs=1).starmap(_scheme_time, args)
        parallel = Executor(jobs=2).starmap(_scheme_time, args)
        assert [t.hex() for t in serial] == [t.hex() for t in parallel]

    def test_validate_schemes_accepts_an_executor(self):
        serial = validate_schemes(8_192, "ideal")
        parallel = validate_schemes(8_192, "ideal", executor=Executor(jobs=2))
        assert parallel.passed and serial.passed
        assert parallel.render() == serial.render()


class TestCacheSemantics:
    def test_salt_bump_forces_reexecution(self, ideal, tmp_path, monkeypatch):
        _, specs = golden_batch()
        spec = specs[0]
        monkeypatch.setattr("repro.exec.store.MODEL_VERSION", "v1")
        old = Executor(jobs=1, cache=ResultStore(tmp_path))
        old.run_batch([spec])
        assert old.cells_executed == 1
        # Same store root, bumped model salt: the hit disappears.
        monkeypatch.setattr("repro.exec.store.MODEL_VERSION", "v2")
        new = Executor(jobs=1, cache=ResultStore(tmp_path))
        new.run_batch([spec])
        assert new.cells_executed == 1 and new.cells_cached == 0

    def test_cache_disabled_always_executes(self, ideal):
        cfg = quick_config()
        ex = Executor(jobs=1, cache=None)
        run_sweep(ideal, cfg, executor=ex)
        run_sweep(ideal, cfg, executor=ex)
        assert ex.cells_cached == 0
        assert ex.cells_executed == 12

    def test_sweep_metadata_identical_serial_vs_cached(self, ideal, tmp_path):
        # Execution mode must leave no trail in the artifact, or cached
        # and fresh sweeps would stop comparing equal.
        cfg = quick_config()
        store = ResultStore(tmp_path)
        run_sweep(ideal, cfg, executor=Executor(jobs=1, cache=store))
        warm = run_sweep(ideal, cfg, executor=Executor(jobs=1, cache=store))
        assert warm.metadata == run_sweep(ideal, cfg).metadata


class TestInterruptAndResume:
    def test_completed_cells_survive_an_interrupt(self, ideal, tmp_path, monkeypatch):
        import repro.exec.executor as executor_mod

        _, specs = golden_batch()
        batch = specs[:4]
        store = ResultStore(tmp_path)
        calls = {"n": 0}

        def flaky(spec):
            calls["n"] += 1
            if calls["n"] == 3:  # Ctrl-C lands mid-batch
                raise KeyboardInterrupt
            return execute_spec(spec)

        monkeypatch.setattr(executor_mod, "execute_spec", flaky)
        interrupted = Executor(jobs=1, cache=store)
        with pytest.raises(KeyboardInterrupt):
            interrupted.run_batch(batch)
        assert interrupted.cells_executed == 2
        assert store.stats().entries == 2

        # The re-run fast-forwards through the persisted prefix and is
        # bit-identical to an uninterrupted serial run.
        monkeypatch.setattr(executor_mod, "execute_spec", execute_spec)
        resumed = Executor(jobs=1, cache=store)
        resumed_cells = resumed.run_batch(batch)
        assert resumed.cells_cached == 2 and resumed.cells_executed == 2
        clean = Executor(jobs=1).run_batch(batch)
        for a, b in zip(resumed_cells, clean):
            assert a.time.hex() == b.time.hex()
            assert a.virtual_time.hex() == b.virtual_time.hex()

    def test_parallel_interrupt_tears_the_pool_down(self, tmp_path, monkeypatch):
        """A BaseException mid-wait cancels queued work and propagates;
        close() then joins the workers."""
        import multiprocessing

        before = set(multiprocessing.active_children())
        _, specs = golden_batch()
        batch = specs[:4]
        ex = Executor(jobs=2, cache=ResultStore(tmp_path))

        def boom(*a, **k):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.exec.executor.wait", boom)
        with pytest.raises(KeyboardInterrupt):
            ex.run_batch(batch)
        ex.close()
        assert set(multiprocessing.active_children()) <= before


#: Inherited by forked workers: holds each one inside its task until
#: every worker holds one, so a sample reaches every worker.
_ALL_WORKERS = None


def _worker_cpus() -> tuple[int, set[int]]:
    _ALL_WORKERS.wait(timeout=30)
    return os.getpid(), os.sched_getaffinity(0)


def _cpus_of_workers(jobs: int) -> list[set[int]]:
    """The CPU mask of every worker of a fresh ``jobs``-worker pool."""
    global _ALL_WORKERS
    _ALL_WORKERS = multiprocessing.get_context("fork").Barrier(jobs)
    pool = WorkerPool(jobs)
    try:
        futures = [pool.submit(_worker_cpus) for _ in range(jobs)]
        masks = dict(f.result(timeout=60) for f in futures)
    finally:
        pool.close()
        _ALL_WORKERS = None
    assert len(masks) == jobs
    return list(masks.values())


needs_forked_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity")
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs CPU affinity and forked workers",
)


class TestWorkerPool:
    @needs_forked_affinity
    def test_each_worker_holds_its_own_cpu(self):
        allowed = os.sched_getaffinity(0)
        if len(allowed) < 2:
            pytest.skip(f"needs 2 allowed CPUs, this host allows {len(allowed)}")
        first, second = _cpus_of_workers(2)
        assert len(first) == len(second) == 1
        assert first != second and first | second <= allowed

    @needs_forked_affinity
    def test_more_workers_than_cpus_each_hold_one_allowed_cpu(self):
        """Twice as many workers as allowed CPUs: round-robin puts two
        on each, which a worker index lost between workers would not."""
        allowed = os.sched_getaffinity(0)
        narrowed = set(sorted(allowed)[:2])
        os.sched_setaffinity(0, narrowed)
        try:
            masks = _cpus_of_workers(2 * len(narrowed))
        finally:
            os.sched_setaffinity(0, allowed)
        assert all(len(mask) == 1 and mask <= narrowed for mask in masks)
        assert sorted(masks.count({cpu}) for cpu in narrowed) == [2] * len(narrowed)

    def test_a_dead_worker_does_not_break_later_batches(self):
        import os
        from concurrent.futures.process import BrokenProcessPool

        keys, specs = golden_batch()
        with Executor(jobs=2) as ex:
            with pytest.raises(BrokenProcessPool):
                ex.starmap(os._exit, [(1,), (1,)])
            cells = ex.run_batch(specs[:4])
        assert_matches_goldens(keys[:4], cells)

    def test_workers_leave_ctrl_c_to_the_parent(self):
        """A terminal's Ctrl-C reaches the whole process group; an idle
        worker must survive it (the parent decides what stops)."""
        import multiprocessing
        import os
        import signal
        import time

        with Executor(jobs=2) as ex:
            pids = set(ex.starmap(os.getpid, [(), (), (), ()]))
            for pid in pids:
                os.kill(pid, signal.SIGINT)
            time.sleep(0.2)
            assert pids <= {p.pid for p in multiprocessing.active_children()}


class TestChunkedDispatch:
    """Chunking is a dispatch-cost knob, never a semantic one: results,
    cache contents, and metrics cannot depend on the chunk size, and a
    platform the specs of a chunk share is pickled once, not per cell."""

    def test_auto_chunk_sizing_targets_waves_per_worker(self):
        # 16 cells over 2 workers x 4 waves -> 2 cells per chunk.
        assert Executor(jobs=2)._resolve_chunk_size(16) == 2
        assert Executor(jobs=4)._resolve_chunk_size(100) == 7
        # Tiny batches degenerate to one cell per task, never zero.
        assert Executor(jobs=8)._resolve_chunk_size(4) == 1

    @pytest.mark.parametrize("ncells", [1, 3, 64])
    def test_chunk_size_invisible_in_results(self, ncells):
        """Two workers size chunks from the batch: one cell stays in
        process, 3 cells go one per chunk, 64 go eight per chunk."""
        keys, specs = golden_batch()
        cells = Executor(jobs=2).run_batch(specs[:ncells])
        assert_matches_goldens(keys[:ncells], cells)

    def test_a_chunk_pickles_a_shared_platform_once(self):
        """A chunk is one pickle of plain specs, so pickle's memo sends
        the platform they share (the cost that once made --jobs lose to
        serial) once: eight specs pickle to less than two."""
        import pickle

        from repro.machine import get_platform

        platform = get_platform("skx-impi")
        layout = StridedLayout(nblocks=256, blocklen=1, stride=2)
        specs = [
            CellSpec(scheme=s, layout=layout, platform=platform,
                     policy=GOLDEN_POLICY, materialize=False)
            for s in PAPER_ORDER
        ]
        assert len(specs) == 8
        assert len(pickle.dumps(specs)) < 2 * len(pickle.dumps(specs[0]))

    def test_one_pool_serves_every_batch(self, tmp_path, monkeypatch):
        """Two batches of one executor share its pool: at most ``jobs``
        worker processes ever run a chunk, and close() joins the
        workers."""
        import functools
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method to observe the wrapper")

        import repro.exec.executor as executor_mod

        monkeypatch.setattr(
            executor_mod, "_execute_chunk", functools.partial(_marking_chunk, str(tmp_path))
        )
        before = set(multiprocessing.active_children())
        _, specs = golden_batch()
        with Executor(jobs=2) as ex:
            ex.run_batch(specs[:3])
            ex.run_batch(specs[3:6])
        markers = list(tmp_path.glob("chunk.*"))
        assert ex.cells_executed == 6
        assert len(markers) == 6  # 3-cell batches on 2 workers: a cell per chunk
        assert 1 <= len({m.name.split(".")[1] for m in markers}) <= 2
        assert set(multiprocessing.active_children()) <= before


class TestAmbientExecutor:
    def test_default_is_serial_and_cacheless(self):
        ex = current_executor()
        assert ex.jobs == 1 and ex.cache is None

    def test_using_executor_nests_and_restores(self):
        outer, inner = Executor(jobs=2), Executor(jobs=3)
        with using_executor(outer):
            assert current_executor() is outer
            with using_executor(inner):
                assert current_executor() is inner
            assert current_executor() is outer
        assert current_executor().jobs == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Executor(jobs=0)


def _marking_chunk(marker_dir: str, specs):
    """Module-level (picklable) wrapper around the real chunk entry
    point that leaves one marker file per chunk, named by worker pid."""
    import os
    import uuid

    assert specs and all(isinstance(spec, CellSpec) for spec in specs)
    Path(marker_dir, f"chunk.{os.getpid()}.{uuid.uuid4().hex}").write_text("")
    return _real_execute_chunk(specs)


def _scheme_time(scheme: str, nbytes: int) -> float:
    """Module-level (picklable) starmap payload."""
    from repro.core import run_pingpong

    cell = run_pingpong(
        scheme,
        strided_for_bytes(nbytes),
        "ideal",
        policy=TimingPolicy(iterations=2, flush=False),
        materialize=False,
    )
    return cell.time
