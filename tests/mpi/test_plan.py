"""TransferPlan layer: cache behaviour, lifecycle, and byte movement.

The acceptance property of the plan cache: a loop of sends over one
``(datatype, count)`` pair compiles exactly one plan — every later send
is a cache hit, visible in the world's metrics registry.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.mpi import DOUBLE, make_vector, run_mpi
from repro.mpi.datatypes import (
    BYTE,
    INT,
    PACKED,
    TransferPlan,
    clear_plan_cache,
    compile_plan,
    make_indexed,
    plan_cache_capacity,
    plan_cache_stats,
    plan_for,
)
from repro.mpi.datatypes.plan import _CACHE, _named_plan
from repro.mpi.errors import FreedDatatypeError


def expected_scatter(plan: TransferPlan, packed: np.ndarray, span: int) -> np.ndarray:
    """Reference scatter: walk the segment list byte by byte."""
    out = np.zeros(span, dtype=np.uint8)
    pos = 0
    for off, ln in plan.segments():
        out[off : off + ln] = packed[pos : pos + ln]
        pos += ln
    return out


class TestCacheBehaviour:
    def test_repeated_sends_compile_one_plan(self, ideal):
        """The acceptance criterion: N sends of the same (datatype,
        count) -> exactly one compile, N-1 hits, counted in the job's
        metrics registry."""
        iterations = 8
        v = make_vector(8, 1, 2, DOUBLE).commit()
        try:

            def main(comm):
                if comm.rank == 0:
                    src = np.arange(64, dtype=np.float64)
                    for _ in range(iterations):
                        comm.Send(src, dest=1, count=4, datatype=v)
                else:
                    # Receive into a basic-typed buffer: basic types
                    # bypass the cache, so the counters only see the
                    # sender-side derived-type lookups.
                    buf = np.empty(32, dtype=np.float64)
                    for _ in range(iterations):
                        comm.Recv(buf, source=0)

            job = run_mpi(main, 2, ideal)
            assert job.metrics.counter_value("plan.cache_misses") == 1
            assert job.metrics.counter_value("plan.cache_hits") == iterations - 1
        finally:
            v.free()

    def test_commit_prepopulates_count_one(self):
        clear_plan_cache()
        v = make_vector(4, 1, 2, DOUBLE).commit()
        try:
            assert len(_CACHE) == 1
            hits = _CACHE.hits
            plan = plan_for(v, 1)
            assert _CACHE.hits == hits + 1  # commit's entry served it
            assert plan.nbytes == 32
            assert plan.reuses == 1
        finally:
            v.free()

    def test_basic_types_bypass_cache(self):
        before = plan_cache_stats()
        plan = plan_for(DOUBLE, 100)
        after = plan_cache_stats()
        assert plan.nbytes == 800
        assert plan.is_contiguous
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]
        assert after["size"] == before["size"]

    def test_named_types_compile_once(self):
        """Named-type plans come from their own memo: the same object on
        every call, with the shared cache's counters untouched."""
        before = plan_cache_stats()
        plan = plan_for(BYTE, 4096)
        assert plan_for(BYTE, 4096) is plan
        assert plan_for(PACKED, 4096) is not plan
        assert plan.reuses == 0
        assert plan_cache_stats() == before

    def test_named_memo_stays_bounded(self):
        bound = _named_plan.cache_info().maxsize
        for count in range(bound + 10):
            plan_for(BYTE, count)
        assert _named_plan.cache_info().currsize <= bound

    def test_lru_eviction_under_small_capacity(self):
        v = make_vector(4, 1, 2, DOUBLE).commit()
        try:
            with plan_cache_capacity(2) as cache:
                cache.clear()
                plan_for(v, 2)
                plan_for(v, 3)
                plan_for(v, 2)  # touch: (v, 3) becomes LRU
                misses = cache.misses
                evictions = cache.evictions
                plan_for(v, 4)  # over capacity: evicts (v, 3)
                assert len(cache) == 2
                assert cache.evictions == evictions + 1
                hits = cache.hits
                plan_for(v, 2)  # survived the eviction
                assert cache.hits == hits + 1
                plan_for(v, 3)  # was evicted -> recompiled
                assert cache.misses == misses + 2
        finally:
            v.free()

    def test_zero_capacity_never_stores(self):
        v = make_vector(4, 1, 2, DOUBLE).commit()
        try:
            with plan_cache_capacity(0) as cache:
                assert len(cache) == 0
                p1 = plan_for(v, 2)
                p2 = plan_for(v, 2)
                assert p1 is not p2  # every lookup compiles cold
                assert len(cache) == 0
        finally:
            v.free()

    def test_free_evicts_every_count(self):
        v = make_vector(4, 1, 2, DOUBLE).commit()  # caches (v, 1)
        plan_for(v, 3)
        plan_for(v, 7)
        size = plan_cache_stats()["size"]
        invalidations = plan_cache_stats()["invalidations"]
        v.free()
        stats = plan_cache_stats()
        assert stats["size"] == size - 3
        assert stats["invalidations"] == invalidations + 3

    def test_free_while_another_thread_hits_the_cache(self):
        """Worlds in flight in one process (the serve daemon's serial
        jobs) share the cache: freeing a type in one must not trip over
        the other's hits, each of which reorders the LRU."""
        hot = [make_vector(4, 1, 2, DOUBLE).commit() for _ in range(2)]
        freed = [make_vector(4, 1, 2, DOUBLE).commit() for _ in range(200)]
        stop = threading.Event()

        def hit():
            while not stop.is_set():
                for v in hot:  # alternating, so every hit moves an entry
                    plan_for(v, 1)

        hitter = threading.Thread(target=hit)
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hitter.start()
            for v in freed:
                v.free()
        finally:
            stop.set()
            hitter.join(timeout=10)
            sys.setswitchinterval(saved)
            for v in hot:
                v.free()
        assert not hitter.is_alive()
        assert all((v, 1) not in _CACHE._plans for v in freed)

    def test_freed_datatype_rejected_on_send(self, ideal):
        v = make_vector(4, 1, 2, DOUBLE).commit()
        v.free()

        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(28, np.float64), dest=1, count=4, datatype=v)
            else:
                comm.Recv(np.zeros(28, np.float64), source=0, count=4, datatype=v)

        with pytest.raises(FreedDatatypeError):
            run_mpi(main, 2, ideal)

    def test_pack_size_freed_guard_via_comm(self, ideal):
        """The Comm-level mirror of the Datatype.pack_size guard."""
        v = make_vector(4, 1, 2, DOUBLE).commit()
        v.free()

        def main(comm):
            with pytest.raises(FreedDatatypeError):
                comm.Pack_size(1, v)

        run_mpi(main, 2, ideal)


class TestPlanSpans:
    def test_staging_span_records_plan_reuse(self, ideal):
        """The first derived send compiles (plan_reuse=0); the second
        rides the cache (plan_reuse=1)."""
        # count=2 so the lookup misses (Commit() pre-caches only count=1)
        # and the payload (4800 B) exceeds the eager limit -> staged send.
        v = make_vector(300, 1, 2, DOUBLE).commit()
        try:

            def main(comm):
                if comm.rank == 0:
                    src = np.arange(1198, dtype=np.float64)
                    for tag in range(2):
                        comm.Send(src, dest=1, tag=tag, count=2, datatype=v)
                else:
                    buf = np.empty(600, dtype=np.float64)
                    for tag in range(2):
                        comm.Recv(buf, source=0, tag=tag)

            job = run_mpi(main, 2, ideal, trace=True)
            staging = job.tracer.spans("p2p.staging", rank=0)
            assert [s["plan_reuse"] for s in staging] == [0, 1]
        finally:
            v.free()


class TestPlanSnapshots:
    def test_in_flight_transfer_survives_free(self, ideal):
        """A posted receive snapshots its plan: freeing the datatype
        while the message is in flight must not lose the layout."""
        v = make_vector(4, 1, 2, DOUBLE).commit()
        plan = compile_plan(v, 4)
        segs = list(plan.segments())
        src = np.arange(28, dtype=np.float64)

        def main(comm):
            if comm.rank == 0:
                comm.Send(src, dest=1, tag=1, count=4, datatype=v)
                comm.Send(np.empty(0, np.uint8), dest=1, tag=2, count=0)
            else:
                buf = np.zeros(28, np.float64)
                req = comm.Irecv(buf, source=0, tag=1, count=4, datatype=v)
                # The empty sync message trails the payload on an
                # ordered channel: once it lands, the payload has
                # arrived and it is safe (and interesting) to free.
                comm.Recv(np.empty(0, np.uint8), source=0, tag=2, count=0)
                v.free()
                req.wait()
                return buf.copy()

        out = run_mpi(main, 2, ideal).results[1]
        expected = np.zeros(28, dtype=np.float64)
        src_b = src.view(np.uint8)
        exp_b = expected.view(np.uint8)
        for off, ln in segs:
            exp_b[off : off + ln] = src_b[off : off + ln]
        assert np.array_equal(out, expected)

    def test_plan_outlives_free_for_direct_use(self):
        v = make_vector(4, 1, 2, DOUBLE).commit()
        plan = plan_for(v, 2)
        v.free()
        src = np.arange(plan.max_end, dtype=np.int64).astype(np.uint8)
        dst = np.zeros(plan.nbytes, dtype=np.uint8)
        assert plan.gather(src, dst) == plan.nbytes  # still works


class TestIrregularPrecompute:
    def test_precomputed_offsets_move_identical_bytes(self):
        """The cumsum/length-class hoisting in IrregularRuns must not
        change a single byte relative to the segment-list reference."""
        idx = make_indexed([3, 1, 2, 1], [0, 5, 9, 14], DOUBLE).commit()
        try:
            plan = plan_for(idx, 2)
            span = plan.max_end
            src = (np.arange(span, dtype=np.int64) % 251).astype(np.uint8)
            packed = np.zeros(plan.nbytes, dtype=np.uint8)
            assert plan.gather(src, packed) == plan.nbytes

            ref = np.concatenate([src[o : o + n] for o, n in plan.segments()])
            assert np.array_equal(packed, ref)

            back = np.zeros(span, dtype=np.uint8)
            assert plan.scatter(packed, 0, back) == plan.nbytes
            assert np.array_equal(back, expected_scatter(plan, packed, span))
        finally:
            idx.free()


class TestPlanShape:
    def test_plan_pattern_matches_datatype_pattern(self):
        v = make_vector(8, 2, 3, DOUBLE).commit()
        try:
            for count in (0, 1, 2, 5):
                plan = compile_plan(v, count)
                assert plan.pattern == v.access_pattern(count), count
                assert plan.nbytes == v.size * count
        finally:
            v.free()

    def test_bounds_are_true_bounds(self):
        idx = make_indexed([2, 1], [3, 9], INT).commit()
        try:
            plan = compile_plan(idx, 1)
            segs = list(plan.segments())
            assert plan.min_offset == min(o for o, _ in segs)
            assert plan.max_end == max(o + n for o, n in segs)
        finally:
            idx.free()
