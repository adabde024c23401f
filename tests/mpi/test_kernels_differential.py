"""Differential suite for plan gather/scatter.

A :class:`~repro.mpi.datatypes.plan.TransferPlan` moves bytes along one
of two paths, chosen by its run count: the per-run loop below
``BATCH_RUN_CUTOFF`` runs, and one whole-plan
``IrregularRuns(*expand_runs(plan.runs))`` table at or above it.  Both
must be *byte-identical* to an explicit loop over ``plan.runs`` on every
plan the datatype constructors can produce — same packed bytes, same
unpacked buffer, same return values, at every destination offset.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import (
    DOUBLE,
    INT,
    Datatype,
    compile_plan,
    make_resized,
    make_struct,
    make_subarray,
    make_vector,
)
from repro.mpi.datatypes.plan import BATCH_RUN_CUTOFF, TransferPlan
from repro.mpi.datatypes.runs import (
    ContigRun,
    IrregularRuns,
    StridedRuns,
    combine_patterns,
    expand_runs,
)
from repro.obs import host as host_mod

from .strategies import COUNTS, DERIVED


def _filled(nbytes: int) -> np.ndarray:
    """A deterministic, non-repeating byte pattern (mod 251 avoids the
    period-256 coincidence with aligned block lengths)."""
    return (np.arange(max(nbytes, 1), dtype=np.int64) % 251).astype(np.uint8)


def _loop_gather(runs, src: np.ndarray, dst: np.ndarray, dst_offset: int) -> int:
    """The reference: every run in pack order, one at a time."""
    written = dst_offset
    for run in runs:
        written += run.gather(src, dst, written)
    return written - dst_offset


def _loop_scatter(runs, src: np.ndarray, src_offset: int, dst: np.ndarray) -> int:
    consumed = src_offset
    for run in runs:
        consumed += run.scatter(src, consumed, dst)
    return consumed - src_offset


def _plan_of(runs: list) -> TransferPlan:
    """A plan over exactly these runs (no coalescing)."""
    return TransferPlan("test-runs", 1, sum(r.total_bytes for r in runs), runs,
                        combine_patterns(runs))


def _assert_all_paths_agree(plan: TransferPlan, dst_offset: int = 0) -> None:
    """``plan.gather/scatter``, the per-run loop and the whole-plan
    table all move the same bytes."""
    span = max(plan.max_end, 1)
    src = _filled(span)
    movers = [("plan", plan.gather, plan.scatter)]
    if plan.runs:
        table = IrregularRuns(*expand_runs(plan.runs))
        movers.append(("table", table.gather, table.scatter))

    ref = np.zeros(plan.nbytes + dst_offset, dtype=np.uint8)
    assert _loop_gather(plan.runs, src, ref, dst_offset) == plan.nbytes
    ref_back = np.zeros(span, dtype=np.uint8)
    assert _loop_scatter(plan.runs, ref, dst_offset, ref_back) == plan.nbytes

    for name, gather, scatter in movers:
        packed = np.zeros_like(ref)
        assert gather(src, packed, dst_offset) == plan.nbytes, name
        assert np.array_equal(packed, ref), name
        back = np.zeros(span, dtype=np.uint8)
        assert scatter(packed, dst_offset, back) == plan.nbytes, name
        assert np.array_equal(back, ref_back), name


def _resized_of_struct() -> Datatype:
    """A heterogeneous struct padded by 16 bytes of extent."""
    inner = make_struct([2, 1, 3], [0, 24, 40], [DOUBLE, INT, DOUBLE])
    return make_resized(inner, 0, inner.extent + 16)


def _subarray_of_vector() -> Datatype:
    """A subarray whose element is itself a strided vector: two stride
    patterns compose with non-uniform gaps."""
    return make_subarray([4, 6], [2, 3], [1, 2], make_vector(2, 1, 3, DOUBLE))


@settings(max_examples=120, deadline=None)
@given(dtype=DERIVED, count=COUNTS, dst_offset=st.integers(0, 17))
@example(dtype=_resized_of_struct(), count=1, dst_offset=0)
@example(dtype=_resized_of_struct(), count=3, dst_offset=5)
@example(dtype=_subarray_of_vector(), count=1, dst_offset=0)
@example(dtype=_subarray_of_vector(), count=3, dst_offset=5)
def test_gather_scatter_bit_identical_across_tiers(
    dtype: Datatype, count: int, dst_offset: int
):
    dtype.commit()
    try:
        _assert_all_paths_agree(compile_plan(dtype, count), dst_offset)
    finally:
        dtype.free()


@settings(max_examples=60, deadline=None)
@given(dtype=DERIVED, count=st.integers(1, 3))
def test_checked_pack_unpack_bit_identical_across_tiers(
    dtype: Datatype, count: int
):
    """Same property through the checked engine entry points
    (``pack_into``/``unpack_from``), which is what comm paths call."""
    dtype.commit()
    try:
        plan = compile_plan(dtype, count)
        span = max(plan.max_end, 1)
        src = _filled(span)

        ref = np.zeros(plan.nbytes, dtype=np.uint8)
        _loop_gather(plan.runs, src, ref, 0)
        packed = np.zeros_like(ref)
        plan.pack_into(src, packed)
        assert np.array_equal(packed, ref)

        ref_back = np.zeros(span, dtype=np.uint8)
        _loop_scatter(plan.runs, ref, 0, ref_back)
        back = np.zeros(span, dtype=np.uint8)
        plan.unpack_from(packed, 0, back)
        assert np.array_equal(back, ref_back)
    finally:
        dtype.free()


class TestWholePlanTable:
    """Unit coverage of ``IrregularRuns(*expand_runs(runs))``, the
    table a plan of many runs gathers through."""

    RUNS = [
        ContigRun(3, 5),
        StridedRuns(offset=16, count=3, blocklen=2, stride=7),
        IrregularRuns(offsets=(40, 50, 61), lengths=(4, 1, 4)),
        ContigRun(70, 1),
    ]

    def test_table_shape(self):
        offsets, lengths = expand_runs(self.RUNS)
        assert offsets.tolist() == [3, 16, 23, 30, 40, 50, 61, 70]
        assert lengths.tolist() == [5, 2, 2, 2, 4, 1, 4, 1]
        table = IrregularRuns(offsets, lengths)
        assert table.nblocks == 1 + 3 + 3 + 1
        assert table.total_bytes == sum(r.total_bytes for r in self.RUNS)

    def test_matches_scalar_run_loop(self):
        table = IrregularRuns(*expand_runs(self.RUNS))
        span = max(r.max_end for r in self.RUNS)
        src = _filled(span)

        ref = np.zeros(table.total_bytes + 5, dtype=np.uint8)
        _loop_gather(self.RUNS, src, ref, 5)
        got = np.zeros_like(ref)
        assert table.gather(src, got, 5) == table.total_bytes
        assert np.array_equal(got, ref)

        ref_back = np.zeros(span, dtype=np.uint8)
        _loop_scatter(self.RUNS, ref, 5, ref_back)
        got_back = np.zeros(span, dtype=np.uint8)
        assert table.scatter(got, 5, got_back) == table.total_bytes
        assert np.array_equal(got_back, ref_back)

    def test_empty_run_list(self):
        offsets, lengths = expand_runs([])
        assert offsets.size == lengths.size == 0
        assert offsets.dtype == lengths.dtype == np.int64


def _mixed_runs(n_runs: int, lengths: tuple[int, ...]) -> list[ContigRun]:
    """``n_runs`` separate contiguous runs cycling through ``lengths``."""
    runs, offset = [], 0
    for i in range(n_runs):
        length = lengths[i % len(lengths)]
        runs.append(ContigRun(offset, length))
        offset += length + 3
    return runs


class TestRunCutoff:
    """Plans just below and at ``BATCH_RUN_CUTOFF`` take different
    paths and move the same bytes."""

    def _moved_with_counters(self, plan: TransferPlan) -> dict[str, int]:
        with host_mod.capturing() as telemetry:
            _assert_all_paths_agree(plan, dst_offset=5)
        metrics = telemetry.metrics
        return {
            name: metrics.counter_value(f"kernel.{name}")
            for name in ("gather.scalar", "gather.batched",
                         "scatter.scalar", "scatter.batched")
        }

    def test_fifteen_runs_take_the_per_run_loop(self):
        plan = _plan_of(_mixed_runs(BATCH_RUN_CUTOFF - 1, (7, 13)))
        assert self._moved_with_counters(plan) == {
            "gather.scalar": 1, "gather.batched": 0,
            "scatter.scalar": 1, "scatter.batched": 0,
        }

    def test_sixteen_runs_take_the_whole_plan_table(self):
        plan = _plan_of(_mixed_runs(BATCH_RUN_CUTOFF, (7, 13)))
        assert self._moved_with_counters(plan) == {
            "gather.scalar": 0, "gather.batched": 1,
            "scatter.scalar": 0, "scatter.batched": 1,
        }

    def test_single_byte_blocks(self):
        """Mostly 1-byte blocks: the table's 1-D index branch."""
        runs = _mixed_runs(4 * BATCH_RUN_CUTOFF, (1, 1, 1, 5))
        runs.append(IrregularRuns(offsets=(1000, 1002, 1010), lengths=(1, 1, 2)))
        plan = _plan_of(runs)
        assert self._moved_with_counters(plan)["gather.batched"] == 1
