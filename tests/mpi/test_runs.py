"""Run-algebra tests: the flattened representations under the engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes.runs import (
    ContigRun,
    IrregularRuns,
    StridedRuns,
    coalesce,
    combine_patterns,
    replicate,
    segments_of,
    total_bytes,
)


def gather_via(run, src: np.ndarray) -> np.ndarray:
    out = np.zeros(run.total_bytes, dtype=np.uint8)
    run.gather(src, out, 0)
    return out


class TestContigRun:
    def test_basics(self):
        r = ContigRun(8, 16)
        assert r.total_bytes == 16
        assert r.nblocks == 1
        assert (r.min_offset, r.max_end) == (8, 24)
        assert list(r.segments()) == [(8, 16)]
        assert r.shifted(100).offset == 108

    def test_gather_scatter(self):
        src = np.arange(32, dtype=np.uint8)
        r = ContigRun(4, 8)
        assert list(gather_via(r, src)) == list(range(4, 12))
        dst = np.zeros(32, dtype=np.uint8)
        r.scatter(np.arange(8, dtype=np.uint8), 0, dst)
        assert list(dst[4:12]) == list(range(8))

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            ContigRun(0, 0)


class TestStridedRuns:
    def test_geometry(self):
        r = StridedRuns(offset=8, count=4, blocklen=8, stride=24)
        assert r.total_bytes == 32
        assert r.nblocks == 4
        assert r.min_offset == 8
        assert r.max_end == 8 + 3 * 24 + 8
        assert list(r.segments()) == [(8, 8), (32, 8), (56, 8), (80, 8)]

    def test_gather_matches_segments(self):
        src = np.arange(120, dtype=np.uint8)
        r = StridedRuns(offset=4, count=5, blocklen=3, stride=20)
        expected = np.concatenate([src[o : o + n] for o, n in r.segments()])
        assert np.array_equal(gather_via(r, src), expected)

    def test_scatter_roundtrip(self):
        r = StridedRuns(offset=0, count=10, blocklen=8, stride=16)
        src = np.arange(160, dtype=np.uint8)
        packed = gather_via(r, src)
        dst = np.zeros(160, dtype=np.uint8)
        r.scatter(packed, 0, dst)
        for off, n in r.segments():
            assert np.array_equal(dst[off : off + n], src[off : off + n])

    def test_negative_stride(self):
        r = StridedRuns(offset=32, count=3, blocklen=8, stride=-16)
        assert r.min_offset == 0
        assert r.max_end == 40
        src = np.arange(48, dtype=np.uint8)
        assert list(gather_via(r, src)) == (
            list(range(32, 40)) + list(range(16, 24)) + list(range(0, 8))
        )

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            StridedRuns(offset=0, count=2, blocklen=16, stride=8)


@st.composite
def strided_in_buffers(draw):
    """A strided run over random bytes, and a packed buffer, each sliced
    at a random start so that word views are unaligned as often as not.
    ``unit`` divides the block length and stride, so every word width
    (and odd lengths and strides at width 1) comes up."""
    unit = draw(st.sampled_from([1, 2, 4, 8]))
    blocklen = unit * draw(st.integers(1, 5))
    count = draw(st.integers(1, 9))
    stride = (blocklen + unit * draw(st.integers(0, 4))) * draw(st.sampled_from([1, -1]))
    lead = draw(st.integers(0, 9))
    offset = lead + (count - 1) * max(0, -stride)
    run = StridedRuns(offset, count, blocklen, stride)
    size = run.max_end + draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src_start = draw(st.integers(0, 7))
    src = rng.integers(0, 256, src_start + size, dtype=np.uint8)[src_start:]
    packed_start = draw(st.integers(0, 7))
    packed_offset = draw(st.integers(0, 9))
    return run, src, packed_start, packed_offset


@settings(max_examples=300, deadline=None)
@given(case=strided_in_buffers())
def test_strided_gather_scatter_equal_the_segment_loop(case):
    run, src, packed_start, packed_offset = case
    n = run.total_bytes
    expected = np.concatenate([src[off : off + length] for off, length in segments_of([run])])
    packed = np.zeros(packed_start + packed_offset + n + 3, dtype=np.uint8)[packed_start:]
    assert run.gather(src, packed, packed_offset) == n
    assert np.array_equal(packed[packed_offset : packed_offset + n], expected)
    assert not packed[:packed_offset].any() and not packed[packed_offset + n :].any()

    out = np.zeros(packed_start + src.size, dtype=np.uint8)[packed_start:]
    want = np.zeros_like(out)
    for off, length in segments_of([run]):
        want[off : off + length] = src[off : off + length]
    assert run.scatter(packed, packed_offset, out) == n
    assert np.array_equal(out, want)


class TestIrregularRuns:
    def test_geometry_and_order(self):
        r = IrregularRuns([40, 0, 16], [8, 8, 8])
        assert r.total_bytes == 24
        assert r.nblocks == 3
        assert r.min_offset == 0
        assert r.max_end == 48
        # pack order preserves datatype order, not sorted order
        src = np.arange(64, dtype=np.uint8)
        out = gather_via(r, src)
        assert list(out[:8]) == list(range(40, 48))

    def test_mixed_lengths(self):
        r = IrregularRuns([0, 10, 30], [4, 8, 2])
        src = np.arange(40, dtype=np.uint8)
        out = gather_via(r, src)
        expected = list(range(0, 4)) + list(range(10, 18)) + list(range(30, 32))
        assert list(out) == expected

    def test_scatter_roundtrip(self):
        r = IrregularRuns([5, 20, 33], [3, 7, 2])
        src = np.arange(50, dtype=np.uint8)
        packed = gather_via(r, src)
        dst = np.zeros(50, dtype=np.uint8)
        r.scatter(packed, 0, dst)
        for off, n in r.segments():
            assert np.array_equal(dst[off : off + n], src[off : off + n])

    def test_validation(self):
        with pytest.raises(ValueError):
            IrregularRuns([], [])
        with pytest.raises(ValueError):
            IrregularRuns([0, 8], [8])
        with pytest.raises(ValueError):
            IrregularRuns([0], [0])

    def test_equality(self):
        assert IrregularRuns([0, 8], [4, 4]) == IrregularRuns([0, 8], [4, 4])
        assert IrregularRuns([0, 8], [4, 4]) != IrregularRuns([0, 9], [4, 4])


class TestCoalesce:
    def test_merges_adjacent_contig(self):
        out = coalesce([ContigRun(0, 8), ContigRun(8, 8), ContigRun(16, 4)])
        assert out == [ContigRun(0, 20)]

    def test_gapped_uniform_pair_becomes_strided(self):
        out = coalesce([ContigRun(0, 8), ContigRun(12, 8)])
        assert out == [StridedRuns(0, 2, 8, 12)]

    def test_gapped_nonuniform_stays_separate(self):
        out = coalesce([ContigRun(0, 8), ContigRun(12, 4)])
        assert out == [ContigRun(0, 8), ContigRun(12, 4)]

    def test_degenerate_strided_to_contig(self):
        out = coalesce([StridedRuns(0, 4, 8, 8)])
        assert out == [ContigRun(0, 32)]
        out = coalesce([StridedRuns(16, 1, 8, 999)])
        assert out == [ContigRun(16, 8)]

    def test_uniform_contigs_fuse_to_strided(self):
        runs = [ContigRun(i * 24, 8) for i in range(5)]
        out = coalesce(runs)
        assert out == [StridedRuns(0, 5, 8, 24)]

    def test_nonuniform_contigs_stay(self):
        runs = [ContigRun(0, 8), ContigRun(24, 8), ContigRun(40, 8)]
        out = coalesce(runs)
        assert len(out) == 3

    def test_preserves_byte_stream(self):
        runs = [StridedRuns(0, 3, 8, 8), ContigRun(24, 8), ContigRun(40, 4)]
        src = np.arange(64, dtype=np.uint8)
        def stream(rs):
            return [b for r in rs for o, n in r.segments() for b in src[o : o + n]]
        assert stream(coalesce(runs)) == stream(runs)


class TestReplicate:
    def test_count_one_identity(self):
        runs = [ContigRun(0, 8)]
        assert replicate(runs, 1, 100) == runs

    def test_contig_seamless_merges(self):
        out = replicate([ContigRun(0, 8)], 4, 8)
        assert out == [ContigRun(0, 32)]

    def test_contig_strided(self):
        out = replicate([ContigRun(0, 8)], 4, 24)
        assert out == [StridedRuns(0, 4, 8, 24)]

    def test_small_fanout_shifts(self):
        base = [ContigRun(0, 4), ContigRun(12, 4)]
        out = replicate(base, 2, 32)
        assert segments_of(out) == [(0, 4), (12, 4), (32, 4), (44, 4)]

    def test_large_fanout_folds_to_irregular(self):
        base = [ContigRun(0, 4), ContigRun(12, 4)]
        out = replicate(base, 5000, 32)
        assert len(out) == 1
        assert isinstance(out[0], IrregularRuns)
        assert out[0].nblocks == 10000
        assert total_bytes(out) == 40000
        # spot-check ordering
        segs = list(out[0].segments())[:4]
        assert segs == [(0, 4), (12, 4), (32, 4), (44, 4)]

    def test_fold_equals_shift_semantics(self):
        base = [StridedRuns(4, 3, 2, 10)]
        small = replicate(base, 3, 40)
        # force the vectorized path via a tiny fold limit
        import repro.mpi.datatypes.runs as runs_mod

        old = runs_mod._REPLICATE_FOLD_LIMIT
        runs_mod._REPLICATE_FOLD_LIMIT = 1
        try:
            big = replicate(base, 3, 40)
        finally:
            runs_mod._REPLICATE_FOLD_LIMIT = old
        assert segments_of(small) == segments_of(big)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            replicate([ContigRun(0, 4)], 0, 8)


class TestCombinePatterns:
    def test_empty(self):
        assert combine_patterns([]).total_bytes == 0

    def test_single_strided(self):
        p = combine_patterns([StridedRuns(0, 100, 8, 16)])
        assert p.total_bytes == 800
        assert p.nblocks == 100
        assert p.span_bytes == 99 * 16 + 8
        assert p.regularity == 1.0

    def test_multiple_runs_summed(self):
        p = combine_patterns([ContigRun(0, 64), StridedRuns(100, 10, 8, 16)])
        assert p.total_bytes == 64 + 80
        assert p.nblocks == 11
        assert p.span_bytes == 100 + 9 * 16 + 8

    def test_irregular_regularity_below_one(self):
        rng = np.random.default_rng(0)
        offsets = np.sort(rng.choice(10_000, size=200, replace=False)) * 16
        p = combine_patterns([IrregularRuns(offsets, np.full(200, 8))])
        assert p.regularity < 1.0

    def test_even_spacing_full_regularity(self):
        offsets = np.arange(100, dtype=np.int64) * 32
        p = combine_patterns([IrregularRuns(offsets, np.full(100, 8))])
        assert p.regularity == 1.0
