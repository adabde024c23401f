"""SimBuffer and AttachedBuffer tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import BSEND_OVERHEAD, AttachedBuffer, BufferError_, SimBuffer, as_simbuffer


class TestSimBuffer:
    def test_alloc_is_aligned_and_zeroed(self):
        buf = SimBuffer.alloc(1000, align=64)
        assert buf.nbytes == 1000
        assert buf.materialized
        assert buf.bytes.ctypes.data % 64 == 0
        assert np.all(buf.bytes == 0)

    def test_alloc_custom_alignment(self):
        buf = SimBuffer.alloc(100, align=256)
        assert buf.bytes.ctypes.data % 256 == 0

    def test_alloc_bad_alignment(self):
        with pytest.raises(ValueError):
            SimBuffer.alloc(10, align=48)

    def test_virtual_has_no_bytes(self):
        buf = SimBuffer.virtual(10**9)  # a gigabyte costs nothing
        assert not buf.materialized
        assert buf.nbytes == 10**9
        with pytest.raises(BufferError_):
            _ = buf.bytes

    def test_view_reinterprets(self):
        buf = SimBuffer.alloc(64)
        view = buf.view(np.float64)
        view[:] = np.arange(8)
        assert buf.view(np.float64)[3] == 3.0
        assert len(buf) == 64

    def test_view_requires_whole_items(self):
        with pytest.raises(ValueError):
            SimBuffer.alloc(10).view(np.float64)

    def test_from_array_zero_copy(self):
        arr = np.arange(10, dtype=np.float64)
        buf = SimBuffer.from_array(arr)
        buf.view(np.float64)[0] = 99.0
        assert arr[0] == 99.0

    def test_from_array_requires_contiguous(self):
        arr = np.arange(20, dtype=np.float64)[::2]
        with pytest.raises(ValueError):
            SimBuffer.from_array(arr)

    def test_fill_zero(self):
        buf = SimBuffer.alloc(16, zero=False)
        buf.bytes[:] = 7
        buf.fill_zero()
        assert np.all(buf.bytes == 0)
        SimBuffer.virtual(16).fill_zero()  # no-op, no raise

    def test_as_simbuffer(self):
        buf = SimBuffer.alloc(8)
        assert as_simbuffer(buf) is buf
        arr = np.zeros(4, dtype=np.int32)
        wrapped = as_simbuffer(arr)
        assert wrapped.nbytes == 16
        with pytest.raises(TypeError):
            as_simbuffer("not a buffer")

    def test_zero_size(self):
        buf = SimBuffer.alloc(0)
        assert buf.nbytes == 0
        assert buf.bytes.size == 0

    def test_repr(self):
        assert "virtual" in repr(SimBuffer.virtual(8))
        assert "materialized" in repr(SimBuffer.alloc(8))


class TestAttachedBuffer:
    def test_reserve_release_cycle(self):
        ab = AttachedBuffer(10_000)
        r = ab.reserve(1000)
        assert r == 1000 + BSEND_OVERHEAD
        assert ab.in_use == r
        assert ab.active_messages == 1
        ab.release(r)
        assert ab.in_use == 0
        assert ab.active_messages == 0

    def test_exhaustion(self):
        ab = AttachedBuffer(1000)
        with pytest.raises(BufferError_, match="exhausted"):
            ab.reserve(1000)  # overhead pushes it over

    def test_multiple_reservations(self):
        ab = AttachedBuffer(10_000)
        r1 = ab.reserve(1000)
        r2 = ab.reserve(2000)
        assert ab.active_messages == 2
        assert ab.available == 10_000 - r1 - r2

    def test_release_without_reservation(self):
        ab = AttachedBuffer(1000)
        with pytest.raises(BufferError_):
            ab.release(100)

    def test_detach_check(self):
        ab = AttachedBuffer(10_000)
        r = ab.reserve(100)
        with pytest.raises(BufferError_, match="in flight"):
            ab.detach_check()
        ab.release(r)
        ab.detach_check()  # fine now

    def test_negative_capacity_rejected(self):
        with pytest.raises(BufferError_):
            AttachedBuffer(-1)
