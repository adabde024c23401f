"""One-sided (RMA) window tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import DOUBLE, SimBuffer, WindowError, make_vector, run_mpi


class TestPutGet:
    def test_put_lands_at_closing_fence(self, ideal, doubles):
        def main(comm):
            if comm.rank == 0:
                win = comm.Win_create(None)
                win.Fence()
                win.Put(doubles(8), 1)
                win.Fence()
            else:
                tgt = np.zeros(8, np.float64)
                win = comm.Win_create(tgt)
                win.Fence()
                win.Fence()
                return tgt.copy()

        out = run_mpi(main, 2, ideal).results[1]
        assert np.array_equal(out, np.arange(8, dtype=np.float64))

    def test_put_derived_origin_type(self, ideal, doubles):
        def main(comm):
            vec = make_vector(16, 1, 2, DOUBLE).commit()
            if comm.rank == 0:
                win = comm.Win_create(None)
                win.Fence()
                win.Put(doubles(32), 1, origin_count=1, origin_datatype=vec)
                win.Fence()
            else:
                tgt = np.zeros(16, np.float64)
                win = comm.Win_create(tgt)
                win.Fence()
                win.Fence()
                return tgt.copy()

        out = run_mpi(main, 2, ideal).results[1]
        assert np.array_equal(out, np.arange(0, 32, 2, dtype=np.float64))

    def test_put_with_target_displacement(self, ideal, doubles):
        def main(comm):
            if comm.rank == 0:
                win = comm.Win_create(None)
                win.Fence()
                win.Put(doubles(2), 1, target_disp=24)
                win.Fence()
            else:
                tgt = np.zeros(6, np.float64)
                win = comm.Win_create(tgt)
                win.Fence()
                win.Fence()
                return tgt.copy()

        out = run_mpi(main, 2, ideal).results[1]
        assert np.array_equal(out, [0, 0, 0, 0, 1, 0])

    def test_put_with_target_datatype(self, ideal, doubles):
        def main(comm):
            vec = make_vector(4, 1, 2, DOUBLE).commit()
            if comm.rank == 0:
                win = comm.Win_create(None)
                win.Fence()
                win.Put(doubles(4), 1, target_count=1, target_datatype=vec)
                win.Fence()
            else:
                tgt = np.zeros(8, np.float64)
                win = comm.Win_create(tgt)
                win.Fence()
                win.Fence()
                return tgt.copy()

        out = run_mpi(main, 2, ideal).results[1]
        assert np.array_equal(out[::2], np.arange(4, dtype=np.float64))


class TestFenceTiming:
    def test_fence_cost_applied(self, skx):
        """An empty fence epoch still costs the synchronization fee."""

        def main(comm):
            win = comm.Win_create(np.zeros(4))
            win.Fence()
            t0 = comm.Wtime()
            win.Fence()
            return comm.Wtime() - t0

        elapsed = run_mpi(main, 2, skx).results[0]
        fence_fee = 12e-6 + 2 * 1e-6  # fence_base + 2 ranks x fence_per_rank
        assert elapsed >= fence_fee

    def test_transfer_time_counted_inside_fences(self, ideal):
        def main(comm):
            n = 10**6
            if comm.rank == 0:
                win = comm.Win_create(None)
                win.Fence()
                t0 = comm.Wtime()
                win.Put(SimBuffer.virtual(n), 1)
                win.Fence()
                return comm.Wtime() - t0
            win = comm.Win_create(SimBuffer.virtual(n))
            win.Fence()
            win.Fence()

        elapsed = run_mpi(main, 2, ideal).results[0]
        assert elapsed >= 10**6 / 10e9  # at least the wire time


class TestWindowErrors:
    def test_put_outside_epoch(self, ideal, doubles):
        def main(comm):
            if comm.rank == 0:
                win = comm.Win_create(None)
                win.Put(doubles(4), 1)
            else:
                comm.Win_create(np.zeros(4))

        with pytest.raises(WindowError, match="epoch"):
            run_mpi(main, 2, ideal)

    def test_put_to_rank_without_memory(self, ideal, doubles):
        def main(comm):
            win = comm.Win_create(None)
            win.Fence()
            if comm.rank == 0:
                win.Put(doubles(4), 1)
            win.Fence()

        with pytest.raises(WindowError, match="no window memory"):
            run_mpi(main, 2, ideal)

    def test_put_beyond_window_bounds(self, ideal, doubles):
        def main(comm):
            if comm.rank == 0:
                win = comm.Win_create(None)
                win.Fence()
                win.Put(doubles(8), 1, target_disp=8)
                win.Fence()
            else:
                win = comm.Win_create(np.zeros(8, np.float64))
                win.Fence()
                win.Fence()

        with pytest.raises(Exception, match="reaches byte|holds only"):
            run_mpi(main, 2, ideal)

    def test_mismatched_target_spec(self, ideal, doubles):
        def main(comm):
            if comm.rank == 0:
                win = comm.Win_create(None)
                win.Fence()
                win.Put(doubles(4), 1, target_count=2, target_datatype=DOUBLE)
                win.Fence()
            else:
                win = comm.Win_create(np.zeros(8, np.float64))
                win.Fence()
                win.Fence()

        with pytest.raises(WindowError, match="target spec"):
            run_mpi(main, 2, ideal)

    def test_free_with_pending_ops_rejected(self, ideal, doubles):
        def main(comm):
            if comm.rank == 0:
                win = comm.Win_create(None)
                win.Fence()
                win.Put(doubles(4), 1)
                win.free()
            else:
                win = comm.Win_create(np.zeros(4, np.float64))
                win.Fence()

        with pytest.raises(WindowError, match="unfenced"):
            run_mpi(main, 2, ideal)

    def test_two_windows_coexist(self, ideal, doubles):
        def main(comm):
            a_buf = np.zeros(4, np.float64) if comm.rank == 1 else None
            b_buf = np.zeros(4, np.float64) if comm.rank == 1 else None
            win_a = comm.Win_create(a_buf)
            win_b = comm.Win_create(b_buf)
            win_a.Fence()
            win_b.Fence()
            if comm.rank == 0:
                win_a.Put(doubles(4), 1)
                win_b.Put(doubles(4) * 2, 1)
            win_a.Fence()
            win_b.Fence()
            if comm.rank == 1:
                return a_buf[1], b_buf[1]

        assert run_mpi(main, 2, ideal).results[1] == (1.0, 2.0)


class TestTargetDisplacementValidation:
    """Regression: a negative ``target_disp`` used to wrap around the
    window buffer via Python slicing and land bytes at the tail; bounds
    are now validated when the op is issued, not at fence-apply."""

    def _put_at(self, ideal, doubles, disp):
        def main(comm):
            if comm.rank == 0:
                win = comm.Win_create(None)
                win.Fence()
                win.Put(doubles(8), 1, target_disp=disp)
                win.Fence()
            else:
                win = comm.Win_create(np.zeros(16, np.float64))
                win.Fence()
                win.Fence()

        return run_mpi(main, 2, ideal)

    def test_negative_disp_rejected(self, ideal, doubles):
        with pytest.raises(WindowError, match="negative target displacement"):
            self._put_at(ideal, doubles, -8)

    def test_disp_beyond_window_rejected(self, ideal, doubles):
        with pytest.raises(WindowError, match="beyond"):
            self._put_at(ideal, doubles, 1000)

    def test_disp_overrun_rejected(self, ideal, doubles):
        # In bounds at the start, but 64 B from byte 72 overruns 128.
        with pytest.raises(Exception, match="reaches byte|holds only"):
            self._put_at(ideal, doubles, 72)

    def test_valid_tail_disp_still_works(self, ideal, doubles):
        """The guard must not reject the legal edge: a Put that ends
        exactly at the window's last byte."""

        def main(comm):
            if comm.rank == 0:
                win = comm.Win_create(None)
                win.Fence()
                win.Put(doubles(2), 1, target_disp=48)
                win.Fence()
            else:
                tgt = np.zeros(8, np.float64)
                win = comm.Win_create(tgt)
                win.Fence()
                win.Fence()
                return tgt.copy()

        out = run_mpi(main, 2, ideal).results[1]
        assert np.array_equal(out, [0, 0, 0, 0, 0, 0, 0, 1])
