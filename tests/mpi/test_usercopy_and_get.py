"""Coverage for user_scatter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import DOUBLE, make_vector, run_mpi


class TestUserScatter:
    def test_scatter_moves_and_charges(self, ideal):
        def main(comm):
            vec = make_vector(8, 1, 2, DOUBLE).commit()
            packed = np.arange(8, dtype=np.float64)
            dst = np.zeros(16, dtype=np.float64)
            t0 = comm.Wtime()
            comm.user_scatter(packed, 0, dst, vec, 1)
            elapsed = comm.Wtime() - t0
            assert np.array_equal(dst[::2], packed)
            assert np.all(dst[1::2] == 0)
            return elapsed

        elapsed = run_mpi(main, 1, ideal).results[0]
        # reads 64 B contiguous, writes the 128 B span strided
        assert elapsed > 0

    def test_scatter_warms_cache(self, ideal):
        def main(comm):
            vec = make_vector(8, 1, 2, DOUBLE).commit()
            comm.process.cache_warm = False
            comm.user_scatter(np.zeros(8), 0, np.zeros(16), vec, 1)
            return comm.process.cache_warm

        assert run_mpi(main, 1, ideal).results[0] is True

    def test_gather_scatter_roundtrip(self, ideal):
        def main(comm):
            vec = make_vector(16, 1, 2, DOUBLE).commit()
            src = np.arange(32, dtype=np.float64)
            mid = np.zeros(16, dtype=np.float64)
            comm.user_gather(src, vec, 1, mid)
            back = np.zeros(32, dtype=np.float64)
            comm.user_scatter(mid, 0, back, vec, 1)
            return np.array_equal(back[::2], src[::2])

        assert run_mpi(main, 1, ideal).results[0]

