"""MPI_Pack/Unpack API tests, including the loop == bulk equivalence
that justifies the packing(e) simulation acceleration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import DOUBLE, PackError, SimBuffer, make_vector, run_mpi


class TestPackApi:
    def test_pack_returns_position(self, ideal, doubles):
        def main(comm):
            vec = make_vector(8, 1, 2, DOUBLE).commit()
            out = np.zeros(16, np.float64)
            pos = comm.Pack(doubles(16), 1, vec, out, 0)
            pos = comm.Pack(doubles(16), 1, vec, out, pos)
            assert pos == 128
            return out.copy()

        out = run_mpi(main, 1, ideal).results[0]
        expected = np.arange(0, 16, 2, dtype=np.float64)
        assert np.array_equal(out[:8], expected)
        assert np.array_equal(out[8:], expected)

    def test_unpack_inverse(self, ideal, doubles):
        def main(comm):
            vec = make_vector(8, 1, 2, DOUBLE).commit()
            packed = np.zeros(8, np.float64)
            comm.Pack(doubles(16), 1, vec, packed, 0)
            back = np.zeros(16, np.float64)
            pos = comm.Unpack(packed, 0, back, 1, vec)
            assert pos == 64
            return back.copy()

        out = run_mpi(main, 1, ideal).results[0]
        assert np.array_equal(out[::2], np.arange(0, 16, 2, dtype=np.float64))

    def test_pack_size(self, ideal):
        def main(comm):
            vec = make_vector(100, 2, 4, DOUBLE).commit()
            return comm.Pack_size(3, vec)

        assert run_mpi(main, 1, ideal).results[0] == 3 * 200 * 8

    def test_pack_overflow_rejected(self, ideal, doubles):
        def main(comm):
            vec = make_vector(8, 1, 2, DOUBLE).commit()
            comm.Pack(doubles(16), 1, vec, np.zeros(7, np.float64), 0)

        with pytest.raises(PackError, match="overflows"):
            run_mpi(main, 1, ideal)

    def test_unpack_overrun_rejected(self, ideal):
        def main(comm):
            vec = make_vector(8, 1, 2, DOUBLE).commit()
            comm.Unpack(np.zeros(7, np.float64), 0, np.zeros(16, np.float64), 1, vec)

        with pytest.raises(PackError, match="overruns"):
            run_mpi(main, 1, ideal)

    def test_pack_virtual_buffers_time_only(self, ideal):
        def main(comm):
            vec = make_vector(1000, 1, 2, DOUBLE).commit()
            out = SimBuffer.virtual(8000)
            src = SimBuffer.virtual(16000)
            pos = comm.Pack(src, 1, vec, out, 0)
            assert pos == 8000
            return comm.Wtime()

        t = run_mpi(main, 1, ideal).results[0]
        # gather: reads the spanned 15992 B (999 strides of 16 B plus a
        # block) + half of the 8 kB writes, all at 10 GB/s
        assert t == pytest.approx((15992 + 4000) / 10e9)


class TestBulkEquivalence:
    """pack_elements_bulk == a literal per-block MPI_Pack loop."""

    def test_data_equivalence_vector(self, ideal, doubles):
        def main(comm):
            vec = make_vector(32, 1, 2, DOUBLE).commit()
            src = doubles(64)
            by_loop = np.zeros(32, np.float64)
            pos = 0
            # Literal loop: one Pack per element, each through a
            # single-element view at the element's offset.
            for i in range(32):
                element = src[2 * i : 2 * i + 1]
                pos = comm.Pack(element, 1, DOUBLE, by_loop, pos)
            by_bulk = np.zeros(32, np.float64)
            comm.pack_elements_bulk(src, 1, vec, by_bulk, 0)
            return by_loop.copy(), by_bulk.copy()

        by_loop, by_bulk = run_mpi(main, 1, ideal).results[0]
        assert np.array_equal(by_loop, by_bulk)

    def test_time_charges_per_block_overhead(self, skx):
        """Bulk pack charges exactly nblocks per-call overheads more
        than the whole-datatype pack."""

        def main(comm):
            vec = make_vector(10_000, 1, 2, DOUBLE).commit()
            src = SimBuffer.virtual(160_000)
            out = SimBuffer.virtual(80_000)
            comm.flush_caches()  # identical (cold) cache state for both
            t0 = comm.Wtime()
            comm.Pack(src, 1, vec, out, 0)
            t_single = comm.Wtime() - t0
            comm.flush_caches()
            t0 = comm.Wtime()
            comm.pack_elements_bulk(src, 1, vec, out, 0)
            t_bulk = comm.Wtime() - t0
            return t_single, t_bulk

        t_single, t_bulk = run_mpi(main, 1, skx).results[0]
        per_element = 6e-9  # skx pack_element_overhead
        assert t_bulk - t_single == pytest.approx(
            (10_000 - 1) * per_element, rel=1e-6
        )

    def test_bulk_counts_blocks_not_elements(self, skx):
        """With blocklength 4, the bulk loop is one call per block."""

        def main(comm):
            blocky = make_vector(2_500, 4, 8, DOUBLE).commit()
            src = SimBuffer.virtual(8 * 8 * 2_500)
            out = SimBuffer.virtual(80_000)
            comm.flush_caches()
            t0 = comm.Wtime()
            comm.Pack(src, 1, blocky, out, 0)
            t_single = comm.Wtime() - t0
            comm.flush_caches()
            t0 = comm.Wtime()
            comm.pack_elements_bulk(src, 1, blocky, out, 0)
            t_bulk = comm.Wtime() - t0
            return t_single, t_bulk

        t_single, t_bulk = run_mpi(main, 1, skx).results[0]
        assert t_bulk - t_single == pytest.approx((2_500 - 1) * 6e-9, rel=1e-6)

