"""Collective tests over the p2p substrate: the barrier."""

from __future__ import annotations

import pytest

from repro.mpi import run_mpi


@pytest.mark.parametrize("nranks", [1, 2, 3, 4, 7, 8])
class TestBarrier:
    def test_barrier_synchronizes(self, ideal, nranks):
        def main(comm):
            comm.process.task.sleep(comm.rank * 0.1)
            comm.Barrier()
            return comm.Wtime()

        times = run_mpi(main, nranks, ideal).results
        # Everyone leaves at (or after) the slowest arrival.
        slowest = (nranks - 1) * 0.1
        assert all(t >= slowest for t in times)
        assert max(times) - min(times) < 1e-4  # released together-ish
