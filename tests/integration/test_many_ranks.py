"""Many-rank stress: the simulator scales past the paper's 2 ranks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, run_mpi, wait_all


class TestSixteenRanks:
    def test_collective_stack(self, ideal):
        """Barrier, then all-gather, all-reduce and all-to-all values
        from point-to-point exchanges, then barrier, on 16 ranks."""

        def main(comm):
            n = comm.size
            comm.Barrier()
            mine = np.array([float(comm.rank)])
            gathered = np.zeros((n, 1))
            gathered[comm.rank] = mine
            a2a_in = np.array([[float(comm.rank * n + d)] for d in range(n)])
            a2a_out = np.zeros((n, 1))
            a2a_out[comm.rank] = a2a_in[comm.rank]
            others = [r for r in range(n) if r != comm.rank]
            reqs = [comm.Irecv(gathered[s], source=s, tag=1) for s in others]
            reqs += [comm.Irecv(a2a_out[s], source=s, tag=2) for s in others]
            reqs += [comm.Isend(mine, dest=d, tag=1) for d in others]
            reqs += [comm.Isend(a2a_in[d], dest=d, tag=2) for d in others]
            wait_all(reqs)
            total = gathered[:, 0].sum()  # the all-reduce: everyone's sum
            comm.Barrier()
            return (
                total,
                float(gathered.sum()),
                all(a2a_out[s, 0] == s * n + comm.rank for s in range(n)),
            )

        results = run_mpi(main, 16, ideal).results
        expected_sum = sum(range(16))
        assert all(r == (expected_sum, expected_sum, True) for r in results)

    def test_ring_with_wildcards(self, ideal):
        """A 12-rank token ring, 3 laps, wildcard receives: the token is
        incremented once per hop, so rank 0 finally holds laps x size."""
        laps, nranks = 3, 12

        def main(comm):
            token = np.zeros(1)
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            if comm.rank == 0:
                comm.Send(token, dest=right)
                for _ in range(laps):
                    st = comm.Recv(token, source=ANY_SOURCE)
                    assert st.source == left
                    if token[0] < laps * comm.size:
                        token[0] += 1.0
                        comm.Send(token, dest=right)
            else:
                for _ in range(laps):
                    st = comm.Recv(token, source=ANY_SOURCE)
                    assert st.source == left
                    token[0] += 1.0
                    comm.Send(token, dest=right)
            return token[0]

        results = run_mpi(main, nranks, ideal, max_events=200_000).results
        assert results[0] == laps * nranks

    def test_tree_depth_reflected_in_barrier_cost(self, ideal):
        def barrier_time(nranks):
            def main(comm):
                comm.Barrier()
                return comm.Wtime()
            return max(run_mpi(main, nranks, ideal).results)

        t4, t16 = barrier_time(4), barrier_time(16)
        assert t16 > t4  # deeper tree, more rounds

    def test_split_into_four_quads(self, ideal):
        def main(comm):
            quad = comm.Split(color=comm.rank // 4, key=comm.rank)
            # Sum over the quad: every member sends its value to every
            # other member.
            mine = np.array([float(comm.rank)])
            values = np.zeros((quad.size, 1))
            values[quad.rank] = mine
            others = [r for r in range(quad.size) if r != quad.rank]
            reqs = [quad.Irecv(values[r], source=r) for r in others]
            reqs += [quad.Isend(mine, dest=r) for r in others]
            wait_all(reqs)
            return values.sum()

        results = run_mpi(main, 16, ideal).results
        for rank, value in enumerate(results):
            base = (rank // 4) * 4
            assert value == sum(range(base, base + 4))

    def test_dissemination_of_windows(self, ideal):
        """Each rank puts its rank into its right neighbour's window."""

        def main(comm):
            mine = np.full(1, -1.0)
            win = comm.Win_create(mine)
            win.Fence()
            win.Put(np.array([float(comm.rank)]), (comm.rank + 1) % comm.size)
            win.Fence()
            return mine[0]

        results = run_mpi(main, 8, ideal).results
        assert results == [float((r - 1) % 8) for r in range(8)]
