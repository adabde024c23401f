"""Communicator context tests: Split isolation and rank mapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, CommunicatorError, run_mpi, wait_all


class TestContextIsolation:
    def test_split_isolates_traffic(self, ideal):
        """A message on a derived communicator never matches a parent
        receive with the same (source, tag), and vice versa."""

        def main(comm):
            sub = comm.Split(color=0)
            if comm.rank == 0:
                comm.Send(np.array([1.0]), dest=1, tag=7)
                sub.Send(np.array([2.0]), dest=1, tag=7)
            else:
                buf = np.zeros(1)
                sub.Recv(buf, source=0, tag=7)  # must get the sub message
                got_sub = buf[0]
                comm.Recv(buf, source=0, tag=7)
                return (got_sub, buf[0])

        assert run_mpi(main, 2, ideal).results[1] == (2.0, 1.0)

    def test_consecutive_splits_get_distinct_contexts(self, ideal):
        def main(comm):
            a = comm.Split(color=0)
            b = comm.Split(color=0)
            return (a.context_id, b.context_id)

        results = run_mpi(main, 2, ideal).results
        assert results[0] == results[1]  # agreed across ranks
        assert results[0][0] != results[0][1]  # distinct contexts


class TestSplit:
    def test_even_odd_split(self, ideal):
        def main(comm):
            sub = comm.Split(color=comm.rank % 2, key=comm.rank)
            # Exchange within the subgroup: neighbour = rank ^ 1 in sub.
            peer = 1 - sub.rank if sub.size == 2 else sub.rank
            buf = np.zeros(1)
            req = sub.Irecv(buf, source=peer)
            sub.Send(np.array([float(comm.rank)]), dest=peer)
            req.wait()
            return (sub.rank, sub.size, buf[0])

        results = run_mpi(main, 4, ideal).results
        # world 0,2 -> evens subcomm (ranks 0,1); world 1,3 -> odds
        assert results[0] == (0, 2, 2.0)
        assert results[2] == (1, 2, 0.0)
        assert results[1] == (0, 2, 3.0)
        assert results[3] == (1, 2, 1.0)

    def test_key_orders_ranks(self, ideal):
        def main(comm):
            # Reverse the ordering within one color.
            sub = comm.Split(color=0, key=-comm.rank)
            return sub.rank

        results = run_mpi(main, 3, ideal).results
        assert results == [2, 1, 0]

    def test_undefined_color_returns_none(self, ideal):
        def main(comm):
            sub = comm.Split(color=None if comm.rank == 2 else 0)
            if comm.rank == 2:
                return sub is None
            return sub.size

        results = run_mpi(main, 3, ideal).results
        assert results == [2, 2, True]

    def test_subcomm_collectives(self, ideal):
        def main(comm):
            sub = comm.Split(color=comm.rank // 2)
            sub.Barrier()
            # Sum over the subgroup: every member sends its value to
            # every other member.
            mine = np.array([float(comm.rank)])
            values = np.zeros((sub.size, 1))
            values[sub.rank] = mine
            others = [r for r in range(sub.size) if r != sub.rank]
            reqs = [sub.Irecv(values[r], source=r) for r in others]
            reqs += [sub.Isend(mine, dest=r) for r in others]
            wait_all(reqs)
            return values.sum()

        results = run_mpi(main, 4, ideal).results
        assert results == [1.0, 1.0, 5.0, 5.0]  # 0+1 and 2+3

    def test_subcomm_status_ranks_are_local(self, ideal):
        def main(comm):
            sub = comm.Split(color=comm.rank % 2)
            if sub.size < 2:
                return None
            buf = np.zeros(1)
            if sub.rank == 0:
                st = sub.Recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
                return st.source  # must be the SUBCOMM rank of the peer
            sub.Send(np.array([9.0]), dest=0)

        results = run_mpi(main, 4, ideal).results
        assert results[0] == 1 and results[1] == 1

    def test_windows_on_subcomms(self, ideal):
        def main(comm):
            sub = comm.Split(color=comm.rank % 2)
            target = np.zeros(2) if sub.rank == 1 else None
            win = sub.Win_create(target)
            win.Fence()
            if sub.rank == 0:
                win.Put(np.full(2, float(comm.rank)), 1)
            win.Fence()
            if sub.rank == 1:
                return target[0]

        results = run_mpi(main, 4, ideal).results
        assert results[2] == 0.0  # world rank 2 got from world rank 0
        assert results[3] == 1.0  # world rank 3 got from world rank 1


class TestGroupValidation:
    def test_group_accessor(self, ideal):
        def main(comm):
            sub = comm.Split(color=0, key=comm.rank)
            return sub.group

        results = run_mpi(main, 3, ideal).results
        assert results == [[0, 1, 2]] * 3

    def test_peer_out_of_subcomm_range(self, ideal):
        def main(comm):
            sub = comm.Split(color=comm.rank % 2)
            sub.Send(np.zeros(1), dest=3)  # subcomm only has 2 ranks

        with pytest.raises(CommunicatorError):
            run_mpi(main, 4, ideal)
