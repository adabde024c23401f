"""Self-sends: a rank communicating with itself."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import run_mpi
from repro.sim import DeadlockError


class TestSelfMessages:
    def test_eager_self_send_blocking(self, ideal, doubles):
        """A small blocking self-send completes: eager buffering
        decouples the send from the receive."""

        def main(comm):
            comm.Send(doubles(10), dest=0, tag=1)
            buf = np.zeros(10, np.float64)
            st = comm.Recv(buf, source=0, tag=1)
            assert st.source == 0
            return buf.copy()

        out = run_mpi(main, 1, ideal).results[0]
        assert np.array_equal(out, np.arange(10, dtype=np.float64))

    def test_nonblocking_self_exchange(self, ideal, doubles):
        def main(comm):
            buf = np.zeros(500, np.float64)
            req = comm.Irecv(buf, source=0, tag=2)
            comm.Send(doubles(500), dest=0, tag=2)  # rendezvous-sized
            req.wait()
            return buf[499]

        assert run_mpi(main, 1, ideal).results[0] == 499.0

    def test_blocking_rendezvous_self_send_deadlocks(self, ideal, doubles):
        """A blocking rendezvous self-send with no posted receive is the
        classic self-deadlock; it must be detected, not hang."""

        def main(comm):
            comm.Send(doubles(500), dest=0)  # 4000 B > eager limit

        with pytest.raises(DeadlockError):
            run_mpi(main, 1, ideal)
