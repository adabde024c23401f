"""Many-rank traffic through the fabric: orderings and exactness.

The flat baseline must be bit-identical to a platform with no topology
at all; oversubscribed fat-trees must price the same program strictly
slower; and the fabric must deliver exactly the bytes the protocol
handed it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import run_mpi, wait_all
from repro.net import fat_tree, flat, make_topology


NBYTES = 80_000  # well past the ideal platform's 1000 B eager limit


def ring_program(comm):
    """Every rank pushes a large face to its +1 neighbor simultaneously."""
    me = np.full(NBYTES // 8, float(comm.rank))
    recv = np.zeros(NBYTES // 8)
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    req = comm.Irecv(recv, source=left)
    comm.Send(me, dest=right)
    req.wait()
    return recv[0]


def _exchange(comm, send_slot, recv):
    """Post a receive from every other rank into ``recv[source]``, then
    send ``send_slot(dest)`` to every other rank, all at once."""
    others = [r for r in range(comm.size) if r != comm.rank]
    reqs = [comm.Irecv(recv[src], source=src) for src in others]
    reqs += [comm.Isend(send_slot(dest), dest=dest) for dest in others]
    wait_all(reqs)


def allgather_program(comm):
    """Every rank sends its block to every other rank."""
    me = np.full(2048, float(comm.rank))
    recv = np.zeros((comm.size, 2048))
    recv[comm.rank] = me
    _exchange(comm, lambda dest: me, recv)
    return recv[:, 0].copy()


def alltoall_program(comm):
    """Every rank sends slot ``dest`` of its buffer to rank ``dest``."""
    send = np.zeros((comm.size, 2048))
    for dest in range(comm.size):
        send[dest] = comm.rank * 100 + dest
    recv = np.zeros((comm.size, 2048))
    recv[comm.rank] = send[comm.rank]
    _exchange(comm, lambda dest: send[dest], recv)
    return recv[:, 0].copy()


def bcast_program(comm):
    """Root fan-out: rank 0 sends the buffer to each rank in turn."""
    buf = np.full(NBYTES // 8, 3.0) if comm.rank == 0 else np.zeros(NBYTES // 8)
    if comm.rank == 0:
        for dest in range(1, comm.size):
            comm.Send(buf, dest=dest)
    else:
        comm.Recv(buf, source=0)
    return buf[0]


def _oversubscribed(nranks):
    """Cyclic placement: ring neighbors always land on different nodes,
    so every send crosses the shared leaf/uplink fabric."""
    return make_topology("fat-tree", nranks, ranks_per_node=4, placement="cyclic")


class TestFlatIsBitIdentical:
    @pytest.mark.parametrize(
        "program", [ring_program, allgather_program, alltoall_program, bcast_program]
    )
    def test_flat_topology_equals_no_topology(self, ideal, program):
        nranks = 8
        bare = run_mpi(program, nranks=nranks, platform=ideal)
        flat_topo = run_mpi(
            program, nranks=nranks, platform=ideal.with_topology(flat())
        )
        assert bare.virtual_time == flat_topo.virtual_time  # bit-exact
        for a, b in zip(bare.results, flat_topo.results):
            assert np.array_equal(a, b)


class TestContentionOrderings:
    @pytest.mark.parametrize(
        ("program", "nranks"),
        [
            (ring_program, 8),
            (ring_program, 16),
            (alltoall_program, 8),
            (alltoall_program, 16),
            (allgather_program, 16),
        ],
    )
    def test_oversubscribed_fat_tree_is_slower(self, ideal, program, nranks):
        baseline = run_mpi(program, nranks=nranks, platform=ideal)
        contended = run_mpi(
            program,
            nranks=nranks,
            platform=ideal.with_topology(_oversubscribed(nranks)),
        )
        assert contended.virtual_time > baseline.virtual_time
        # Contention reprices, never reorders data: payloads identical.
        for a, b in zip(baseline.results, contended.results):
            assert np.array_equal(a, b)

    def test_ring_vs_tree_ordering_flips_under_contention(self, ideal):
        """The topology changes which *pattern* wins, not just how much
        each costs.  A simultaneous ring pushes every link at once; a
        root-fanout bcast serializes through rank 0.  On the flat fabric
        the parallel ring beats the fanout; on an oversubscribed
        fat-tree the ring's all-at-once traffic contends so hard the
        ordering tightens or flips."""
        nranks = 8
        topo = _oversubscribed(nranks)
        ring_flat = run_mpi(ring_program, nranks=nranks, platform=ideal).virtual_time
        tree_flat = run_mpi(bcast_program, nranks=nranks, platform=ideal).virtual_time
        ring_topo = run_mpi(
            ring_program, nranks=nranks, platform=ideal.with_topology(topo)
        ).virtual_time
        tree_topo = run_mpi(
            bcast_program, nranks=nranks, platform=ideal.with_topology(topo)
        ).virtual_time
        assert ring_flat < tree_flat
        # Contention hurts the all-at-once ring more than the serialized
        # tree: its slowdown factor must be strictly larger.
        assert ring_topo / ring_flat > tree_topo / tree_flat

    def test_block_placement_beats_cyclic_for_ring_traffic(self, ideal):
        """Nearest-neighbor traffic is placement-sensitive only on a
        real topology: block keeps most +1 hops on-node."""
        nranks = 8
        block = make_topology("fat-tree", nranks, ranks_per_node=4, placement="block")
        cyclic = make_topology("fat-tree", nranks, ranks_per_node=4, placement="cyclic")
        t_block = run_mpi(
            ring_program, nranks=nranks, platform=ideal.with_topology(block)
        ).virtual_time
        t_cyclic = run_mpi(
            ring_program, nranks=nranks, platform=ideal.with_topology(cyclic)
        ).virtual_time
        assert t_block < t_cyclic

    def test_torus_prices_ring_traffic_without_oversubscription(self, ideal):
        """On a torus with one rank per node, +1 ring neighbors own
        their private links: no slowdown versus flat beyond latency."""
        nranks = 8
        topo = make_topology("torus2d", nranks, ranks_per_node=1)
        flat_t = run_mpi(ring_program, nranks=nranks, platform=ideal).virtual_time
        torus_t = run_mpi(
            ring_program, nranks=nranks, platform=ideal.with_topology(topo)
        ).virtual_time
        assert torus_t == pytest.approx(flat_t, rel=0.05)


class TestByteExactness:
    def test_fabric_delivers_exactly_the_posted_bytes(self, ideal):
        nranks = 8
        job = run_mpi(
            ring_program,
            nranks=nranks,
            platform=ideal.with_topology(_oversubscribed(nranks)),
        )
        # One rendezvous payload per rank, nothing lost, nothing split.
        assert job.metrics.counter("net.bytes_delivered").value == nranks * NBYTES
        assert job.metrics.counter("net.flows").value == nranks
        assert job.metrics.gauge("net.active_flows").value == 0

    def test_max_ranks_enforced(self, ideal):
        topo = fat_tree(2, ranks_per_node=1)
        with pytest.raises(ValueError, match="rank"):
            run_mpi(
                ring_program, nranks=3, platform=ideal.with_topology(topo)
            )
