"""The communicator: two-sided point-to-point, the barrier, and entry
points to packing and one-sided windows.

Method names follow mpi4py's buffer-based (capitalized) API.  Buffers
are :class:`~repro.mpi.buffers.SimBuffer` or numpy arrays; datatypes
default to automatic discovery from the array dtype.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..sim.sync import SimCondition
from .buffers import SimBuffer, as_simbuffer
from .datatypes import BYTE, Datatype, from_numpy_dtype, pack_bytes, unpack_bytes
from .datatypes.basic import PACKED
from .datatypes.plan import TransferPlan, plan_for
from .errors import CommunicatorError, TruncationError
from .matching import PostedRecv
from .protocol import Payload, SendOperation
from .request import RecvRequest, Request, SendRequest
from .status import ANY_SOURCE, ANY_TAG, Status

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Process, World
    from .win import Win

__all__ = ["Comm"]

#: Base of the tag space reserved for collective traffic (``Barrier``).
_COLL_TAG_BASE = 1 << 28


class Comm:
    """A communicator bound to one rank of a simulated world.

    A communicator is a (context id, rank group) pair: ``group[i]`` is
    the world rank of communicator rank ``i``.  Messages only match
    within their context (MPI communicator isolation); ``Split``
    derives new communicators collectively.
    """

    def __init__(
        self,
        world: "World",
        process: "Process",
        *,
        context_id: int = 0,
        group: list[int] | None = None,
    ):
        self.world = world
        self.process = process
        self.context_id = context_id
        self._group = group if group is not None else list(range(len(world.processes)))
        if process.rank not in self._group:
            raise CommunicatorError(
                f"world rank {process.rank} is not a member of this communicator"
            )
        self._rank = self._group.index(process.rank)
        self._coll_seq = 0  # collective tag sequence (same order on all ranks)
        self._derived_seq = 0  # Split sequence (same order on all ranks)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._group)

    @property
    def group(self) -> list[int]:
        """World ranks of this communicator's members, by comm rank."""
        return list(self._group)

    def _world_rank(self, comm_rank: int) -> int:
        return self._group[comm_rank]

    def _comm_rank(self, world_rank: int) -> int:
        return self._group.index(world_rank)

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    def Wtime(self) -> float:
        """Virtual wall-clock (``MPI_Wtime``)."""
        return self.process.task.now

    @property
    def _cost(self):
        return self.world.cost

    # ------------------------------------------------------------------
    # Argument resolution
    # ------------------------------------------------------------------
    def _resolve(
        self,
        buf: SimBuffer | np.ndarray,
        count: int | None,
        datatype: Datatype | None,
    ) -> tuple[SimBuffer, int, Datatype, TransferPlan]:
        """Normalize a (buf, count, datatype) triple and fetch the
        cached :class:`TransferPlan` of the transfer.

        Numpy arrays get automatic datatype discovery; a bare
        :class:`SimBuffer` defaults to BYTE.  Bounds checking runs
        against the plan's precomputed footprint — O(1), no flattening.
        """
        if datatype is None:
            if isinstance(buf, np.ndarray):
                datatype = from_numpy_dtype(buf.dtype)
            else:
                datatype = BYTE
        sbuf = as_simbuffer(buf)
        if count is None:
            if datatype.size == 0:
                count = 0
            elif datatype.extent <= 0:
                raise CommunicatorError(f"cannot infer count for datatype {datatype.name!r}")
            else:
                count = sbuf.nbytes // datatype.extent if datatype.extent else 0
        if count < 0:
            raise CommunicatorError(f"negative count {count}")
        datatype.require_committed()
        plan = plan_for(datatype, count, self.world.metrics)
        if sbuf.materialized:
            plan.check_fits(sbuf.nbytes, "communication buffer")
        elif plan.runs and plan.max_end > sbuf.nbytes:
            # Virtual buffers still get bounds checking against their size.
            raise CommunicatorError(
                f"datatype {datatype.name!r} x{count} exceeds virtual buffer "
                f"of {sbuf.nbytes} bytes"
            )
        return sbuf, count, datatype, plan

    def _check_peer(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.size:
            raise CommunicatorError(f"{what} rank {rank} outside [0, {self.size})")

    @staticmethod
    def _check_tag(tag: int, what: str) -> None:
        """Tags are non-negative (``MPI_ERR_TAG``); only a receive may
        pass the ``ANY_TAG`` wildcard."""
        if tag < 0 and not (what == "receive" and tag == ANY_TAG):
            raise CommunicatorError(f"{what} tag {tag} is negative")

    @staticmethod
    def _is_packed(datatype: Datatype) -> bool:
        return datatype is PACKED

    # ------------------------------------------------------------------
    # Payload construction (functional side of a send)
    # ------------------------------------------------------------------
    def _build_payload(self, sbuf: SimBuffer, plan: TransferPlan) -> Payload:
        nbytes = plan.nbytes
        if not (sbuf.materialized and self.world.move_bytes):
            return Payload(nbytes, None)
        data = np.empty(nbytes, dtype=np.uint8)
        plan.pack_into(sbuf.bytes, data)
        return Payload(nbytes, data)

    # ------------------------------------------------------------------
    # Sends
    # ------------------------------------------------------------------
    def _start_send(
        self,
        buf,
        dest: int,
        tag: int,
        count: int | None,
        datatype: Datatype | None,
    ) -> SendOperation:
        """Inline sender-side work shared by Send/Isend."""
        self._check_peer(dest, "destination")
        self._check_tag(tag, "send")
        sbuf, count, datatype, plan = self._resolve(buf, count, datatype)
        task = self.process.task
        cost = self._cost
        obs = self.world.obs
        tracing = obs.enabled
        t0 = task.now if tracing else 0.0
        # All inline sender-side costs accumulate into one sleep: the
        # task does not interact with shared state in between, so the
        # merged advance is observationally identical and saves two
        # kernel handoffs per send.  Traced runs take the *same* merged
        # sleep and reconstruct the phase boundaries afterwards, so
        # tracing never perturbs virtual time or the event count.
        call_cost = cost.call()
        delay = call_cost
        nbytes = plan.nbytes
        # Contiguity of the whole transfer, not of one element: count
        # replicas of a dense-but-padded type are still strided.
        pattern = plan.pattern
        derived = not pattern.is_contiguous
        staging_cost = 0.0
        chunks = 0
        if derived:
            # Direct derived-type send: the library stages the data
            # through internal buffers (section 4.1).
            staging_cost = cost.staging(pattern, self.process.cache_warm)
            delay += staging_cost
            chunks = cost.staging_chunks(nbytes)
            world = self.world
            world.c_staged_sends.inc()
            world.c_bytes_staged.inc(nbytes)
            world.c_staging_chunks.inc(chunks)
            self.process.touch_caches()
            self.world.trace("staging", rank=self.rank, nbytes=nbytes,
                             datatype=datatype.name)
        payload = self._build_payload(sbuf, plan)
        delay += cost.send_overhead
        if not self.world.platform.network.nic_offload and nbytes:
            # Without NIC offload the core babysits the injection.
            delay += cost.wire(nbytes)
        task.sleep(delay)
        if tracing:
            rank = self.process.rank
            envelope = obs.complete(t0, t0 + delay, "p2p.send_call", rank=rank,
                                    category="overhead", dest=dest, tag=tag,
                                    nbytes=nbytes)
            if derived:
                obs.complete(t0 + call_cost, t0 + call_cost + staging_cost,
                             "p2p.staging", rank=rank, category="staging",
                             parent=envelope, nbytes=nbytes,
                             datatype=plan.datatype_name, chunks=chunks,
                             plan_reuse=plan.reuses)
        op = SendOperation(
            self.world,
            self.process,
            dest=self._world_rank(dest),
            tag=tag,
            payload=payload,
            packed=self._is_packed(datatype),
            derived=derived,
            context_id=self.context_id,
        )
        op.start()
        return op

    def Send(self, buf, dest: int, tag: int = 0, *, count: int | None = None,
             datatype: Datatype | None = None) -> None:
        """Blocking standard-mode send (``MPI_Send``)."""
        op = self._start_send(buf, dest, tag, count, datatype)
        op.handle.wait(self.process.task)

    def Isend(self, buf, dest: int, tag: int = 0, *, count: int | None = None,
              datatype: Datatype | None = None) -> Request:
        """Nonblocking standard-mode send (``MPI_Isend``)."""
        op = self._start_send(buf, dest, tag, count, datatype)
        return SendRequest(self, op.handle)

    def Bsend(self, buf, dest: int, tag: int = 0, *, count: int | None = None,
              datatype: Datatype | None = None) -> None:
        """Buffered send (``MPI_Bsend``): copies through the attached
        buffer and returns; the transfer progresses in the background at
        the platform's buffered-send bandwidth derating (section 4.2).
        """
        self._check_peer(dest, "destination")
        self._check_tag(tag, "send")
        sbuf, count, datatype, plan = self._resolve(buf, count, datatype)
        task = self.process.task
        cost = self._cost
        obs = self.world.obs
        t0 = task.now if obs.enabled else 0.0
        call_cost = cost.call()
        delay = call_cost
        nbytes = plan.nbytes
        attached = self.process.require_attached_buffer()
        reserved = attached.reserve(nbytes)
        # Copy (gather, for derived types) into the attached buffer.
        warm = self.process.cache_warm
        pattern = plan.pattern
        if pattern.is_contiguous:
            copy_cost = cost.memcpy(nbytes, warm)
        else:
            copy_cost = cost.gather(pattern, warm)
        delay += copy_cost
        self.process.touch_caches()
        payload = self._build_payload(sbuf, plan)
        delay += cost.send_overhead
        task.sleep(delay)
        metrics = self.world.metrics
        metrics.counter("p2p.bsend_bytes").inc(nbytes)
        metrics.gauge("p2p.attached_buffer_bytes").set(attached.in_use)
        if obs.enabled:
            obs.complete(t0 + call_cost, t0 + call_cost + copy_cost,
                         "p2p.bsend_copy", rank=self.process.rank,
                         category="copy", nbytes=nbytes,
                         reserved=reserved)
        op = SendOperation(
            self.world,
            self.process,
            dest=self._world_rank(dest),
            tag=tag,
            payload=payload,
            packed=False,   # on the wire the message is a dense buffer copy
            derived=False,
            wire_factor=cost.bsend_factor(nbytes),
            on_buffer_free=lambda: attached.release(reserved),
            context_id=self.context_id,
        )
        op.start()
        self.world.trace("bsend", rank=self.rank, dest=dest, nbytes=nbytes,
                         reserved=reserved)

    # ------------------------------------------------------------------
    # Receives
    # ------------------------------------------------------------------
    def _post_receive(self, buf, source: int, tag: int, count: int | None,
                      datatype: Datatype | None):
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
            source = self._world_rank(source)
        self._check_tag(tag, "receive")
        sbuf, count, datatype, plan = self._resolve(buf, count, datatype)
        self.process.task.sleep(self._cost.call())
        cond = SimCondition(self.world.kernel, f"recv@{self.process.rank}")
        rec = PostedRecv(source, tag, plan.nbytes, cond,
                         context_id=self.context_id)
        self.process.inbox.post(rec)
        return rec, sbuf, count, datatype, plan

    def Recv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG, *,
             count: int | None = None, datatype: Datatype | None = None) -> Status:
        """Blocking receive (``MPI_Recv``)."""
        rec, sbuf, count, datatype, plan = self._post_receive(buf, source, tag, count, datatype)
        task = self.process.task
        while rec.message is None:
            rec.cond.wait(task, reason=f"Recv(src={source},tag={tag})")
        msg = rec.message
        if not msg.eager:
            msg.operation.grant_cts()
        return self._finish_receive(rec, sbuf, datatype, plan)

    def Irecv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG, *,
              count: int | None = None, datatype: Datatype | None = None) -> RecvRequest:
        """Nonblocking receive (``MPI_Irecv``)."""
        rec, sbuf, count, datatype, plan = self._post_receive(buf, source, tag, count, datatype)
        req = RecvRequest(self, rec, sbuf, count, datatype, plan)
        req._grant_cts_if_needed()
        return req

    def _finish_receive(self, rec: PostedRecv, sbuf: SimBuffer,
                        datatype: Datatype, plan: TransferPlan) -> Status:
        """Completion path shared by Recv and RecvRequest.

        Preconditions: ``rec.message`` is set and, for rendezvous, the
        CTS has been granted.  Works entirely from the plan snapshot
        taken when the receive was posted, so a datatype freed while
        the transfer was in flight still lands correctly.
        """
        msg = rec.message
        assert msg is not None
        task = self.process.task
        cost = self._cost
        capacity = plan.nbytes
        if msg.nbytes > capacity:
            raise TruncationError(
                f"message of {msg.nbytes} bytes truncated by a "
                f"{capacity}-byte receive (source {msg.source}, tag {msg.tag})"
            )
        warm = self.process.cache_warm
        recv_pattern = plan.pattern
        if msg.eager:
            assert msg.arrival_time is not None
            task.wait_until(msg.arrival_time)
            # The bounce buffer is a small, recently-written internal
            # buffer: the copy out of it runs at cache speed.
            if recv_pattern.is_contiguous:
                copy_out = cost.eager_bounce(msg.nbytes, warm=True)
            else:
                # Copy out of the bounce buffer straight into the
                # non-contiguous layout.
                copy_out = cost.scatter(recv_pattern, warm=True)
        else:
            while not msg.data_arrived:
                assert msg.data_cond is not None
                msg.data_cond.wait(task, reason="Recv(data)")
            copy_out = 0.0
            if not recv_pattern.is_contiguous:
                # Rendezvous lands in library buffers when the receive
                # type is derived; unstage into place.
                copy_out = cost.unstaging(recv_pattern, warm)
        task.sleep(copy_out + cost.recv_overhead)
        self._apply_payload(msg, sbuf, datatype, plan)
        world = self.world
        world.c_recv_completions.inc()
        world.c_bytes_received.inc(msg.nbytes)
        obs = world.obs
        if obs.enabled and copy_out > 0.0:
            t_end = task.now
            begin = t_end - cost.recv_overhead - copy_out
            obs.complete(begin, begin + copy_out, "p2p.recv_copy",
                         rank=self.process.rank, category="copy",
                         nbytes=msg.nbytes, source=msg.source, eager=msg.eager)
        # Note: receiving does NOT mark the cache warm — the warm flag
        # tracks whether *this* rank's benchmark source data was
        # recently streamed (flush ablation, section 4.6); landing a
        # message touches different memory.
        self.world.trace("recv.complete", rank=self.process.rank, source=msg.source,
                         tag=msg.tag, nbytes=msg.nbytes, eager=msg.eager)
        return Status(source=self._comm_rank(msg.source), tag=msg.tag, nbytes=msg.nbytes)

    def _apply_payload(self, msg, sbuf: SimBuffer, datatype: Datatype,
                       plan: TransferPlan) -> None:
        """Functional data movement of a completed receive."""
        if msg.payload.data is None or not sbuf.materialized:
            return
        if plan.elem_size == 0 or msg.nbytes == 0:
            return
        nelems = msg.nbytes // plan.elem_size
        if nelems == plan.count:
            # Full message: land it through the plan snapshot (works
            # even if the datatype was freed while in flight).
            plan.unpack_from(msg.payload.data, 0, sbuf.bytes)
        elif nelems:
            # Short message: fewer elements than posted; re-plan for
            # the actual element count.
            unpack_bytes(msg.payload.data, 0, sbuf.bytes, datatype, nelems)

    # ------------------------------------------------------------------
    # Buffered-send buffer management
    # ------------------------------------------------------------------
    def Buffer_attach(self, nbytes: int) -> None:
        """Attach a buffered-send buffer (``MPI_Buffer_attach``)."""
        self.process.attach_buffer(nbytes)
        self.process.task.sleep(self._cost.call())

    def Buffer_detach(self) -> int:
        """Detach the buffered-send buffer; returns its capacity."""
        self.process.task.sleep(self._cost.call())
        return self.process.detach_buffer()

    # ------------------------------------------------------------------
    # Delegated subsystems (implemented in sibling modules)
    # ------------------------------------------------------------------
    def Pack(self, inbuf, incount: int, datatype: Datatype, outbuf, position: int) -> int:
        from .pack import pack as _pack

        return _pack(self, inbuf, incount, datatype, outbuf, position)

    def Unpack(self, inbuf, position: int, outbuf, outcount: int, datatype: Datatype) -> int:
        from .pack import unpack as _unpack

        return _unpack(self, inbuf, position, outbuf, outcount, datatype)

    def Pack_size(self, incount: int, datatype: Datatype) -> int:
        from .pack import pack_size as _pack_size

        return _pack_size(self, incount, datatype)

    def pack_elements_bulk(self, inbuf, incount: int, datatype: Datatype, outbuf,
                           position: int) -> int:
        from .pack import pack_elements_bulk as _bulk

        return _bulk(self, inbuf, incount, datatype, outbuf, position)

    def Win_create(self, buffer: SimBuffer | np.ndarray | None) -> "Win":
        from .win import Win

        return Win.create(self, buffer)

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------
    def _next_tag(self) -> int:
        """Tag of the next collective.  Collective traffic uses a
        reserved tag space; correctness relies on the MPI rule that all
        ranks invoke collectives in the same order."""
        self._coll_seq += 1
        return _COLL_TAG_BASE + (self._coll_seq & 0xFFFF)

    def Barrier(self) -> None:
        """``MPI_Barrier``: binomial fan-in to rank 0, then fan-out, with
        empty messages — timing falls out of the p2p protocol, the way
        MPICH implements the small-message case."""
        tag = self._next_tag()
        size = self.size
        if size == 1:
            self.process.task.sleep(self._cost.call())
            return
        empty = np.empty(0, dtype=np.uint8)
        rel = self.rank  # root 0
        children = _tree_children(rel, size)
        # Fan-in: children report, deepest first.
        for child in reversed(children):
            self.Recv(empty, source=child, tag=tag, count=0)
        if rel != 0:
            parent = _tree_parent(rel)
            self.Send(empty, dest=parent, tag=tag, count=0)
            self.Recv(empty, source=parent, tag=tag + 1, count=0)
        # Fan-out: release children.
        for child in children:
            self.Send(empty, dest=child, tag=tag + 1, count=0)

    # ------------------------------------------------------------------
    # Communicator management
    # ------------------------------------------------------------------
    def Split(self, color: int | None, key: int = 0) -> "Comm | None":
        """``MPI_Comm_split``: partition by ``color``, order by
        ``(key, parent rank)``.

        Collective over the parent.  Ranks passing ``color=None``
        (``MPI_UNDEFINED``) get ``None`` back.
        """
        seq = self._derived_seq
        self._derived_seq += 1
        table = self.world.split_registry.setdefault((self.context_id, seq), {})
        table[self.rank] = (color, key)
        self.Barrier()  # all members have registered after this
        if color is None:
            return None
        members = sorted(
            (k, parent_rank)
            for parent_rank, (c, k) in table.items()
            if c == color
        )
        group = [self._group[parent_rank] for _, parent_rank in members]
        cid = self.world.context_for(("split", self.context_id, seq, color))
        return Comm(self.world, self.process, context_id=cid, group=group)

    # ------------------------------------------------------------------
    # User-space copy helpers (the manual-copy benchmark scheme)
    # ------------------------------------------------------------------
    def user_gather(self, src, datatype: Datatype, count: int, dst,
                    dst_offset: int = 0) -> None:
        """A user-coded gather loop: ``count`` elements of ``datatype``
        from ``src`` into contiguous ``dst``.  Charges the copy-loop
        cost (section 2.2) and performs the byte movement."""
        src_b = as_simbuffer(src)
        dst_b = as_simbuffer(dst)
        datatype.require_committed()
        plan = plan_for(datatype, count, self.world.metrics)
        pattern = plan.pattern
        obs = self.world.obs
        t0 = self.process.task.now if obs.enabled else 0.0
        copy_cost = self._cost.gather(pattern, self.process.cache_warm)
        self.process.task.sleep(copy_cost)
        self.process.touch_caches()
        self.world.metrics.counter("copy.user_gather_bytes").inc(pattern.total_bytes)
        if obs.enabled:
            obs.complete(t0, t0 + copy_cost, "copy.gather",
                         rank=self.process.rank, category="copy",
                         nbytes=pattern.total_bytes)
        if src_b.materialized and dst_b.materialized and self.world.move_bytes:
            pack_bytes(src_b.bytes, datatype, count, dst_b.bytes, dst_offset,
                       plan=plan)

    def user_scatter(self, src, src_offset: int, dst, datatype: Datatype,
                     count: int) -> None:
        """Mirror of :meth:`user_gather`: contiguous to strided."""
        src_b = as_simbuffer(src)
        dst_b = as_simbuffer(dst)
        datatype.require_committed()
        plan = plan_for(datatype, count, self.world.metrics)
        pattern = plan.pattern
        obs = self.world.obs
        t0 = self.process.task.now if obs.enabled else 0.0
        copy_cost = self._cost.scatter(pattern, self.process.cache_warm)
        self.process.task.sleep(copy_cost)
        self.process.touch_caches()
        self.world.metrics.counter("copy.user_scatter_bytes").inc(pattern.total_bytes)
        if obs.enabled:
            obs.complete(t0, t0 + copy_cost, "copy.scatter",
                         rank=self.process.rank, category="copy",
                         nbytes=pattern.total_bytes)
        if src_b.materialized and dst_b.materialized and self.world.move_bytes:
            unpack_bytes(src_b.bytes, src_offset, dst_b.bytes, datatype, count,
                         plan=plan)

    def flush_caches(self, nbytes: int = 50_000_000) -> None:
        """Rewrite an ``nbytes`` scratch array, evicting the caches —
        the paper's inter-ping-pong flush (section 3.2)."""
        obs = self.world.obs
        t0 = self.process.task.now if obs.enabled else 0.0
        flush_cost = self._cost.flush(nbytes)
        self.process.task.sleep(flush_cost)
        self.process.cache_warm = False
        self.world.metrics.counter("cache.flushes").inc()
        if obs.enabled:
            obs.complete(t0, t0 + flush_cost, "cache.flush",
                         rank=self.process.rank, category="overhead",
                         nbytes=nbytes)
        self.world.trace("flush", rank=self.rank, nbytes=nbytes)


def _tree_children(rel: int, size: int) -> list[int]:
    """Children of relative rank ``rel`` in a binomial broadcast tree."""
    children = []
    mask = 1
    while mask < size:
        if rel & (mask - 1) == 0 and rel | mask != rel and rel | mask < size and rel & mask == 0:
            children.append(rel | mask)
        mask <<= 1
    return children


def _tree_parent(rel: int) -> int:
    """Parent of relative rank ``rel`` (clear the lowest set bit)."""
    return rel & (rel - 1)
