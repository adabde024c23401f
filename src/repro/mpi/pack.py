"""``MPI_Pack`` / ``MPI_Unpack``: user-space packing.

The crucial property (paper section 4.3): packing happens into a buffer
the *user* owns, so the library's internal buffer management — and its
large-message penalty — never gets involved.  A subsequent send of the
packed buffer is a plain contiguous send.

``pack_elements_bulk`` is the simulation-acceleration equivalent of a
per-element pack loop (the packing(e) scheme): one call performs the
data movement of N pack calls while charging N per-call overheads.
Equivalence with a literal loop is asserted by tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .buffers import as_simbuffer
from .datatypes import Datatype, pack_bytes, unpack_bytes
from .datatypes.plan import TransferPlan, plan_for
from .errors import PackError

if TYPE_CHECKING:  # pragma: no cover
    from .comm import Comm

__all__ = ["pack", "unpack", "pack_size", "pack_elements_bulk"]


def pack_size(comm: "Comm", incount: int, datatype: Datatype) -> int:
    """Upper bound on packed bytes (``MPI_Pack_size``)."""
    if incount < 0:
        raise PackError(f"negative incount {incount}")
    # Delegates to the datatype so the freed-handle guard lives in one
    # place (Datatype.pack_size checks it too).
    return datatype.pack_size(incount)


def _charge_pack(comm: "Comm", plan: TransferPlan, ncalls: int,
                 scatter: bool) -> None:
    cost = comm.world.cost
    task = comm.process.task
    obs = comm.world.obs
    t0 = task.now if obs.enabled else 0.0
    call_cost = cost.call()
    task.sleep(call_cost)
    pattern = plan.pattern
    if scatter:
        move_cost = cost.unpack(pattern, comm.process.cache_warm, ncalls=ncalls)
    else:
        move_cost = cost.pack(pattern, comm.process.cache_warm, ncalls=ncalls)
    task.sleep(move_cost)
    comm.process.touch_caches()
    kind = "unpack" if scatter else "pack"
    nbytes = plan.nbytes
    metrics = comm.world.metrics
    metrics.counter(f"pack.{kind}_calls").inc(ncalls)
    metrics.counter(f"pack.{kind}_bytes").inc(nbytes)
    if obs.enabled:
        obs.complete(t0 + call_cost, t0 + call_cost + move_cost, f"pack.{kind}",
                     rank=comm.process.rank, category="pack",
                     nbytes=nbytes, ncalls=ncalls)


def pack(comm: "Comm", inbuf, incount: int, datatype: Datatype, outbuf,
         position: int) -> int:
    """``MPI_Pack``: append ``incount`` elements of ``datatype`` from
    ``inbuf`` to ``outbuf`` at byte ``position``; returns the new
    position."""
    datatype.require_committed()
    src = as_simbuffer(inbuf)
    dst = as_simbuffer(outbuf)
    plan = plan_for(datatype, incount, comm.world.metrics)
    nbytes = plan.nbytes
    if position < 0 or position + nbytes > dst.nbytes:
        raise PackError(
            f"pack of {nbytes} bytes at position {position} overflows "
            f"{dst.nbytes}-byte pack buffer"
        )
    _charge_pack(comm, plan, ncalls=1, scatter=False)
    if src.materialized and dst.materialized and incount and comm.world.move_bytes:
        pack_bytes(src.bytes, datatype, incount, dst.bytes, position, plan=plan)
    comm.world.trace("pack", rank=comm.rank, nbytes=nbytes, ncalls=1)
    return position + nbytes


def unpack(comm: "Comm", inbuf, position: int, outbuf, outcount: int,
           datatype: Datatype) -> int:
    """``MPI_Unpack``: the inverse of :func:`pack`; returns the new
    position."""
    datatype.require_committed()
    src = as_simbuffer(inbuf)
    dst = as_simbuffer(outbuf)
    plan = plan_for(datatype, outcount, comm.world.metrics)
    nbytes = plan.nbytes
    if position < 0 or position + nbytes > src.nbytes:
        raise PackError(
            f"unpack of {nbytes} bytes at position {position} overruns "
            f"{src.nbytes}-byte pack buffer"
        )
    _charge_pack(comm, plan, ncalls=1, scatter=True)
    if src.materialized and dst.materialized and outcount and comm.world.move_bytes:
        unpack_bytes(src.bytes, position, dst.bytes, datatype, outcount, plan=plan)
    comm.world.trace("unpack", rank=comm.rank, nbytes=nbytes, ncalls=1)
    return position + nbytes


def pack_elements_bulk(comm: "Comm", inbuf, incount: int, datatype: Datatype,
                       outbuf, position: int) -> int:
    """Semantically: one ``MPI_Pack`` call per contiguous block of
    ``incount`` elements of ``datatype``, in order.

    For the paper's stride-2 vector (block length one element) this is
    exactly the per-element packing loop of scheme packing(e).
    """
    datatype.require_committed()
    src = as_simbuffer(inbuf)
    dst = as_simbuffer(outbuf)
    plan = plan_for(datatype, incount, comm.world.metrics)
    nbytes = plan.nbytes
    if position < 0 or position + nbytes > dst.nbytes:
        raise PackError(
            f"bulk pack of {nbytes} bytes at position {position} overflows "
            f"{dst.nbytes}-byte pack buffer"
        )
    ncalls = plan.nblocks
    _charge_pack(comm, plan, ncalls=ncalls, scatter=False)
    if src.materialized and dst.materialized and incount and comm.world.move_bytes:
        pack_bytes(src.bytes, datatype, incount, dst.bytes, position, plan=plan)
    comm.world.trace("pack", rank=comm.rank, nbytes=nbytes, ncalls=ncalls)
    return position + nbytes

