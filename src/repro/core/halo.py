"""Halo (ghost-cell) exchange workload family.

The production pattern behind strided sends: a 2D stencil grid is block
-decomposed, and every iteration each rank swaps ``ghost``-deep faces
with its neighbors.  With the grid C-ordered and a 1D decomposition
along the *second* axis, both exchanged faces are **strided column
blocks** — exactly the geometry where the paper's scheme choice
(manual copy vs. datatype vs. pack) decides performance.  At many
ranks on a non-flat topology, the concurrent face sends also contend
for shared links, which the flow engine prices.

The local array is ``nx x (ny + 2*ghost)`` doubles: owned columns in
the middle, a ghost band on each side.  Per iteration each rank posts
both ghost receives, sends both owned faces (westmost/eastmost owned
columns) to its ring neighbors, and completes all four — the standard
nonblocking halo idiom.

Schemes (``HALO_SCHEMES``) map to the paper's families:

``reference``
    Contiguous send of the same byte count, ignoring the real face
    geometry — the attainable optimum, no gather/scatter anywhere.
``copying``
    User-coded gather into a contiguous buffer before the send and a
    user-coded scatter after the receive (section 2.2 both ways).
``vector``
    The face subarray datatype handed straight to ``Isend``/``Irecv``
    (section 2.3; library staging prices the non-contiguity).
``packing-vector``
    ``MPI_Pack`` of the face datatype into a contiguous buffer, a
    contiguous send, and ``MPI_Unpack`` on the receiving side
    (section 2.6).
``auto``
    Cost-driven: the selector prices the face datatype on the
    platform and delegates to the cheapest *delivering* scheme above
    (``reference`` is geometry-blind and never a candidate).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from weakref import WeakKeyDictionary

import numpy as np

from ..mpi.buffers import SimBuffer
from ..mpi.comm import Comm
from ..mpi.datatypes import DOUBLE, Datatype, make_subarray
from ..net.transport import ShmTransport
from .advise import advise_datatype

__all__ = [
    "HALO_SCHEMES",
    "HaloSpec",
    "HaloRankResult",
    "advise_face",
    "auto_delegates",
    "halo_program",
]

#: Scheme keys accepted by :class:`HaloSpec`, report order.
HALO_SCHEMES = ("reference", "copying", "vector", "packing-vector", "auto")

#: What ``auto`` may resolve to: every halo scheme that honours the
#: face geometry.
_AUTO_CANDIDATES = ("copying", "vector", "packing-vector")

#: Message tags: a face traveling toward the west/east neighbor.
_TAG_TO_WEST = 21
_TAG_TO_EAST = 22


@dataclass(frozen=True)
class HaloSpec:
    """One halo-exchange configuration (identical on every rank)."""

    scheme: str = "vector"
    #: Rows of the local grid (the strided face's block count).
    nx: int = 64
    #: Owned columns of the local grid.
    ny: int = 64
    #: Ghost band depth (columns exchanged per face).
    ghost: int = 1
    #: Exchange rounds to run (all timed).
    iterations: int = 4
    #: Move and verify real bytes, or account costs only.
    materialize: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in HALO_SCHEMES:
            raise ValueError(
                f"unknown halo scheme {self.scheme!r}; known: {', '.join(HALO_SCHEMES)}"
            )
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid dimensions must be >= 1")
        if self.ghost < 1 or self.ghost > self.ny:
            raise ValueError("ghost depth must be in [1, ny]")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    @property
    def row_doubles(self) -> int:
        """Doubles per local row, ghost bands included."""
        return self.ny + 2 * self.ghost

    @property
    def face_bytes(self) -> int:
        """Payload of one face message."""
        return self.nx * self.ghost * 8

    @property
    def grid_bytes(self) -> int:
        return self.nx * self.row_doubles * 8

    def with_scheme(self, scheme: str) -> "HaloSpec":
        return replace(self, scheme=scheme)


@dataclass
class HaloRankResult:
    """What one rank reports back from :func:`halo_program`."""

    rank: int
    #: Virtual seconds spent in the timed exchange rounds.
    time: float
    #: Ghost-band verification outcome (``None`` when not applicable:
    #: virtual buffers, or the geometry-blind ``reference`` scheme).
    verified: bool | None
    #: The delivering scheme (differs from the spec only for ``auto``).
    chosen: str | None = None


class _Faces:
    """Per-rank committed face datatypes and neighbor bookkeeping."""

    def __init__(self, comm: Comm, spec: HaloSpec):
        self.west = (comm.rank - 1) % comm.size
        self.east = (comm.rank + 1) % comm.size
        nx, g, row = spec.nx, spec.ghost, spec.row_doubles
        shape, sub = [nx, row], [nx, g]
        #: Owned columns to ship: westmost / eastmost of ``[g, ny+g)``.
        self.send_west = make_subarray(shape, sub, [0, g], DOUBLE).commit()
        self.send_east = make_subarray(shape, sub, [0, spec.ny], DOUBLE).commit()
        #: Ghost bands to fill: ``[0, g)`` and ``[ny+g, ny+2g)``.
        self.recv_west = make_subarray(shape, sub, [0, 0], DOUBLE).commit()
        self.recv_east = make_subarray(shape, sub, [0, spec.ny + g], DOUBLE).commit()

    def free(self) -> None:
        for dt in (self.send_west, self.send_east, self.recv_west, self.recv_east):
            dt.free()

    def pairs(self) -> list[tuple[int, int, int, Datatype, Datatype]]:
        """(dest, src, tag, send type, recv type) per direction.

        My westward send goes to my west neighbor; the westward message
        *I* receive comes from my east neighbor and fills my east ghost
        band — so each direction pairs opposite neighbors under one tag
        and every rank posts the same two tags symmetrically.
        """
        return [
            (self.west, self.east, _TAG_TO_WEST, self.send_west, self.recv_east),
            (self.east, self.west, _TAG_TO_EAST, self.send_east, self.recv_west),
        ]


def _make_grid(comm: Comm, spec: HaloSpec) -> SimBuffer | np.ndarray:
    if not spec.materialize:
        return SimBuffer.virtual(spec.grid_bytes)
    grid = np.zeros((spec.nx, spec.row_doubles), dtype=np.float64)
    # Owned cells carry (rank, row, owned-column) so a neighbor's ghost
    # band is checkable cell by cell.
    rows = np.arange(spec.nx)[:, None]
    cols = np.arange(spec.ny)[None, :]
    grid[:, spec.ghost : spec.ny + spec.ghost] = (
        comm.rank * 1_000_000 + rows * 1_000 + cols
    )
    return grid


def _expected_ghost(spec: HaloSpec, neighbor: int, side: str) -> np.ndarray:
    """The owned columns a neighbor ships into my ``side`` ghost band."""
    rows = np.arange(spec.nx)[:, None]
    if side == "west":  # west neighbor's eastmost owned columns
        cols = np.arange(spec.ny - spec.ghost, spec.ny)[None, :]
    else:  # east neighbor's westmost owned columns
        cols = np.arange(spec.ghost)[None, :]
    return neighbor * 1_000_000 + rows * 1_000 + cols


def _verify(grid, faces: _Faces, spec: HaloSpec) -> bool | None:
    if not spec.materialize or spec.scheme == "reference":
        return None
    g, row = spec.ghost, spec.row_doubles
    west_ok = np.array_equal(grid[:, :g], _expected_ghost(spec, faces.west, "west"))
    east_ok = np.array_equal(
        grid[:, spec.ny + g : row], _expected_ghost(spec, faces.east, "east")
    )
    return bool(west_ok and east_ok)


def _alloc(nbytes: int, materialize: bool) -> SimBuffer:
    return SimBuffer.alloc(nbytes) if materialize else SimBuffer.virtual(nbytes)


def _exchange_reference(comm: Comm, spec: HaloSpec, faces: _Faces, grid, tmp) -> None:
    recvs = [
        comm.Irecv(tmp["recv"][i], source=src, tag=tag)
        for i, (_d, src, tag, _s, _r) in enumerate(faces.pairs())
    ]
    sends = [
        comm.Isend(tmp["send"][i], dest=dest, tag=tag)
        for i, (dest, _src, tag, _s, _r) in enumerate(faces.pairs())
    ]
    for req in recvs + sends:
        req.wait()


def _exchange_copying(comm: Comm, spec: HaloSpec, faces: _Faces, grid, tmp) -> None:
    recvs = [
        comm.Irecv(tmp["recv"][i], source=src, tag=tag)
        for i, (_d, src, tag, _s, _r) in enumerate(faces.pairs())
    ]
    sends = []
    for i, (dest, _src, tag, send_dt, _r) in enumerate(faces.pairs()):
        comm.user_gather(grid, send_dt, 1, tmp["send"][i])
        sends.append(comm.Isend(tmp["send"][i], dest=dest, tag=tag))
    for req in recvs + sends:
        req.wait()
    for i, (_d, _src, _t, _s, recv_dt) in enumerate(faces.pairs()):
        comm.user_scatter(tmp["recv"][i], 0, grid, recv_dt, 1)


def _exchange_vector(comm: Comm, spec: HaloSpec, faces: _Faces, grid, tmp) -> None:
    recvs = [
        comm.Irecv(grid, source=src, tag=tag, count=1, datatype=recv_dt)
        for _d, src, tag, _s, recv_dt in faces.pairs()
    ]
    sends = [
        comm.Isend(grid, dest=dest, tag=tag, count=1, datatype=send_dt)
        for dest, _src, tag, send_dt, _r in faces.pairs()
    ]
    for req in recvs + sends:
        req.wait()


def _exchange_packing(comm: Comm, spec: HaloSpec, faces: _Faces, grid, tmp) -> None:
    recvs = [
        comm.Irecv(tmp["recv"][i], source=src, tag=tag)
        for i, (_d, src, tag, _s, _r) in enumerate(faces.pairs())
    ]
    sends = []
    for i, (dest, _src, tag, send_dt, _r) in enumerate(faces.pairs()):
        comm.Pack(grid, 1, send_dt, tmp["send"][i], 0)
        sends.append(comm.Isend(tmp["send"][i], dest=dest, tag=tag))
    for req in recvs + sends:
        req.wait()
    for i, (_d, _src, _t, _s, recv_dt) in enumerate(faces.pairs()):
        comm.Unpack(tmp["recv"][i], 0, grid, 1, recv_dt)


_EXCHANGES = {
    "reference": _exchange_reference,
    "copying": _exchange_copying,
    "vector": _exchange_vector,
    "packing-vector": _exchange_packing,
}


def advise_face(spec: HaloSpec, platform, transport=None):
    """Price this spec's face datatype on ``platform`` over the given
    transport (``None`` = network) among the delivering halo schemes.
    Pure host-side arithmetic — shared by ``auto`` resolution and the
    halo experiment's per-regime tables."""
    face = make_subarray(
        [spec.nx, spec.row_doubles], [spec.nx, spec.ghost], [0, spec.ghost], DOUBLE
    )
    try:
        return advise_datatype(
            face, platform=platform, candidates=_AUTO_CANDIDATES,
            transport=transport,
        )
    finally:
        face.free()


def auto_delegates(spec: HaloSpec, platform, nranks: int) -> list[str]:
    """The scheme ``auto`` delegates to on each rank of an ``nranks``
    ring over ``platform``, indexed by world rank.

    The rank-regime rule: a rank is on-node when the platform's shm
    transport is reachable and *both* its ring neighbours share its
    node, and then prices the face on the shm transport.  Every other
    rank prices it on the network (a rank with mixed neighbours is
    paced by its off-node face).  So on-node and off-node ranks of one
    job may delegate differently.  Pure host-side arithmetic: the face
    is priced once per regime present."""
    topo = platform.topology
    shm = platform.shm_reachable
    by_regime: dict[bool, str] = {}
    delegates = []
    for rank in range(nranks):
        west, east = (rank - 1) % nranks, (rank + 1) % nranks
        on_node = shm and topo.same_node(rank, west) and topo.same_node(rank, east)
        if on_node not in by_regime:
            transport = ShmTransport(platform.shm, platform.memory) if on_node else None
            by_regime[on_node] = advise_face(spec, platform, transport).chosen
        delegates.append(by_regime[on_node])
    return delegates


def _resolve_auto(comm: Comm, spec: HaloSpec, memo: WeakKeyDictionary) -> str:
    """This rank's ``auto`` delegate (see :func:`auto_delegates`): no
    virtual time passes.  ``comm`` is the world communicator, so its
    ranks are world ranks.

    The delegates depend only on the platform and the ring, so they
    are priced once per world and memoized in ``memo``, keyed on the
    world: a program object reused across jobs prices each job's
    platform afresh."""
    world = comm.world
    delegates = memo.get(world)
    if delegates is None:
        delegates = memo[world] = auto_delegates(spec, world.platform, comm.size)
    return delegates[comm.rank]


def halo_program(spec: HaloSpec):
    """Build the per-rank program for :func:`repro.mpi.runtime.run_mpi`.

    Every rank sets up its grid and face types, synchronizes, runs
    ``spec.iterations`` timed exchange rounds, and returns a
    :class:`HaloRankResult`.  Needs ``nranks >= 2`` (the ring neighbors
    must be distinct processes).
    """
    # ``auto``'s per-world, per-regime choices (see _resolve_auto).
    auto_memo: WeakKeyDictionary = WeakKeyDictionary()

    def main(comm: Comm) -> HaloRankResult:
        if comm.size < 2:
            raise ValueError("halo exchange needs at least 2 ranks")
        # ``auto`` resolves per platform and regime at setup; every rank
        # of a regime gets the same deterministic choice.
        chosen = (
            _resolve_auto(comm, spec, auto_memo) if spec.scheme == "auto" else spec.scheme
        )
        exchange = _EXCHANGES[chosen]
        faces = _Faces(comm, spec)
        grid = _make_grid(comm, spec)
        # Contiguous staging buffers for the schemes that need them
        # (reference/copying/packing); allocated outside the timing
        # loop, like every scheme's setup in the paper.
        tmp = {
            "send": [_alloc(spec.face_bytes, spec.materialize) for _ in range(2)],
            "recv": [_alloc(spec.face_bytes, spec.materialize) for _ in range(2)],
        }
        comm.Barrier()
        t0 = comm.Wtime()
        for _ in range(spec.iterations):
            exchange(comm, spec, faces, grid, tmp)
        elapsed = comm.Wtime() - t0
        verified = _verify(grid, faces, spec)
        faces.free()
        return HaloRankResult(
            rank=comm.rank, time=elapsed, verified=verified, chosen=chosen
        )

    return main
