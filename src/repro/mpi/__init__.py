"""``repro.mpi`` — a simulated MPI implementation.

A functionally-correct, performance-modelled MPI subset in pure Python:
derived datatypes with a vectorized pack engine, blocking and
nonblocking point-to-point with eager/rendezvous protocols and MPI
matching semantics, buffered sends, ``Pack``/``Unpack``, one-sided
``Put`` with fence synchronization, ``Barrier`` and ``Split`` — the
calls the paper's eight send schemes, the halo experiment and the
examples make — all running over the deterministic discrete-event
kernel in :mod:`repro.sim` with costs priced by :mod:`repro.machine`.

Quick start::

    import numpy as np
    from repro.mpi import run_mpi, make_vector, DOUBLE

    def main(comm):
        vec = make_vector(500, 1, 2, DOUBLE).commit()
        if comm.rank == 0:
            data = np.arange(1000, dtype=np.float64)
            comm.Send(data, dest=1, count=1, datatype=vec)
        else:
            out = np.zeros(500, dtype=np.float64)
            comm.Recv(out, source=0)
        return comm.Wtime()

    job = run_mpi(main, nranks=2, platform="skx-impi")
"""

from .buffers import BSEND_OVERHEAD, AttachedBuffer, SimBuffer, as_simbuffer
from .comm import Comm
from .costs import CostModel
from .datatypes import *  # noqa: F401,F403 - re-export the datatype API
from .datatypes import __all__ as _datatypes_all
from .errors import (
    BufferError_,
    CommunicatorError,
    DatatypeError,
    FreedDatatypeError,
    MpiError,
    PackError,
    RequestError,
    TruncationError,
    UncommittedDatatypeError,
    WindowError,
)
from .request import Request, wait_all
from .runtime import JobResult, Process, World, run_mpi
from .status import ANY_SOURCE, ANY_TAG, Status
from .win import Win

__all__ = [
    "run_mpi",
    "JobResult",
    "World",
    "Process",
    "Comm",
    "CostModel",
    "SimBuffer",
    "AttachedBuffer",
    "as_simbuffer",
    "BSEND_OVERHEAD",
    "Status",
    "ANY_SOURCE",
    "ANY_TAG",
    "Request",
    "wait_all",
    "Win",
    # errors
    "MpiError",
    "DatatypeError",
    "UncommittedDatatypeError",
    "FreedDatatypeError",
    "TruncationError",
    "BufferError_",
    "WindowError",
    "PackError",
    "CommunicatorError",
    "RequestError",
    *_datatypes_all,
]
