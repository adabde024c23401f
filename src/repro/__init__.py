"""repro — reproduction of *Performance of MPI Sends of Non-Contiguous
Data* (Victor Eijkhout).

Layers (each a subpackage, bottom-up):

* :mod:`repro.machine` — calibrated hardware + MPI-tuning models for the
  paper's four platforms.
* :mod:`repro.sim` — deterministic discrete-event kernel with
  thread-backed rank tasks.
* :mod:`repro.mpi` — the simulated MPI library: derived datatypes,
  eager/rendezvous point-to-point, buffered sends, packing, one-sided
  ``Put`` with fences, a barrier.
* :mod:`repro.core` — the paper's benchmark suite: eight send schemes
  over the measured ping-pong.
* :mod:`repro.exec` — the cell-execution engine: content-addressed
  specs, the serial/parallel executor, and the on-disk result store.
* :mod:`repro.analysis` — figures, tables, claim checks, reports.
* :mod:`repro.experiments` — one driver per paper artifact.

Entry points: :func:`repro.mpi.run_mpi` for MPI programs,
:func:`repro.core.run_sweep` for benchmark sweeps, and the
``python -m repro`` CLI.
"""

from . import analysis, core, exec, experiments, machine, mpi, sim

__version__ = "1.0.0"

__all__ = [
    "machine", "sim", "mpi", "core", "exec", "analysis", "experiments", "__version__",
]
