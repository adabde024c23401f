"""``repro.exec`` — the spec/execute split.

The execution engine behind every sweep and experiment: frozen,
content-addressed :class:`CellSpec`\\ s describe *what* to measure; an
:class:`Executor` decides *how* — serially, fanned out over worker
processes, or straight from the content-addressed on-disk
:class:`ResultStore`.  All three paths are bit-identical by
construction (see ``docs/execution.md`` for the determinism argument
and cache-invalidation rules).
"""

from .executor import Executor, WorkerPool, current_executor, using_executor
from .spec import CellOutcome, CellSpec, execute_spec
from .store import ResultStore, StoreStats, default_cache_dir

__all__ = [
    "CellSpec",
    "CellOutcome",
    "execute_spec",
    "Executor",
    "WorkerPool",
    "current_executor",
    "using_executor",
    "ResultStore",
    "StoreStats",
    "default_cache_dir",
]
