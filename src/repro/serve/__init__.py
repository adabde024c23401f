"""``repro.serve`` — the long-running sweep daemon and its client.

Turns sweeps from one-shot CLI batches into a service: an asyncio
daemon (``repro serve``) exposes a small HTTP/JSON API over the
content-addressed execution engine, deduplicates identical in-flight
cell digests across concurrent clients (single execution, fan-out of
awaiters), persists results through :class:`~repro.exec.ResultStore`
(one SQLite database per model version), and re-prices incrementally — a
request carrying a perturbed eager limit re-executes only the cells
whose eager/rendezvous choices it flips, and reports
``reused``/``recomputed``/``deduped``/``equivalent`` counts per job.  The
daemon prices one model version, its own.

See ``docs/serving.md`` for the API schema and semantics.
"""

from .client import ServeClient, ServeError, remote_runner, submit_sweep
from .dedup import InFlightTable
from .jobs import Job, JobRegistry
from .protocol import (
    PlatformSpec,
    ProtocolError,
    SweepRequest,
    decode_outcome,
    encode_cell,
)
from .server import ReproServer, ServerThread
from .service import SweepService

__all__ = [
    "PlatformSpec",
    "ProtocolError",
    "SweepRequest",
    "encode_cell",
    "decode_outcome",
    "Job",
    "JobRegistry",
    "InFlightTable",
    "SweepService",
    "ReproServer",
    "ServerThread",
    "ServeClient",
    "ServeError",
    "submit_sweep",
    "remote_runner",
]
