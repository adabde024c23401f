"""``repro.perf`` — the performance ledger and regression gates.

* **Gates** (:mod:`.gates`, :mod:`.workloads`) — a declarative
  :class:`GateSpec` registry.  Each gate names a measurement workload,
  the metrics it produces, and the threshold checks applied to them;
  the engine handles repeat-and-take-median noise handling, explicit
  ``skipped`` semantics (a gate that cannot run on this host is
  recorded as skipped with a reason, never silently green), and
  marking metrics that feed a skipped check as *informational* so a
  recorded number can never read as an asserted one.
* **Ledger** (:mod:`.ledger`) — an append-only JSONL run history under
  ``~/.cache/repro-mpi/perf-ledger/``.  Every record is
  self-describing: git sha, machine fingerprint (privacy-preserving —
  the hostname is hashed, never stored), ``MODEL_VERSION``, cpu count,
  per-gate metrics with raw samples, and the host-telemetry snapshot
  of the run.
* **Diff / report** (:mod:`.diffs`, :mod:`.report`) — per-metric
  deltas between any two ledger entries with noise bands derived from
  the recorded samples, and a human-readable history report.

Surfaced as ``repro perf record|gate|diff|report``.
"""

from .diffs import MetricDelta, diff_entries, render_diff
from .gates import (
    CheckResult,
    GateCheck,
    GateContext,
    GateResult,
    GateSpec,
    all_gates,
    gate_names,
    get_gate,
    register,
    resolve_settings,
    run_gate,
)
from .ledger import (
    LEDGER_VERSION,
    Ledger,
    LedgerEntry,
    default_ledger_dir,
    git_sha,
    machine_fingerprint,
    usable_cpus,
)
from .report import render_report

# Registers the built-in gate specs on import.
from . import workloads  # noqa: E402  isort: skip

__all__ = [
    "CheckResult",
    "GateCheck",
    "GateContext",
    "GateResult",
    "GateSpec",
    "all_gates",
    "gate_names",
    "get_gate",
    "register",
    "resolve_settings",
    "run_gate",
    "LEDGER_VERSION",
    "Ledger",
    "LedgerEntry",
    "default_ledger_dir",
    "git_sha",
    "machine_fingerprint",
    "usable_cpus",
    "MetricDelta",
    "diff_entries",
    "render_diff",
    "render_report",
    "workloads",
]
