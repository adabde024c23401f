"""``repro.perf`` — regression gates over one source tree.

A declarative :class:`GateSpec` registry (:mod:`.gates`,
:mod:`.workloads`).  Each gate names a measurement workload, the
metrics it produces, and the threshold checks applied to them; the
engine handles repeat-and-take-median noise handling, explicit
``skipped`` semantics (a gate that cannot run on this host is reported
as skipped with a reason, never silently green), and marking metrics
that feed a skipped check as *informational* so a printed number can
never read as an asserted one.

Surfaced as ``repro perf gate``.  Comparing two revisions end to end is
``bench/run.py``'s job (``--out`` keeps a run, ``compare`` judges two).
"""

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
    usable_cpus,
)

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
    "usable_cpus",
    "workloads",
]
