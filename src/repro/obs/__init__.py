"""``repro.obs`` — flight-recorder observability.

Three pieces, usable separately:

* **Spans** (:mod:`.spans`, :mod:`.recorder`) — hierarchical begin/end
  records over the simulator's virtual clock, replacing the flat event
  list as the primary trace representation.  The legacy flat
  :class:`~repro.sim.trace.TraceEvent` API keeps working: the
  :class:`SpanRecorder` *is a* :class:`~repro.sim.trace.Tracer`.
* **Metrics** (:mod:`.metrics`) — a process-wide registry of counters,
  gauges, and histograms (bytes staged, packs issued, envelopes
  matched, rendezvous round-trips, ...), always on and queryable from
  experiments and tests via ``JobResult.metrics``.
* **Exporters** (:mod:`.export`, :mod:`.attribution`) — Chrome
  ``trace_event`` JSON (loadable in ``chrome://tracing`` / Perfetto)
  and a phase cost-attribution table whose rows partition the job's
  total virtual time exactly.
* **Critical path** (:mod:`.critical`) — the causal profiler over the
  wait-for graph: the longest chain of work/wait segments (tiling the
  job's virtual time exactly), per-resource blame, span slack, and the
  what-if engine that predicts speedups under perturbed machines.

Tracing is zero-cost when off: every instrumentation site guards on
``recorder.enabled`` before building a single attribute dict, and the
disabled recorder (:class:`NullRecorder`) is a no-op object.
"""

from .attribution import PHASE_PRIORITY, attribute_phases
from .critical import (
    PERTURBATIONS,
    RESOURCE_DESCRIPTIONS,
    RESOURCES,
    CriticalPath,
    PathSegment,
    Perturbation,
    all_remote_perturbation,
    extract_critical_path,
    resource_legend,
    span_slack,
)
from .export import (
    chrome_trace,
    host_chrome_trace,
    host_trace_events,
    load_chrome_trace_schema,
    validate_chrome_trace,
    write_chrome_trace,
)
from .host import HostEvent, HostSpan, HostTelemetry, host_telemetry
from .metrics import (
    BUCKET_PRESETS,
    BYTE_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .recorder import NULL_RECORDER, NullRecorder, SpanOnlyRecorder, SpanRecorder
from .spans import Span

__all__ = [
    "CriticalPath",
    "PathSegment",
    "Perturbation",
    "PERTURBATIONS",
    "RESOURCES",
    "RESOURCE_DESCRIPTIONS",
    "all_remote_perturbation",
    "extract_critical_path",
    "resource_legend",
    "span_slack",
    "Span",
    "SpanRecorder",
    "SpanOnlyRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "BUCKET_PRESETS",
    "BYTE_BUCKETS",
    "LATENCY_BUCKETS",
    "HostEvent",
    "HostSpan",
    "HostTelemetry",
    "host_telemetry",
    "host_chrome_trace",
    "host_trace_events",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "load_chrome_trace_schema",
    "attribute_phases",
    "PHASE_PRIORITY",
]
