"""The declarative regression-gate engine.

A :class:`GateSpec` names a measurement workload and the checks applied
to its metrics; :func:`run_gate` turns one spec into a
:class:`GateResult`:

* **noise handling** — the workload's ``measure`` callable produces one
  *sample* (a metrics dict) per call; the engine calls it
  ``<ns>.repeats`` times and gates on the **median** of each metric;
* **skip semantics** — a check whose ``skip`` predicate fires (e.g. the
  parallel-speedup check on a single-CPU host) is reported as
  ``skipped`` with the reason, never silently green, and the metrics it
  would have asserted are marked *informational* in the result;
* **host telemetry** — each gate run happens inside its own
  :func:`repro.obs.host.capturing` block, returned beside the result
  for Chrome-trace export.

Options are resolved up front: :func:`resolve_settings` parses a gate's
repeat count and every overridable threshold, so a malformed value
fails before any workload starts.  Each spec declares the option keys
it reads (:attr:`GateSpec.option_keys`), and a workload that reads an
undeclared key fails, so the CLI can reject a key no selected gate
reads instead of running with the default.

Gates self-register into a process-wide registry
(:func:`register` / :func:`get_gate` / :func:`all_gates`);
:mod:`repro.perf.workloads` populates it with the seven built-ins.
"""

from __future__ import annotations

import os
import statistics
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..obs import host as _host

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
]

#: Comparison operators a check may gate with.
_OPS: dict[str, Callable[[float, float], bool]] = {
    ">=": lambda value, limit: value >= limit,
    "<=": lambda value, limit: value <= limit,
}


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class GateContext:
    """What a workload's callables receive: resolved options, host
    facts, and a scratch dict that survives from ``setup`` through
    every ``measure`` call to ``teardown`` (the tracing gate's worktree,
    one-time golden results, ...)."""

    def __init__(
        self,
        options: dict[str, Any] | None = None,
        declared: frozenset[str] | None = None,
    ):
        self.options: dict[str, Any] = dict(options or {})
        #: The option keys the gate declares (``None`` accepts any).
        self.declared = declared
        self.cpus = usable_cpus()
        self.repo = _find_repo()
        self.scratch: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def opt_float(self, key: str, default: float) -> float:
        return _option(self.options, self._declared_key(key), default, float)

    def opt_int(self, key: str, default: int | None) -> int | None:
        return _option(self.options, self._declared_key(key), default, int)

    def opt_str(self, key: str, default: str | None) -> str | None:
        value = self.options.get(self._declared_key(key), default)
        return None if value is None else str(value)

    def _declared_key(self, key: str) -> str:
        if self.declared is not None and key not in self.declared:
            raise LookupError(f"option {key} is read but not declared by the gate")
        return key


def _option(options: dict[str, Any], key: str, default: Any, kind: type) -> Any:
    """``options[key]`` (else ``default``) as ``kind``; an empty or
    missing int reads as ``None``.  A value that does not parse raises
    ``ValueError`` naming the option."""
    value = options.get(key, default)
    if kind is int and (value is None or value == ""):
        return None
    try:
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"option {key} expects {noun}, got {value!r}") from None


def _find_repo() -> Path:
    """The repo root (directory holding ``src/repro``): the golden
    files, and the tracing gate's ``git worktree`` of a base revision."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / ".git").exists() and (parent / "src" / "repro").is_dir():
            return parent
    return Path.cwd()


@dataclass(frozen=True)
class GateCheck:
    """One threshold assertion over a gate's (median) metrics."""

    name: str
    metric: str
    op: str  #: ``">="`` (defend a win) or ``"<="`` (cap a regression)
    default_threshold: float
    #: Option key that may override the limit; ``None`` fixes it at
    #: ``default_threshold`` (correctness checks are never loosened).
    threshold_option: str | None = None
    #: Optional predicate: a non-``None`` return is the skip reason.
    skip: Callable[[GateContext], str | None] | None = None
    #: Metrics that become informational when this check is skipped
    #: (beyond ``metric`` itself, which always does).
    informational: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"check {self.name!r}: unknown op {self.op!r}")


@dataclass(frozen=True)
class CheckResult:
    """The outcome of one check: passed, failed, or skipped."""

    name: str
    skipped: bool
    passed: bool | None  #: ``None`` when skipped.
    metric: str
    value: float | None
    op: str
    threshold: float
    reason: str | None = None  #: Skip reason.

    def message(self) -> str:
        if self.skipped:
            return f"{self.name}: skipped ({self.reason})"
        verdict = "ok" if self.passed else "FAIL"
        return (
            f"{self.name}: {verdict} ({self.metric} = {self.value:.4g}, "
            f"required {self.op} {self.threshold:.4g})"
        )


@dataclass(frozen=True)
class GateSpec:
    """A named, declarative regression gate."""

    name: str
    title: str
    ns: str  #: Option namespace (``"exec"`` -> ``exec.repeats``, ...).
    measure: Callable[[GateContext], dict[str, float]]
    checks: tuple[GateCheck, ...]
    default_repeats: int = 1
    #: Workload option keys the gate reads, beyond ``<ns>.repeats`` and
    #: the checks' threshold options (see :attr:`option_keys`).
    options: tuple[str, ...] = ()
    #: One-time expensive work (a git worktree, a structural check);
    #: stash results in ``ctx.scratch``.
    setup: Callable[[GateContext], None] | None = None
    teardown: Callable[[GateContext], None] | None = None
    #: Static facts about the run, kept in :attr:`GateResult.extra`
    #: (workload description, ...).
    describe: Callable[[GateContext], dict[str, Any]] | None = None

    @property
    def option_keys(self) -> frozenset[str]:
        """Every option key the gate reads: ``<ns>.repeats``, each
        check's threshold option, and the declared workload options."""
        thresholds = {c.threshold_option for c in self.checks if c.threshold_option}
        return frozenset({f"{self.ns}.repeats", *thresholds, *self.options})


@dataclass
class GateResult:
    """Everything one gate run produced."""

    gate: str
    title: str
    metrics: dict[str, float]  #: Median over samples.
    checks: list[CheckResult]
    informational: tuple[str, ...]  #: Metrics no check asserted.
    seconds: float  #: Wall time of the whole gate run.
    extra: dict[str, Any] = field(default_factory=dict)
    error: str | None = None  #: Set when the workload itself blew up.

    @property
    def passed(self) -> bool:
        if self.error is not None:
            return False
        return all(c.passed is not False for c in self.checks)

    @property
    def skipped(self) -> bool:
        """Every check skipped — the gate ran but asserted nothing."""
        return bool(self.checks) and all(c.skipped for c in self.checks)

    def failures(self) -> list[str]:
        out = [c.message() for c in self.checks if c.passed is False]
        if self.error is not None:
            out.append(f"{self.gate}: workload error: {self.error}")
        return out

    def render(self) -> str:
        lines = [f"gate {self.gate}: {self.title}"]
        for name in sorted(self.metrics):
            tag = "  (informational)" if name in self.informational else ""
            lines.append(f"  {name:24s} {self.metrics[name]:.6g}{tag}")
        for check in self.checks:
            lines.append(f"  {check.message()}")
        if self.error is not None:
            lines.append(f"  ERROR: {self.error}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
_GATES: dict[str, GateSpec] = {}


def register(spec: GateSpec) -> GateSpec:
    """Add (or replace) a gate in the process-wide registry."""
    _GATES[spec.name] = spec
    return spec


def get_gate(name: str) -> GateSpec:
    try:
        return _GATES[name]
    except KeyError:
        raise LookupError(
            f"unknown gate {name!r} (available: {', '.join(gate_names())})"
        ) from None


def gate_names() -> list[str]:
    return sorted(_GATES)


def all_gates() -> list[GateSpec]:
    return [_GATES[name] for name in gate_names()]


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------
def resolve_settings(
    spec: GateSpec, options: dict[str, Any] | None = None
) -> tuple[int, tuple[float, ...]]:
    """The repeat count and per-check thresholds (in ``spec.checks``
    order) that ``spec`` runs with under ``options``.

    Raises ``ValueError`` naming the option when a value does not parse.
    """
    options = options or {}
    repeats = _option(options, f"{spec.ns}.repeats", spec.default_repeats, int)
    thresholds = tuple(
        check.default_threshold
        if check.threshold_option is None
        else _option(options, check.threshold_option, check.default_threshold, float)
        for check in spec.checks
    )
    return max(1, repeats or 1), thresholds


def run_gate(
    spec: GateSpec,
    options: dict[str, Any] | None = None,
    *,
    capture_host: bool = True,
) -> tuple[GateResult, "_host.HostTelemetry | None"]:
    """Run one gate: setup, repeat-and-take-median measurement, checks.

    Returns the result plus the gate's host-telemetry capture (for
    Chrome-trace export; ``None`` when ``capture_host`` is off).
    Workload exceptions are converted into a failing result with
    ``error`` set — one broken gate must not mask the others in a
    ``--all`` run.  A malformed option raises ``ValueError`` (see
    :func:`resolve_settings`) before the workload starts.
    """
    repeats, thresholds = resolve_settings(spec, options)
    ctx = GateContext(options, spec.option_keys)
    telemetry: _host.HostTelemetry | None = None
    samples: list[dict[str, float]] = []
    extra: dict[str, Any] = {}
    error: str | None = None

    t0 = _time.perf_counter()
    try:
        if capture_host:
            with _host.capturing() as telemetry:
                _run_workload(spec, ctx, repeats, samples, extra)
        else:
            _run_workload(spec, ctx, repeats, samples, extra)
    except Exception as exc:  # noqa: BLE001 - converted to a failing result
        error = f"{type(exc).__name__}: {exc}"
    seconds = _time.perf_counter() - t0

    raw: dict[str, list[float]] = {}
    for sample in samples:
        for name, value in sample.items():
            raw.setdefault(name, []).append(float(value))
    medians = {name: statistics.median(values) for name, values in raw.items()}

    checks: list[CheckResult] = []
    informational = set(medians)
    for check, threshold in zip(spec.checks, thresholds):
        reason = check.skip(ctx) if check.skip is not None else None
        if error is not None and reason is None:
            reason = "workload errored"
        if reason is not None:
            checks.append(
                CheckResult(
                    name=check.name,
                    skipped=True,
                    passed=None,
                    metric=check.metric,
                    value=medians.get(check.metric),
                    op=check.op,
                    threshold=threshold,
                    reason=reason,
                )
            )
            continue
        value = medians.get(check.metric)
        if value is None:
            checks.append(
                CheckResult(
                    name=check.name,
                    skipped=False,
                    passed=False,
                    metric=check.metric,
                    value=None,
                    op=check.op,
                    threshold=threshold,
                    reason=f"metric {check.metric!r} was never measured",
                )
            )
            continue
        informational.discard(check.metric)
        for extra_metric in check.informational:
            informational.discard(extra_metric)
        checks.append(
            CheckResult(
                name=check.name,
                skipped=False,
                passed=_OPS[check.op](value, threshold),
                metric=check.metric,
                value=value,
                op=check.op,
                threshold=threshold,
            )
        )

    return (
        GateResult(
            gate=spec.name,
            title=spec.title,
            metrics=medians,
            checks=checks,
            informational=tuple(sorted(informational)),
            seconds=seconds,
            extra=extra,
            error=error,
        ),
        telemetry,
    )


def _run_workload(
    spec: GateSpec,
    ctx: GateContext,
    repeats: int,
    samples: list[dict[str, float]],
    extra: dict[str, Any],
) -> None:
    if spec.setup is not None:
        spec.setup(ctx)
    try:
        if spec.describe is not None:
            extra.update(spec.describe(ctx))
        for _ in range(repeats):
            samples.append(dict(spec.measure(ctx)))
    finally:
        if spec.teardown is not None:
            spec.teardown(ctx)
