"""Timing hooks around each repro layer's public entry points.

Loaded only inside a traced round's process (see ``child.py``), after
``import repro.cli`` and before the command runs.  The program itself is
not modified: each hook replaces one function or method with a wrapper
that records a span ``(hook, start, end, thread, value)`` or, for calls
that may suspend the calling simulated task, only a count.

A span is recorded only for a call during which its thread did not
suspend.  Simulated ranks are threads that run one at a time, so a call
that suspends would cover other ranks' work; such calls are counted in
``suspended`` instead of timed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from time import monotonic
from typing import Any, Callable


def _returned(args: tuple, result: Any) -> float:
    return result


def _events(args: tuple, result: Any) -> float:
    return args[0].events_processed


def _hit(args: tuple, result: Any) -> float:
    return 0 if result is None else 1


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``;
    ``Class.*`` wraps every public method and property the class itself
    defines.  ``value(args, result)`` gives the number a span carries
    (bytes moved, store hit, events processed).
    """

    layer: str
    name: str
    target: str
    counted: bool = False
    value: Callable[[tuple, Any], float] | None = None


HOOKS: tuple[Hook, ...] = (
    Hook("sim", "run", "repro.sim.kernel:Kernel.run", value=_events),
    Hook("sim", "suspend", "repro.sim.kernel:SimTask.sleep", counted=True),
    Hook("sim", "suspend", "repro.sim.kernel:SimTask.block", counted=True),
    Hook("mpi", "send", "repro.mpi.protocol:SendOperation.start"),
    Hook("mpi", "match", "repro.mpi.matching:Inbox.on_message"),
    Hook("mpi", "match", "repro.mpi.matching:Inbox.post"),
    Hook("dt", "compile", "repro.mpi.datatypes.plan:compile_plan"),
    Hook("dt", "gather", "repro.mpi.datatypes.plan:TransferPlan.gather", value=_returned),
    Hook("dt", "scatter", "repro.mpi.datatypes.plan:TransferPlan.scatter", value=_returned),
    Hook("net", "flow", "repro.net.flows:FlowEngine.start_flow"),
    Hook("net", "solve", "repro.net.flows:max_min_rates"),
    Hook("price", "cost", "repro.mpi.costs:CostModel.*"),
    Hook("price", "scheme", "repro.machine.pricing:SchemePricer.price"),
    Hook("price", "transfer", "repro.net.transport:NetworkTransport.transfer_time"),
    Hook("price", "transfer", "repro.net.transport:ShmTransport.transfer_time"),
    Hook("exec", "batch", "repro.exec.executor:Executor.execute_batch"),
    Hook("exec", "cell", "repro.exec.spec:execute_spec"),
    Hook("store", "get", "repro.exec.store:ResultStore.get", value=_hit),
    Hook("store", "put", "repro.exec.store:ResultStore.put"),
    Hook("analysis", "render", "repro.analysis.tables:render_table"),
    Hook("analysis", "render", "repro.analysis.report:Report.to_markdown"),
    Hook("analysis", "claims", "repro.analysis.claims:check_platform_claims"),
    Hook("analysis", "critical", "repro.obs.critical:extract_critical_path"),
)


class Recorder:
    """Spans and counts of one process, kept in memory until :meth:`dump`."""

    def __init__(self, hooks: tuple[Hook, ...]):
        self.hooks = hooks
        self.spans: list[tuple[int, float, float, int, float]] = []
        self.counted: list[int] = []
        self.suspended: list[int] = []
        self.unmeasured: list[str] = []
        self._local = threading.local()

    def timed(self, index: int, fn: Callable) -> Callable:
        value = self.hooks[index].value
        spans, suspended, local = self.spans, self.suspended, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = getattr(local, "suspends", 0)
            result, ok = None, False
            start = monotonic()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = monotonic()
                if getattr(local, "suspends", 0) != before:
                    suspended.append(index)
                else:
                    amount = value(args, result) if ok and value is not None else 0
                    spans.append((index, start, end, threading.get_ident(), amount))

        return wrapper

    def counter(self, index: int, fn: Callable) -> Callable:
        counted, local = self.counted, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local.suspends = getattr(local, "suspends", 0) + 1
            counted.append(index)
            return fn(*args, **kwargs)

        return wrapper

    def to_json(self) -> dict[str, Any]:
        return {
            "hooks": [[h.layer, h.name, h.target] for h in self.hooks],
            "spans": self.spans,
            "counted": dict(Counter(self.counted)),
            "suspended": dict(Counter(self.suspended)),
            "unmeasured": self.unmeasured,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)


def _resolve(target: str) -> list[tuple[Any, str, Any]]:
    """``(owner, attribute, original)`` for each object a target names;
    empty when the module, class or attribute no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return []
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    if attr == "*":
        return [
            (owner, name, obj)
            for name, obj in vars(owner).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or isinstance(obj, property))
        ]
    obj = inspect.getattr_static(owner, attr, None)
    if not (inspect.isfunction(obj) or isinstance(obj, property)):
        return []
    return [(owner, attr, obj)]


def _rebind(original: Any, replacement: Any) -> None:
    """Point every module-level binding of ``original`` in the loaded
    ``repro`` modules at ``replacement`` (covers ``from x import f``)."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(hooks: tuple[Hook, ...] = HOOKS) -> Recorder:
    """Wrap every hook's target in this process; a target that cannot be
    found is listed in ``recorder.unmeasured`` instead of failing."""
    recorder = Recorder(hooks)
    for index, hook in enumerate(hooks):
        found = _resolve(hook.target)
        if not found:
            recorder.unmeasured.append(hook.target)
            continue
        wrap = recorder.counter if hook.counted else recorder.timed
        for owner, attr, original in found:
            if isinstance(original, property):
                setattr(owner, attr, property(wrap(index, original.fget), original.fset,
                                              original.fdel, original.__doc__))
            elif isinstance(owner, type):
                setattr(owner, attr, wrap(index, original))
            else:
                _rebind(original, wrap(index, original))
    return recorder
