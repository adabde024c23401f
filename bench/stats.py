"""Pure statistics of the benchmark: summaries, self time, verdicts.

Nothing here starts a process or reads a file, so ``test_bench.py``
covers all of it without running a workload.
"""

from __future__ import annotations

import heapq
import math
import statistics
from collections import defaultdict
from typing import Iterable, Sequence

#: Layers in table order; each hook in ``layers.HOOKS`` names one.
LAYERS = ("sim", "mpi", "dt", "net", "price", "exec", "store", "analysis")

#: Percentiles tried, highest first, by :func:`tail`.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is all three."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def tail(values: Sequence[float], beyond: int = 10) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest percentile with at least
    ``beyond`` samples above it, or ``None`` when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in _TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * n))  # nearest-rank percentile
        value = ordered[rank - 1]
        if sum(1 for v in ordered if v > value) >= beyond:
            return pct, value
    return None


def self_times(
    spans: Iterable[tuple[str, float, float]], lo: float, hi: float
) -> tuple[dict[str, float], float]:
    """Attribute every instant of ``[lo, hi]`` to at most one span.

    Each instant goes to the open span that started last, clipped to the
    window; among equal starts, to the one listed first (spans are
    listed as they end, so an inner call precedes its caller).  For
    spans that nest, on one thread or across threads that run one at a
    time, this is each span's duration minus its children's.  Returns
    the self time per key and the total time covered by any span.
    """
    keys: list[str] = []
    starts: list[float] = []
    events: list[tuple[float, int, int]] = []
    for key, start, end in spans:
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        i = len(keys)
        keys.append(key)
        starts.append(start)
        events.append((start, 1, i))
        events.append((end, 0, i))
    events.sort()
    out: dict[str, float] = defaultdict(float)
    open_: list[tuple[float, int]] = []
    closed: set[int] = set()
    covered = 0.0
    prev = lo
    for t, is_start, i in events:
        while open_ and open_[0][1] in closed:
            heapq.heappop(open_)
        if open_:
            out[keys[open_[0][1]]] += t - prev
            covered += t - prev
        prev = t
        if is_start:
            heapq.heappush(open_, (-starts[i], i))
        else:
            closed.add(i)
    return dict(out), covered


def layer_metrics(trace: dict, lo: float, hi: float,
                  served: dict[str, int] | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``trace`` is what ``layers.Recorder.to_json`` wrote; ``[lo, hi]`` is
    the round's window (ready until the command returned, or until the
    served request list drained); ``served`` is the daemon's cell
    tally from ``GET /stats``.  Times are shares of the window, in
    percent, so a layer a workload never enters reads 0 of a nonzero
    whole; ``*.self_pct`` and ``other_pct`` sum to 100.
    """
    served = served or {}
    hooks = trace["hooks"]
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    amount: dict[str, float] = defaultdict(int)
    tagged = []
    for index, start, end, _tid, value in trace["spans"]:
        layer, name, _target = hooks[index]
        key = f"{layer}.{name}"
        calls[key] += 1
        incl[key] += max(0.0, min(end, hi) - max(start, lo))
        amount[key] += value
        tagged.append((layer, start, end))
    counted: dict[str, int] = defaultdict(int)
    for index, n in trace["counted"].items():
        layer, name, _target = hooks[int(index)]
        counted[f"{layer}.{name}"] += n
    own, covered = self_times(tagged, lo, hi)
    window = hi - lo

    def pct(seconds: float) -> float:
        return 100.0 * seconds / window

    suspends = counted["sim.suspend"]
    moved = amount["dt.gather"] + amount["dt.scatter"]
    moving = incl["dt.gather"] + incl["dt.scatter"]
    metrics = {
        "trace.wall_s": window,
        "other_pct": pct(window - covered),
        "trace.unmeasured": len(trace["unmeasured"]),
        "sim.jobs": calls["sim.run"],
        "sim.suspends": suspends,
        "sim.events": amount["sim.run"],
        "sim.run_pct": pct(incl["sim.run"]),
        "sim.us_per_suspend": 1e6 * own.get("sim", 0.0) / suspends if suspends else 0.0,
        "mpi.sends": calls["mpi.send"],
        "mpi.send_pct": pct(incl["mpi.send"]),
        "mpi.matches": calls["mpi.match"],
        "mpi.match_pct": pct(incl["mpi.match"]),
        "dt.plans": calls["dt.compile"],
        "dt.compile_pct": pct(incl["dt.compile"]),
        "dt.gather_bytes": amount["dt.gather"],
        "dt.gather_pct": pct(incl["dt.gather"]),
        "dt.scatter_bytes": amount["dt.scatter"],
        "dt.scatter_pct": pct(incl["dt.scatter"]),
        "dt.gbps": moved / moving / 1e9 if moving else 0.0,
        "net.flows": calls["net.flow"],
        "net.resolves": calls["net.solve"],
        "net.solve_pct": pct(incl["net.solve"]),
        "price.calls": calls["price.cost"] + calls["price.scheme"] + calls["price.transfer"],
        "exec.cells": calls["exec.cell"],
        "exec.cell_pct": pct(incl["exec.cell"]),
        "exec.batch_pct": pct(incl["exec.batch"]),
        "store.gets": calls["store.get"],
        "store.hits": amount["store.get"],
        "store.get_pct": pct(incl["store.get"]),
        "store.puts": calls["store.put"],
        "store.put_pct": pct(incl["store.put"]),
        "analysis.calls": sum(n for k, n in calls.items() if k.startswith("analysis.")),
        "serve.cells_reused": served.get("reused", 0),
        "serve.cells_recomputed": served.get("recomputed", 0),
        "serve.cells_deduped": served.get("deduped", 0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = pct(own.get(layer, 0.0))
    return metrics


#: Verdicts of :func:`verdict`.
OK, WORSE, BETTER, UNRESOLVED = "ok", "worse", "better", "unresolved"


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """Judge change ``b`` against parent ``a`` for one metric.

    ``worse``/``better`` when the medians differ by more than ``bound``
    (a share of ``a``'s median).  When either side's quartile spread is
    wider than the bound the medians cannot be told apart, so the
    answer is ``unresolved`` unless every sample of ``b`` beats every
    sample of ``a``.
    """
    lower = better == "lower"
    if spread(a) > bound or spread(b) > bound:
        beats = max(b) < min(a) if lower else min(b) > max(a)
        return BETTER if beats else UNRESOLVED
    ma, mb = statistics.median(a), statistics.median(b)
    worsening = (mb - ma) / ma if lower else (ma - mb) / ma
    if worsening > bound:
        return WORSE
    if worsening < -bound:
        return BETTER
    return OK


def fail_verdict(a_rate: float, b_rate: float) -> str:
    """Any rise in the failure rate is a regression."""
    if b_rate > a_rate:
        return WORSE
    return BETTER if b_rate < a_rate else OK
