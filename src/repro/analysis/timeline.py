"""Protocol timeline rendering: a per-rank event log from a trace.

Turns a :class:`~repro.sim.trace.Tracer` into a readable two-column (or
n-column) timeline — the quickest way to see *why* a scheme costs what
it does: where the staging happened, when the RTS/CTS flew, when the
payload landed.

::

    time (us)  | rank 0                    | rank 1
    -----------+---------------------------+--------------------------
         0.000 | staging 8000B             |
         4.100 | send.rts ->1 tag=1        |
         ...
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.trace import TraceEvent, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.critical import CriticalPath
    from .explain import Explanation

__all__ = [
    "render_timeline",
    "render_attribution",
    "render_critical_path",
    "render_explanation",
    "event_label",
]

#: categories shown by default (protocol-level events)
_DEFAULT_CATEGORIES = (
    "send.eager",
    "send.rts",
    "send.cts",
    "send.push",
    "recv.complete",
    "staging",
    "pack",
    "unpack",
    "bsend",
    "rma.put",
    "rma.drain",
    "flush",
)


def event_label(event: TraceEvent) -> str:
    """A compact one-line label for a trace event."""
    c = event.category
    f = event.fields
    if c == "send.eager":
        return f"eager ->{f['dest']} tag={f['tag']} {f['nbytes']}B"
    if c == "send.rts":
        return f"RTS ->{f['dest']} tag={f['tag']} {f['nbytes']}B"
    if c == "send.cts":
        return f"CTS granted (->{f['dest']})"
    if c == "send.push":
        return f"push {f['nbytes']}B ->{f['dest']}"
    if c == "recv.complete":
        proto = "eager" if f.get("eager") else "rndv"
        return f"recv <-{f['source']} tag={f['tag']} {f['nbytes']}B ({proto})"
    if c == "staging":
        return f"staging {f['nbytes']}B ({f.get('datatype', '?')})"
    if c in ("pack", "unpack"):
        return f"{c} {f['nbytes']}B x{f['ncalls']} call(s)"
    if c == "bsend":
        return f"bsend ->{f['dest']} {f['nbytes']}B (reserved {f['reserved']})"
    if c == "rma.put":
        return f"Put ->{f['target']} {f['nbytes']}B"
    if c == "rma.drain":
        return f"fence drains {f['nops']} op(s)"
    if c == "flush":
        return f"cache flush {f['nbytes']}B"
    body = " ".join(f"{k}={v}" for k, v in sorted(f.items()))
    return f"{c} {body}".strip()


def _event_rank(event: TraceEvent) -> int | None:
    for key in ("rank", "src"):
        if key in event.fields:
            return int(event.fields[key])
    return None


def render_timeline(
    tracer: Tracer,
    *,
    categories: tuple[str, ...] | None = None,
    max_events: int = 200,
    column_width: int = 34,
) -> str:
    """The trace as an n-column per-rank timeline (times in us)."""
    wanted = set(categories if categories is not None else _DEFAULT_CATEGORIES)
    events = [e for e in tracer if e.category in wanted]
    truncated = len(events) > max_events
    events = events[:max_events]
    if not events:
        return "(no protocol events traced)"
    ranks = sorted({r for e in events if (r := _event_rank(e)) is not None})
    columns = {rank: i for i, rank in enumerate(ranks)}
    header = f"{'time (us)':>12} |" + "|".join(
        f" {'rank ' + str(r):<{column_width - 1}}" for r in ranks
    )
    sep = "-" * 13 + "+" + "+".join("-" * column_width for _ in ranks)
    lines = [header, sep]
    for event in events:
        cells = [" " * column_width] * len(ranks)
        rank = _event_rank(event)
        label = event_label(event)[: column_width - 1]
        if rank is not None:
            cells[columns[rank]] = f" {label:<{column_width - 1}}"
        lines.append(f"{event.time * 1e6:>12.3f} |" + "|".join(cells))
    if truncated:
        lines.append(f"... ({len(tracer)} events total, first {max_events} shown)")
    return "\n".join(lines)


def render_attribution(phases: dict[str, float], total: float) -> str:
    """The phase cost-attribution table (see ``repro.obs.attribution``).

    ``phases`` partitions ``total`` virtual seconds; zero rows are
    dropped, and the footer restates the total so the partition
    property is visible at a glance.
    """
    rows = [(name, t) for name, t in phases.items() if t > 0.0]
    rows.sort(key=lambda item: item[1], reverse=True)
    lines = [f"{'phase':<12} {'time (us)':>12} {'share':>8}"]
    lines.append("-" * 34)
    for name, t in rows:
        share = t / total * 100 if total else 0.0
        lines.append(f"{name:<12} {t * 1e6:>12.3f} {share:>7.1f}%")
    lines.append("-" * 34)
    lines.append(f"{'total':<12} {total * 1e6:>12.3f} {100.0:>7.1f}%")
    return "\n".join(lines)


def render_critical_path(path: "CriticalPath", *, max_segments: int = 40) -> str:
    """The critical path as a table: one row per segment, in time order.

    Adjacent same-resource segments are coalesced for readability; the
    footer restates the exact-partition property (rows tile the total).
    """
    if not path.segments:
        return "(empty critical path)"
    # Coalesce adjacent segments sharing resource+task for display.
    rows: list[list] = []
    for seg in path.segments:
        if rows and rows[-1][2] == seg.resource and rows[-1][3] == seg.task:
            rows[-1][1] = seg.end
            rows[-1][4].add(seg.detail)
        else:
            rows.append([seg.begin, seg.end, seg.resource, seg.task, {seg.detail}])
    truncated = len(rows) > max_segments
    shown = rows[:max_segments]
    lines = [
        f"{'begin (us)':>12} {'end (us)':>12} {'dur (us)':>10} {'resource':<9} "
        f"{'where':<8} detail"
    ]
    lines.append("-" * 72)
    for begin, end, resource, task, details in shown:
        where = task if task is not None else "-"
        lines.append(
            f"{begin * 1e6:>12.3f} {end * 1e6:>12.3f} {(end - begin) * 1e6:>10.3f} "
            f"{resource:<9} {where:<8} {', '.join(sorted(details))}"
        )
    if truncated:
        lines.append(f"... ({len(rows)} coalesced segments total, first {max_segments} shown)")
    lines.append("-" * 72)
    lines.append(
        f"{len(path.segments)} segments tile [0, {path.total * 1e6:.3f}] us exactly"
    )
    return "\n".join(lines)


def render_explanation(explanation: "Explanation") -> str:
    """One scheme's verdict: bound-by, resource shares, what-ifs."""
    lines = [
        f"{explanation.scheme} @ {explanation.message_bytes:,} B on "
        f"{explanation.platform}: total {explanation.total * 1e6:.3f} us, "
        f"bound by **{explanation.bound_by}**"
    ]
    shares = [(r, t) for r, t in explanation.shares.items() if t > 0.0]
    shares.sort(key=lambda item: item[1], reverse=True)
    for resource, t in shares:
        pct = t / explanation.total * 100 if explanation.total else 0.0
        lines.append(f"  {resource:<9} {t * 1e6:>12.3f} us  {pct:>5.1f}%")
    if explanation.whatifs:
        lines.append("  what-if:")
        for w in explanation.whatifs:
            line = (
                f"    {w.label:<28} -> {w.predicted * 1e6:>12.3f} us "
                f"({w.speedup:.2f}x)"
            )
            if w.actual is not None:
                line += f"  [re-run {w.actual * 1e6:.3f} us, error {w.error:.2%}]"
            lines.append(line)
    return "\n".join(lines)
