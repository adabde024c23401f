"""Sweep orchestration: run a full scheme x size grid on a platform.

A sweep is just a batch of :class:`~repro.exec.CellSpec`\\ s handed to
the ambient :class:`~repro.exec.Executor` — which is how ``--jobs N``
parallelism and the content-addressed result cache reach every sweep
(figures, claims, experiments) without any of those callers changing.
The default executor is serial and cache-less, bit-identical to the
pre-split double loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..machine.platform import Platform
from ..machine.registry import get_platform
from .advise import select_scheme
from .results import Measurement, SweepResult
from .sweep import SweepConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (exec imports core)
    from ..exec import Executor

__all__ = ["run_sweep", "sweep_metadata", "sweep_specs"]

ProgressFn = Callable[[str, int, float], None]


def sweep_metadata(platform: Platform, config: SweepConfig) -> dict:
    """The provenance metadata one sweep records.

    Shared between :func:`run_sweep` and the serve client
    (:func:`repro.serve.submit_sweep`), so a remotely served sweep
    carries exactly the metadata a local run of the same grid would.
    """
    metadata = {
        "description": platform.description,
        "figure": platform.figure,
        "iterations": config.policy.iterations,
        "flush": config.policy.flush,
        "sizes": list(config.sizes),
        "schemes": list(config.schemes),
        "concurrent_streams": config.concurrent_streams,
        "materialize_limit": config.materialize_limit,
        "layout_factory": config.layout_factory_id,
    }
    if "auto" in config.schemes:
        # Record what auto resolves to at every size — the choice is
        # deterministic host-side arithmetic, so this is provenance, not
        # a measurement.
        metadata["auto_choices"] = {
            str(size): select_scheme(config.layout_for(size), platform)
            for size in config.sizes
        }
    return metadata


def sweep_specs(platform: Platform, config: SweepConfig) -> list:
    """Compile one sweep's grid into :class:`~repro.exec.CellSpec`\\ s,
    scheme-major in config order (the sweep's canonical cell order —
    the serve daemon compiles requests through this same function, so
    served and local grids agree cell for cell)."""
    from ..exec import CellSpec

    return [
        CellSpec(
            scheme=scheme_key,
            layout=layout,
            platform=platform,
            policy=config.policy,
            materialize=config.materialize(size),
            concurrent_streams=config.concurrent_streams,
        )
        for scheme_key in config.schemes
        for size, layout in zip(config.sizes, config.layouts)
    ]


def run_sweep(
    platform: Platform | str,
    config: SweepConfig | None = None,
    *,
    progress: ProgressFn | None = None,
    executor: "Executor | None" = None,
) -> SweepResult:
    """Run every (scheme, size) cell of ``config`` on ``platform``.

    ``progress(scheme, message_bytes, time)`` is invoked as each cell
    finishes (the CLI uses it for live output; under a parallel
    executor cells report in completion order).  ``executor`` overrides
    the ambient executor from :func:`repro.exec.current_executor`.

    The result is independent of the execution mode: serial, parallel,
    and cache-served sweeps produce bit-identical ``SweepResult``\\ s.
    """
    from ..exec import current_executor

    if isinstance(platform, str):
        platform = get_platform(platform)
    config = config or SweepConfig()
    result = SweepResult(
        platform=platform.name,
        metadata=sweep_metadata(platform, config),
    )
    specs = sweep_specs(platform, config)
    on_result = None
    if progress is not None:
        def on_result(index: int, cell) -> None:
            progress(cell.scheme, cell.message_bytes, cell.time)

    cells = (executor or current_executor()).run_batch(specs, on_result=on_result)
    for cell in cells:
        result.add(
            Measurement(
                scheme=cell.scheme,
                label=cell.label,
                message_bytes=cell.message_bytes,
                time=cell.time,
                min_time=cell.stats.minimum,
                max_time=cell.stats.maximum,
                std=cell.stats.std,
                dismissed=cell.stats.dismissed,
                verified=cell.verified,
            )
        )
    return result
