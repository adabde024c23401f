"""Experiment registry: every reproducible artifact by id.

``figN`` entries regenerate the paper's figures; the rest are the
in-text experiments of sections 4.5-4.7 and the model ablations from
DESIGN.md.
"""

from __future__ import annotations

from typing import Callable

from ..analysis.figures import FIGURES, FigureBundle, generate_figure
from ..core.sweep import SweepConfig
from .base import ExperimentResult
from .block_size import run_block_size_experiment
from .cache_flush import run_cache_flush_experiment
from .eager_limit import run_eager_limit_experiment
from .halo import run_halo_experiment
from .irregular_spacing import run_irregular_spacing_experiment
from .model_ablation import (
    run_slowdown_prediction_experiment,
    run_threshold_ablation_experiment,
)
from .multi_process import run_multi_process_experiment
from .noise import run_noise_experiment

__all__ = ["EXPERIMENTS", "run_experiment", "list_experiments", "run_figure_experiment"]


def run_figure_experiment(fig_id: str, *, quick: bool = False) -> ExperimentResult:
    """Regenerate one paper figure and wrap it as an experiment result."""
    config = SweepConfig.quick() if quick else SweepConfig()
    bundle: FigureBundle = generate_figure(fig_id, config)
    verified = bundle.sweep.all_verified()
    return ExperimentResult(
        exp_id=fig_id,
        title=bundle.spec.caption,
        passed=verified,
        summary=(
            f"regenerated {fig_id} on {bundle.spec.platform}: "
            f"{len(bundle.sweep.measurements)} cells, payload verification "
            f"{'passed' if verified else 'FAILED'}"
        ),
        details=bundle.render(charts=not quick),
        data=bundle.sweep.to_dict(),
    )


_RUNNERS: dict[str, Callable[..., ExperimentResult]] = {
    "eager": run_eager_limit_experiment,
    "flush": run_cache_flush_experiment,
    "irregular": run_irregular_spacing_experiment,
    "blocksize": run_block_size_experiment,
    "multiproc": run_multi_process_experiment,
    "model": run_slowdown_prediction_experiment,
    "ablation-threshold": run_threshold_ablation_experiment,
    "noise": run_noise_experiment,
    "halo": run_halo_experiment,
}

#: Every experiment id, figures first (matching DESIGN.md's index).
EXPERIMENTS: tuple[str, ...] = (*FIGURES.keys(), *_RUNNERS.keys())


def list_experiments() -> list[str]:
    return list(EXPERIMENTS)


def run_experiment(exp_id: str, *, quick: bool = False, **kwargs) -> ExperimentResult:
    """Run any experiment by id.  ``kwargs`` go to its runner, so an
    option the experiment does not take raises :class:`TypeError`."""
    if exp_id in FIGURES:
        return run_figure_experiment(exp_id, quick=quick, **kwargs)
    try:
        runner = _RUNNERS[exp_id]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}") from None
    return runner(quick=quick, **kwargs)
