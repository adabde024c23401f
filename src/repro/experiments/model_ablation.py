"""Model ablations for the design choices DESIGN.md calls out.

1. **Copying-slowdown prediction** (paper section 2.2): the analytic
   model predicts a slowdown of 3 when memory and network bandwidth are
   equal; we measure it per platform and report the deviation.
2. **Staging-chunk / threshold ablation** (section 4.1): the onset of
   the derived-type large-message penalty should move with the MPI
   tuning's ``large_message_threshold`` — evidence that the penalty
   really is internal buffer bookkeeping and not a hardware effect.
"""

from __future__ import annotations

from dataclasses import replace

from ..analysis.crossover import degradation_onset
from ..analysis.metrics import asymptotic_slowdown
from ..core.runner import run_sweep
from ..core.sweep import SweepConfig, default_message_sizes
from ..core.timing import TimingPolicy
from ..machine.pricing import predicted_copying_slowdown
from ..machine.registry import PAPER_PLATFORMS, get_platform
from .base import ExperimentResult

__all__ = ["run_slowdown_prediction_experiment", "run_threshold_ablation_experiment"]


def run_slowdown_prediction_experiment(*, quick: bool = False) -> ExperimentResult:
    """Measured copying slowdown vs the section 2.2 prediction."""
    platforms = ("skx-impi",) if quick else PAPER_PLATFORMS
    sizes = tuple(default_message_sizes(10_000_000, 1_000_000_000, per_decade=1))
    policy = TimingPolicy(iterations=5 if quick else 20)
    config = SweepConfig(sizes=sizes, schemes=("reference", "copying"), policy=policy)
    lines = []
    ok = True
    data = {}
    for name in platforms:
        plat = get_platform(name)
        sweep = run_sweep(plat, config)
        measured = asymptotic_slowdown(sweep, "copying")
        # First-order prediction: gather reads 2N at DRAM speed, half the
        # write is exposed, then the send moves N at wire speed.
        predicted = predicted_copying_slowdown(plat)
        deviation = abs(measured - predicted) / predicted
        ok = ok and deviation <= 0.35 and measured >= 2.5
        lines.append(
            f"  {name}: measured {measured:.2f}, first-order model {predicted:.2f} "
            f"({deviation:.1%} deviation)"
        )
        data[name] = {"measured": measured, "predicted": predicted}
    return ExperimentResult(
        exp_id="model",
        title="Copying-slowdown prediction (paper section 2.2: 'a factor of three')",
        passed=ok,
        summary=(
            "measured large-message copying slowdowns match the paper's first-order "
            "memory-traffic model on every platform"
            if ok
            else "measured slowdowns deviate from the analytic model"
        ),
        details="\n".join(lines),
        data=data,
    )


def run_threshold_ablation_experiment(
    platform: str = "skx-impi", *, quick: bool = False
) -> ExperimentResult:
    """Degradation onset as a function of the staging threshold."""
    plat = get_platform(platform)
    thresholds = (8_000_000, 32_000_000) if quick else (8_000_000, 32_000_000, 128_000_000)
    sizes = tuple(default_message_sizes(1_000_000, 1_000_000_000, per_decade=2))
    policy = TimingPolicy(iterations=5 if quick else 10)
    lines = []
    onsets: list[tuple[int, int | None]] = []
    for threshold in thresholds:
        tuned = plat.with_tuning(
            replace(plat.tuning, large_message_threshold=threshold)
        ).with_name(f"{plat.name}+thr{threshold}")
        sweep = run_sweep(
            tuned,
            SweepConfig(sizes=sizes, schemes=("reference", "copying", "vector"), policy=policy),
        )
        onset = degradation_onset(sweep, "vector", "copying")
        onsets.append((threshold, onset))
        lines.append(f"  threshold {threshold:>12,} B -> onset {onset if onset else 'none'}")
    measured = [(t, o) for t, o in onsets if o is not None]
    monotone = all(a[1] <= b[1] for a, b in zip(measured, measured[1:]))
    tracks = all(0.2 * t <= o <= 20 * t for t, o in measured)
    ok = len(measured) == len(onsets) and monotone and tracks
    return ExperimentResult(
        exp_id="ablation-threshold",
        title=f"Staging-threshold ablation on {platform}",
        passed=ok,
        summary=(
            "the derived-type degradation onset moves with the configured "
            "large-message threshold (the penalty is library bookkeeping, not hardware)"
            if ok
            else "onset did not track the configured threshold"
        ),
        details="\n".join(lines),
        data={"onsets": {str(t): o for t, o in onsets}},
    )
