"""Section 4.7, item 1 — irregular spacing.

"Types with less regular spacing may give worse performance due to
decreased use of prefetch streams in reading data."  We jitter the
block displacements at fixed payload and measure the copy-based schemes
(the effect lives in the gather loop's read pattern).
"""

from __future__ import annotations

from ..core.layout import IrregularLayout
from ..core.timing import TimingPolicy
from ..exec import CellSpec, current_executor
from ..machine.registry import get_platform
from .base import ExperimentResult

__all__ = ["run_irregular_spacing_experiment"]


def run_irregular_spacing_experiment(
    platform: str = "skx-impi", *, quick: bool = False
) -> ExperimentResult:
    plat = get_platform(platform)
    nblocks = 50_000 if quick else 500_000  # payload 0.4 / 4 MB
    jitters = (0.0, 0.9) if quick else (0.0, 0.3, 0.6, 0.9)
    policy = TimingPolicy(iterations=5 if quick else 20)
    specs = [
        CellSpec(
            scheme="copying",
            layout=IrregularLayout(nblocks=nblocks, blocklen=1, stride=4, jitter=jitter),
            platform=plat,
            policy=policy,
            materialize=nblocks <= 100_000,
        )
        for jitter in jitters
    ]
    cells = current_executor().run_batch(specs)
    times: dict[float, float] = {}
    lines = []
    for jitter, cell in zip(jitters, cells):
        times[jitter] = cell.time
        lines.append(
            f"  jitter {jitter:.1f}: {cell.time:.4g}s "
            f"({cell.bandwidth / 1e9:.2f} GB/s effective)"
        )
    ordered = [times[j] for j in jitters]
    monotone_worse = all(b >= a * 0.999 for a, b in zip(ordered, ordered[1:]))
    degradation = ordered[-1] / ordered[0]
    return ExperimentResult(
        exp_id="irregular",
        title=f"Irregular spacing on {platform} ({nblocks} blocks)",
        passed=monotone_worse and degradation > 1.05,
        summary=(
            f"fully jittered displacements are {degradation:.2f}x slower than the "
            f"regular stride ({'monotone' if monotone_worse else 'NON-monotone'} in jitter)"
        ),
        details="\n".join(lines),
        data={"times": {str(j): t for j, t in times.items()}, "degradation": degradation},
    )
