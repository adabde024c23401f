"""The ``auto`` scheme against the 64 golden scheme times.

An auto cell performs its selection in host-side setup code — zero
virtual time — so its timeline must be *bit-identical* to the chosen
scheme's own golden cell.  And because the goldens record every
hand-coded scheme on the same grid, they double as the argmin oracle:
auto must never land on a scheme measurably worse than the best one.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import StridedLayout, TimingPolicy, run_pingpong
from repro.core.advise import AUTO_CANDIDATES, advise_layout, select_scheme
from repro.core.schemes import ALL_SCHEME_KEYS, PAPER_ORDER, make_scheme
from repro.machine.pricing import PRICED_SCHEMES
from repro.machine.registry import get_platform

GOLDEN = json.loads((Path(__file__).parent / "golden_scheme_times.json").read_text())
PLATFORMS = ("skx-impi", "skx-mvapich2", "ls5-cray", "knl-impi")
LAYOUTS = {
    "small-2KB": StridedLayout(nblocks=256, blocklen=1, stride=2),
    "mid-1MB": StridedLayout(nblocks=125_000, blocklen=1, stride=2),
}
POLICY = TimingPolicy(iterations=3, flush=True)

#: Model-vs-simulation fidelity (the analytic cross-check holds 2%,
#: onesided 5%): auto may tie-break within this band, never beyond it.
MODEL_RTOL = 0.05


def golden_time(platform: str, lname: str, key: str) -> float:
    return float.fromhex(GOLDEN[f"{platform}/{lname}/{key}"]["time"])


@pytest.mark.parametrize("lname", sorted(LAYOUTS))
@pytest.mark.parametrize("platform", PLATFORMS)
def test_auto_cell_bit_identical_to_chosen_golden(platform: str, lname: str):
    layout = LAYOUTS[lname]
    chosen = select_scheme(layout, platform)
    assert chosen in AUTO_CANDIDATES
    cell = run_pingpong("auto", layout, platform, policy=POLICY, materialize=False)
    assert cell.label == f"auto({make_scheme(chosen).label})"
    want = GOLDEN[f"{platform}/{lname}/{chosen}"]
    got = {
        "time": cell.time.hex(),
        "virtual_time": cell.virtual_time.hex(),
        "events": cell.events,
    }
    assert got == want, f"auto -> {chosen} on {platform}/{lname}"


@pytest.mark.parametrize("lname", sorted(LAYOUTS))
@pytest.mark.parametrize("platform", PLATFORMS)
def test_auto_never_worse_than_best_golden_candidate(platform: str, lname: str):
    chosen = select_scheme(LAYOUTS[lname], platform)
    chosen_time = golden_time(platform, lname, chosen)
    best = min(golden_time(platform, lname, key) for key in AUTO_CANDIDATES)
    assert chosen_time <= best * (1.0 + MODEL_RTOL), (
        f"auto chose {chosen} ({chosen_time:.3g}s) but the best candidate "
        f"runs in {best:.3g}s on {platform}/{lname}"
    )


@pytest.mark.parametrize("platform", ("skx-impi", "ls5-cray"))
def test_auto_argmin_on_live_sweep_cells(platform: str):
    """Off the golden grid (several sizes, cheap virtual cells): the
    simulated time of auto's choice stays within model fidelity of the
    best simulated candidate."""
    policy = TimingPolicy(iterations=3, flush=True)
    for nblocks in (64, 2048, 16384):
        layout = StridedLayout(nblocks=nblocks, blocklen=1, stride=2)
        chosen = select_scheme(layout, platform)
        times = {
            key: run_pingpong(key, layout, platform, policy=policy,
                              materialize=False).time
            for key in AUTO_CANDIDATES
        }
        assert times[chosen] <= min(times.values()) * (1.0 + MODEL_RTOL), (
            f"{platform} @ {layout.message_bytes}B: auto chose {chosen}"
        )


def test_selection_is_deterministic_and_verified():
    layout = StridedLayout(nblocks=256, blocklen=1, stride=2)
    assert select_scheme(layout, "skx-impi") == select_scheme(layout, "skx-impi")
    # Sender and receiver resolve independently; a materialized run
    # proves they picked the same delivering scheme.
    cell = run_pingpong("auto", layout, "skx-impi",
                        policy=TimingPolicy(iterations=2, flush=False))
    assert cell.verified is True


def test_advice_prices_are_sorted_and_complete():
    advice = advise_layout(StridedLayout(nblocks=256, blocklen=1, stride=2),
                           platform="skx-impi")
    keys = [p.key for p in advice.prices]
    assert sorted(keys) == sorted(AUTO_CANDIDATES)
    times = [p.modeled_time for p in advice.prices]
    assert times == sorted(times)
    assert advice.chosen == keys[0]
    assert advice.reference_time > 0


def test_sweep_metadata_records_auto_choices():
    from repro.core.runner import run_sweep
    from repro.core.sweep import SweepConfig

    config = SweepConfig(
        sizes=(2048, 65536),
        schemes=("auto",),
        policy=TimingPolicy(iterations=2, flush=False),
    )
    result = run_sweep("skx-impi", config)
    choices = result.metadata["auto_choices"]
    assert set(choices) == {"2048", "65536"}
    assert set(choices.values()) <= set(AUTO_CANDIDATES)
    platform = get_platform("skx-impi")
    for size in (2048, 65536):
        assert choices[str(size)] == select_scheme(config.layout_for(size), platform)


class TestSchemeKeyConsistency:
    """The machine layer keeps its own literal copy of the scheme keys
    (it must not import core); pin every key list to ``PAPER_ORDER``."""

    def test_priced_schemes_match_paper_order(self):
        assert PRICED_SCHEMES == PAPER_ORDER

    def test_auto_candidates_are_paper_schemes_minus_reference(self):
        assert set(AUTO_CANDIDATES) == set(PAPER_ORDER) - {"reference"}

    def test_all_scheme_keys_extend_paper_order_with_auto(self):
        assert ALL_SCHEME_KEYS == PAPER_ORDER + ("auto",)

    def test_every_candidate_is_instantiable(self):
        for key in AUTO_CANDIDATES:
            assert make_scheme(key).key == key
