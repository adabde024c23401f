"""Simulation-vs-model consistency: the discrete-event simulator must
agree with the closed-form section 2 predictions, because it composes
exactly the same cost terms event by event.

Tight tolerances here (2%) are the strongest guard against cost
double-counting or dropped terms in the protocol code.
"""

from __future__ import annotations

import pytest

from repro.core import StridedLayout, TimingPolicy, run_pingpong
from repro.machine import SchemePricer, get_platform, stride2_pattern
from repro.machine.pricing import predicted_copying_slowdown

POLICY = TimingPolicy(iterations=3, flush=True)

SIZES = [1_000, 16_384, 1_000_000, 100_000_000]


def measured(scheme: str, nbytes: int, platform) -> float:
    layout = StridedLayout(nblocks=nbytes // 8)
    return run_pingpong(scheme, layout, platform, policy=POLICY, materialize=False).time


@pytest.fixture(scope="module", params=["skx-impi", "ls5-cray", "knl-impi"])
def plat(request):
    return get_platform(request.param)


@pytest.mark.parametrize("nbytes", SIZES)
class TestSchemesMatchModel:
    def test_reference(self, plat, nbytes):
        pricer = SchemePricer(plat)
        assert measured("reference", nbytes, plat) == pytest.approx(
            pricer.reference(stride2_pattern(nbytes)), rel=0.02
        )

    def test_copying(self, plat, nbytes):
        pricer = SchemePricer(plat)
        assert measured("copying", nbytes, plat) == pytest.approx(
            pricer.copying(stride2_pattern(nbytes)), rel=0.02
        )

    def test_vector(self, plat, nbytes):
        pricer = SchemePricer(plat)
        assert measured("vector", nbytes, plat) == pytest.approx(
            pricer.vector(stride2_pattern(nbytes)), rel=0.02
        )

    def test_packing_vector(self, plat, nbytes):
        pricer = SchemePricer(plat)
        assert measured("packing-vector", nbytes, plat) == pytest.approx(
            pricer.packing_vector(stride2_pattern(nbytes)), rel=0.02
        )

    def test_packing_element(self, plat, nbytes):
        pricer = SchemePricer(plat)
        assert measured("packing-element", nbytes, plat) == pytest.approx(
            pricer.packing_element(stride2_pattern(nbytes)), rel=0.02
        )

    def test_buffered(self, plat, nbytes):
        pricer = SchemePricer(plat)
        assert measured("buffered", nbytes, plat) == pytest.approx(
            pricer.buffered(stride2_pattern(nbytes)), rel=0.02
        )

    def test_onesided(self, plat, nbytes):
        pricer = SchemePricer(plat)
        assert measured("onesided", nbytes, plat) == pytest.approx(
            pricer.onesided(stride2_pattern(nbytes)), rel=0.05
        )


class TestModelInternals:
    def test_stride2_pattern_geometry(self):
        p = stride2_pattern(8000)
        assert p.total_bytes == 8000
        assert p.nblocks == 1000
        assert p.span_bytes == 16000

    def test_stride2_pattern_validation(self):
        with pytest.raises(ValueError):
            stride2_pattern(0)
        with pytest.raises(ValueError):
            stride2_pattern(12)

    def test_predicted_slowdown_near_three_on_skx(self):
        assert 3.0 <= predicted_copying_slowdown(get_platform("skx-impi")) <= 4.0

    def test_eager_vs_rendezvous_branch(self):
        plat = get_platform("skx-impi")
        pricer = SchemePricer(plat)
        limit = plat.tuning.eager_limit
        just_under = pricer.transport_time(limit)
        just_over = pricer.transport_time(limit + 16)
        # the rendezvous handshake + setup exceeds the bounce saving
        assert just_over > just_under
