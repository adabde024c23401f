"""Measurement-policy tests: the paper's 20-iteration, 1-sigma protocol."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timing import TimingPolicy, TimingStats, summarize


class TestTimingPolicy:
    def test_paper_defaults(self):
        p = TimingPolicy()
        assert p.iterations == 20
        assert p.flush and p.flush_bytes == 50_000_000
        assert p.dismiss_sigma == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [dict(iterations=0), dict(flush_bytes=-1), dict(dismiss_sigma=0.0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TimingPolicy(**kwargs)


class TestSummarize:
    def test_constant_measurements(self):
        stats = summarize([2.0] * 20)
        assert stats.mean == 2.0
        assert stats.std == 0.0
        assert stats.kept_mean == 2.0
        assert stats.dismissed == 0
        assert stats.n == 20

    def test_high_outlier_dismissed(self):
        times = [1.0] * 19 + [100.0]
        stats = summarize(times, dismiss_sigma=1.0)
        assert stats.dismissed == 1
        assert stats.kept_mean == pytest.approx(1.0)
        assert stats.maximum == 100.0

    def test_low_values_never_dismissed(self):
        """Only slow outliers are noise; fast ones are real."""
        times = [1.0] * 19 + [0.01]
        stats = summarize(times, dismiss_sigma=1.0)
        assert stats.dismissed == 0

    def test_disabled_filter(self):
        times = [1.0] * 19 + [100.0]
        stats = summarize(times, dismiss_sigma=None)
        assert stats.dismissed == 0
        assert stats.kept_mean == stats.mean

    def test_single_measurement(self):
        stats = summarize([3.5])
        assert stats.kept_mean == 3.5 and stats.dismissed == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            summarize([1.0, -0.5])

    @given(times=st.lists(st.floats(1e-9, 1e3), min_size=1, max_size=50))
    @settings(max_examples=150, deadline=None)
    def test_property_kept_mean_bounds(self, times):
        stats = summarize(times, dismiss_sigma=1.0)
        eps = 1e-9 * max(abs(stats.maximum), 1.0)  # FP summation slack
        assert stats.minimum - eps <= stats.kept_mean <= stats.maximum + eps
        assert 0 <= stats.dismissed < stats.n
        # Dismissal only removes values above the mean, so the kept mean
        # can never exceed the raw mean.
        assert stats.kept_mean <= stats.mean + 1e-12 * abs(stats.mean)

    @given(times=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_property_tight_data_never_fully_dismissed(self, times):
        stats = summarize(times, dismiss_sigma=3.0)
        assert stats.n - stats.dismissed >= 1
