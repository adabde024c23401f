"""Integration: every in-text experiment and ablation passes, in quick
and in full mode."""

from __future__ import annotations

import pytest

from repro.experiments import (
    EXPERIMENTS,
    list_experiments,
    run_experiment,
    run_figure_experiment,
)
from repro.experiments.base import ExperimentResult


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        ids = list_experiments()
        for required in ("fig1", "fig2", "fig3", "fig4", "eager", "flush",
                         "irregular", "blocksize", "multiproc", "model",
                         "ablation-threshold"):
            assert required in ids

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="fig1"):
            run_experiment("bogus")


@pytest.mark.parametrize(
    "exp_id", [e for e in EXPERIMENTS if not e.startswith("fig")]
)
class TestInTextExperiments:
    @staticmethod
    def check(exp_id, *, quick):
        result = run_experiment(exp_id, quick=quick)
        assert isinstance(result, ExperimentResult)
        assert result.exp_id == exp_id
        assert result.passed is not False, result.render()
        assert result.summary
        assert result.render()

    def test_quick_run_passes(self, exp_id):
        self.check(exp_id, quick=True)

    def test_full_run_passes(self, exp_id):
        self.check(exp_id, quick=False)


class TestFigureExperiment:
    def test_fig1_quick(self):
        result = run_figure_experiment("fig1", quick=True)
        assert result.passed  # payload verification
        assert "skx-impi" in result.summary
        assert "slowdown" in result.details.lower() or "Time" in result.details
        assert result.data["platform"] == "skx-impi"
