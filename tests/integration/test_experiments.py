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
from repro.experiments.halo import run_halo_experiment


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


class TestHaloFanOut:
    """The halo experiment's ten simulations fan out over the ambient
    executor's pool, and the result is exactly the in-process one."""

    @pytest.mark.parametrize("kwargs", [
        {"quick": True},
        # Block placement at 4 per node: shm rows and both regimes.
        {"quick": True, "ranks": 16, "ranks_per_node": 4, "placement": "block"},
    ])
    def test_pool_matches_serial(self, kwargs):
        import multiprocessing

        from repro.exec import Executor, using_executor

        serial = run_halo_experiment(**kwargs)
        before = set(multiprocessing.active_children())
        with Executor(jobs=2) as ex, using_executor(ex):
            pooled = run_halo_experiment(**kwargs)
            assert set(multiprocessing.active_children()) - before  # workers ran it
        assert set(multiprocessing.active_children()) <= before
        assert pooled.details == serial.details
        assert pooled.data == serial.data
        if "placement" in kwargs:
            assert set(serial.data["regimes"]) == {"on-node", "off-node"}
            assert all(row["shm"] > 0.0 for row in serial.data["schemes"].values())

    @pytest.mark.parametrize("kwargs", [
        {"ranks": 1}, {"ranks": 0}, {"ranks": -4}, {"ranks_per_node": 0},
    ])
    def test_bad_rank_arguments_fail_before_any_job(self, kwargs, monkeypatch):
        import repro.experiments.halo as halo_mod

        def forbidden(*args, **kw):
            pytest.fail("built a topology or submitted a job")

        monkeypatch.setattr(halo_mod, "make_topology", forbidden)
        monkeypatch.setattr(halo_mod, "current_executor", forbidden)
        with pytest.raises(ValueError, match="ranks"):
            run_halo_experiment(quick=True, **kwargs)

    def test_figures_and_other_experiments_reject_fabric_options(self):
        for exp_id in ("fig1", "eager", "model"):
            with pytest.raises(TypeError, match="topology"):
                run_experiment(exp_id, quick=True, topology="torus2d")


class TestFigureExperiment:
    def test_fig1_quick(self):
        result = run_figure_experiment("fig1", quick=True)
        assert result.passed  # payload verification
        assert "skx-impi" in result.summary
        assert "slowdown" in result.details.lower() or "Time" in result.details
        assert result.data["platform"] == "skx-impi"
