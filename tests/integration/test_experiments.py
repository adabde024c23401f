"""Integration: every in-text experiment and ablation passes, in quick
and in full mode."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import (
    EXPERIMENTS,
    list_experiments,
    run_experiment,
    run_figure_experiment,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.halo import run_halo_experiment

REPO = Path(__file__).resolve().parents[2]


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


@pytest.mark.parametrize("quick", [True, False])
def test_irregular_verifies_its_quick_payloads_only(quick):
    """The quick run's 50,000 blocks move and verify real bytes; the
    full run's 500,000 stay virtual."""
    from repro.exec import Executor, using_executor

    batches = []

    class Spy(Executor):
        def run_batch(self, specs, **kwargs):
            results = super().run_batch(specs, **kwargs)
            batches.append((list(specs), results))
            return results

    with using_executor(Spy()):
        assert run_experiment("irregular", quick=quick).passed
    [(specs, cells)] = batches
    assert [spec.materialize for spec in specs] == [quick] * len(specs)
    assert all(cell.verified for cell in cells)


class TestHaloFanOut:
    """The halo experiment's simulations (up to ten: eight when every
    rank's ``auto`` resolves to one delegate, whose runs it reuses) fan
    out over the ambient executor's pool, and the result is exactly
    the in-process one."""

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


class TestHaloAutoReuse:
    """``auto`` only prices on the host before running its delegate's
    exchange, so when every rank on both fabrics resolves to one
    delegate, the experiment reuses that delegate's runs instead of
    simulating ``auto``.  Serial: the jobs run in this process."""

    @pytest.fixture
    def submitted(self, monkeypatch):
        """The arguments of every job the experiment runs."""
        import repro.experiments.halo as halo_mod

        jobs = []
        real = halo_mod._run_halo_job

        def recording(*args):
            jobs.append(args)
            return real(*args)

        monkeypatch.setattr(halo_mod, "_run_halo_job", recording)
        return jobs

    @pytest.mark.parametrize("kwargs, njobs", [
        # halo-64: every rank on both fabrics delegates to copying.
        ({"ranks": 64}, 8),
        # The ranking-flip configuration: on-node ranks delegate to
        # another scheme than off-node ones, so auto is simulated.
        ({"quick": True, "ranks": 64, "ranks_per_node": 16, "placement": "block"}, 10),
    ], ids=["halo-64", "ranking-flip"])
    def test_auto_row_equals_a_direct_auto_run(self, kwargs, njobs, submitted):
        from repro.experiments.halo import _run_halo_job

        result = run_halo_experiment(**kwargs)
        assert len(submitted) == njobs
        assert ("auto" in {spec.scheme for spec, *_ in submitted}) == (njobs == 10)
        (spec, nranks, plat_topo, _), (_, _, plat_flat, _) = submitted[:2]
        topo_run = _run_halo_job(spec.with_scheme("auto"), nranks, plat_topo, True)
        flat_run = _run_halo_job(spec.with_scheme("auto"), nranks, plat_flat, False)
        row = result.data["schemes"]["auto"]
        assert {key: value.hex() for key, value in row.items()} == {
            "flat": flat_run.virtual_time.hex(),
            "topology": topo_run.virtual_time.hex(),
            "contention": topo_run.contention.hex(),
            "shm": topo_run.shm.hex(),
        }
        assert result.data["auto_choices"] == topo_run.chosen

    def test_halo_64_stdout_matches_the_benchmark_pin(self, capsys):
        pins = json.loads((REPO / "bench" / "pins.json").read_text())
        assert main(["experiment", "halo", "--ranks", "64", "--no-cache"]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == pins["halo-64"]


class TestFigureExperiment:
    def test_fig1_quick(self):
        result = run_figure_experiment("fig1", quick=True)
        assert result.passed  # payload verification
        assert "skx-impi" in result.summary
        assert "slowdown" in result.details.lower() or "Time" in result.details
        assert result.data["platform"] == "skx-impi"
