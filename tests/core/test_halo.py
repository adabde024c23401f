"""Halo-exchange workload: spec validation, correctness, and pricing."""

from __future__ import annotations

import pytest

from repro.core.halo import HALO_SCHEMES, HaloSpec, advise_face, halo_program
from repro.machine import default_shm_model, get_platform
from repro.mpi import run_mpi
from repro.net import flat, make_topology
from repro.obs import SpanOnlyRecorder, SpanRecorder, extract_critical_path


SMALL = HaloSpec(nx=8, ny=6, ghost=2, iterations=1, materialize=True)


class TestHaloSpec:
    def test_geometry_properties(self):
        assert SMALL.row_doubles == 10
        assert SMALL.face_bytes == 8 * 2 * 8
        assert SMALL.grid_bytes == 8 * 10 * 8

    def test_with_scheme(self):
        assert SMALL.with_scheme("copying").scheme == "copying"
        assert SMALL.scheme == "vector"  # original untouched

    @pytest.mark.parametrize(
        "bad",
        [
            {"scheme": "zero-copy"},
            {"nx": 0},
            {"ghost": 0},
            {"ghost": 7},  # deeper than ny=6
            {"iterations": 0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            HaloSpec(**{**{"nx": 8, "ny": 6, "ghost": 2}, **bad})


class TestExchangeCorrectness:
    @pytest.mark.parametrize("scheme", HALO_SCHEMES)
    @pytest.mark.parametrize("nranks", [2, 3, 5])
    def test_ghost_bands_verified(self, ideal, scheme, nranks):
        program = halo_program(SMALL.with_scheme(scheme))
        results = run_mpi(program, nranks=nranks, platform=ideal).results
        for r in results:
            assert r.time > 0.0
            # reference is geometry-blind by design, so unverifiable.
            assert r.verified is (None if scheme == "reference" else True)

    def test_virtual_buffers_skip_verification(self, ideal):
        spec = HaloSpec(nx=8, ny=6, ghost=2, iterations=1, materialize=False)
        results = run_mpi(halo_program(spec), nranks=2, platform=ideal).results
        assert all(r.verified is None for r in results)

    def test_single_rank_rejected(self, ideal):
        with pytest.raises(ValueError, match="2 ranks"):
            run_mpi(halo_program(SMALL), nranks=1, platform=ideal)


class TestHaloPricing:
    # Big strided faces so scheme staging costs dominate latency.
    SPEC = HaloSpec(nx=128, ny=32, ghost=4, iterations=2)

    def _time(self, platform, scheme, nranks=4):
        program = halo_program(self.SPEC.with_scheme(scheme))
        return run_mpi(program, nranks=nranks, platform=platform).virtual_time

    def test_reference_is_the_attainable_optimum(self, skx):
        t_ref = self._time(skx, "reference")
        for scheme in ("copying", "vector", "packing-vector"):
            assert self._time(skx, scheme) >= t_ref

    def test_flat_topology_is_bit_identical(self, skx):
        with_flat = skx.with_topology(flat())
        for scheme in HALO_SCHEMES:
            assert self._time(skx, scheme) == self._time(with_flat, scheme)

    def test_oversubscribed_fabric_slows_every_scheme(self, ideal):
        topo = make_topology("fat-tree", 8, ranks_per_node=4, placement="cyclic")
        contended = ideal.with_topology(topo)
        for scheme in HALO_SCHEMES:
            assert self._time(contended, scheme, nranks=8) > self._time(
                ideal, scheme, nranks=8
            )

    def test_deterministic_across_runs(self, ideal):
        topo = make_topology("fat-tree", 8, ranks_per_node=4, placement="cyclic")
        platform = ideal.with_topology(topo)
        program = halo_program(self.SPEC)
        a = run_mpi(program, nranks=8, platform=platform)
        b = run_mpi(program, nranks=8, platform=platform)
        assert a.virtual_time == b.virtual_time
        assert [r.time for r in a.results] == [r.time for r in b.results]


class TestAutoPricedOncePerWorld:
    """``auto`` prices the face once per world and transport regime, not
    once per rank, and a program reused across worlds prices each anew.
    Serial only: pool workers would keep their own call counts."""

    #: The halo experiment's quick face.
    QUICK = HaloSpec(scheme="auto", nx=64, ny=32, ghost=2, iterations=2)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every ``advise_face`` call ``auto`` makes, by transport."""
        import repro.core.halo as halo_mod

        seen = []
        real = halo_mod.advise_face

        def counting(spec, platform, transport=None):
            seen.append(transport)
            return real(spec, platform, transport)

        monkeypatch.setattr(halo_mod, "advise_face", counting)
        return seen

    def test_flat_platform_prices_once(self, skx, calls):
        results = run_mpi(halo_program(self.QUICK), nranks=16, platform=skx).results
        assert len(calls) == 1
        assert {r.chosen for r in results} == {advise_face(self.QUICK, skx).chosen}

    def test_each_regime_prices_once(self, skx, calls):
        """The ranking-flip configuration: on-node and off-node ranks
        resolve differently from one pricing per regime."""
        topo = make_topology("fat-tree", 64, ranks_per_node=16, placement="block")
        plat = skx.with_topology(topo).with_shm(default_shm_model())
        results = run_mpi(halo_program(self.QUICK), nranks=64, platform=plat).results
        assert len(calls) <= 2
        assert len({r.chosen for r in results}) >= 2

    def test_halo_64_experiment_prices_once_per_auto_world(self, calls):
        """The benchmark's halo shape (64 ranks, fat-tree, 4 per node,
        cyclic; quick faces): the experiment prices the face once per
        fabric in the parent, two in all.  Every rank resolves to one
        delegate, so no auto job runs and prices again."""
        from repro.experiments.halo import run_halo_experiment

        result = run_halo_experiment(quick=True, ranks=64)
        assert result.data["auto_choices"] == {"copying": 64}
        assert calls == [None, None]

    def test_reused_program_does_not_leak_across_worlds(self):
        spec = HaloSpec(scheme="auto", nx=256, ny=64, ghost=4, iterations=1)
        impi, mvapich = get_platform("skx-impi"), get_platform("skx-mvapich2")
        assert advise_face(spec, impi).chosen == "copying"
        assert advise_face(spec, mvapich).chosen == "vector"
        program = halo_program(spec)
        for plat, want in ((impi, "copying"), (mvapich, "vector"), (impi, "copying")):
            results = run_mpi(program, nranks=2, platform=plat).results
            assert {r.chosen for r in results} == {want}


class TestSpanOnlyRecording:
    """The halo experiment's traced jobs keep spans and the wait-for
    graph but no flat events; their critical path is exactly the one
    the full recorder yields."""

    #: The halo experiment's full-size face.
    SPEC = HaloSpec(nx=256, ny=64, ghost=4, iterations=2)

    @staticmethod
    def fabric(skx, name):
        """The platform, and the resource its critical path must show."""
        if name == "fat-tree cyclic":  # every face off-node
            topo = make_topology("fat-tree", 8, ranks_per_node=4, placement="cyclic")
            return skx.with_topology(topo), "contention"
        if name == "fat-tree block shm":  # co-located faces on shm
            topo = make_topology("fat-tree", 8, ranks_per_node=4, placement="block")
            return skx.with_topology(topo).with_shm(default_shm_model()), "shm"
        return skx.with_topology(make_topology("torus2d", 8)), None

    @pytest.mark.parametrize(
        "fabric", ["fat-tree cyclic", "fat-tree block shm", "torus2d"]
    )
    @pytest.mark.parametrize("scheme", HALO_SCHEMES)
    def test_critical_path_is_bit_identical(self, skx, fabric, scheme):
        platform, resource = self.fabric(skx, fabric)
        program = halo_program(self.SPEC.with_scheme(scheme))
        full, span_only = SpanRecorder(), SpanOnlyRecorder()
        seen = []
        for recorder in (full, span_only):
            job = run_mpi(program, nranks=8, platform=platform, tracer=recorder)
            totals = extract_critical_path(recorder, job.virtual_time).by_resource()
            seen.append((
                job.virtual_time.hex(),
                job.events,
                len(recorder.all_spans()),
                {key: value.hex() for key, value in totals.items()},
            ))
        assert seen[0] == seen[1]
        if resource is not None:
            assert totals[resource] > 0.0
        assert len(span_only) == 0
        assert {"link.util", "net.resolve", "queue.depth"} <= full.categories()
