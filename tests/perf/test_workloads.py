"""Tests of the built-in gate specs: the structural leg of the
tracing-overhead gate (the zero-cost-when-off contract), what the
plan-speedup gate's two halves measure, and the exec-speedup gate's
single-CPU skip."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.perf.gates as gates_mod
from repro.mpi.datatypes.plan import PlanCache
from repro.perf import get_gate, run_gate
from repro.perf.workloads import PLAN_COUNT, STRUCTURAL_CHECK

REPO = Path(__file__).resolve().parents[2]


class TestStructuralCheck:
    def test_guards_both_recorder_and_host_telemetry(self):
        """The snippet must keep all three structural assertions: no
        wait edges from the virtual-time recorder, telemetry stays off,
        and zero reads of the host clock funnel."""
        assert "host_mod.active is None" in STRUCTURAL_CHECK
        assert "host_mod._now" in STRUCTURAL_CHECK
        assert "clock_calls[0] == 0" in STRUCTURAL_CHECK

    def test_passes_against_the_current_tree(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        env.pop("REPRO_HOST_TELEMETRY", None)
        proc = subprocess.run(
            [sys.executable, "-c", STRUCTURAL_CHECK],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestPlanSpeedupGate:
    def test_cold_half_always_compiles_and_cached_half_always_hits(
        self, monkeypatch
    ):
        """One run of the registered gate, read from the cache's own
        counters rather than a clock: under the capacity-0 cache every
        lookup compiles, and through the shared cache every lookup after
        the first hits."""
        lookups = []  # (capacity-0 cache?, hit?) per workload lookup
        real_get = PlanCache.get

        def spy(self, dtype, count, metrics=None):
            hits = self.hits
            plan = real_get(self, dtype, count, metrics)
            if count == PLAN_COUNT:  # not the count=1 plan Commit() warms
                lookups.append((self.capacity <= 0, self.hits > hits))
            return plan

        monkeypatch.setattr(PlanCache, "get", spy)
        result, _ = run_gate(
            get_gate("plan-speedup"), {"plan.repeats": "1"}, capture_host=False
        )
        assert result.error is None
        cold = [hit for uncached, hit in lookups if uncached]
        cached = [hit for uncached, hit in lookups if not uncached]
        assert cold and not any(cold)
        assert len(cached) == len(cold)
        assert cached[0] is False and all(cached[1:])
        assert result.metrics["speedup"] == (
            result.metrics["cold_seconds"] / result.metrics["cached_seconds"]
        )


def run_exec_gate(monkeypatch, *, cpus, parallel_speedup, cache_speedup):
    """The registered exec-speedup spec on a host with ``cpus`` usable
    CPUs, with a stub measurement in place of the four sweeps."""
    monkeypatch.setattr(gates_mod, "usable_cpus", lambda: cpus)
    sample = {
        "serial_seconds": 1.0,
        "parallel_seconds": 1.0 / parallel_speedup,
        "cold_cache_seconds": 1.1,
        "warm_cache_seconds": 1.0 / cache_speedup,
        "parallel_speedup": parallel_speedup,
        "cache_speedup": cache_speedup,
        "cache_overhead": 1.1,
        "sweeps_identical": 1.0,
    }
    spec = dataclasses.replace(
        get_gate("exec-speedup"), measure=lambda ctx: dict(sample)
    )
    result, _ = run_gate(spec, capture_host=False)
    return result


class TestExecSpeedupGate:
    def test_single_cpu_skips_parallel_but_still_gates_cache(self, monkeypatch):
        result = run_exec_gate(
            monkeypatch, cpus=1, parallel_speedup=0.7, cache_speedup=2.0
        )
        checks = {c.name: c for c in result.checks}
        assert checks["parallel"].skipped and checks["parallel"].passed is None
        assert checks["parallel"].reason.startswith("single-CPU host")
        # Measured, never asserted: the 1-CPU "speedup" is informational.
        assert {"parallel_speedup", "parallel_seconds"} <= set(result.informational)
        assert checks["identity"].passed is True
        assert checks["cache"].passed is False
        assert result.failures() == [checks["cache"].message()]

    @pytest.mark.parametrize(
        "cpus, parallel_speedup, cache_speedup, failed",
        [
            (1, 0.2, 50.0, set()),  # a skipped check never fails
            (4, 0.9, 50.0, {"parallel"}),  # enforced on 2+ CPUs
            (4, 1.8, 40.0, set()),
        ],
    )
    def test_parallel_check_enforced_only_with_two_cpus(
        self, monkeypatch, cpus, parallel_speedup, cache_speedup, failed
    ):
        result = run_exec_gate(
            monkeypatch,
            cpus=cpus,
            parallel_speedup=parallel_speedup,
            cache_speedup=cache_speedup,
        )
        assert {c.name for c in result.checks if c.passed is False} == failed
        assert result.passed is (not failed)
        single = cpus < 2
        assert next(c for c in result.checks if c.name == "parallel").skipped is single
        assert ("parallel_speedup" in result.informational) is single
