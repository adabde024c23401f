"""Gate-engine tests with synthetic GateSpecs: median-over-repeats,
skip semantics, informational marking, error capture, and the host
capture scoped to each run."""

from __future__ import annotations

import re

import pytest

from repro.obs import host as host_mod
from repro.perf import (
    GateCheck,
    GateContext,
    GateSpec,
    all_gates,
    gate_names,
    get_gate,
    run_gate,
)


def spec_of(measure, checks, *, repeats=1):
    return GateSpec(
        name="synthetic",
        title="a synthetic gate",
        ns="syn",
        measure=measure,
        checks=tuple(checks),
        default_repeats=repeats,
    )


def check(metric="speed", op=">=", default=2.0, *, skip=None, informational=()):
    return GateCheck(
        name=metric,
        metric=metric,
        op=op,
        threshold_option=f"syn.min_{metric}",
        default_threshold=default,
        skip=skip,
        informational=informational,
    )


class TestEngine:
    def test_median_over_repeats(self):
        values = iter([1.0, 100.0, 3.0])

        def measure(ctx):
            return {"speed": next(values)}

        result, _ = run_gate(spec_of(measure, [check()], repeats=3))
        assert result.metrics["speed"] == 3.0  # median, outlier-proof
        assert result.passed

    def test_repeats_option_overrides_default(self):
        calls = [0]

        def measure(ctx):
            calls[0] += 1
            return {"speed": 9.0}

        run_gate(spec_of(measure, [check()], repeats=1), {"syn.repeats": 4})
        assert calls[0] == 4

    def test_threshold_option_overrides_default(self):
        result, _ = run_gate(
            spec_of(lambda ctx: {"speed": 2.5}, [check(default=2.0)]),
            {"syn.min_speed": 3.0},
        )
        assert not result.passed
        assert "required >= 3" in result.failures()[0]

    def test_check_without_option_key_has_a_fixed_threshold(self):
        fixed = GateCheck(name="same", metric="same", op=">=", default_threshold=1.0)
        result, _ = run_gate(
            spec_of(lambda ctx: {"same": 0.0}, [fixed]), {"syn.min_same": "0"}
        )
        assert not result.passed
        assert "required >= 1" in result.failures()[0]

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"syn.min_speed": "abc"}, "option syn.min_speed expects a number, got 'abc'"),
            ({"syn.repeats": "two"}, "option syn.repeats expects an integer, got 'two'"),
        ],
    )
    def test_malformed_option_fails_before_the_workload(self, options, message):
        trail = []
        spec = spec_of(lambda ctx: trail.append("measure") or {"speed": 9.0}, [check()])
        with pytest.raises(ValueError, match=re.escape(message)):
            run_gate(spec, options)
        assert trail == []

    def test_le_op_caps_regressions(self):
        result, _ = run_gate(
            spec_of(lambda ctx: {"overhead": 1.5}, [check("overhead", "<=", 1.2)])
        )
        assert not result.passed

    def test_unknown_op_rejected_at_definition(self):
        with pytest.raises(ValueError, match="unknown op"):
            check(op="==")

    def test_skip_is_explicit_never_silently_green(self):
        result, _ = run_gate(
            spec_of(
                lambda ctx: {"speed": 0.1, "other": 7.0},
                [
                    check(skip=lambda ctx: "single-CPU host"),
                    check("other", ">=", 1.0),
                ],
            )
        )
        (skipped, ran) = result.checks
        assert skipped.skipped and skipped.passed is None
        assert skipped.reason == "single-CPU host"
        assert "skipped (single-CPU host)" in skipped.message()
        assert ran.passed is True
        # The gate passes (a skip is not a failure) but is not "skipped"
        # overall because one check did run.
        assert result.passed and not result.skipped
        # The metric the skipped check would have asserted is
        # informational; the asserted one is not.
        assert "speed" in result.informational
        assert "other" not in result.informational

    def test_fully_skipped_gate(self):
        result, _ = run_gate(
            spec_of(lambda ctx: {"speed": 1.0}, [check(skip=lambda ctx: "nope")])
        )
        assert result.skipped and result.passed

    def test_workload_error_becomes_failing_result(self):
        def measure(ctx):
            raise RuntimeError("golden file vanished")

        result, _ = run_gate(spec_of(measure, [check()]))
        assert result.error == "RuntimeError: golden file vanished"
        assert not result.passed
        assert result.checks[0].skipped
        assert result.checks[0].reason == "workload errored"
        assert any("workload error" in f for f in result.failures())

    def test_missing_metric_fails_not_skips(self):
        result, _ = run_gate(spec_of(lambda ctx: {"unrelated": 1.0}, [check()]))
        assert not result.passed
        assert result.checks[0].reason == "metric 'speed' was never measured"

    def test_setup_scratch_teardown_order(self):
        """``ctx.scratch`` survives from one repeat to the next, so
        one-time work (the golden passes) runs once per gate run."""
        trail = []

        def measure(ctx):
            if "golden" not in ctx.scratch:
                trail.append("golden")
                ctx.scratch["golden"] = 42
            trail.append("measure")
            return {"speed": float(ctx.scratch["golden"])}

        result, _ = run_gate(spec_of(measure, [check()], repeats=3))
        assert trail == ["golden", "measure", "measure", "measure"]
        assert result.metrics["speed"] == 42.0

    def test_telemetry_snapshot_embedded_and_scoped(self):
        assert host_mod.active is None

        def measure(ctx):
            host_mod.active.metrics.counter("syn.touches").inc(3)
            with host_mod.active.span("syn.work"):
                pass
            return {"speed": 9.0}

        _, telemetry = run_gate(spec_of(measure, [check()]))
        assert host_mod.active is None  # capture did not leak
        assert telemetry.snapshot()["metrics"]["syn.touches"] == 3
        assert any(s.name == "syn.work" for s in telemetry.spans)

    def test_capture_host_false(self):
        _, telemetry = run_gate(
            spec_of(lambda ctx: {"speed": 9.0}, [check()]), capture_host=False
        )
        assert telemetry is None

    def test_to_json_and_render(self):
        result, _ = run_gate(
            spec_of(lambda ctx: {"speed": 9.0, "note": 1.0}, [check()])
        )
        assert result.informational == ("note",)
        text = result.render()
        assert "speed" in text and "(informational)" in text
        assert "ok (speed = 9" in text


class TestContext:
    def test_repo_discovery(self):
        """The package's own checkout, found without git."""
        ctx = GateContext()
        assert (ctx.repo / "tests/core/golden_scheme_times.json").exists()


class TestBuiltinRegistry:
    def test_the_five_legacy_guards_are_registered(self):
        assert gate_names() == [
            "contention-overhead",
            "exec-speedup",
            "kernel-speedup",
            "plan-speedup",
            "serve-throughput",
            "shm-overhead",
            "tracing-overhead",
        ]
        assert [s.name for s in all_gates()] == gate_names()

    def test_options_are_repeats_floors_and_the_tracing_base(self):
        """Workload sizes are constants and no gate compares revisions:
        a gate reads ``<ns>.repeats`` and its speed and latency floors."""
        keys = frozenset().union(*(spec.option_keys for spec in all_gates()))
        assert len(keys) == 15
        assert {key for key in keys if not key.endswith(".repeats")} == {
            "contention.max_overhead",
            "exec.min_cache_speedup",
            "exec.min_parallel_speedup",
            "kernels.min_gather_speedup",
            "plan.min_speedup",
            "serve.max_p99_seconds",
            "serve.min_dedup_rate",
            "shm.max_overhead",
        }
        assert {key for key in keys if key.startswith("tracing.")} == {"tracing.repeats"}

    def test_get_gate_unknown_lists_available(self):
        with pytest.raises(LookupError, match="kernel-speedup"):
            get_gate("definitely-not-a-gate")
