"""Host-telemetry tests: recording, lanes, the ambient capture, the
zero-cost-when-off contract (counted at the ``_now`` clock funnel), and
the Chrome host-lane export."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.core import TimingPolicy, strided_for_bytes
from repro.exec import CellSpec, Executor, ResultStore
from repro.obs import (
    HostTelemetry,
    host_chrome_trace,
    host_trace_events,
    validate_chrome_trace,
)
from repro.obs import host as host_mod
from repro.obs.export import _validate_structurally


@pytest.fixture(autouse=True)
def _no_ambient_capture():
    """Every test starts (and ends) with telemetry off."""
    host_mod.disable()
    yield
    host_mod.disable()


class TestRecording:
    def test_event_carries_provenance(self):
        t = HostTelemetry()
        ev = t.event("chunk.dispatch", chunk=3, cells=17)
        assert ev.name == "chunk.dispatch"
        assert ev.lane == "main"
        assert ev.pid == os.getpid()
        assert ev.tid == threading.get_ident()
        assert ev.fields == {"chunk": 3, "cells": 17}
        assert t.events == [ev]
        assert ev.time >= t.origin

    def test_span_context_manager_measures(self):
        t = HostTelemetry()
        with t.span("work", scheme="vector"):
            pass
        (span,) = t.spans
        assert span.name == "work"
        assert span.lane == "main"
        assert span.end >= span.begin
        assert span.duration == span.end - span.begin
        assert span.fields == {"scheme": "vector"}

    def test_add_span_accepts_worker_provenance(self):
        """Workers time their own chunks and ship (pid, begin, end)
        back; the parent lands them on a worker lane."""
        t = HostTelemetry()
        span = t.add_span(
            "worker.chunk", 1.0, 2.5, lane="worker-4242", pid=4242, cells=8
        )
        assert span.pid == 4242
        assert span.lane == "worker-4242"
        assert span.duration == pytest.approx(1.5)

    def test_lanes_main_first_then_sorted(self):
        t = HostTelemetry()
        t.add_span("w", 0.0, 1.0, lane="worker-9")
        t.add_span("w", 0.0, 1.0, lane="worker-10")
        with t.span("s"):
            pass
        assert t.lanes()[0] == "main"
        assert t.lanes() == ["main", "worker-10", "worker-9"]

    def test_busy_seconds_sums_per_lane(self):
        t = HostTelemetry()
        t.add_span("a", 0.0, 1.0, lane="worker-1")
        t.add_span("b", 2.0, 2.5, lane="worker-1")
        t.add_span("c", 0.0, 4.0, lane="worker-2")
        busy = t.busy_seconds()
        assert busy["worker-1"] == pytest.approx(1.5)
        assert busy["worker-2"] == pytest.approx(4.0)

    def test_snapshot_is_plain_data(self):
        t = HostTelemetry()
        with t.span("s"):
            t.metrics.counter("exec.chunks_completed").inc(2)
        t.event("mark")
        snap = t.snapshot()
        assert snap["pid"] == os.getpid()
        assert snap["spans"] == 1 and snap["events"] == 1
        assert snap["lanes"]["main"]["spans"] == 1
        assert snap["lanes"]["main"]["busy_seconds"] >= 0.0
        assert snap["metrics"]["exec.chunks_completed"] == 2
        json.dumps(snap)  # must serialize as-is

    def test_off_main_thread_gets_its_own_lane(self):
        t = HostTelemetry()
        result: list[str] = []

        def worker():
            result.append(t.event("tick").lane)

        th = threading.Thread(target=worker)
        th.start()
        th.join()
        assert result[0].startswith("thread-")


class TestAmbientCapture:
    def test_enable_disable_roundtrip(self):
        assert host_mod.host_telemetry() is None
        t = host_mod.enable()
        assert host_mod.active is t and host_mod.host_telemetry() is t
        assert host_mod.disable() is t
        assert host_mod.active is None

    def test_capturing_restores_previous_state(self):
        outer = host_mod.enable()
        with host_mod.capturing() as inner:
            assert host_mod.active is inner and inner is not outer
        assert host_mod.active is outer
        host_mod.disable()
        with host_mod.capturing():
            pass
        assert host_mod.active is None

    def test_capturing_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with host_mod.capturing():
                raise RuntimeError("boom")
        assert host_mod.active is None


class TestZeroCostWhenOff:
    """The structural half of the tracing-overhead gate, in-process:
    with telemetry off, instrumented code must never touch the clock."""

    def _run_instrumented_workload(self, tmp_path, ideal):
        spec = CellSpec(
            scheme="copying",
            layout=strided_for_bytes(2_048),
            platform=ideal,
            policy=TimingPolicy(iterations=1, flush=False),
            materialize=False,
        )
        Executor(cache=ResultStore(tmp_path)).run_batch([spec])

    def test_disabled_run_never_reads_the_clock(self, tmp_path, ideal, monkeypatch):
        calls = [0]
        real_now = host_mod._now

        def counting_now():
            calls[0] += 1
            return real_now()

        monkeypatch.setattr(host_mod, "_now", counting_now)
        assert host_mod.active is None
        self._run_instrumented_workload(tmp_path / "off", ideal)
        assert calls[0] == 0, "telemetry-off path must not call perf_counter"

    def test_enabled_run_records_spans_and_metrics(self, tmp_path, ideal):
        with host_mod.capturing() as t:
            self._run_instrumented_workload(tmp_path / "on", ideal)
        assert any(s.name == "cell.execute" for s in t.spans)
        snap = t.snapshot()["metrics"]
        assert snap.get("store.misses", 0) == 1
        assert snap.get("store.writes", 0) == 1


class TestHostChromeExport:
    def _capture(self):
        t = HostTelemetry()
        base = t.origin
        t.add_span("worker.chunk", base + 0.001, base + 0.002, lane="worker-7", pid=7)
        with t.span("cell.execute", scheme="vector"):
            pass
        t.event("chunk.dispatch", chunk=0, cells=4)
        t.event("exec.queue_depth", depth=3)
        return t

    def test_single_capture_document_validates(self):
        doc = host_chrome_trace(self._capture())
        validate_chrome_trace(doc)
        _validate_structurally(doc)

    def test_lanes_become_named_threads(self):
        doc = host_chrome_trace(self._capture())
        thread_names = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert set(thread_names) == {"main", "worker-7"}
        # "main" is lane 0; every non-metadata event lands on a known tid
        assert thread_names["main"] == 0
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert tids <= set(thread_names.values())

    def test_spans_events_and_counters_map_to_phases(self):
        events = host_trace_events(self._capture())
        phases = {}
        for e in events:
            phases.setdefault(e["ph"], []).append(e)
        assert len(phases["X"]) == 2  # worker chunk + cell.execute
        assert len(phases["i"]) == 1  # chunk.dispatch instant
        (counter,) = phases["C"]  # queue depth series
        assert counter["name"] == "queue depth"
        assert counter["args"] == {"pending_chunks": 3}
        assert all(e["ts"] >= 0.0 for e in events if "ts" in e)

    def test_multi_section_export_gets_one_process_per_gate(self):
        doc = host_chrome_trace(
            [("gate a", self._capture()), ("gate b", self._capture())]
        )
        validate_chrome_trace(doc)
        process_names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert process_names == {"gate a", "gate b"}
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert len(pids) == 2

    def test_combined_with_virtual_time_trace(self, ideal):
        """``chrome_trace(..., host=...)`` appends the host lanes to a
        virtual-time document as a separate process."""
        from repro.core import run_pingpong
        from repro.obs import chrome_trace

        result = run_pingpong(
            "copying",
            strided_for_bytes(2_048),
            ideal,
            policy=TimingPolicy(iterations=1, flush=False),
            materialize=False,
            trace=True,
        )
        doc = chrome_trace(result.tracer, host=self._capture())
        validate_chrome_trace(doc)
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert len(pids) == 2
