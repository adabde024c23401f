"""Self-tests of the benchmark harness: ``python -m pytest bench -q``.

None of them runs a workload or imports the program.
"""

from __future__ import annotations

import json
import statistics
import sys
import types
from pathlib import Path

import pytest

import layers
import stats
from workloads import CELLS_PER_REQUEST, WORKLOADS, load_pins, serve_requests

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Summaries.
# ----------------------------------------------------------------------
def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, med, q3 = stats.quartiles(values)
    assert (q1, med, q3) == tuple(statistics.quantiles(values, n=4))
    assert med == statistics.median(values)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert stats.spread([7.0]) == 0.0
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_tail_keeps_at_least_ten_samples_beyond():
    # 120 requests: p90 has 12 beyond it, p95 only 6.
    assert stats.tail(list(range(1, 121))) == (90.0, 108)
    # 20 samples: only the median has ten beyond it.
    assert stats.tail(list(range(1, 21))) == (50.0, 10)
    assert stats.tail(list(range(1, 20))) is None


# ----------------------------------------------------------------------
# Self time and tiling.
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_spans():
    # Spans are listed as they end: children before their caller.
    spans = [("dt", 2.0, 5.0), ("mpi", 6.0, 7.0), ("sim", 0.0, 10.0)]
    own, covered = stats.self_times(spans, 0.0, 12.0)
    assert own == {"sim": 6.0, "dt": 3.0, "mpi": 1.0}
    assert covered == 10.0


def test_self_time_across_threads_and_equal_starts():
    # A kernel span on one thread; a task thread's call inside it, then
    # a callee that starts at the same instant as its caller.
    spans = [("net", 3.0, 3.5), ("mpi", 3.0, 4.0), ("sim", 1.0, 9.0)]
    own, covered = stats.self_times(spans, 0.0, 10.0)
    assert own == {"sim": 7.0, "mpi": 0.5, "net": 0.5}
    assert covered == 8.0


def test_self_time_clips_to_window():
    own, covered = stats.self_times([("store", -1.0, 2.0), ("exec", 8.0, 20.0)], 0.0, 10.0)
    assert own == {"store": 2.0, "exec": 2.0}
    assert covered == 4.0


def _trace(spans, counted=None, unmeasured=()):
    hooks = [[h.layer, h.name, h.target] for h in layers.HOOKS]
    index = {f"{h.layer}.{h.name}": i for i, h in enumerate(layers.HOOKS)}
    return {
        "hooks": hooks,
        "spans": [[index[k], a, b, 1, v] for k, a, b, v in spans],
        "counted": {str(index[k]): n for k, n in (counted or {}).items()},
        "suspended": {},
        "unmeasured": list(unmeasured),
    }


def test_layer_shares_and_other_tile_the_window():
    trace = _trace(
        [("dt.gather", 1.0, 2.0, 4_000_000_000), ("mpi.send", 3.0, 3.5, 0),
         ("net.solve", 3.1, 3.2, 0), ("sim.run", 0.5, 9.5, 1234),
         ("store.put", 9.6, 9.8, 0), ("exec.cell", 0.4, 9.9, 0)],
        counted={"sim.suspend": 100},
    )
    m = stats.layer_metrics(trace, 0.0, 10.0, served={"reused": 3})
    shares = [m[f"{layer}.self_pct"] for layer in stats.LAYERS]
    assert sum(shares) + m["other_pct"] == pytest.approx(100.0)
    assert m["other_pct"] == pytest.approx(5.0)
    assert m["sim.self_pct"] == pytest.approx(75.0)
    assert m["net.solve_pct"] == pytest.approx(1.0)
    assert m["mpi.self_pct"] == pytest.approx(4.0)
    assert m["exec.self_pct"] == pytest.approx(3.0)
    assert m["sim.us_per_suspend"] == pytest.approx(1e6 * 7.5 / 100)
    assert m["sim.events"] == 1234
    assert m["dt.gbps"] == pytest.approx(4.0)
    assert m["serve.cells_reused"] == 3 and m["serve.cells_deduped"] == 0
    assert m["trace.wall_s"] == 10.0


def test_layer_metrics_are_the_benchmark_per_layer_list():
    names = set(stats.layer_metrics(_trace([]), 0.0, 1.0)) | {"trace.overhead"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


# ----------------------------------------------------------------------
# compare verdicts.
# ----------------------------------------------------------------------
A = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]


@pytest.mark.parametrize(
    "b, better, expected",
    [
        ([x * 1.03 for x in A], "lower", stats.OK),
        ([x * 1.20 for x in A], "lower", stats.WORSE),
        ([x * 0.80 for x in A], "lower", stats.BETTER),
        ([x * 0.80 for x in A], "higher", stats.WORSE),
        ([0.7, 1.0, 1.3, 0.8, 1.2, 1.0], "lower", stats.UNRESOLVED),
        ([0.1, 0.5, 0.9, 0.2, 0.6, 0.3], "lower", stats.BETTER),
    ],
)
def test_verdicts(b, better, expected):
    assert stats.verdict(A, b, better, 0.10) == expected


def test_any_rise_in_fail_rate_is_worse():
    assert stats.fail_verdict(0.0, 0.001) == stats.WORSE
    assert stats.fail_verdict(0.0, 0.0) == stats.OK
    assert stats.fail_verdict(0.1, 0.0) == stats.BETTER


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------
def test_request_list_is_seeded():
    first = serve_requests(7)
    assert first == serve_requests(7)
    assert first != serve_requests(8)
    assert len(first) == 40
    # Same work at every seed: only the order of the pairs moves.
    canon = sorted(json.dumps(r, sort_keys=True) for r in first)
    assert canon == sorted(json.dumps(r, sort_keys=True) for r in serve_requests(8))
    for a, b in zip(first[::2], first[1::2]):
        assert a == b
        assert len(a["platforms"]) * len(a["sizes"]) * len(a["schemes"]) == CELLS_PER_REQUEST


def test_workloads_match_benchmark_json_and_pins():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert set(load_pins()) == set(WORKLOADS)


# ----------------------------------------------------------------------
# Hooks.
# ----------------------------------------------------------------------
@pytest.fixture
def fake_program():
    """``repro._bench_fake`` defines ``work`` and ``pause``;
    ``repro._bench_user`` imported ``work`` by value."""
    fake = types.ModuleType("repro._bench_fake")
    user = types.ModuleType("repro._bench_user")

    def pause():
        return None

    def work(n):
        return n

    def suspending(n):
        fake.pause()
        return n

    fake.work, fake.pause, fake.suspending = work, pause, suspending
    user.work = work
    sys.modules[fake.__name__] = fake
    sys.modules[user.__name__] = user
    yield fake, user
    del sys.modules[fake.__name__], sys.modules[user.__name__]


def test_missing_hook_reports_unmeasured(fake_program):
    fake, user = fake_program
    hooks = (
        layers.Hook("dt", "gather", "repro._bench_fake:work", value=layers._returned),
        layers.Hook("sim", "suspend", "repro._bench_fake:pause", counted=True),
        layers.Hook("mpi", "send", "repro._bench_fake:suspending"),
        layers.Hook("net", "solve", "repro._bench_fake:vanished"),
        layers.Hook("net", "flow", "repro._bench_fake:Gone.method"),
    )
    recorder = layers.install(hooks)
    assert recorder.unmeasured == ["repro._bench_fake:vanished", "repro._bench_fake:Gone.method"]
    assert fake.work(5) == 5 and user.work(7) == 7  # rebound in both modules
    assert fake.suspending(1) == 1
    data = recorder.to_json()
    assert [(s[0], s[4]) for s in data["spans"]] == [(0, 5), (0, 7)]
    # The call that suspended was counted, never timed.
    assert data["suspended"] == {2: 1} and data["counted"] == {1: 1}
