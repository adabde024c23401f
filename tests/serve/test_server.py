"""The daemon's HTTP surface and the client against a live
:class:`ServerThread` — routes, errors, streaming, and the
``submit_sweep`` bit-identity contract."""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.core.runner import run_sweep
from repro.core.sweep import SweepConfig
from repro.core.timing import TimingPolicy
from repro.exec import Executor, ResultStore, WorkerPool
from repro.machine.fingerprint import MODEL_VERSION
from repro.serve import ServeClient, ServeError, ServerThread, submit_sweep
from repro.serve.server import MAX_BODY_BYTES


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    with ServerThread(store_root=tmp_path_factory.mktemp("serve-store")) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServeClient(server.url, timeout=60.0)


def sweep_body(**overrides) -> dict:
    body = {
        "platforms": ["ideal"],
        "sizes": [2048],
        "schemes": ["copying", "reference"],
        "policy": {"iterations": 2, "flush": False},
    }
    body.update(overrides)
    return body


def quick_config() -> SweepConfig:
    return SweepConfig(
        sizes=(2048, 8192),
        schemes=("copying", "reference", "vector"),
        policy=TimingPolicy(iterations=2, flush=False),
    )


# ----------------------------------------------------------------------
# Routes and errors
# ----------------------------------------------------------------------
def test_healthz(client):
    assert client.healthy()


def test_unknown_route_is_404(client):
    with pytest.raises(ServeError) as info:
        client.request_json("GET", "/nope")
    assert info.value.status == 404


def test_wrong_method_is_405(client):
    with pytest.raises(ServeError) as info:
        client.request_json("GET", "/sweep")
    assert info.value.status == 405
    with pytest.raises(ServeError) as info:
        client.request_json("POST", "/stats", {})
    assert info.value.status == 405


def test_invalid_json_body_is_400(server):
    conn = HTTPConnection(server._server.host, server.port, timeout=30)
    try:
        conn.request(
            "POST", "/sweep", body=b"{ not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "not valid JSON" in payload["error"]
    finally:
        conn.close()


def test_protocol_violation_is_400_with_the_message(client):
    with pytest.raises(ServeError) as info:
        client.request_json("POST", "/sweep", sweep_body(schemes=["warp-drive"]))
    assert info.value.status == 400
    assert "unknown scheme" in str(info.value)


def test_oversized_body_is_413(server):
    conn = HTTPConnection(server._server.host, server.port, timeout=30)
    try:
        conn.putrequest("POST", "/sweep")
        conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 413
    finally:
        conn.close()


def test_negative_content_length_is_400(server):
    errors = server.service.metrics.counter_value("serve.request_errors")
    conn = HTTPConnection(server._server.host, server.port, timeout=30)
    try:
        conn.putrequest("POST", "/sweep")
        conn.putheader("Content-Length", "-5")
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["error"] == "bad Content-Length"
    finally:
        conn.close()
    # A bad request, not a daemon fault.
    assert server.service.metrics.counter_value("serve.request_errors") == errors


def test_unknown_job_is_404(client):
    with pytest.raises(ServeError) as info:
        client.request_json("GET", "/jobs/job-9999")
    assert info.value.status == 404


def test_missing_cell_is_404(client):
    with pytest.raises(ServeError) as info:
        client.cell("0" * 64)
    assert info.value.status == 404


def test_traversal_salt_is_refused_and_touches_nothing_outside_the_root(tmp_path):
    """A salt is no longer a path: a ``POST`` naming another model is a
    409, a ``?salt=`` query is ignored, and no request serves, moves or
    creates anything outside the daemon's own generation."""
    digest = "ab" + "0" * 62
    sharded = tmp_path / "victim" / "ab" / f"{digest}.json"
    sharded.parent.mkdir(parents=True)
    sharded.write_text('{"outside": 1}')
    root = tmp_path / "root"
    root.mkdir()
    with ServerThread(store_root=root) as srv:
        client = ServeClient(srv.url, timeout=60.0)
        with pytest.raises(ServeError) as info:
            client.request_json("POST", "/sweep?wait=1", sweep_body(salt="../victim"))
        assert info.value.status == 409
        with pytest.raises(ServeError) as info:
            client.request_json("GET", f"/cells/{digest}?salt=../victim")
        assert info.value.status == 404
        client.request_json("POST", "/sweep?wait=1", sweep_body(sizes=[1024]))
    assert sharded.read_text() == '{"outside": 1}'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["root", "victim"]
    assert [p.name for p in root.iterdir() if p.is_dir()] == [MODEL_VERSION]


# ----------------------------------------------------------------------
# The happy path
# ----------------------------------------------------------------------
def test_submit_then_poll_then_stream_then_fetch_cells(client):
    accepted = client.request_json("POST", "/sweep", sweep_body())
    assert accepted["total"] == 2
    job_id = accepted["job"]

    # The NDJSON stream replays from the top and ends on the terminal
    # event; every cell crosses exactly once.
    events = list(client.stream_events(job_id))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "job" and kinds[-1] == "done"
    cells = [e for e in events if e["event"] == "cell"]
    assert len(cells) == 2 and cells[-1]["completed"] == 2

    snapshot = client.job(job_id)
    assert snapshot["status"] == "done"
    assert snapshot["completed"] == snapshot["total"] == 2
    assert set(snapshot["cells"]) == {c["digest"] for c in cells}

    # Each persisted cell is individually addressable.
    for digest in snapshot["cells"]:
        cell = client.cell(digest)
        assert cell is not None

    stats = client.stats()
    assert stats["jobs"]["done"] >= 1
    assert stats["cells"]["served"] >= 2


def test_wait_query_returns_the_finished_job(client):
    done = client.request_json("POST", "/sweep?wait=1", sweep_body(sizes=[4096]))
    assert done["status"] == "done"
    assert len(done["cells"]) == done["total"] == 2
    # A repeat of the same grid is served from the store.
    again = client.request_json("POST", "/sweep?wait=1", sweep_body(sizes=[4096]))
    assert again["reused"] == 2 and again["recomputed"] == 0


def test_an_unflipped_perturbation_is_served_equivalent(client):
    """ideal's 1000 B limit and a 5000 B one both send 12,288 B by
    rendezvous: the perturbed grid comes back ``equivalent``, and each
    of its cells is stored under its own digest."""
    client.request_json("POST", "/sweep?wait=1", sweep_body(sizes=[12288]))
    perturbed = client.request_json(
        "POST",
        "/sweep?wait=1",
        sweep_body(platforms=[{"name": "ideal", "eager_limit": 5000}], sizes=[12288]),
    )
    assert (perturbed["equivalent"], perturbed["recomputed"]) == (2, 0)
    for digest, cell in perturbed["cells"].items():
        assert cell["source"] == "equivalent"
        stored = client.cell(digest)
        assert stored["times_hex"] == cell["times_hex"]
        assert stored["virtual_time_hex"] == cell["virtual_time_hex"]


def test_served_sweep_is_bit_identical_to_local(server):
    config = quick_config()
    served = submit_sweep(server.url, "ideal", config)
    local = run_sweep("ideal", config)
    assert served.platform == local.platform
    assert served.metadata == local.metadata
    assert served.measurements == local.measurements


def test_submit_sweep_reports_progress_in_completion_order(server):
    seen = []
    config = quick_config()
    submit_sweep(
        server.url, "ideal", config,
        progress=lambda scheme, size, t: seen.append((scheme, size, t)),
    )
    assert len(seen) == 6
    assert {s for s, _, _ in seen} == {"copying", "reference", "vector"}


def test_event_stream_ends_although_a_worker_forked_during_it(tmp_path):
    """The daemon forks its worker pool at the first parallel batch,
    and the workers inherit every connection open at that moment.  The
    event stream must still end at the terminal event."""
    gate = threading.Event()
    pool = WorkerPool(2)

    class GatedExecutor(Executor):
        def execute_batch(self, specs, *, on_outcome=None):
            assert gate.wait(timeout=30), "test gate never released"
            return super().execute_batch(specs, on_outcome=on_outcome)

    def factory(store):
        return GatedExecutor(jobs=2, cache=store, pool=pool)

    try:
        with ServerThread(store_root=tmp_path, executor_factory=factory) as srv:
            client = ServeClient(srv.url, timeout=20.0)
            job = client.request_json("POST", "/sweep", sweep_body(sizes=[1024, 2048]))
            events = client.stream_events(job["job"])
            assert next(events)["event"] == "job"
            gate.set()  # the pool forks while this stream is open
            rest = [event["event"] for event in events]
        assert rest[-1] == "done" and rest.count("cell") == 4
        # The daemon's store (open before the fork) persisted them all.
        assert ResultStore(tmp_path).stats().entries == 4
    finally:
        pool.close()


def test_sigterm_drains_the_daemon_and_joins_its_workers(tmp_path):
    """SIGTERM takes Ctrl-C's shutdown path: the daemon exits 0, and the
    workers it forked for a parallel batch exit with it instead of
    living on under PID 1."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), REPRO_CACHE_DIR=str(tmp_path / "store"))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    workers: list[int] = []
    try:
        line = daemon.stdout.readline()
        assert line.startswith("serving on "), line
        client = ServeClient(line.split()[-1], timeout=60.0)
        done = client.request_json("POST", "/sweep?wait=1", sweep_body(sizes=[1024, 2048]))
        assert done["status"] == "done" and done["recomputed"] == 4
        workers = [
            int(pid)
            for children in Path(f"/proc/{daemon.pid}/task").glob("*/children")
            for pid in children.read_text().split()
        ]
        assert len(workers) == 2
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=10) == 0
        assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]
    finally:
        if daemon.poll() is None:
            daemon.kill()
        daemon.wait()
        daemon.stdout.close()
        for pid in workers:  # orphans a failed shutdown left behind
            if Path(f"/proc/{pid}").exists():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


def test_client_refuses_unreachable_daemon():
    client = ServeClient("http://127.0.0.1:9", timeout=2.0)
    assert not client.healthy()
    with pytest.raises(ServeError, match="cannot reach daemon"):
        client.request_json("GET", "/stats")


def test_client_rejects_non_http_urls():
    with pytest.raises(ServeError, match="http"):
        ServeClient("https://example.com")
