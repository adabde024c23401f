"""The serve client: submit sweeps to a daemon, get local-identical results.

``repro sweep --submit URL`` routes through :func:`submit_sweep`: the
client compiles the *same* spec grid locally that the daemon compiles
remotely (both call :func:`~repro.core.runner.sweep_specs`), streams the
job's NDJSON events for live progress, decodes each cell's raw hex
times, and reconstitutes measurements through
:meth:`~repro.exec.CellSpec.to_result` — the identical pure function a
local run uses.  The resulting :class:`~repro.core.results.SweepResult`
is bit-identical to ``run_sweep`` on the same grid, so every downstream
table, figure, and claim renders the same bytes either way.

Stdlib-only transport (``http.client``).
"""

from __future__ import annotations

import json
from http.client import HTTPConnection
from typing import Any, Iterator

from ..core.results import Measurement, SweepResult
from ..core.runner import ProgressFn, sweep_metadata, sweep_specs
from ..core.sweep import SweepConfig
from ..core.layout import strided_for_bytes
from ..machine.platform import Platform
from ..machine.registry import get_platform
from .protocol import PlatformSpec, ProtocolError, SweepRequest, decode_outcome

__all__ = ["ServeClient", "ServeError", "submit_sweep", "remote_runner"]


class ServeError(RuntimeError):
    """The daemon rejected or failed a request."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ServeClient:
    """Thin JSON-over-HTTP client for one daemon URL."""

    def __init__(self, url: str, *, timeout: float = 600.0):
        url = url.rstrip("/")
        if url.startswith("http://"):
            url = url[len("http://") :]
        elif "://" in url:
            raise ServeError(f"only http:// daemons are supported, got {url!r}")
        host, _, port = url.partition(":")
        self.host = host or "127.0.0.1"
        self.port = int(port) if port else 80
        self.timeout = timeout

    def _connection(self) -> HTTPConnection:
        return HTTPConnection(self.host, self.port, timeout=self.timeout)

    # ------------------------------------------------------------------
    def request_json(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """One request/response cycle; raises :class:`ServeError` on any
        non-2xx status (carrying the daemon's error message)."""
        conn = self._connection()
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            text = response.read().decode()
            data = json.loads(text) if text else {}
            if not 200 <= response.status < 300:
                message = data.get("error", text) if isinstance(data, dict) else text
                raise ServeError(
                    f"{method} {path} -> {response.status}: {message}",
                    status=response.status,
                )
            return data
        except OSError as exc:
            raise ServeError(
                f"cannot reach daemon at {self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            conn.close()

    def submit(self, request: SweepRequest) -> dict[str, Any]:
        return self.request_json("POST", "/sweep", request.to_json())

    def job(self, job_id: str) -> dict[str, Any]:
        return self.request_json("GET", f"/jobs/{job_id}")

    def stats(self) -> dict[str, Any]:
        return self.request_json("GET", "/stats")

    def cell(self, digest: str) -> dict[str, Any]:
        return self.request_json("GET", f"/cells/{digest}")

    def healthy(self) -> bool:
        try:
            return self.request_json("GET", "/healthz").get("status") == "ok"
        except ServeError:
            return False

    # ------------------------------------------------------------------
    def stream_events(self, job_id: str) -> Iterator[dict[str, Any]]:
        """The job's NDJSON events, replayed then followed live until
        the terminal ``done``/``error`` event."""
        conn = self._connection()
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                text = response.read().decode()
                raise ServeError(
                    f"GET /jobs/{job_id}/events -> {response.status}: {text}",
                    status=response.status,
                )
            for raw in response:
                line = raw.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ServeError(f"malformed event line: {exc}") from None
        except OSError as exc:
            raise ServeError(f"event stream dropped: {exc}") from exc
        finally:
            conn.close()


# ----------------------------------------------------------------------
# The sweep-shaped front door.
# ----------------------------------------------------------------------
def _request_for(platform: Platform, config: SweepConfig) -> SweepRequest:
    """Translate a local (platform, config) pair into the wire form,
    refusing anything the protocol cannot carry faithfully."""
    if config.layout_factory is not strided_for_bytes:
        raise ProtocolError(
            "only the default strided layout factory can be submitted to a "
            f"daemon (got {config.layout_factory_id}); run locally instead"
        )
    try:
        registered = get_platform(platform.name)
    except KeyError:
        raise ProtocolError(
            f"platform {platform.name!r} is not in the registry; a daemon "
            "can only serve registry platforms"
        ) from None
    if registered.fingerprint() != platform.fingerprint():
        raise ProtocolError(
            f"local platform {platform.name!r} differs from the registry "
            "definition (custom tuning/noise?); the daemon would price "
            "different cells — run locally instead"
        )
    return SweepRequest(
        platforms=(PlatformSpec(name=platform.name),),
        sizes=tuple(config.sizes),
        schemes=tuple(config.schemes),
        iterations=config.policy.iterations,
        flush=config.policy.flush,
        flush_bytes=config.policy.flush_bytes,
        dismiss_sigma=config.policy.dismiss_sigma,
        materialize_limit=config.materialize_limit,
        concurrent_streams=config.concurrent_streams,
    )


def submit_sweep(
    url: str,
    platform: Platform | str,
    config: SweepConfig | None = None,
    *,
    progress: ProgressFn | None = None,
    timeout: float = 600.0,
) -> SweepResult:
    """Run one sweep on the daemon at ``url``; bit-identical to
    :func:`~repro.core.runner.run_sweep` on the same grid.

    ``progress(scheme, message_bytes, time)`` fires per cell in daemon
    completion order, exactly like the local executor's callback.
    """
    if isinstance(platform, str):
        platform = get_platform(platform)
    config = config or SweepConfig()
    request = _request_for(platform, config)
    specs = sweep_specs(platform, config)
    by_digest = {spec.digest: spec for spec in specs}

    client = ServeClient(url, timeout=timeout)
    accepted = client.submit(request)
    job_id = accepted["job"]

    outcomes: dict[str, tuple[Any, str]] = {}
    for event in client.stream_events(job_id):
        kind = event.get("event")
        if kind == "cell":
            digest = event["digest"]
            spec = by_digest.get(digest)
            if spec is None:
                continue  # another platform's cell (not ours to decode)
            outcome = decode_outcome(event)
            outcomes[digest] = (outcome, event.get("source", "recomputed"))
            if progress is not None:
                cell = spec.to_result(outcome, cached=True)
                progress(cell.scheme, cell.message_bytes, cell.time)
        elif kind == "error":
            raise ServeError(
                f"job {job_id} failed: {event.get('error', 'unknown error')}"
            )

    missing = [d for d in by_digest if d not in outcomes]
    if missing:
        # The stream can drop on flaky transports; the job snapshot is
        # the durable record.
        snapshot = client.job(job_id)
        if snapshot.get("status") != "done":
            raise ServeError(
                f"job {job_id} ended in state {snapshot.get('status')!r}: "
                f"{snapshot.get('error', '')}"
            )
        cells = snapshot.get("cells", {})
        for digest in missing:
            if digest not in cells:
                raise ServeError(f"job {job_id} is missing cell {digest}")
            cell = cells[digest]
            outcomes[digest] = (
                decode_outcome(cell),
                cell.get("source", "recomputed"),
            )

    result = SweepResult(
        platform=platform.name,
        metadata=sweep_metadata(platform, config),
    )
    for spec in specs:
        outcome, source = outcomes[spec.digest]
        cell = spec.to_result(outcome, cached=source != "recomputed")
        result.add(
            Measurement(
                scheme=cell.scheme,
                label=cell.label,
                message_bytes=cell.message_bytes,
                time=cell.time,
                min_time=cell.stats.minimum,
                max_time=cell.stats.maximum,
                std=cell.stats.std,
                dismissed=cell.stats.dismissed,
                verified=cell.verified,
            )
        )
    return result


def remote_runner(url: str, *, timeout: float = 600.0):
    """A drop-in ``run_sweep`` replacement bound to a daemon — what
    ``repro figure --submit URL`` passes to ``generate_figure``."""

    def runner(
        platform: Platform | str,
        config: SweepConfig | None = None,
        *,
        progress: ProgressFn | None = None,
        executor: Any = None,  # accepted for signature parity; unused remotely
    ) -> SweepResult:
        return submit_sweep(url, platform, config, progress=progress, timeout=timeout)

    return runner
