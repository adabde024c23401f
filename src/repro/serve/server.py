"""The daemon's HTTP surface: a hand-rolled asyncio HTTP/1.1 server.

Stdlib-only by design (``asyncio`` streams + JSON) — the repo adds no
runtime dependencies for serving.  The protocol subset is deliberately
small: one request per connection (``Connection: close``), JSON bodies,
and NDJSON streaming for job events.  Routes:

======  ==========================  =======================================
POST    ``/sweep``                  submit a sweep; ``?wait=1`` blocks
                                    until done and returns the full cells
GET     ``/jobs/<id>``              job snapshot (counts + cells)
GET     ``/jobs/<id>/events``       NDJSON event stream until terminal
GET     ``/cells/<digest>``         one persisted cell (``?salt=`` opt.)
GET     ``/stats``                  service + store statistics
GET     ``/healthz``                liveness probe
======  ==========================  =======================================

:class:`ServerThread` hosts the whole daemon (loop + server + service)
on a background thread — what the in-process tests and the perf gate
use; ``repro serve`` runs :class:`ReproServer` on the main thread
instead.
"""

from __future__ import annotations

import asyncio
import json
import threading
from time import perf_counter
from typing import Any
from urllib.parse import parse_qs, urlsplit

from ..obs import host as _host
from .protocol import ProtocolError, SweepRequest, check_salt
from .service import SweepService

__all__ = ["ReproServer", "ServerThread"]

#: Request bodies past this are rejected (413) before buffering.
MAX_BODY_BYTES = 8 << 20

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
}


def _head(status: int, content_type: str, length: int | None) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ReproServer:
    """One listening socket bound to one :class:`SweepService`."""

    def __init__(
        self,
        service: SweepService | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs: Any,
    ):
        self.service = service if service is not None else SweepService(**service_kwargs)
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None

    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError("server is not started")
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the socket and join the service's workers (call after
        the service has drained)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        begin = perf_counter()
        metrics = self.service.metrics
        metrics.counter("serve.requests").inc()
        try:
            method, target, body = await self._read_request(reader)
            await self._route(method, target, body, writer)
        except _HttpError as exc:
            await self._send_json(writer, exc.status, {"error": str(exc)})
        except ProtocolError as exc:
            await self._send_json(writer, exc.status, {"error": str(exc)})
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/-response
        except Exception as exc:  # noqa: BLE001 - daemon must not die per request
            metrics.counter("serve.request_errors").inc()
            try:
                await self._send_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except (ConnectionError, OSError):
                pass
        finally:
            elapsed = perf_counter() - begin
            metrics.histogram("serve.request_seconds", "latency").observe(elapsed)
            if _host.active is not None:
                _host.active.metrics.histogram(
                    "serve.request_seconds", "latency"
                ).observe(elapsed)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = -1
                if length < 0:
                    raise _HttpError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    # ------------------------------------------------------------------
    async def _route(
        self, method: str, target: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}

        if path == "/sweep":
            if method != "POST":
                raise _HttpError(405, "POST /sweep")
            await self._post_sweep(body, query, writer)
        elif path == "/stats":
            self._require_get(method, path)
            await self._send_json(writer, 200, self.service.stats())
        elif path == "/healthz":
            self._require_get(method, path)
            await self._send_json(writer, 200, {"status": "ok"})
        elif path.startswith("/jobs/"):
            self._require_get(method, path)
            await self._get_job(path, writer)
        elif path.startswith("/cells/"):
            self._require_get(method, path)
            digest = path[len("/cells/") :]
            salt = query.get("salt")
            if salt is not None:
                check_salt(salt)
            cell = self.service.read_cell(digest, salt=salt)
            if cell is None:
                raise _HttpError(404, f"no cached cell {digest!r}")
            await self._send_json(writer, 200, cell)
        else:
            raise _HttpError(404, f"no route for {path!r}")

    @staticmethod
    def _require_get(method: str, path: str) -> None:
        if method != "GET":
            raise _HttpError(405, f"GET {path}")

    async def _post_sweep(
        self, body: bytes, query: dict[str, str], writer: asyncio.StreamWriter
    ) -> None:
        try:
            data = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}") from None
        request = SweepRequest.from_json(data)
        job = self.service.submit(request)
        if query.get("wait") in ("1", "true"):
            await job.finished.wait()
            await self._send_json(writer, 200, job.snapshot(include_cells=True))
        else:
            await self._send_json(writer, 202, job.snapshot())

    async def _get_job(self, path: str, writer: asyncio.StreamWriter) -> None:
        rest = path[len("/jobs/") :]
        job_id, _, tail = rest.partition("/")
        job = self.service.registry.get(job_id)
        if job is None:
            raise _HttpError(404, f"no job {job_id!r}")
        if tail == "":
            await self._send_json(writer, 200, job.snapshot(include_cells=True))
        elif tail == "events":
            await self._stream_events(job, writer)
        else:
            raise _HttpError(404, f"no route for {path!r}")

    async def _stream_events(self, job, writer: asyncio.StreamWriter) -> None:
        """Replay the job's event log from the top, then follow it live
        until the terminal event — one JSON object per line."""
        writer.write(_head(200, "application/x-ndjson", None))
        await writer.drain()
        cursor = 0
        while True:
            batch, cursor = await job.next_events(cursor)
            if not batch:
                break
            for event in batch:
                writer.write(json.dumps(event).encode() + b"\n")
            await writer.drain()
            if job.terminal and cursor >= len(job.events):
                break

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: dict[str, Any]
    ) -> None:
        body = json.dumps(payload).encode()
        writer.write(_head(status, "application/json", len(body)))
        writer.write(body)
        await writer.drain()


class ServerThread:
    """A whole daemon on a background thread, for tests and in-process
    load generation::

        with ServerThread(store_root=tmp) as srv:
            result = submit_sweep(srv.url, "ideal", config)

    The context manager owns the event loop: jobs still running at exit
    are drained before the loop stops.
    """

    def __init__(
        self,
        service: SweepService | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs: Any,
    ):
        self._server = ReproServer(
            service, host=host, port=port, **service_kwargs
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def service(self) -> SweepService:
        return self._server.service

    @property
    def url(self) -> str:
        return self._server.url

    @property
    def port(self) -> int:
        assert self._server.port is not None
        return self._server.port

    # ------------------------------------------------------------------
    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._server.start())
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
            # stop() requested: finish in-flight jobs, close the socket.
            loop.run_until_complete(self.service.drain())
            loop.run_until_complete(self._server.stop())
        finally:
            loop.close()

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop = None
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
