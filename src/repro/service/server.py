"""Asyncio HTTP/1.1 transport for the trajectory query service.

Stdlib-only by design: a small, strict subset of HTTP/1.1 (request line,
headers, ``Content-Length`` bodies, keep-alive) is all the JSON protocol
needs, and owning the framing keeps the dependency budget at zero.  The
interesting parts — routing, validation, batching, admission — live in
:class:`~repro.service.handlers.TrajectoryService`; this module only
moves bytes and manages server lifetime:

* :func:`run_server` — the blocking entry point behind
  ``repro-trajectory serve``.  Installs SIGTERM/SIGINT handlers (when
  the platform allows) that trigger a graceful drain: stop accepting,
  flush pending micro-batches, wait out in-flight work, exit.
* :class:`ServerHandle` — an in-process server on a background thread
  with its own event loop, used by the integration tests, the smoke
  script, and ``bench-serve``.  ``start()`` returns once the socket is
  bound (port 0 picks a free port); ``stop()`` performs the same
  graceful drain as SIGTERM.
"""

from __future__ import annotations

import asyncio
import errno
import json
import signal
import threading
from typing import Optional

from ..core.database import TrajectoryDatabase
from .config import ServiceConfig
from .handlers import TrajectoryService

__all__ = ["run_server", "ServerHandle", "PortInUseError"]

_MAX_REQUEST_LINE = 8192
_MAX_HEADER_COUNT = 100


class PortInUseError(OSError):
    """The configured service port is already bound by another process."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(
            f"cannot bind {host}:{port} — the port is already in use "
            "(stop the other process, or pass a different --port / port 0 "
            "for an ephemeral one)"
        )
        self.host = host
        self.port = port


def _response_bytes(
    status: int, payload: dict, extra_headers: dict, keep_alive: bool
) -> bytes:
    reasons = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        413: "Payload Too Large",
        500: "Internal Server Error",
        503: "Service Unavailable",
        504: "Gateway Timeout",
    }
    body = json.dumps(payload).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


async def _read_request(
    reader: asyncio.StreamReader, max_body: int
) -> Optional[tuple]:
    """One request off the wire: ``(method, path, body)``, or None on EOF.

    Raises ValueError on malformed framing (the connection is closed;
    a byte-level attacker gets no detailed feedback) and
    :class:`_BodyTooLarge` when Content-Length exceeds the cap.
    """
    request_line = await reader.readline()
    if not request_line:
        return None
    if len(request_line) > _MAX_REQUEST_LINE:
        raise ValueError("request line too long")
    parts = request_line.decode("ascii", "replace").split()
    if len(parts) != 3:
        raise ValueError("malformed request line")
    method, target, _version = parts

    headers = {}
    for _ in range(_MAX_HEADER_COUNT):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if len(line) > _MAX_REQUEST_LINE:
            raise ValueError("header line too long")
        name, _, value = line.decode("ascii", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ValueError("too many headers")

    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ValueError("bad Content-Length") from None
    if length < 0:
        raise ValueError("bad Content-Length")
    if length > max_body:
        raise _BodyTooLarge(length)
    body = await reader.readexactly(length) if length else b""
    close_requested = headers.get("connection", "").lower() == "close"
    return method.upper(), target, body, close_requested


class _BodyTooLarge(Exception):
    def __init__(self, length: int) -> None:
        super().__init__(f"request body of {length} bytes exceeds the limit")


async def _handle_connection(
    service: TrajectoryService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                request = await _read_request(
                    reader, service.config.max_body_bytes
                )
            except _BodyTooLarge as error:
                writer.write(
                    _response_bytes(413, {"error": str(error)}, {}, False)
                )
                await writer.drain()
                break
            except (ValueError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                break
            if request is None:
                break
            method, target, body, close_requested = request
            status, payload, extra = await service.handle(method, target, body)
            keep_alive = not close_requested
            writer.write(_response_bytes(status, payload, extra, keep_alive))
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _serve(
    database: TrajectoryDatabase,
    config: ServiceConfig,
    *,
    box: Optional[dict] = None,
    started: Optional[threading.Event] = None,
    install_signals: bool = False,
    announce: bool = False,
    warm: bool = True,
) -> None:
    """Run the service until its stop event fires, then drain gracefully."""
    service = TrajectoryService(database, config)
    if warm:
        report = service.warm()
        if announce:
            total = sum(report.values())
            print(f"warmed {len(report)} artifact(s) in {total:.2f}s")

    connections: set = set()

    async def connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connections.add(writer)
        try:
            await _handle_connection(service, reader, writer)
        finally:
            connections.discard(writer)

    try:
        server = await asyncio.start_server(connection, config.host, config.port)
    except OSError as error:
        service.close()
        if error.errno == errno.EADDRINUSE:
            raise PortInUseError(config.host, config.port) from None
        raise
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    port = server.sockets[0].getsockname()[1]
    if service.fleet is not None:
        # Respawns are scheduled onto the serving loop; tell the fleet
        # which loop that is before the first failure can happen.
        service.fleet.bind_loop(loop)
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
    if box is not None:
        box.update(
            service=service, loop=loop, stop_event=stop_event, port=port
        )
    if started is not None:
        started.set()
    if announce:
        fleet_note = (
            f" across {config.replicas} replicas" if config.replicas > 1 else ""
        )
        print(f"serving {len(service.database)} trajectories{fleet_note} on "
              f"http://{config.host}:{port} (Ctrl-C or SIGTERM to drain)")
    follow_task = None
    if config.follow:

        async def follow() -> None:
            # Poll the ingest root; a detected change schedules a hot
            # swap on the dispatch worker (serialized with queries).
            while not stop_event.is_set():
                try:
                    service.reload_if_changed()
                except Exception:  # noqa: BLE001 - keep polling
                    pass
                await asyncio.sleep(config.follow_poll_s)

        follow_task = asyncio.ensure_future(follow())
    try:
        await stop_event.wait()
    finally:
        if follow_task is not None:
            follow_task.cancel()
            try:
                await follow_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        # Graceful drain: stop accepting, then flush and wait out work.
        service.begin_drain()
        server.close()
        await server.wait_closed()
        drained = await service.drain()
        # Nudge idle keep-alive connections shut so their handler tasks
        # exit cleanly before the event loop is torn down.
        for writer in list(connections):
            writer.close()
        for _ in range(200):
            if not connections:
                break
            await asyncio.sleep(0.01)
        service.close()
        if announce:
            print("drained cleanly" if drained else "drain timed out")


def run_server(
    database: TrajectoryDatabase,
    config: ServiceConfig,
    *,
    announce: bool = True,
) -> None:
    """Blocking server entry point (the ``serve`` CLI command).

    Returns after a graceful drain triggered by SIGTERM or SIGINT.
    """
    asyncio.run(
        _serve(database, config, install_signals=True, announce=announce)
    )


class ServerHandle:
    """An in-process server on a daemon thread, for tests and benchmarks.

    Usage::

        with ServerHandle.start(database, ServiceConfig(port=0)) as handle:
            client = ServiceClient(handle.host, handle.port)
            ...

    ``stop()`` (also called on context exit) performs the same graceful
    drain as SIGTERM and joins the thread.
    """

    def __init__(
        self,
        thread: threading.Thread,
        box: dict,
        host: str,
    ) -> None:
        self._thread = thread
        self._box = box
        self.host = host
        self.port: int = box["port"]
        self.service: TrajectoryService = box["service"]

    @classmethod
    def start(
        cls,
        database: TrajectoryDatabase,
        config: ServiceConfig,
        *,
        warm: bool = True,
        timeout: float = 30.0,
    ) -> "ServerHandle":
        box: dict = {}
        started = threading.Event()
        failure: dict = {}

        def runner() -> None:
            try:
                asyncio.run(
                    _serve(
                        database, config, box=box, started=started, warm=warm
                    )
                )
            except BaseException as error:  # surfaced to the caller
                failure["error"] = error
                started.set()

        thread = threading.Thread(
            target=runner, name="repro-service", daemon=True
        )
        thread.start()
        if not started.wait(timeout):
            raise TimeoutError("service did not start in time")
        if "error" in failure:
            raise failure["error"]
        return cls(thread, box, config.host)

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = 30.0) -> None:
        loop = self._box.get("loop")
        stop_event = self._box.get("stop_event")
        if loop is not None and stop_event is not None and self._thread.is_alive():
            loop.call_soon_threadsafe(stop_event.set)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
