"""Hand-rolled HTTP/1.1 on asyncio streams (stdlib only).

Implements exactly the subset the allocation service needs: GET and
POST, ``Content-Length`` bodies, persistent connections (HTTP/1.1
keep-alive semantics, honouring ``Connection: close``), and bounded
request sizes.  No ``http.server``, no chunked transfer, no TLS — the
service is an internal tier behind whatever terminates the edge.

The server is handler-agnostic: one async callable maps
:class:`HttpRequest` to :class:`HttpResponse`.  Handler exceptions
become opaque 500s (the traceback stays server-side); protocol
violations become 400/405/413/414/431 and close the connection.

The client side is :class:`HttpConnection`, the one keep-alive
exchange the async service client and the cluster's shard pools
share.  Both directions read heads through :func:`read_headers` and
:func:`content_length`, so a non-numeric or negative
``Content-Length`` is a 400 from the server and a ``ConnectionError``
(connection closed) on the client.  :class:`HttpFrontDoor` is the
run/drain/signal lifecycle of the service server and the cluster
coordinator.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Awaitable,
    Callable,
    Dict,
    Optional,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    from .protocol import ServiceFault

#: Streams read limit — also bounds the request line and each header.
_READ_LIMIT = 64 * 1024
_MAX_HEADERS = 100

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class HttpRequest:
    method: str
    target: str
    headers: Dict[str, str]
    body: bytes

    def json(self):
        """Decoded JSON body; raises ``ValueError`` on malformed UTF-8
        or JSON (the handler maps it to 400)."""
        return json.loads(self.body.decode("utf-8"))


@dataclass
class HttpResponse:
    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    close: bool = False


def json_response(
    status: int, payload, headers: Optional[Dict[str, str]] = None
) -> HttpResponse:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return HttpResponse(status, body, headers=dict(headers or {}))


class ProtocolError(ValueError):
    """A malformed HTTP message: the server answers ``status`` and
    closes; the client side reports it as ``ConnectionError``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(
    reader: asyncio.StreamReader, status: int, what: str
) -> bytes:
    """One line; past ``_READ_LIMIT`` a :class:`ProtocolError` with
    ``status`` (the stream raises a bare ``ValueError`` there)."""
    try:
        return await reader.readline()
    except ValueError:
        raise ProtocolError(
            status, f"{what} exceeds {_READ_LIMIT} bytes"
        ) from None


async def read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    """Header lines up to the blank line, names lower-cased.

    Raises :class:`ProtocolError` (431 past ``_MAX_HEADERS`` or on an
    over-long line, 400 on a line without a colon) and
    ``ConnectionError`` on EOF mid-headers.
    """
    headers: Dict[str, str] = {}
    for count in range(_MAX_HEADERS + 1):
        line = await _read_line(reader, 431, "header line")
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ConnectionError("connection closed mid-headers")
        if count == _MAX_HEADERS:
            raise ProtocolError(431, "too many headers")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise ProtocolError(400, "malformed header")
        headers[name.strip().lower()] = value.strip()
    return headers


def content_length(headers: Dict[str, str]) -> int:
    """The ``Content-Length`` body size (0 when absent); raises
    :class:`ProtocolError` when it is non-numeric or negative."""
    text = headers.get("content-length")
    if text is None:
        return 0
    try:
        length = int(text)
    except ValueError:
        raise ProtocolError(400, "malformed Content-Length") from None
    if length < 0:
        raise ProtocolError(400, "negative Content-Length")
    return length


class AsyncHttpServer:
    """One listening socket, one handler, tracked connections."""

    def __init__(
        self,
        handler: Callable[[HttpRequest], Awaitable[HttpResponse]],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_body_bytes: int = 1 << 20,
    ) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self.active_requests = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self.port,
            limit=_READ_LIMIT,
        )
        # Ephemeral port (port=0) resolves at bind time.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop_accepting(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def close_idle_connections(self) -> None:
        """Tear down kept-alive connections (drain's last step)."""
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass

    # -- connection loop ---------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ProtocolError as error:
                    await self._write_response(
                        writer,
                        json_response(
                            error.status,
                            {"error": {
                                "type": "protocol_error",
                                "message": str(error),
                            }},
                        ),
                        close=True,
                    )
                    return
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    asyncio.LimitOverrunError,
                ):
                    return
                if request is None:
                    return
                self.active_requests += 1
                try:
                    try:
                        response = await self.handler(request)
                    except Exception:
                        response = json_response(
                            500,
                            {"error": {
                                "type": "internal_error",
                                "message": "internal server error",
                            }},
                        )
                finally:
                    self.active_requests -= 1
                wants_close = (
                    response.close
                    or request.headers.get("connection", "").lower()
                    == "close"
                )
                await self._write_response(
                    writer, response, close=wants_close
                )
                if wants_close:
                    return
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[HttpRequest]:
        line = await _read_line(reader, 414, "request line")
        if not line:
            return None  # clean EOF between requests
        try:
            method, target, version = (
                line.decode("latin-1").rstrip("\r\n").split(" ")
            )
        except ValueError:
            raise ProtocolError(400, "malformed request line") from None
        if not version.startswith("HTTP/1."):
            raise ProtocolError(400, f"unsupported version {version!r}")

        headers = await read_headers(reader)
        length = content_length(headers)
        if length > self.max_body_bytes:
            raise ProtocolError(
                413, f"body exceeds {self.max_body_bytes} bytes"
            )
        body = await reader.readexactly(length) if length else b""
        return HttpRequest(method.upper(), target, headers, body)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: HttpResponse,
        *,
        close: bool,
    ) -> None:
        reason = REASONS.get(response.status, "Unknown")
        lines = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in response.headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        try:
            writer.write(head + response.body)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass


class HttpConnection:
    """One keep-alive HTTP/1.1 client connection, raw bytes both ways.

    The one client exchange of the service tier: the async service
    client and the coordinator's shard pools both speak through it.
    """

    __slots__ = ("host", "port", "_reader", "_writer")

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self, timeout: Optional[float] = None) -> None:
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(
                self.host, self.port, limit=_READ_LIMIT
            ),
            timeout,
        )

    @property
    def closed(self) -> bool:
        return self._writer is None or self._writer.is_closing()

    def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
        self._reader = self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One exchange: ``(status, headers, body)``.

        A malformed or truncated response (status line, headers,
        ``Content-Length``, body) raises ``ConnectionError``.  Any
        failure, cancellation included, closes the connection, so a
        half-read response never reaches the next request.
        ``headers`` adds request headers (latin-1-encodable).
        """
        assert self._reader is not None and self._writer is not None
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in (headers or {}).items()
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            "\r\n"
        ).encode("latin-1")
        try:
            self._writer.write(head + body)
            await self._writer.drain()
            status_line = await self._reader.readline()
            if not status_line:
                raise ConnectionError("server closed connection")
            try:
                status = int(
                    status_line.decode("latin-1").split(" ", 2)[1]
                )
            except (IndexError, ValueError):
                raise ConnectionError(
                    f"malformed status line {status_line!r}"
                ) from None
            response_headers = await read_headers(self._reader)
            length = content_length(response_headers)
            payload = (
                await self._reader.readexactly(length) if length else b""
            )
        except BaseException as error:
            self.close()
            # ProtocolError, over-long lines and short bodies are
            # transport failures from the caller's point of view.
            if isinstance(error, (ValueError, asyncio.IncompleteReadError)):
                raise ConnectionError(str(error)) from None
            raise
        if response_headers.get("connection", "").lower() == "close":
            self.close()
        return status, response_headers, payload


class HttpFrontDoor:
    """The lifecycle every service front door shares.

    :meth:`run_forever` runs ``_main`` on a private event loop:
    ``_start`` (the subclass's startup, which calls :meth:`_listen`
    to bind an :class:`AsyncHttpServer` on ``handle``), then block
    until SIGTERM/SIGINT or :meth:`request_shutdown`, then ``_drain``.
    Subclasses set ``config`` (``host``, ``port``, ``max_body_bytes``,
    ``announce``) and ``metrics``, and define ``handle``, ``_start``,
    ``_announcement`` and ``_drain``.
    """

    def __init__(self) -> None:
        self._http: Optional[AsyncHttpServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self.draining = False
        self.started = threading.Event()
        self.port: Optional[int] = None
        self._startup_error: Optional[BaseException] = None
        self._started_monotonic = time.monotonic()

    # -- lifecycle ---------------------------------------------------------

    def run_forever(self) -> None:
        """Blocking entry point; returns after graceful drain."""
        try:
            asyncio.run(self._main())
        except BaseException as error:
            self._startup_error = error
            self.started.set()
            raise

    def request_shutdown(self) -> None:
        """Thread-safe drain trigger (what SIGTERM calls)."""
        loop, event = self._loop, self._shutdown
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        await self._start()
        self.started.set()
        if self.config.announce:
            print(self._announcement(), file=sys.stderr, flush=True)
        await self._shutdown.wait()
        await self._drain()

    async def _listen(self) -> None:
        """Bind the HTTP server and hook SIGTERM/SIGINT to drain."""
        self._http = AsyncHttpServer(
            self.handle,
            self.config.host,
            self.config.port,
            max_body_bytes=self.config.max_body_bytes,
        )
        await self._http.start()
        self.port = self._http.port
        self._install_signal_handlers()

    def _install_signal_handlers(self) -> None:
        assert self._loop is not None and self._shutdown is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, self._shutdown.set
                )
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread or unsupported platform: the owner
                # drives shutdown via request_shutdown() instead.
                return

    # -- responses ---------------------------------------------------------

    def _wants_prometheus(self, request: HttpRequest) -> bool:
        """Content negotiation for metrics endpoints: Prometheus text on
        an explicit ``Accept: text/plain`` or ``?format=prometheus``;
        JSON (the historical format) otherwise."""
        target = request.target
        if "?" in target:
            if "format=prometheus" in target.split("?", 1)[1].split("&"):
                return True
        return "text/plain" in request.headers.get("accept", "")

    def _fault_response(self, fault: "ServiceFault") -> HttpResponse:
        self.metrics.count(f"http_{fault.status}")
        headers = {}
        if fault.retry_after is not None:
            headers["Retry-After"] = f"{fault.retry_after:g}"
        return json_response(fault.status, fault.to_payload(), headers)

    def _error_response(
        self, status: int, error_type: str, message: str
    ) -> HttpResponse:
        self.metrics.count(f"http_{status}")
        return json_response(
            status, {"error": {"type": error_type, "message": message}}
        )
