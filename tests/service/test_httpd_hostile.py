"""Hostile request heads, as raw bytes, against a live ServiceServer.

Every malformed head must get its typed ``protocol_error`` JSON body
(400, 413, 414 or 431) and a closed connection, and must leave the server
healthy: ``/healthz`` answers 200 on a new connection afterwards.
"""

import json
import socket
import threading

import pytest

from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, ServiceServer

MAX_BODY = 1024
#: Longer than the server's 64 KiB line limit.
LONG = "a" * (70 * 1024)


@pytest.fixture(scope="module")
def server():
    service = ServiceServer(
        ServiceConfig(
            port=0, jobs=1, executor="thread", max_body_bytes=MAX_BODY
        )
    )
    thread = threading.Thread(target=service.run_forever, daemon=True)
    thread.start()
    assert service.started.wait(10), "server did not start"
    assert service._startup_error is None
    yield service
    service.request_shutdown()
    thread.join(10)


def _raw_exchange(port: int, data: bytes):
    """(status, headers, JSON body): send ``data`` and read to EOF.

    Reaching EOF is the closed-connection check: a connection the
    server kept alive would instead hit the socket timeout."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines[1:])
    }
    return int(lines[0].split(" ")[1]), headers, json.loads(body)


def _post(*headers: str) -> bytes:
    return (
        "POST /v1/evaluate HTTP/1.1\r\nHost: x\r\n"
        + "".join(f"{header}\r\n" for header in headers)
        + "\r\n"
    ).encode("latin-1")


@pytest.mark.parametrize(
    "data, status, message",
    [
        (b"GET /healthz\r\n\r\n", 400, "malformed request line"),
        (b"GET /healthz HTTP/2.0\r\n\r\n", 400, "unsupported version"),
        (_post("X-No-Colon"), 400, "malformed header"),
        (  # Host plus 100 more: one past the limit
            _post(*(f"X-H{i}: v" for i in range(100))),
            431,
            "too many headers",
        ),
        (_post("Content-Length: abc"), 400, "malformed Content-Length"),
        (_post("Content-Length: -1"), 400, "negative Content-Length"),
        (
            _post(f"Content-Length: {MAX_BODY + 1}"),
            413,
            f"body exceeds {MAX_BODY} bytes",
        ),
        (
            f"GET /{LONG} HTTP/1.1\r\n\r\n".encode("latin-1"),
            414,
            "request line exceeds",
        ),
        (_post(f"X-Long: {LONG}"), 431, "header line exceeds"),
    ],
    ids=[
        "request-line",
        "version",
        "no-colon",
        "101-headers",
        "length-abc",
        "length-negative",
        "length-too-large",
        "long-request-line",
        "long-header-line",
    ],
)
def test_hostile_head_gets_typed_error_and_close(
    server, data, status, message
):
    got, headers, body = _raw_exchange(server.port, data)
    assert got == status
    assert headers["connection"] == "close"
    assert body["error"]["type"] == "protocol_error"
    assert message in body["error"]["message"]
    # The server survives: a fresh connection is served normally.
    assert ServiceClient(port=server.port, timeout=10).request_raw(
        "GET", "/healthz"
    )[0] == 200
