"""The shared ``HttpConnection`` exchange against stub servers sending
broken responses.

A malformed status line, a connection closed in the middle of the
headers and a non-numeric or negative ``Content-Length`` are transport
failures: the exchange raises ``ConnectionError`` and closes the
connection instead of leaking a ``ValueError``/``IndexError``,
accepting a truncated response, or leaving unread body bytes for the
next request.  Every broken-response case runs once per caller of the
one exchange: :class:`AsyncServiceClient` (unsuffixed ids; it
reconnects once before giving up), the coordinator's
:class:`ShardPool` (``-pool``) and the bare :class:`HttpConnection`
(``-connection``).  A live coordinator whose shard answers
``Content-Length: abc`` must fail over, not answer an opaque 500.
"""

import asyncio
import contextlib
import itertools
import socketserver
import threading

import pytest

from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.cluster import ClusterConfig, ClusterCoordinator
from repro.service.cluster.transport import ShardPool
from repro.service.httpd import HttpConnection
from repro.service.loadgen import LOADGEN_KERNEL
from repro.service.protocol import normalize_request
from repro.service.server import ServiceConfig, ServiceServer


async def _serve_once_per_connection(response: bytes):
    """A stub server answering every request with ``response`` bytes,
    then closing the connection.  Returns (server, port, request count)."""
    served = []

    async def handle(reader, writer):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.decode("latin-1").split("\r\n"):
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            if length:
                await reader.readexactly(length)
            served.append(head)
            writer.write(response)
            await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    return server, port, served


async def _via_client(port):
    client = AsyncServiceClient("127.0.0.1", port, timeout=5.0)
    try:
        outcome = await client.request_raw("POST", "/v1/evaluate", {"k": 1})
    except Exception as error:  # noqa: BLE001 - the outcome
        outcome = error
    closed = client._connection.closed
    await client.close()
    return outcome, closed


async def _via_pool(port):
    pool = ShardPool("127.0.0.1", port)
    try:
        outcome = await pool.request(
            "POST", "/v1/evaluate", b'{"k": 1}', timeout=5.0
        )
    except Exception as error:  # noqa: BLE001 - the outcome
        outcome = error
    # A failed exchange must not hand its connection back to the pool.
    closed = pool.idle_connections == 0
    pool.close()
    return outcome, closed


async def _via_connection(port):
    connection = HttpConnection("127.0.0.1", port)
    await connection.open(5.0)
    try:
        outcome = await connection.request(
            "POST", "/v1/evaluate", b'{"k": 1}'
        )
    except Exception as error:  # noqa: BLE001 - the outcome
        outcome = error
    closed = connection.closed
    connection.close()
    return outcome, closed


VIAS = {
    "client": _via_client,
    "pool": _via_pool,
    "connection": _via_connection,
}
#: Requests the stub sees per broken exchange: the client reconnects
#: once; the pool propagates a fresh connection's failure at once.
ATTEMPTS = {"client": 2, "pool": 1, "connection": 1}


def _exchange(response: bytes, via: str = "client"):
    """(outcome, requests served, connection closed) for one exchange
    through ``via`` against a stub answering with ``response``; the
    outcome is the result or the raised exception."""

    async def run():
        server, port, served = await _serve_once_per_connection(response)
        try:
            outcome, closed = await VIAS[via](port)
            return outcome, len(served), closed
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(run())


def _per_via(**cases):
    """Each ``id=response`` case once per caller of the exchange."""
    return [
        pytest.param(
            response, via, id=name if via == "client" else f"{name}-{via}"
        )
        for via in VIAS
        for name, response in cases.items()
    ]


BODY = b'{"status": "ok"}'
GOOD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/json\r\n"
    + f"Content-Length: {len(BODY)}\r\n".encode()
    + b"\r\n"
    + BODY
)


def test_well_formed_response_is_accepted():
    outcome, served, _ = _exchange(GOOD, "client")
    assert outcome == (200, {"status": "ok"})
    assert served == 1
    for via in ("pool", "connection"):
        (status, headers, body), served, _ = _exchange(GOOD, via)
        assert (status, body) == (200, BODY)
        assert headers["content-type"] == "application/json"
        assert served == 1


def _assert_failed(outcome, served, closed, via, message):
    assert isinstance(outcome, ConnectionError), repr(outcome)
    assert message in str(outcome)
    assert served == ATTEMPTS[via]
    assert closed


@pytest.mark.parametrize(
    "status_line, via",
    _per_via(**{
        "no-space": b"garbage\r\n",
        "no-status": b"HTTP/1.1\r\n",
        "non-numeric": b"HTTP/1.1 two-hundred OK\r\n",
        "binary": b"\x00\xff\xfe\r\n",
    }),
)
def test_malformed_status_line_is_connection_error(status_line, via):
    outcome, served, closed = _exchange(
        status_line + b"\r\n" + BODY, via
    )
    _assert_failed(outcome, served, closed, via, "malformed status line")


@pytest.mark.parametrize(
    "truncated, via",
    _per_via(**{
        "no-headers": b"HTTP/1.1 200 OK\r\n",
        "one-header": (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        ),
        "length-no-terminator": (
            b"HTTP/1.1 200 OK\r\n"
            + f"Content-Length: {len(BODY)}\r\n".encode()
        ),
    }),
)
def test_eof_mid_headers_is_connection_error(truncated, via):
    outcome, served, closed = _exchange(truncated, via)
    _assert_failed(outcome, served, closed, via, "mid-headers")


@pytest.mark.parametrize(
    "length, via", _per_via(abc=b"abc", negative=b"-5")
)
def test_malformed_content_length_is_connection_error(length, via):
    # The body bytes follow: a parser that gave up without closing
    # would leave them to be read as the next response.
    outcome, served, closed = _exchange(
        b"HTTP/1.1 200 OK\r\nContent-Length: " + length + b"\r\n\r\n"
        + BODY,
        via,
    )
    _assert_failed(outcome, served, closed, via, "Content-Length")


def test_request_with_retries_surfaces_connection_error():
    async def run():
        server, port, _ = await _serve_once_per_connection(b"junk\r\n")
        client = AsyncServiceClient(
            "127.0.0.1", port, timeout=5.0, retries=1,
            backoff_base_s=0.0, backoff_cap_s=0.0,
        )
        try:
            with pytest.raises(ConnectionError):
                await client.request_with_retries("GET", "/healthz")
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    asyncio.run(run())


# -- a coordinator in front of a shard with a broken Content-Length -------

STUB_HEALTHZ = b'{"status": "ok", "shard": "stub"}'


class _BrokenLengthShard(socketserver.StreamRequestHandler):
    """Answers ``/healthz`` well (the probe keeps it routable) and
    every other request with ``Content-Length: abc``."""

    def handle(self):
        while True:
            request_line = self.rfile.readline()
            if not request_line:
                return
            length = 0
            while True:
                line = self.rfile.readline()
                if line in (b"\r\n", b""):
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            self.rfile.read(length)
            if request_line.split()[1] != b"/healthz":
                self.wfile.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}"
                )
                return
            self.wfile.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(STUB_HEALTHZ)}\r\n\r\n".encode()
                + STUB_HEALTHZ
            )


def _run_in_thread(server):
    thread = threading.Thread(target=server.run_forever, daemon=True)
    thread.start()
    assert server.started.wait(10)
    assert server._startup_error is None
    return thread


def test_coordinator_fails_over_a_malformed_shard_content_length():
    with contextlib.ExitStack() as stack:
        stub = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), _BrokenLengthShard
        )
        stub.daemon_threads = True
        threading.Thread(target=stub.serve_forever, daemon=True).start()
        stack.callback(stub.server_close)
        stack.callback(stub.shutdown)
        stub_address = f"127.0.0.1:{stub.server_address[1]}"

        shard = ServiceServer(
            ServiceConfig(port=0, jobs=1, executor="thread", shard="1/2")
        )
        stack.callback(_run_in_thread(shard).join, 10)
        stack.callback(shard.request_shutdown)
        coordinator = ClusterCoordinator(
            ClusterConfig(
                port=0,
                shards=(stub_address, f"127.0.0.1:{shard.port}"),
                probe_interval_s=3600.0,
            )
        )
        stack.callback(_run_in_thread(coordinator).join, 10)
        stack.callback(coordinator.request_shutdown)

        # A body the ring places on the stub, so the forward meets the
        # broken Content-Length before any other shard.
        for entries, banks in itertools.product(range(1, 9), (1, 2, 3)):
            body = {
                "kernel": LOADGEN_KERNEL,
                "scheme": {
                    "kind": "sw_lrf",
                    "entries_per_thread": entries,
                    "lrf_banks": banks,
                },
            }
            fingerprint = normalize_request("allocate", body).fingerprint
            if coordinator.ring.lookup(fingerprint) == stub_address:
                break
        else:
            pytest.fail("no body routes to the stub shard")

        status, payload = ServiceClient(
            port=coordinator.port, timeout=30.0
        ).request_raw("POST", "/v1/allocate", body)
        if status == 200:
            assert payload["shard"] == "1/2"  # the ring successor
        else:
            assert status == 503, payload
            assert payload["error"]["type"] == "no_shard_available"
        counters = coordinator.metrics.to_dict()["counters"]
        assert counters.get("cluster_shard_errors", 0) >= 1
