"""AsyncServiceClient against a stub server sending broken responses.

A malformed status line and a connection closed in the middle of the
headers are transport failures: the client raises ``ConnectionError``
(as the cluster's ``ShardConnection`` does) instead of leaking a
``ValueError``/``IndexError`` or accepting a truncated response.
"""

import asyncio

import pytest

from repro.service.client import AsyncServiceClient


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


def _exchange(response: bytes):
    """(outcome, requests served): one ``request_raw`` against a stub
    answering with ``response``; outcome is the result or the raised
    exception."""

    async def run():
        server, port, served = await _serve_once_per_connection(response)
        client = AsyncServiceClient("127.0.0.1", port, timeout=5.0)
        try:
            return (
                await client.request_raw("POST", "/v1/evaluate", {"k": 1}),
                len(served),
            )
        except Exception as error:  # noqa: BLE001 - the outcome
            return error, len(served)
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    return asyncio.run(run())


BODY = b'{"status": "ok"}'
GOOD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/json\r\n"
    + f"Content-Length: {len(BODY)}\r\n".encode()
    + b"\r\n"
    + BODY
)


def test_well_formed_response_is_accepted():
    outcome, served = _exchange(GOOD)
    assert outcome == (200, {"status": "ok"})
    assert served == 1


@pytest.mark.parametrize(
    "status_line",
    [
        b"garbage\r\n",
        b"HTTP/1.1\r\n",
        b"HTTP/1.1 two-hundred OK\r\n",
        b"\x00\xff\xfe\r\n",
    ],
    ids=["no-space", "no-status", "non-numeric", "binary"],
)
def test_malformed_status_line_is_connection_error(status_line):
    outcome, served = _exchange(status_line + b"\r\n" + BODY)
    assert isinstance(outcome, ConnectionError)
    assert "malformed status line" in str(outcome)
    # One reconnect attempt, then the failure propagates.
    assert served == 2


@pytest.mark.parametrize(
    "truncated",
    [
        b"HTTP/1.1 200 OK\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n",
        b"HTTP/1.1 200 OK\r\n"
        + f"Content-Length: {len(BODY)}\r\n".encode(),
    ],
    ids=["no-headers", "one-header", "length-no-terminator"],
)
def test_eof_mid_headers_is_connection_error(truncated):
    outcome, served = _exchange(truncated)
    assert isinstance(outcome, ConnectionError)
    assert "mid-headers" in str(outcome)
    assert served == 2


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
