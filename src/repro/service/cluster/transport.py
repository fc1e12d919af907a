"""Persistent keep-alive HTTP transport from coordinator to shards.

The coordinator forwards request bodies *verbatim* and returns shard
response bodies *verbatim* — no JSON decode/encode on the hot path —
so the transport works in raw bytes: :class:`ShardPool` keeps a
bounded set of keep-alive
:class:`~repro.service.httpd.HttpConnection` objects per shard (the
exchange the async service client uses too) and reuses them across
requests.  Every transport failure and every
malformed shard response — bad status line, EOF mid-headers, a
non-numeric or negative ``Content-Length``, a short body — surfaces
as ``ConnectionError`` with the connection closed, so the coordinator
fails over instead of answering an opaque 500.

A keep-alive connection can go stale between requests (the shard
restarted or closed it idle).  The pool distinguishes a *reused*
connection failing on first use from a *fresh* connection failing:
the former is silently retried once on a brand-new connection; only
the latter propagates, so callers never see phantom errors from
ordinary connection churn.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..httpd import HttpConnection

ShardResponse = Tuple[int, Dict[str, str], bytes]


class ShardPool:
    """Bounded pool of persistent connections to one shard."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_connections: int = 32,
        connect_timeout_s: float = 5.0,
    ) -> None:
        if max_connections < 1:
            raise ValueError("max_connections must be at least 1")
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self._capacity = asyncio.Semaphore(max_connections)
        self._idle: Deque[HttpConnection] = deque()
        self.connections_opened = 0

    @property
    def idle_connections(self) -> int:
        return len(self._idle)

    async def _fresh(self) -> HttpConnection:
        connection = HttpConnection(self.host, self.port)
        await connection.open(self.connect_timeout_s)
        self.connections_opened += 1
        return connection

    def _checkout_idle(self) -> Optional[HttpConnection]:
        while self._idle:
            connection = self._idle.popleft()
            if not connection.closed:
                return connection
        return None

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        timeout: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> ShardResponse:
        """One exchange on a pooled connection.

        ``timeout`` bounds the whole exchange.  Any exception, timeout
        and cancellation included, closes the connection instead of
        returning it, so a half-read response never poisons the pool.
        Transport errors (``OSError``, which covers every malformed
        response) on a reused connection retry once on a fresh one;
        fresh-connection errors and timeouts propagate.  ``headers`` pass through to
        :meth:`HttpConnection.request`.
        """
        async with self._capacity:
            connection = self._checkout_idle()
            reused = connection is not None
            try:
                if connection is None:
                    connection = await self._fresh()
                try:
                    response = await asyncio.wait_for(
                        connection.request(method, path, body, headers),
                        timeout,
                    )
                except OSError as error:
                    if not reused or isinstance(error, asyncio.TimeoutError):
                        raise
                    # Stale keep-alive: one silent retry on a fresh socket.
                    connection = await self._fresh()
                    response = await asyncio.wait_for(
                        connection.request(method, path, body, headers),
                        timeout,
                    )
            except BaseException:
                if connection is not None:
                    connection.close()
                raise
            if not connection.closed:
                self._idle.append(connection)
            return response

    def close(self) -> None:
        while self._idle:
            self._idle.popleft().close()
