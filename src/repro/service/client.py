"""Client library for the allocation service.

Two clients share one request surface:

* :class:`ServiceClient` — synchronous, one ``http.client`` connection
  per call; the convenient choice for scripts and tests.
* :class:`AsyncServiceClient` — JSON over one persistent keep-alive
  :class:`~repro.service.httpd.HttpConnection` (the exchange the
  cluster's shard pools share; a malformed response, ``Content-Length``
  included, is a ``ConnectionError``); what
  :mod:`repro.service.loadgen` drives hundreds of concurrent requests
  through.

Both return decoded JSON payloads.  Non-2xx responses raise
:class:`ServiceError` carrying the HTTP status, the server's error
type/message, and ``retry_after`` when the server asked to back off
(429).  The ``*_raw`` variants return ``(status, payload)`` without
raising — the load generator uses those to count expected failures.

With ``retries`` > 0, the high-level call surfaces retry shed load
(429) and drain/failover blips (503, connection errors) with capped
exponential backoff.  The server's ``Retry-After`` is honoured when
present; otherwise the delay is ``base * 2**attempt`` (capped) with
jitter drawn from a **seeded** ``random.Random`` — never the
module-level ``random`` state — so loadgen plans and test runs stay
reproducible end to end.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import time
from typing import Any, Dict, Optional, Tuple

from ..sim.schemes import Scheme
from .httpd import HttpConnection
from .protocol import scheme_to_json

#: Statuses worth retrying: shed load and not-yet/no-longer-available.
RETRYABLE_STATUSES = (429, 503)


def backoff_delay(
    attempt: int,
    retry_after: Optional[float],
    *,
    base_s: float,
    cap_s: float,
    rng: random.Random,
) -> float:
    """Delay before retry ``attempt`` (0-based).

    An explicit server ``Retry-After`` wins (capped); otherwise capped
    exponential backoff with deterministic half-width jitter from the
    caller's seeded RNG.
    """
    if retry_after is not None:
        return max(0.0, min(float(retry_after), cap_s))
    window = min(cap_s, base_s * (2.0 ** attempt))
    return window * (0.5 + 0.5 * rng.random())


class ServiceError(Exception):
    """A non-2xx response from the service."""

    def __init__(
        self,
        status: int,
        error_type: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(f"HTTP {status} [{error_type}]: {message}")
        self.status = status
        self.error_type = error_type
        self.message = message
        self.retry_after = retry_after


def _error_from_payload(status: int, payload: Any) -> ServiceError:
    error = payload.get("error", {}) if isinstance(payload, dict) else {}
    return ServiceError(
        status,
        error.get("type", "unknown"),
        error.get("message", "no message"),
        retry_after=error.get("retry_after"),
    )


def _request_body(
    *,
    kernel: Optional[str],
    benchmark: Optional[str],
    scale: Optional[float],
    warps: Optional[list],
    scheme: Any,
) -> Dict[str, Any]:
    body: Dict[str, Any] = {}
    if kernel is not None:
        body["kernel"] = kernel
    if benchmark is not None:
        body["benchmark"] = benchmark
    if scale is not None:
        body["scale"] = scale
    if warps is not None:
        body["warps"] = warps
    if scheme is not None:
        body["scheme"] = (
            scheme_to_json(scheme)
            if isinstance(scheme, Scheme)
            else scheme
        )
    return body


class ServiceClient:
    """Synchronous client: one connection per call, no dependencies."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8077,
        timeout: float = 60.0,
        *,
        retries: int = 0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        backoff_seed: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = random.Random(backoff_seed)

    def _delay(self, attempt: int, retry_after: Optional[float]) -> float:
        return backoff_delay(
            attempt,
            retry_after,
            base_s=self.backoff_base_s,
            cap_s=self.backoff_cap_s,
            rng=self._rng,
        )

    def request_raw(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Any]:
        """One HTTP exchange; returns (status, decoded payload)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = (
                json.dumps(body).encode("utf-8")
                if body is not None
                else None
            )
            headers = {"Content-Type": "application/json"}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
            try:
                decoded = json.loads(data.decode("utf-8"))
            except ValueError:
                decoded = {"raw": data.decode("utf-8", "replace")}
            return response.status, decoded
        finally:
            connection.close()

    def _call(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Any:
        attempt = 0
        while True:
            retry_after: Optional[float] = None
            try:
                status, payload = self.request_raw(method, path, body)
            except OSError:
                if attempt >= self.retries:
                    raise
            else:
                if status < 400:
                    return payload
                error = _error_from_payload(status, payload)
                if (
                    attempt >= self.retries
                    or status not in RETRYABLE_STATUSES
                ):
                    raise error
                retry_after = error.retry_after
            time.sleep(self._delay(attempt, retry_after))
            attempt += 1

    def healthz(self) -> Dict[str, Any]:
        return self._call("GET", "/healthz")

    def cluster_healthz(self) -> Dict[str, Any]:
        return self._call("GET", "/v1/cluster/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._call("GET", "/metrics")

    def allocate(
        self,
        *,
        kernel: Optional[str] = None,
        benchmark: Optional[str] = None,
        scale: Optional[float] = None,
        scheme: Any = None,
    ) -> Dict[str, Any]:
        return self._call(
            "POST",
            "/v1/allocate",
            _request_body(
                kernel=kernel, benchmark=benchmark, scale=scale,
                warps=None, scheme=scheme,
            ),
        )

    def evaluate(
        self,
        *,
        kernel: Optional[str] = None,
        benchmark: Optional[str] = None,
        scale: Optional[float] = None,
        warps: Optional[list] = None,
        scheme: Any = None,
    ) -> Dict[str, Any]:
        return self._call(
            "POST",
            "/v1/evaluate",
            _request_body(
                kernel=kernel, benchmark=benchmark, scale=scale,
                warps=warps, scheme=scheme,
            ),
        )

    def tune(
        self,
        *,
        kernel: Optional[str] = None,
        benchmark: Optional[str] = None,
        scale: Optional[float] = None,
        warps: Optional[list] = None,
        strategy: Optional[str] = None,
        budget: Optional[int] = None,
        seed: Optional[int] = None,
        objective: Optional[str] = None,
        space: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        body = _request_body(
            kernel=kernel, benchmark=benchmark, scale=scale,
            warps=warps, scheme=None,
        )
        for name, value in (
            ("strategy", strategy),
            ("budget", budget),
            ("seed", seed),
            ("objective", objective),
            ("space", space),
        ):
            if value is not None:
                body[name] = value
        return self._call("POST", "/v1/tune", body)


def wait_until_healthy(
    host: str, port: int, timeout: float = 15.0, interval: float = 0.1
) -> bool:
    """Poll ``/healthz`` until the service answers or time runs out."""
    client = ServiceClient(host, port, timeout=max(interval, 1.0))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if client.healthz().get("status") in ("ok", "draining"):
                return True
        except (OSError, ServiceError, ValueError):
            pass
        time.sleep(interval)
    return False


class AsyncServiceClient:
    """JSON over one persistent keep-alive :class:`HttpConnection`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8077,
        timeout: float = 60.0,
        *,
        retries: int = 0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        backoff_seed: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = random.Random(backoff_seed)
        self._connection = HttpConnection(host, port)

    async def connect(self) -> None:
        """Open the keep-alive connection unless it is open already
        (loadgen pre-warms its connections so connect latency never
        lands inside a measured phase)."""
        if self._connection.closed:
            await self._connection.open()

    async def close(self) -> None:
        self._connection.close()

    async def request_raw(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Any]:
        """One exchange on the persistent connection (reconnects once
        if the server closed it between requests)."""
        payload = (
            json.dumps(body).encode("utf-8") if body is not None else b""
        )
        for attempt in (0, 1):
            await self.connect()
            try:
                status, _, data = await asyncio.wait_for(
                    self._connection.request(method, path, payload),
                    self.timeout,
                )
            except OSError:
                if attempt:
                    raise
                continue
            try:
                return status, json.loads(data.decode("utf-8"))
            except ValueError:
                return status, {"raw": data.decode("utf-8", "replace")}
        raise RuntimeError("unreachable")

    async def request_with_retries(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Any, int]:
        """Like :meth:`request_raw` with the retry loop applied.

        Returns ``(status, payload, retries)`` without raising on HTTP
        errors — the final status is returned even when it is a 4xx/5xx
        — so callers (the load generator) can record how many times the
        429/503 shed-load path was hit for one logical request.
        Connection errors still raise once retries are exhausted.
        """
        attempt = 0
        while True:
            retry_after: Optional[float] = None
            try:
                status, payload = await self.request_raw(
                    method, path, body
                )
            except OSError:
                if attempt >= self.retries:
                    raise
            else:
                if (
                    status not in RETRYABLE_STATUSES
                    or attempt >= self.retries
                ):
                    return status, payload, attempt
                retry_after = _error_from_payload(
                    status, payload
                ).retry_after
            await asyncio.sleep(
                backoff_delay(
                    attempt,
                    retry_after,
                    base_s=self.backoff_base_s,
                    cap_s=self.backoff_cap_s,
                    rng=self._rng,
                )
            )
            attempt += 1

    async def call(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Any:
        """:meth:`request_with_retries`, raising :class:`ServiceError`
        on a final status >= 400."""
        status, payload, _ = await self.request_with_retries(
            method, path, body
        )
        if status >= 400:
            raise _error_from_payload(status, payload)
        return payload
