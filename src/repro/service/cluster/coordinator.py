"""The cluster coordinator: a routing front tier over N shards.

Requests flow::

    normalise/route-cache → admission → (front cache) → shard forward

* **Routing** — the request body is hashed once (SHA-256 of the raw
  bytes); a bounded route cache maps ``(op, body-hash)`` to the
  :class:`~repro.service.protocol.ServiceJob` content fingerprint (or
  to the 4xx fault normalisation produced), so the expensive
  normalise/parse work runs once per distinct body.  The fingerprint
  then picks a shard on the consistent hash ring — each kernel's
  memo/disk-cache entry lives on exactly one shard, so dedup hit
  rates survive scale-out.
* **Admission** — global backpressure (``max_pending`` forwards in
  flight → 429 + ``Retry-After``) with per-shard queue-depth
  awareness: a shard already carrying ``per_shard_pending`` forwards
  sheds rather than queues.
* **Failover** — forwards ride persistent keep-alive pools with a
  per-request timeout; on transport failure or a shard-side 5xx the
  (idempotent) job is retried once on the next shard in ring order,
  and the failing shard is marked unhealthy until a background probe
  sees it answer ``/healthz`` again.
* **Hot keys** — fingerprints whose request rate crosses
  ``hot_threshold`` per ``hot_window_s`` are replicated across
  ``replication`` shards (round-robin among ring successors), and
  their 200 responses enter a bounded LRU front cache served straight
  from coordinator memory — hot-key skew stops funnelling through one
  shard, and repeat traffic skips the forward hop entirely.  Front
  cache hits are dedup hits: the response bytes are exactly what the
  owning shard last returned.

``GET /v1/cluster/healthz`` rolls up per-shard health, uptime, and
dedup counters; ``GET /metrics`` serves coordinator metrics as JSON or
Prometheus text (counters carry a ``shard`` label where meaningful).
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ... import __version__
from ...engine.cache import BoundedCache, publish_cache_metrics
from ...engine.metrics import SCHEMA_VERSION, RunMetrics
from ...obs.registry import (
    PROMETHEUS_CONTENT_TYPE,
    Histogram,
    labeled_name,
    merge_labels,
    render_prometheus,
)
from ...obs.tracer import (
    TRACE_HEADER,
    TRACER,
    carrier_from_header,
    carrier_to_header,
)
from ..httpd import HttpFrontDoor, HttpRequest, HttpResponse, json_response
from ..protocol import (
    BadRequest,
    Draining,
    Overloaded,
    RequestTimeout,
    ServiceFault,
    normalize_request,
)
from .ring import ConsistentHashRing
from .transport import ShardPool

import hashlib

#: Counters a shard exposes that the cluster rollup aggregates.
SHARD_DEDUP_COUNTERS = (
    "inflight_dedup_hits",
    "service_memo_hits",
    "service_disk_hits",
)


class NoShardAvailable(ServiceFault):
    status = 503
    error_type = "no_shard_available"


@dataclass
class ClusterConfig:
    """Everything ``repro cluster`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8078
    #: Shard addresses, ``host:port`` each, in stable index order.
    shards: Tuple[str, ...] = ()
    #: Shards a *hot* fingerprint is spread across.
    replication: int = 2
    #: Requests per window that make a fingerprint hot.
    hot_threshold: int = 8
    hot_window_s: float = 1.0
    #: How long a fingerprint stays hot after last crossing the rate.
    hot_ttl_s: float = 30.0
    #: Bounded LRU of hot 200-response bytes (0 disables).
    front_cache_entries: int = 4096
    #: Body sightings before a response is front-cache eligible.
    front_cache_threshold: int = 2
    #: Global forwards in flight before 429.
    max_pending: int = 256
    #: Forwards in flight on one shard before shedding.
    per_shard_pending: int = 64
    request_timeout_s: float = 30.0
    connect_timeout_s: float = 5.0
    probe_interval_s: float = 1.0
    pool_connections: int = 32
    max_body_bytes: int = 1 << 20
    drain_grace_s: float = 30.0
    #: Bounded LRU of (op, body-hash) → fingerprint/fault.
    route_cache_entries: int = 8192
    announce: bool = False


@dataclass
class ShardState:
    """Coordinator-side view of one shard."""

    index: int
    address: str
    pool: ShardPool
    healthy: bool = True
    consecutive_failures: int = 0
    last_error: Optional[str] = None
    #: The shard's self-reported identity (``--shard-of K/N``), learnt
    #: from its healthz; falls back to the address.
    label: Optional[str] = None
    inflight: int = 0
    requests: int = 0
    retries: int = 0
    errors: int = 0
    last_healthz: Optional[Dict[str, Any]] = None

    @property
    def display(self) -> str:
        return self.label or self.address


@dataclass
class _Route:
    """Cached normalisation of one distinct request body."""

    fingerprint: Optional[str] = None
    fault: Optional[ServiceFault] = None
    #: Total sightings of this body (front-cache eligibility).
    seen: int = 0
    #: Sliding-window hot tracking: [window_start, window_count].
    window: List[float] = field(default_factory=lambda: [0.0, 0])


class ClusterCoordinator(HttpFrontDoor):
    """One coordinator instance; usable from a thread (tests) or CLI."""

    def __init__(
        self, config: ClusterConfig, metrics: Optional[RunMetrics] = None
    ) -> None:
        super().__init__()
        if not config.shards:
            raise ValueError("cluster needs at least one shard address")
        self.config = config
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.ring = ConsistentHashRing(config.shards)
        self.shards: Dict[str, ShardState] = {}
        for index, address in enumerate(config.shards):
            host, _, port_text = address.rpartition(":")
            self.shards[address] = ShardState(
                index=index,
                address=address,
                pool=ShardPool(
                    host or "127.0.0.1",
                    int(port_text),
                    max_connections=config.pool_connections,
                    connect_timeout_s=config.connect_timeout_s,
                ),
            )
        self._routes = BoundedCache(
            "cluster.routes", config.route_cache_entries
        )
        self._front = BoundedCache(
            "cluster.front", config.front_cache_entries
        )
        self._hot_until: Dict[str, float] = {}
        self._hot_rr: Dict[str, int] = {}
        self._pending = 0
        self._probe_task: Optional[asyncio.Task] = None
        self.metrics.histogram("cluster_request_seconds")

    # -- lifecycle ---------------------------------------------------------

    async def _start(self) -> None:
        await self._listen()
        self._probe_task = self._loop.create_task(self._probe_loop())

    def _announcement(self) -> str:
        return (
            f"repro cluster coordinator on "
            f"http://{self.config.host}:{self.port} "
            f"({len(self.shards)} shards, "
            f"replication={self.config.replication})"
        )

    async def _drain(self) -> None:
        self.draining = True
        assert self._http is not None
        await self._http.stop_accepting()
        deadline = (
            asyncio.get_running_loop().time() + self.config.drain_grace_s
        )
        while (
            self._pending or self._http.active_requests
        ) and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.01)
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        self._http.close_idle_connections()
        for shard in self.shards.values():
            shard.pool.close()

    # -- health probing ----------------------------------------------------

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.gather(
                *(self._probe(shard) for shard in self.shards.values()),
                return_exceptions=True,
            )
            await asyncio.sleep(self.config.probe_interval_s)

    async def _probe(self, shard: ShardState) -> None:
        try:
            status, _, body = await shard.pool.request(
                "GET", "/healthz", timeout=2.0
            )
            if status != 200:
                raise ConnectionError(f"healthz HTTP {status}")
            payload = json.loads(body.decode("utf-8"))
        except (asyncio.TimeoutError, ValueError, OSError) as error:
            self._mark_failure(shard, f"{type(error).__name__}: {error}")
            return
        shard.last_healthz = payload
        if shard.label is None and payload.get("shard"):
            shard.label = str(payload["shard"])
        if payload.get("status") == "ok":
            self._mark_success(shard)
        else:
            # A draining shard answers healthz but rejects jobs.
            self._mark_failure(
                shard, f"shard status {payload.get('status')!r}"
            )

    def _mark_failure(self, shard: ShardState, message: str) -> None:
        shard.consecutive_failures += 1
        shard.last_error = message
        if shard.healthy:
            shard.healthy = False
            self.metrics.count("cluster_shards_marked_unhealthy")

    def _mark_success(self, shard: ShardState) -> None:
        if not shard.healthy:
            self.metrics.count("cluster_shards_recovered")
        shard.healthy = True
        shard.consecutive_failures = 0
        shard.last_error = None

    # -- request handling --------------------------------------------------

    async def handle(self, request: HttpRequest) -> HttpResponse:
        started = time.perf_counter()
        path = request.target.split("?", 1)[0]
        carrier = carrier_from_header(request.headers.get(TRACE_HEADER))
        with TRACER.attach(carrier):
            with TRACER.span(
                "cluster.request", method=request.method, path=path
            ) as span:
                response = await self._route_request(request, path)
                if span is not None:
                    span.attributes["status"] = response.status
        self.metrics.observe(
            "cluster_request_seconds", time.perf_counter() - started
        )
        return response

    async def _route_request(
        self, request: HttpRequest, path: str
    ) -> HttpResponse:
        self.metrics.count("cluster_requests")
        try:
            if (request.method, path) == ("GET", "/healthz"):
                return json_response(200, self._health_payload())
            if (request.method, path) == ("GET", "/v1/cluster/healthz"):
                return json_response(200, await self._cluster_health())
            if (request.method, path) == ("GET", "/v1/cluster/metrics"):
                if self._wants_prometheus(request):
                    text = await self._cluster_metrics_prometheus()
                    return HttpResponse(
                        200,
                        text.encode("utf-8"),
                        content_type=PROMETHEUS_CONTENT_TYPE,
                    )
                return json_response(200, await self._cluster_metrics())
            if (request.method, path) == ("GET", "/metrics"):
                if self._wants_prometheus(request):
                    return HttpResponse(
                        200,
                        render_prometheus(self._metrics_snapshot()).encode(
                            "utf-8"
                        ),
                        content_type=PROMETHEUS_CONTENT_TYPE,
                    )
                return json_response(200, self._metrics_snapshot())
            if path in ("/v1/allocate", "/v1/evaluate", "/v1/tune"):
                if request.method != "POST":
                    return self._error_response(
                        405, "method_not_allowed", f"{path} requires POST"
                    )
                return await self._forward(
                    path.rsplit("/", 1)[1], path, request
                )
            return self._error_response(
                404, "not_found", f"no route for {path}"
            )
        except ServiceFault as fault:
            return self._fault_response(fault)

    async def _forward(
        self, op: str, path: str, request: HttpRequest
    ) -> HttpResponse:
        if self.draining:
            raise Draining("coordinator is draining; no new work accepted")
        route = self._resolve_route(op, request.body)
        if route.fault is not None:
            return self._fault_response(route.fault)
        fingerprint = route.fingerprint
        assert fingerprint is not None
        hot = self._note_request(route, fingerprint)

        cached = self._front.get(fingerprint)
        if cached is not None:
            self.metrics.count("cluster_front_cache_hits")
            status, content_type, body = cached
            self.metrics.count(f"http_{status}")
            return HttpResponse(status, body, content_type=content_type)

        if self._pending >= self.config.max_pending:
            self.metrics.count("cluster_rejected_overload")
            raise Overloaded(
                f"{self._pending} forwards pending "
                f"(limit {self.config.max_pending}); retry shortly",
                retry_after=1.0,
            )
        return await self._forward_to_shards(
            op, path, request.body, route, fingerprint, hot
        )

    async def _forward_to_shards(
        self,
        op: str,
        path: str,
        body: bytes,
        route: _Route,
        fingerprint: str,
        hot: bool,
    ) -> HttpResponse:
        assert self._loop is not None
        deadline = self._loop.time() + self.config.request_timeout_s
        targets = self._targets(fingerprint, hot)
        shed: Optional[Overloaded] = None
        attempts = 0
        for shard in targets:
            if attempts >= 2:
                break
            if shard.inflight >= self.config.per_shard_pending:
                # Queue-depth awareness: a saturated shard sheds; a
                # replicated key may still land on a quieter replica.
                shed = Overloaded(
                    f"shard {shard.display} at per-shard pending limit "
                    f"({self.config.per_shard_pending}); retry shortly",
                    retry_after=1.0,
                )
                continue
            attempts += 1
            remaining = deadline - self._loop.time()
            if remaining <= 0:
                break
            self._pending += 1
            shard.inflight += 1
            try:
                with TRACER.span(
                    "cluster.forward", shard=shard.index, path=path
                ) as forward_span:
                    trace_headers: Optional[Dict[str, str]] = None
                    if TRACER.enabled:
                        carrier = TRACER.current_carrier()
                        if carrier is not None:
                            trace_headers = {
                                "X-Repro-Trace": carrier_to_header(carrier)
                            }
                    status, headers, payload = await shard.pool.request(
                        "POST",
                        path,
                        body,
                        timeout=remaining,
                        headers=trace_headers,
                    )
                    if forward_span is not None:
                        forward_span.attributes["status"] = status
            except asyncio.TimeoutError:
                self.metrics.count("cluster_request_timeouts")
                raise RequestTimeout(
                    f"no shard response within "
                    f"{self.config.request_timeout_s:.3f}s; the "
                    "computation continues and a retry may hit the "
                    "owning shard's cache"
                ) from None
            except OSError as error:
                shard.errors += 1
                self.metrics.count("cluster_shard_errors")
                self._mark_failure(
                    shard, f"{type(error).__name__}: {error}"
                )
                if attempts < 2:
                    shard.retries += 1
                    self.metrics.count("cluster_retries")
                continue
            finally:
                self._pending -= 1
                shard.inflight -= 1
            if status in (500, 502, 503):
                # A draining or crashed-but-listening shard: idempotent
                # job, retry once on the next ring successor.
                shard.errors += 1
                self.metrics.count("cluster_shard_errors")
                self._mark_failure(shard, f"forward HTTP {status}")
                if attempts < 2:
                    shard.retries += 1
                    self.metrics.count("cluster_retries")
                continue
            return self._shard_response(
                shard, route, fingerprint, status, headers, payload
            )
        if shed is not None and attempts == 0:
            raise shed
        self.metrics.count("cluster_no_shard_available")
        raise NoShardAvailable(
            f"no shard could serve {op} after {attempts} attempt(s)",
            retry_after=1.0,
        )

    def _shard_response(
        self,
        shard: ShardState,
        route: _Route,
        fingerprint: str,
        status: int,
        headers: Dict[str, str],
        payload: bytes,
    ) -> HttpResponse:
        self._mark_success(shard)
        shard.requests += 1
        self.metrics.count(
            labeled_name("cluster_shard_requests", shard=str(shard.index))
        )
        self.metrics.count(f"http_{status}")
        if (
            status == 200
            and self.config.front_cache_entries > 0
            and route.seen >= self.config.front_cache_threshold
        ):
            self._front[fingerprint] = (
                status,
                headers.get("content-type", "application/json"),
                payload,
            )
        out_headers: Dict[str, str] = {}
        if "retry-after" in headers:
            out_headers["Retry-After"] = headers["retry-after"]
        return HttpResponse(
            status,
            payload,
            content_type=headers.get("content-type", "application/json"),
            headers=out_headers,
        )

    # -- routing state -----------------------------------------------------

    def _resolve_route(self, op: str, body: bytes) -> _Route:
        key = (op, hashlib.sha256(body).digest())
        route = self._routes.get(key)
        if route is not None:
            self.metrics.count("cluster_route_cache_hits")
            return route
        route = _Route()
        try:
            decoded = json.loads(body.decode("utf-8"))
        except ValueError as error:
            route.fault = BadRequest(f"invalid JSON body: {error}")
        else:
            try:
                route.fingerprint = normalize_request(op, decoded).fingerprint
            except ServiceFault as fault:
                # A fresh copy: the cached fault must not pin the
                # normalisation frames (traceback, cause) in the cache.
                route.fault = type(fault)(str(fault), fault.retry_after)
        self._routes[key] = route
        return route

    def _note_request(self, route: _Route, fingerprint: str) -> bool:
        """Update sighting/hot-rate state; True when the key is hot."""
        now = time.monotonic()
        route.seen += 1
        window = route.window
        if now - window[0] > self.config.hot_window_s:
            window[0] = now
            window[1] = 0
        window[1] += 1
        if window[1] >= self.config.hot_threshold:
            if fingerprint not in self._hot_until:
                self.metrics.count("cluster_hot_keys_promoted")
            self._hot_until[fingerprint] = now + self.config.hot_ttl_s
        expiry = self._hot_until.get(fingerprint)
        if expiry is None:
            return False
        if expiry <= now:
            del self._hot_until[fingerprint]
            self._hot_rr.pop(fingerprint, None)
            return False
        return True

    def _targets(self, fingerprint: str, hot: bool) -> List[ShardState]:
        """Preference-ordered shards for a fingerprint: ring order,
        healthy first; hot keys rotate through their replica set."""
        order = [
            self.shards[address]
            for address in self.ring.lookup_n(
                fingerprint, len(self.shards)
            )
        ]
        healthy = [shard for shard in order if shard.healthy]
        pool = healthy if healthy else order
        if hot and self.config.replication > 1 and len(pool) > 1:
            width = min(self.config.replication, len(pool))
            turn = self._hot_rr.get(fingerprint, 0)
            self._hot_rr[fingerprint] = turn + 1
            start = turn % width
            return pool[start:width] + pool[:start] + pool[width:]
        return pool

    # -- introspection -----------------------------------------------------

    def _health_payload(self) -> Dict[str, Any]:
        healthy = sum(1 for s in self.shards.values() if s.healthy)
        return {
            "status": "draining" if self.draining else "ok",
            "role": "coordinator",
            "version": __version__,
            "shards": len(self.shards),
            "healthy_shards": healthy,
            "in_flight": self._pending,
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "metrics_schema": SCHEMA_VERSION,
        }

    async def _cluster_health(self) -> Dict[str, Any]:
        """The rollup: live per-shard healthz + dedup counters."""

        async def one(shard: ShardState) -> Tuple[str, Dict[str, Any]]:
            entry: Dict[str, Any] = {
                "index": shard.index,
                "address": shard.address,
                "healthy": shard.healthy,
                "consecutive_failures": shard.consecutive_failures,
                "last_error": shard.last_error,
                "requests": shard.requests,
                "retries": shard.retries,
                "errors": shard.errors,
                "in_flight": shard.inflight,
                "healthz": None,
                "dedup": None,
            }
            try:
                status, _, body = await shard.pool.request(
                    "GET", "/healthz", timeout=2.0
                )
                if status == 200:
                    payload = json.loads(body.decode("utf-8"))
                    entry["healthz"] = payload
                    if shard.label is None and payload.get("shard"):
                        shard.label = str(payload["shard"])
                    if payload.get("status") == "ok":
                        self._mark_success(shard)
                    else:
                        self._mark_failure(
                            shard,
                            f"shard status {payload.get('status')!r}",
                        )
                status, _, body = await shard.pool.request(
                    "GET", "/metrics", timeout=2.0
                )
                if status == 200:
                    counters = json.loads(body.decode("utf-8")).get(
                        "counters", {}
                    )
                    entry["dedup"] = {
                        name: counters.get(name, 0)
                        for name in SHARD_DEDUP_COUNTERS
                    }
            except (asyncio.TimeoutError, ValueError, OSError) as error:
                self._mark_failure(
                    shard, f"{type(error).__name__}: {error}"
                )
            entry["healthy"] = shard.healthy
            entry["label"] = shard.display
            return shard.display, entry

        gathered = await asyncio.gather(
            *(one(shard) for shard in self.shards.values())
        )
        shards: Dict[str, Any] = {}
        for label, entry in gathered:
            while label in shards:  # label collision safety net
                label = f"{label}@{entry['address']}"
            shards[label] = entry
        now = time.monotonic()
        counters = self.metrics.to_dict().get("counters", {})
        healthy = sum(1 for s in self.shards.values() if s.healthy)
        return {
            "status": "ok" if healthy == len(self.shards) else "degraded",
            "role": "coordinator",
            "version": __version__,
            "uptime_seconds": round(now - self._started_monotonic, 3),
            "replication": self.config.replication,
            "hot_keys": sum(
                1 for expiry in self._hot_until.values() if expiry > now
            ),
            "front_cache_entries": len(self._front),
            "shards": shards,
            "coordinator": {
                "counters": {
                    name: value
                    for name, value in sorted(counters.items())
                    if name.startswith("cluster_")
                },
            },
        }

    def _metrics_snapshot(self) -> Dict[str, Any]:
        """The coordinator's own metrics, cache gauges refreshed."""
        publish_cache_metrics(self.metrics)
        return self.metrics.to_dict()

    async def _shard_metric_snapshots(
        self,
    ) -> List[Tuple[ShardState, Optional[Dict[str, Any]]]]:
        """Fetch each shard's ``/metrics`` JSON snapshot concurrently;
        an unreachable shard yields ``None`` (and is marked failing)."""

        async def one(
            shard: ShardState,
        ) -> Tuple[ShardState, Optional[Dict[str, Any]]]:
            try:
                status, _, body = await shard.pool.request(
                    "GET", "/metrics", timeout=2.0
                )
                if status == 200:
                    return shard, json.loads(body.decode("utf-8"))
                self._mark_failure(shard, f"metrics HTTP {status}")
            except (asyncio.TimeoutError, ValueError, OSError) as error:
                self._mark_failure(
                    shard, f"{type(error).__name__}: {error}"
                )
            return shard, None

        return list(
            await asyncio.gather(
                *(one(shard) for shard in self.shards.values())
            )
        )

    @staticmethod
    def _aggregate_metrics(
        snapshots: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Sum counters/stages and exact-merge histograms across shard
        snapshots.  Histograms merge bucket-by-bucket (identical bounds
        guaranteed by the shared registry defaults); a shard reporting
        different bounds is skipped and listed, never interpolated."""
        counters: Dict[str, int] = {}
        stages: Dict[str, float] = {}
        histograms: Dict[str, Histogram] = {}
        skipped: List[str] = []
        for snapshot in snapshots:
            for name, value in snapshot.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + int(value)
            for name, value in snapshot.get("stages", {}).items():
                stages[name] = round(
                    stages.get(name, 0.0) + float(value), 9
                )
            for name, data in snapshot.get("histograms", {}).items():
                try:
                    incoming = Histogram.from_dict(data)
                except (KeyError, ValueError, TypeError):
                    skipped.append(name)
                    continue
                existing = histograms.get(name)
                if existing is None:
                    histograms[name] = incoming
                    continue
                try:
                    existing.merge(incoming)
                except ValueError:
                    skipped.append(name)
        out: Dict[str, Any] = {
            "counters": dict(sorted(counters.items())),
            "stages": dict(sorted(stages.items())),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(histograms.items())
            },
        }
        if skipped:
            out["skipped_histograms"] = sorted(set(skipped))
        return out

    async def _cluster_metrics(self) -> Dict[str, Any]:
        """``GET /v1/cluster/metrics`` (JSON): coordinator snapshot,
        live per-shard snapshots, and the exact aggregate."""
        gathered = await self._shard_metric_snapshots()
        shards: Dict[str, Any] = {}
        shard_snapshots: List[Dict[str, Any]] = []
        for shard, snapshot in gathered:
            shards[str(shard.index)] = {
                "label": shard.display,
                "address": shard.address,
                "healthy": shard.healthy,
                "metrics": snapshot,
            }
            if snapshot is not None:
                shard_snapshots.append(snapshot)
        return {
            "schema": SCHEMA_VERSION,
            "role": "coordinator",
            "shards": shards,
            "coordinator": self._metrics_snapshot(),
            "aggregate": self._aggregate_metrics(shard_snapshots),
        }

    async def _cluster_metrics_prometheus(self) -> str:
        """``GET /v1/cluster/metrics`` (Prometheus): one exposition
        with every series labelled by origin — ``shard="K"`` for shard
        K, ``shard="coordinator"`` for the front tier, and the exact
        cross-shard histogram merge as ``shard="cluster"``.  Stage
        timings sum unlabelled (they already carry a ``stage`` label)."""
        gathered = await self._shard_metric_snapshots()
        combined: Dict[str, Dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "stages": {},
            "histograms": {},
        }

        def fold(snapshot: Dict[str, Any], shard_label: str) -> None:
            for kind in ("counters", "gauges", "histograms"):
                for name, value in snapshot.get(kind, {}).items():
                    combined[kind][
                        merge_labels(name, shard=shard_label)
                    ] = value
            for name, value in snapshot.get("stages", {}).items():
                combined["stages"][name] = round(
                    combined["stages"].get(name, 0.0) + float(value), 9
                )

        fold(self._metrics_snapshot(), "coordinator")
        shard_snapshots = []
        for shard, snapshot in gathered:
            if snapshot is None:
                continue
            fold(snapshot, str(shard.index))
            shard_snapshots.append(snapshot)
        merged = self._aggregate_metrics(shard_snapshots)
        for name, data in merged["histograms"].items():
            combined["histograms"][
                merge_labels(name, shard="cluster")
            ] = data
        return render_prometheus(combined)


def coordinate_forever(
    config: ClusterConfig, metrics_out: Optional[str] = None
) -> int:
    """CLI entry: run until SIGTERM/SIGINT, then drain and report."""
    coordinator = ClusterCoordinator(config)
    try:
        coordinator.run_forever()
    except KeyboardInterrupt:
        pass
    if metrics_out:
        publish_cache_metrics(coordinator.metrics)
        coordinator.metrics.write(metrics_out)
    print(coordinator.metrics.summary(), file=sys.stderr)
    return 0
