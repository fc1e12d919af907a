"""The allocation service: endpoints, caching, executor, drain.

Endpoints::

    POST /v1/allocate   IR text/benchmark + software scheme -> annotations
    POST /v1/evaluate   IR text/benchmark + any scheme      -> engine record
    POST /v1/tune       IR text/benchmark + search params   -> tuner payload
    GET  /healthz       liveness + drain state + version/uptime/schema
    GET  /metrics       RunMetrics JSON (schema 3: stages/counters/
                        gauges/histograms); Prometheus text on
                        ``Accept: text/plain`` or ``?format=prometheus``

A request flows: normalise (400 on anything malformed, parse errors
included) → result memo (in-memory, then
:class:`~repro.engine.cache.DiskCache` kind ``"service"``) → the
:class:`~repro.service.batcher.JobBatcher` (in-flight dedup, bounded
admission → 429, micro-batch dispatch) → a bounded
``ProcessPoolExecutor`` running
:func:`~repro.service.pipeline.run_service_job` → memo + disk store.
Results are pure functions of the request fingerprint, so every cache
layer is transparent: a memo hit returns byte-identical payloads to a
cold compute.

The pool is vetted at startup with a probe job; where process pools
cannot start (restricted sandboxes) the service degrades to a thread
executor and says so in ``/healthz`` — same results, less parallelism.

SIGTERM/SIGINT trigger graceful drain: stop accepting, finish
in-flight work (bounded by ``drain_grace_s``), flush keep-alive
connections, shut the executor down.
"""

from __future__ import annotations

import asyncio
import sys
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .. import __version__
from ..engine.cache import BoundedCache, DiskCache, publish_cache_metrics
from ..engine.metrics import SCHEMA_VERSION, RunMetrics
from ..obs.exporters import write_chrome_trace
from ..obs.registry import PROMETHEUS_CONTENT_TYPE
from ..obs.tracer import (
    TRACE_HEADER,
    TRACER,
    carrier_from_header,
    traced_call,
)
from .batcher import JobBatcher
from .httpd import HttpFrontDoor, HttpRequest, HttpResponse, json_response
from .pipeline import RESULT_SCHEMA, _probe, run_service_job
from .protocol import Draining, ServiceFault, ServiceJob, normalize_request


_RESULT_MEMO_ENTRIES = 4096


@dataclass
class ServiceConfig:
    """Everything `repro serve` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8077
    #: Executor workers (CPU-bound stage width).
    jobs: int = 2
    #: "process" (vetted, falls back to threads) or "thread".
    executor: str = "process"
    #: Admission bound: distinct jobs in flight before 429.
    max_pending: int = 64
    #: Per-request wall-clock budget before 504.
    request_timeout_s: float = 30.0
    #: Micro-batch coalescing window (0 = one loop iteration).
    linger_s: float = 0.0
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    max_body_bytes: int = 1 << 20
    drain_grace_s: float = 30.0
    #: Print the bound address on startup (the CLI sets this; tests
    #: read ``server.port`` instead).
    announce: bool = False
    #: Enable span tracing; write a Chrome trace-event JSON here on exit.
    trace_out: Optional[str] = None
    #: Stream spans to this JSONL file as they finish.
    trace_jsonl: Optional[str] = None
    #: Cluster identity (``"K/N"`` from ``--shard-of``); reported in
    #: ``/healthz`` and stamped on job responses so the coordinator and
    #: loadgen can attribute work per shard.  ``None`` = standalone.
    shard: Optional[str] = None


class ServiceServer(HttpFrontDoor):
    """One service instance; usable from a thread (tests) or the CLI."""

    def __init__(
        self, config: ServiceConfig, metrics: Optional[RunMetrics] = None
    ) -> None:
        super().__init__()
        self.config = config
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.cache = (
            DiskCache(config.cache_dir, max_bytes=config.cache_max_bytes)
            if config.cache_dir
            else None
        )
        self._memo = BoundedCache("service.results", _RESULT_MEMO_ENTRIES)
        self._executor: Optional[Executor] = None
        self.executor_kind = "none"
        self._batcher: Optional[JobBatcher] = None
        # Pre-register the request latency histogram so /metrics always
        # exposes it, even before the first request lands.
        self.metrics.histogram("http_request_seconds")
        if config.trace_out or config.trace_jsonl:
            TRACER.configure(
                enabled=True, jsonl_path=config.trace_jsonl
            )

    # -- lifecycle ---------------------------------------------------------

    async def _start(self) -> None:
        self._executor, self.executor_kind = self._make_executor()
        self._batcher = JobBatcher(
            self._run_job,
            max_pending=self.config.max_pending,
            linger_s=self.config.linger_s,
            metrics=self.metrics,
        )
        self._batcher.start()
        await self._listen()

    def _announcement(self) -> str:
        return (
            f"repro service listening on "
            f"http://{self.config.host}:{self.port} "
            f"(executor={self.executor_kind}, "
            f"jobs={self.config.jobs})"
        )

    def _make_executor(self):
        if self.config.executor == "thread":
            return (
                ThreadPoolExecutor(max_workers=self.config.jobs),
                "thread",
            )
        try:
            pool = ProcessPoolExecutor(max_workers=self.config.jobs)
            pool.submit(_probe).result(timeout=60)
            return pool, "process"
        except Exception:
            return (
                ThreadPoolExecutor(max_workers=self.config.jobs),
                "thread",
            )

    async def _drain(self) -> None:
        with self.metrics.stage("drain"):
            self.draining = True
            assert self._http is not None and self._batcher is not None
            await self._http.stop_accepting()
            completed = await self._batcher.drain(
                self.config.drain_grace_s
            )
            if not completed:
                self.metrics.count("drain_abandoned_jobs")
            # In-flight HTTP exchanges finish writing their responses
            # before idle connections are torn down.
            deadline = (
                asyncio.get_running_loop().time()
                + self.config.drain_grace_s
            )
            while (
                self._http.active_requests
                and asyncio.get_running_loop().time() < deadline
            ):
                await asyncio.sleep(0.01)
            self._http.close_idle_connections()
            if self._executor is not None:
                self._executor.shutdown(wait=True)

    # -- request handling --------------------------------------------------

    async def handle(self, request: HttpRequest) -> HttpResponse:
        started = time.perf_counter()
        path = request.target.split("?", 1)[0]
        # A coordinator forward carries its span context in
        # X-Repro-Trace; attaching it parents this shard's request
        # span under the coordinator's forward span so the merged
        # cluster trace nests end to end.
        carrier = carrier_from_header(request.headers.get(TRACE_HEADER))
        with TRACER.attach(carrier):
            with TRACER.span(
                "service.request", method=request.method, path=path
            ) as span:
                response = await self._route(request, path)
                if span is not None:
                    span.attributes["status"] = response.status
        self.metrics.observe(
            "http_request_seconds", time.perf_counter() - started
        )
        return response

    async def _route(
        self, request: HttpRequest, path: str
    ) -> HttpResponse:
        self.metrics.count("http_requests")
        route = (request.method, path)
        try:
            if route == ("GET", "/healthz"):
                return json_response(200, self._health_payload())
            if route == ("GET", "/metrics"):
                if self._wants_prometheus(request):
                    return HttpResponse(
                        200,
                        self._prometheus_text().encode("utf-8"),
                        content_type=PROMETHEUS_CONTENT_TYPE,
                    )
                return json_response(200, self._metrics_payload())
            if route[1] in ("/v1/allocate", "/v1/evaluate", "/v1/tune"):
                if request.method != "POST":
                    return self._error_response(
                        405, "method_not_allowed",
                        f"{route[1]} requires POST",
                    )
                op = route[1].rsplit("/", 1)[1]
                return await self._handle_job(op, request)
            return self._error_response(
                404, "not_found", f"no route for {route[1]}"
            )
        except ServiceFault as fault:
            return self._fault_response(fault)

    async def _handle_job(
        self, op: str, request: HttpRequest
    ) -> HttpResponse:
        if self.draining:
            raise Draining("server is draining; no new work accepted")
        try:
            body = request.json()
        except ValueError as error:
            return self._error_response(
                400, "bad_request", f"invalid JSON body: {error}"
            )
        with self.metrics.stage("normalize"):
            job = normalize_request(op, body)

        result = self._lookup(job.fingerprint)
        if result is not None:
            served_from = "cache"
        else:
            result = await self._batcher.submit(
                job, self.config.request_timeout_s
            )
            served_from = "computed"
        self.metrics.count(f"{op}_responses")
        payload = dict(result)
        payload["fingerprint"] = job.fingerprint
        payload["served_from"] = served_from
        if self.config.shard is not None:
            payload["shard"] = self.config.shard
        return json_response(200, payload)

    def _lookup(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        result = self._memo.get(fingerprint)
        if result is not None:
            self.metrics.count("service_memo_hits")
            return result
        if self.cache is not None:
            cached = self.cache.get_json("service", fingerprint)
            if (
                isinstance(cached, dict)
                and cached.get("schema") == RESULT_SCHEMA
            ):
                self.metrics.count("service_disk_hits")
                self._memo[fingerprint] = cached
                return cached
        return None

    async def _run_job(self, job: ServiceJob) -> Dict[str, Any]:
        """The batcher's execute callable: executor round-trip + store.

        With tracing on, the job crosses the pool via ``traced_call``:
        the worker records its own spans and returns them next to the
        result, which stays byte-identical to the untraced path.
        """
        assert self._loop is not None and self._executor is not None
        with self.metrics.stage("execute"):
            if TRACER.enabled:
                with TRACER.span(
                    "service.execute",
                    op=job.op,
                    fingerprint=job.fingerprint[:16],
                ):
                    wrapped = await self._loop.run_in_executor(
                        self._executor,
                        traced_call,
                        TRACER.current_carrier(),
                        run_service_job,
                        job.payload,
                    )
                TRACER.ingest(wrapped["spans"])
                result = wrapped["result"]
            else:
                result = await self._loop.run_in_executor(
                    self._executor, run_service_job, job.payload
                )
        self.metrics.count("jobs_executed")
        self._memo[job.fingerprint] = result
        if self.cache is not None:
            self.cache.put_json("service", job.fingerprint, result)
        return result

    # -- introspection -----------------------------------------------------

    def _prometheus_text(self) -> str:
        # Refresh the gauges exactly like the JSON payload does.
        self._metrics_payload()
        return self.metrics.to_prometheus()

    def _health_payload(self) -> Dict[str, Any]:
        batcher = self._batcher
        return {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "shard": self.config.shard,
            "executor": self.executor_kind,
            "in_flight": batcher.pending if batcher else 0,
            "queue_depth": batcher.queue_depth if batcher else 0,
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "metrics_schema": SCHEMA_VERSION,
        }

    def _metrics_payload(self) -> Dict[str, Any]:
        batcher = self._batcher
        if batcher is not None:
            self.metrics.gauge(
                "service_in_flight", float(batcher.pending)
            )
            self.metrics.gauge(
                "service_queue_depth", float(batcher.queue_depth)
            )
        self.metrics.gauge("service_draining", float(self.draining))
        self.metrics.gauge(
            "service_memo_entries", float(len(self._memo))
        )
        publish_cache_metrics(self.metrics)
        return self.metrics.to_dict()


def serve_forever(
    config: ServiceConfig, metrics_out: Optional[str] = None
) -> int:
    """CLI entry: run until SIGTERM/SIGINT, then drain and report."""
    server = ServiceServer(config)
    try:
        server.run_forever()
    except KeyboardInterrupt:
        pass
    if metrics_out:
        server._metrics_payload()
        server.metrics.write(metrics_out)
    if config.trace_out:
        write_chrome_trace(config.trace_out, TRACER.drain())
        print(f"wrote trace to {config.trace_out}", file=sys.stderr)
    print(server.metrics.summary(), file=sys.stderr)
    return 0
