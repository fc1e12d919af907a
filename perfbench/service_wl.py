"""The ``alloc_service`` workload: a closed loop against ``repro serve``.

Two keep-alive connections from this process, each sending its next
request only when the previous reply has arrived (callers of the
service are scripts and tuners that wait for their answer), against
one ``repro serve --jobs 1 --executor thread`` subprocess.

The seeded plan is made of generated fuzz kernels sent as IR text,
half ``/v1/allocate`` and half ``/v1/evaluate``, all under one
software scheme.  About half of the requests repeat a kernel drawn
uniformly from those sent before, so the distinct working set grows
past the allocator's 128-entry analysis cache; about 1 in 32 is
malformed and must be answered 400.  Client retries are off: any
status other than the expected one is a failed request.

Every 200 body, minus the serving envelope, must equal what
``run_service_job`` computes for the same request in a fresh process
(the check ``repro loadgen`` makes); the expected results are
computed after the timed window so they do not compete with it.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    ENVELOPE_KEYS,
    RUN_DIR,
    SRC,
    BenchError,
    Child,
    canonical_digest,
    child_env,
    median,
    percentile,
    proc_peak_rss_mb,
)
from layers import layer_values
from ledger import Ledger

CLIENTS = 2
#: Server starts per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Plan length cap: about three times what the seed commit serves in
#: a 20-second window; a run that exhausts it ends early and says so.
MAX_REQUESTS = 6000
MALFORMED_SHARE = 1 / 32
REPEAT_SHARE = 0.5
SCHEME = {"kind": "sw_lrf", "entries_per_thread": 3, "split_lrf": True}
HEALTH_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
VERIFY_WORKERS = 2
#: The server's peak RSS is read when this many replies have arrived,
#: so it measures a fixed amount of work whatever the request rate
#: (the server's memos grow with every distinct request).
RSS_AT_REQUESTS = 1000
VERIFY_TIMEOUT_S = 120.0


@dataclass
class Request:
    op: str
    body: bytes
    expect: int
    #: Index of the kernel in the plan's kernel list (-1: malformed).
    kernel: int


def build_plan(seed: int, count: int = MAX_REQUESTS) -> List[Request]:
    """The seeded request sequence (same seed, same requests)."""
    sys.path.insert(0, str(SRC))
    from repro.ir.printer import format_kernel
    from repro.workloads.generators import generate_workload

    rng = random.Random(f"alloc_service:{seed}")
    kernels: List[Tuple[str, List[Dict[str, Any]]]] = []
    plan: List[Request] = []
    for _ in range(count):
        if kernels and rng.random() < MALFORMED_SHARE:
            text, warps = kernels[rng.randrange(len(kernels))]
            if rng.random() < 0.5:
                body = {"kernel": text + "    frobnicate R1, R2\n",
                        "scheme": SCHEME}
            else:
                body = {"kernel": text, "scheme": {"kind": "warp-drive"}}
            plan.append(
                Request("allocate", json.dumps(body).encode(), 400, -1)
            )
            continue
        if kernels and rng.random() < REPEAT_SHARE:
            index = rng.randrange(len(kernels))
        else:
            spec = generate_workload(rng.randrange(1, 2**31))
            warps = [
                {
                    "live_in": {
                        str(reg): value
                        for reg, value in sorted(
                            warp.live_in_values.items(), key=lambda i: str(i[0])
                        )
                    }
                }
                for warp in spec.warp_inputs
            ]
            index = len(kernels)
            kernels.append((format_kernel(spec.kernel), warps))
        text, warps = kernels[index]
        op = rng.choice(("allocate", "evaluate"))
        body = {"kernel": text, "scheme": SCHEME}
        if op == "evaluate":
            body["warps"] = warps
        plan.append(Request(op, json.dumps(body).encode(), 200, index))
    return plan


# -- server ------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess; ``setup_s`` is spawn-to-healthy."""

    def __init__(self, ledger_out: Optional[str] = None) -> None:
        RUN_DIR.mkdir(exist_ok=True)
        self.port = _free_port()
        serve_args = [
            "--host", "127.0.0.1", "--port", str(self.port),
            "--jobs", "1", "--executor", "thread",
        ]
        if ledger_out is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            command = [
                sys.executable, str(BENCH_DIR / "serve.py"),
                "--ledger-out", ledger_out, "--", *serve_args,
            ]
        self.log_path = RUN_DIR / f"serve-{os.getpid()}-{self.port}.log"
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=str(BENCH_DIR.parent),
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=self._log,
        )
        try:
            self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_healthy(self, started: float) -> None:
        while time.perf_counter() - started < HEALTH_TIMEOUT_S:
            if self.proc.poll() is not None:
                break
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        log = self.log_path.read_text(errors="replace")[-800:]
        raise BenchError(f"server did not become healthy: {log}")

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def counters(self) -> Dict[str, float]:
        status, body = self.get("/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        return json.loads(body).get("counters", {})

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains), then reap; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        self.log_path.unlink(missing_ok=True)


# -- closed loop ---------------------------------------------------------------


@dataclass
class Outcome:
    status: Optional[int]
    latency_s: float
    digest: Optional[str]
    error: Optional[str] = None


def _post(conn, request: Request) -> Tuple[int, bytes]:
    conn.request(
        "POST",
        f"/v1/{request.op}",
        body=request.body,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, response.read()


def _digest(status: int, body: bytes) -> Optional[str]:
    if status != 200:
        return None
    payload = json.loads(body)
    for key in ENVELOPE_KEYS:
        payload.pop(key, None)
    return canonical_digest(payload)


def closed_loop(
    port: int,
    plan: List[Request],
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    on_completed: Optional[Callable[[int], None]] = None,
) -> Tuple[List[Outcome], float]:
    """Drive ``plan`` in order from :data:`CLIENTS` connections until
    ``seconds`` pass or ``count`` requests were sent; returns the
    outcomes of the sent prefix of the plan and the window's wall time.
    ``on_completed(n)`` runs after the n-th reply arrives."""
    limit = min(len(plan), count if count is not None else len(plan))
    outcomes: List[Optional[Outcome]] = [None] * limit
    lock = threading.Lock()
    cursor = [0]
    completed = [0]
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else float("inf")

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= limit or time.perf_counter() >= deadline:
                        return
                    cursor[0] += 1
                request = plan[index]
                sent = time.perf_counter()
                try:
                    status, body = _post(conn, request)
                    latency = time.perf_counter() - sent
                    outcome = Outcome(status, latency, _digest(status, body))
                except (OSError, http.client.HTTPException, ValueError) as error:
                    outcome = Outcome(
                        None, time.perf_counter() - sent, None,
                        f"{type(error).__name__}: {error}",
                    )
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=60
                    )
                outcomes[index] = outcome
                with lock:
                    completed[0] += 1
                    done_count = completed[0]
                if on_completed is not None:
                    on_completed(done_count)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    lost = Outcome(None, 0.0, None, "not completed")
    return [o or lost for o in outcomes[: cursor[0]]], wall


# -- verification ------------------------------------------------------------


def expected_digests(jobs: List[List[Any]]) -> List[List[Any]]:
    """Worker side: [kernel, op, body] -> [kernel, op, digest] of what
    ``run_service_job`` computes in this process."""
    from repro.service.pipeline import run_service_job
    from repro.service.protocol import normalize_request

    out = []
    for kernel, op, body in jobs:
        job = normalize_request(op, json.loads(body))
        out.append([kernel, op, canonical_digest(run_service_job(job.payload))])
    return out


def expected_results(
    plan: List[Request], sent: int
) -> Dict[Tuple[int, str], str]:
    """Expected digest of every distinct (kernel, op) among the first
    ``sent`` requests, computed in :data:`VERIFY_WORKERS` fresh worker
    processes after the timed window."""
    jobs: Dict[Tuple[int, str], List[Any]] = {}
    for request in plan[:sent]:
        if request.expect == 200:
            jobs.setdefault(
                (request.kernel, request.op),
                [request.kernel, request.op, request.body.decode("utf-8")],
            )
    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / f"verify-{os.getpid()}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([job for _, job in sorted(jobs.items())], handle)
    children = [
        Child(
            ["--workload", "verify", "--seed", "0",
             "--jobs-file", str(path), "--part", f"{part}/{VERIFY_WORKERS}"],
            VERIFY_TIMEOUT_S,
        )
        for part in range(VERIFY_WORKERS)
    ]
    expected: Dict[Tuple[int, str], str] = {}
    try:
        for child in children:
            child.expect("READY")
            _, result = child.expect("RESULT")
            for kernel, op, digest in result["digests"]:
                expected[(kernel, op)] = digest
    finally:
        for child in children:
            child.close()
        path.unlink(missing_ok=True)
    return expected


def check(
    plan: List[Request],
    outcomes: List[Outcome],
    expected: Dict[Tuple[int, str], str],
) -> int:
    """Number of failed requests: wrong status, wrong body, or error."""
    failed = 0
    for request, outcome in zip(plan, outcomes):
        if outcome.status != request.expect:
            failed += 1
        elif request.expect == 200 and (
            expected.get((request.kernel, request.op)) != outcome.digest
        ):
            failed += 1
    return failed


# -- runs --------------------------------------------------------------------


def run(seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced run: the end-to-end metrics."""
    plan = build_plan(seed)
    setups = []
    for _ in range(SETUPS - 1):
        server = Server()
        setups.append(server.setup_s)
        server.stop()
    server = Server()
    setups.append(server.setup_s)
    rss: List[float] = []

    def sample_rss(done: int) -> None:
        if done == RSS_AT_REQUESTS:
            rss.append(server.peak_rss_mb())

    try:
        outcomes, wall = closed_loop(
            server.port, plan, seconds=seconds, on_completed=sample_rss
        )
        if not rss:
            rss.append(server.peak_rss_mb())
    finally:
        server.stop()
    failed = check(plan, outcomes, expected_results(plan, len(outcomes)))
    latencies_ms = [o.latency_s * 1e3 for o in outcomes]
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "checks": {"responses match run_service_job": failed == 0},
        "metrics": {
            "setup_s": median(setups),
            "ops_per_s": len(outcomes) / wall,
            "p50_ms": percentile(latencies_ms, 0.50),
            "p95_ms": percentile(latencies_ms, 0.95),
            "peak_rss_mb": rss[0],
        },
        "info": {
            "samples": len(outcomes),
            "p99_ms": round(percentile(latencies_ms, 0.99), 3),
            "max_ms": round(max(latencies_ms), 3),
            "plan_exhausted": len(outcomes) >= len(plan),
            "distinct_kernels": _distinct_kernels(plan, len(outcomes)),
            "rss_at_requests": RSS_AT_REQUESTS
            if len(outcomes) >= RSS_AT_REQUESTS
            else len(outcomes),
            "setup_samples": len(setups),
        },
    }


def _distinct_kernels(plan: List[Request], sent: int) -> int:
    return len({request.kernel for request in plan[:sent]} - {-1})


def traced(seed: int, seconds: float) -> Dict[str, Any]:
    """An untraced server for half the run, then a traced server on
    exactly the same requests: the per-layer ledger and the tracing
    overhead."""
    plan = build_plan(seed)
    server = Server()
    try:
        plain, plain_wall = closed_loop(server.port, plan, seconds=seconds / 2)
    finally:
        server.stop()
    RUN_DIR.mkdir(exist_ok=True)
    ledger_path = RUN_DIR / f"ledger-{os.getpid()}.json"
    server = Server(ledger_out=str(ledger_path))
    try:
        outcomes, wall = closed_loop(server.port, plan, count=len(plain))
        counters = server.counters()
    finally:
        server.stop()
    try:
        with open(ledger_path, "r", encoding="utf-8") as handle:
            ledger = Ledger.from_dict(json.load(handle))
    finally:
        ledger_path.unlink(missing_ok=True)

    expected = expected_results(plan, len(plain))
    failed = check(plan, plain, expected) + check(plan, outcomes, expected)

    values = layer_values(ledger)
    client_total = sum(o.latency_s for o in outcomes)
    handled = ledger.total_s("service.handle")
    valid = sum(1 for r in plan[: len(outcomes)] if r.expect == 200)
    values.update(
        {
            "service.normalize_s": ledger.self_s("service.normalize"),
            "service.handle_s": ledger.self_s("service.handle"),
            "service.queue_wait_s": ledger.self_s("service.submit"),
            "service.job_s": ledger.self_s("service.job"),
            "service.transport_s": client_total - handled,
            "service.memo_hit_ratio": counters.get("service_memo_hits", 0)
            / valid,
            "service.dedup_ratio": counters.get("inflight_dedup_hits", 0)
            / valid,
            "service.status_400": sum(1 for o in outcomes if o.status == 400),
            "service.distinct_kernels": _distinct_kernels(plan, len(outcomes)),
            "service.latency_samples": len(outcomes),
            "ledger.wall_gap_ratio": 1.0 - handled / client_total,
            "trace.overhead_ratio": wall / plain_wall - 1.0,
        }
    )
    sums_ok, _ = ledger.check()
    return {
        "attempted": len(plain) + len(outcomes),
        "failed": failed,
        "checks": {
            "responses match run_service_job": failed == 0,
            "self times add up to the traced total": sums_ok,
        },
        "values": values,
        "info": {"samples": len(outcomes)},
    }
