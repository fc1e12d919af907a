"""Shared helpers: paths, child processes, statistics, goldens."""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
#: Scratch space for run artefacts (server logs, traced-server
#: ledgers); inside the checkout and ignored by git.
RUN_DIR = BENCH_DIR / "_run"

#: The ten figures ``repro all`` prints, in its order.
FIGURES = (
    "fig2", "fig11", "fig12", "fig13", "fig14", "fig15",
    "limit", "encoding", "variable", "sensitivity",
)
#: The studies among them (their share of the figure run is reported).
STUDIES = ("limit", "encoding", "variable", "sensitivity")

#: Keys the serving tier adds to a job response; they are not part of
#: the computation and are dropped before comparing results.
ENVELOPE_KEYS = ("fingerprint", "served_from", "shard")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, dead child)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_COMPILED", None)
    return env


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")


def canonical_digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the sample at ceil(f*n))."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def host_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop.  Printed beside the
    metrics as a probe of how fast the host runs at that moment, so
    that drift of a shared machine can be told apart from a change in
    the program; it is not a metric and nothing is scaled by it."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value
        samples.append((time.perf_counter() - started) * 1e3)
    return median(samples)


# -- child processes -------------------------------------------------------


class Child:
    """A benchmark worker process speaking a line protocol on stdout:
    ``READY <json>`` once set up, then ``RESULT <json>``."""

    def __init__(self, args: Sequence[str], timeout_s: float) -> None:
        self.started = time.perf_counter()
        self.deadline = self.started + timeout_s
        self._buffer = b""
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            cwd=str(ROOT),
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )

    def _line(self) -> Optional[str]:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = self.deadline - time.perf_counter()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8")

    def expect(self, tag: str) -> Tuple[float, Dict[str, Any]]:
        """Wait for the ``tag`` line; returns (seconds since spawn,
        payload).  Raises :class:`BenchError` if the child dies or
        times out first."""
        line = self._line()
        at = time.perf_counter() - self.started
        if line is None or not line.startswith(tag + " "):
            self.kill()
            stderr = self.proc.stderr.read().decode("utf-8", "replace")
            self.close()
            raise BenchError(
                f"worker {' '.join(self.proc.args[2:])!r} gave no {tag}: "
                f"{(line or '').strip()[:200]} {stderr.strip()[-800:]}"
            )
        return at, json.loads(line[len(tag) + 1:])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def close(self) -> None:
        """Reap the child (killing it if still alive) and its pipes."""
        self.kill()
        self.proc.stdout.close()
        self.proc.stderr.close()


def setup_only(workload: str, seed: int, timeout_s: float = 60.0) -> float:
    """Spawn a worker that sets up and exits; returns its setup time."""
    child = Child(
        ["--workload", workload, "--seed", str(seed), "--setup-only"],
        timeout_s,
    )
    try:
        at, _ = child.expect("READY")
    finally:
        child.close()
    return at


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- seeded inputs ---------------------------------------------------------

#: Kernels per design-sweep round: the whole suite plus this many
#: seeded fuzz kernels from the golden pool.
SWEEP_FUZZ_PER_ROUND = 12


def sweep_kernels(
    seed: int, round_index: int, suite: Sequence[str], pool: Sequence[int]
) -> List[str]:
    """One design-sweep round: every suite kernel, then seeded fuzz
    kernels (``fuzz:<seed>``) drawn from ``pool``."""
    rng = random.Random(f"design_sweep:{seed}:{round_index}")
    return list(suite) + [
        f"fuzz:{fuzz}" for fuzz in rng.sample(list(pool), SWEEP_FUZZ_PER_ROUND)
    ]


def emit(tag: str, payload: Any) -> None:
    """One protocol line on stdout (see :class:`Child`)."""
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()
