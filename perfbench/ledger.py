"""Span ledger for the benchmark's traced run.

The traced run wraps the public entry point of each layer of the
``repro`` pipeline from the benchmark's own files: a wrapper replaces
the function at its defining module *and* at every ``repro`` module
that imported the name, so calls through any binding are recorded.
Nothing inside ``src/`` changes.  :meth:`Patches.restore` puts every
original object back.

Each wrapped call is a span whose parent is the innermost open span of
the same thread or asyncio task (a :mod:`contextvars` variable, which
asyncio copies per task and a fresh thread starts empty).  A span's
*self* time is its duration minus the durations of its direct child
spans, so the self times of every span add up to the durations of the
root spans; :meth:`Ledger.check` states that identity and the
benchmark compares the root total with an independently measured
wall time.

Spans are aggregated per layer name as they close (calls, inclusive
seconds, self seconds), so a run with hundreds of thousands of calls
keeps constant memory.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_CURRENT: "contextvars.ContextVar[Optional[list]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Relative tolerance for "self times add up to the root total".  The
#: identity is exact in real arithmetic; the tolerance only absorbs
#: floating-point summation error.
SELF_SUM_TOLERANCE = 1e-6


class Ledger:
    """Per-layer span totals plus counters recorded by result hooks."""

    def __init__(self) -> None:
        self.layers: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.root_s = 0.0
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _close(
        self, name: str, duration: float, child: float, parent
    ) -> None:
        with self._lock:
            stats = self.layers.get(name)
            if stats is None:
                stats = self.layers[name] = [0, 0.0, 0.0]
            stats[0] += 1
            stats[1] += duration
            stats[2] += duration - child
            if parent is None:
                self.root_s += duration
            else:
                parent[1] += duration

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of benchmark code (roots, glue)."""
        parent = _CURRENT.get()
        frame = [name, 0.0]
        token = _CURRENT.set(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - started
            _CURRENT.reset(token)
            self._close(name, duration, frame[1], parent)

    def wrap(
        self,
        name: str,
        original: Callable,
        on_result: Optional[Callable[["Ledger", Any], None]] = None,
    ) -> Callable:
        """A recording wrapper around ``original`` (sync or async)."""
        close = self._close
        clock = time.perf_counter

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                parent = _CURRENT.get()
                frame = [name, 0.0]
                token = _CURRENT.set(frame)
                started = clock()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    duration = clock() - started
                    _CURRENT.reset(token)
                    close(name, duration, frame[1], parent)
                if on_result is not None:
                    on_result(self, result)
                return result

            async_wrapper.__perfbench_original__ = original
            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = _CURRENT.get()
            frame = [name, 0.0]
            token = _CURRENT.set(frame)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - started
                _CURRENT.reset(token)
                close(name, duration, frame[1], parent)
            if on_result is not None:
                on_result(self, result)
            return result

        wrapper.__perfbench_original__ = original
        return wrapper

    # -- reading -----------------------------------------------------------

    def self_s(self, name: str) -> float:
        stats = self.layers.get(name)
        return stats[2] if stats else 0.0

    def total_s(self, name: str) -> float:
        stats = self.layers.get(name)
        return stats[1] if stats else 0.0

    def calls(self, name: str) -> int:
        stats = self.layers.get(name)
        return int(stats[0]) if stats else 0

    def self_sum_s(self) -> float:
        return sum(stats[2] for stats in self.layers.values())

    def check(self) -> Tuple[bool, float]:
        """(self times add up to the root total, relative error)."""
        total = self.root_s
        error = abs(self.self_sum_s() - total) / total if total else 0.0
        negative = any(
            stats[2] < -1e-9 * max(1.0, stats[1])
            for stats in self.layers.values()
        )
        return error <= SELF_SUM_TOLERANCE and not negative, error

    def to_dict(self) -> Dict[str, Any]:
        return {
            "layers": {
                name: {"calls": int(s[0]), "total_s": s[1], "self_s": s[2]}
                for name, s in sorted(self.layers.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "root_s": self.root_s,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Ledger":
        ledger = cls()
        for name, entry in payload["layers"].items():
            ledger.layers[name] = [
                entry["calls"], entry["total_s"], entry["self_s"]
            ]
        ledger.counters = dict(payload["counters"])
        ledger.root_s = payload["root_s"]
        return ledger


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``attr`` of module ``module``.

    ``attr`` may name a class attribute (``"Class.method"``); module
    level functions are also replaced wherever another ``repro``
    module bound the same object by ``from ... import``.
    """

    layer: str
    module: str
    attr: str
    on_result: Optional[Callable[[Ledger, Any], None]] = None


class Patches:
    """The bindings one :func:`install` replaced, restorable."""

    def __init__(self) -> None:
        self.replaced: List[Tuple[Any, str, Any]] = []

    def restore(self) -> None:
        for owner, name, original in reversed(self.replaced):
            setattr(owner, name, original)
        self.replaced.clear()


def _importing_modules(original: Any, prefix: str) -> List[Any]:
    modules = []
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == prefix or name.startswith(prefix + ".")
        ):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                modules.append((module, attr))
    return modules


def install(
    ledger: Ledger, targets: Sequence[Target], prefix: str = "repro"
) -> Patches:
    """Wrap every target; returns the handle that restores them."""
    patches = Patches()
    try:
        for target in targets:
            module = importlib.import_module(target.module)
            if "." in target.attr:
                class_name, attr = target.attr.split(".", 1)
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                wrapper = ledger.wrap(target.layer, original, target.on_result)
                patches.replaced.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(module, target.attr)
            wrapper = ledger.wrap(target.layer, original, target.on_result)
            for owner, attr in _importing_modules(original, prefix):
                patches.replaced.append((owner, attr, original))
                setattr(owner, attr, wrapper)
    except BaseException:
        patches.restore()
        raise
    return patches


def installed_wrappers(prefix: str = "repro") -> List[str]:
    """Every ``module.attr`` / ``Class.attr`` binding that currently
    holds a ledger wrapper (used by the self-tests)."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == prefix or name.startswith(prefix + ".")
        ):
            continue
        for attr, value in list(getattr(module, "__dict__", {}).items()):
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{name}.{attr}")
            elif inspect.isclass(value) and value.__module__ == name:
                for member, inner in value.__dict__.items():
                    if hasattr(inner, "__perfbench_original__"):
                        found.append(f"{name}.{attr}.{member}")
    return sorted(found)
