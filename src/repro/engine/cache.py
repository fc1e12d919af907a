"""Content-addressed on-disk cache, and the bounded in-memory memo.

Layout: ``<root>/<kind>/<key[:2]>/<key>.<json|pkl>`` where ``key`` is a
SHA-256 hex fingerprint of everything that determines the entry's
value.  Writes are atomic (temp file + ``os.replace``) so concurrent
runs sharing one cache directory can only ever observe complete
entries.  Unreadable or corrupt entries are treated as misses and
removed — the cache is a pure accelerator, never a source of truth.

Evaluation records and study results are JSON (inspectable, durable);
trace sets are pickled (an order of magnitude faster to round-trip and
never loaded from outside the cache directory the run itself names).

With ``max_bytes`` set the cache is bounded: whenever the running size
estimate crosses the cap after a write, entries are pruned
oldest-mtime-first until the directory fits again.  Eviction can only
cost recomputation (every entry is a pure function of its key), so the
cap trades disk for warm-start speed and nothing else.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..obs.registry import labeled_name


class DiskCache:
    """Content-addressed file store rooted at one directory."""

    def __init__(self, root: str, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive when set")
        self.root = root
        self.max_bytes = max_bytes
        try:
            os.makedirs(root, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ValueError(
                f"cache dir {root!r} exists and is not a directory"
            ) from None
        # Running size estimate; exact numbers are re-measured on prune.
        self._estimated_bytes = (
            sum(size for _, _, size in self._entries())
            if max_bytes is not None
            else 0
        )

    def _path(self, kind: str, key: str, suffix: str) -> str:
        return os.path.join(self.root, kind, key[:2], f"{key}.{suffix}")

    def _read(self, path: str, loader) -> Optional[Any]:
        try:
            with open(path, "rb") as handle:
                return loader(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, pickle.UnpicklingError, EOFError):
            # Corrupt or torn entry: drop it and report a miss.
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def _write(self, path: str, payload: bytes) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=directory, delete=False
        )
        try:
            with handle:
                handle.write(payload)
            os.replace(handle.name, path)
        except OSError:
            try:
                os.remove(handle.name)
            except OSError:
                pass
            return
        if self.max_bytes is not None:
            self._estimated_bytes += len(payload)
            if self._estimated_bytes > self.max_bytes:
                self._prune()

    # -- size cap ----------------------------------------------------------

    def _entries(self) -> List[Tuple[str, float, int]]:
        """Every cache entry as (path, mtime, size)."""
        entries: List[Tuple[str, float, int]] = []
        for dirpath, _, filenames in os.walk(self.root):
            for filename in filenames:
                path = os.path.join(dirpath, filename)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                entries.append((path, stat.st_mtime, stat.st_size))
        return entries

    def _prune(self) -> None:
        """Delete oldest-mtime entries until the cache fits the cap."""
        entries = self._entries()
        total = sum(size for _, _, size in entries)
        if self.max_bytes is not None and total > self.max_bytes:
            # Ties on mtime break by path so pruning is deterministic.
            for path, _, size in sorted(entries, key=lambda e: (e[1], e[0])):
                if total <= self.max_bytes:
                    break
                try:
                    os.remove(path)
                except OSError:
                    continue
                total -= size
        self._estimated_bytes = total

    # -- JSON entries ------------------------------------------------------

    def get_json(self, kind: str, key: str) -> Optional[Any]:
        return self._read(
            self._path(kind, key, "json"),
            lambda handle: json.loads(handle.read().decode("utf-8")),
        )

    def put_json(self, kind: str, key: str, value: Any) -> None:
        payload = json.dumps(value, sort_keys=True).encode("utf-8")
        self._write(self._path(kind, key, "json"), payload)

    # -- pickle entries ----------------------------------------------------

    def get_pickle(self, kind: str, key: str) -> Optional[Any]:
        return self._read(self._path(kind, key, "pkl"), pickle.load)

    def put_pickle(self, kind: str, key: str, value: Any) -> None:
        self._write(
            self._path(kind, key, "pkl"),
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
        )


_MISSING = object()

#: Every live BoundedCache, for :func:`publish_cache_metrics`.
_LIVE: "weakref.WeakSet[BoundedCache]" = weakref.WeakSet()
_LIVE_LOCK = threading.Lock()


class BoundedCache:
    """An LRU memo of at most ``max_entries`` entries, safe to share
    between threads.  ``build`` runs outside the lock, so racing misses
    on one key may both build it; values are pure functions of their
    keys, so callers never count on an entry surviving."""

    def __init__(self, name: str, max_entries: int) -> None:
        self.name, self.max_entries = name, max_entries
        self.hits = self.misses = self.evictions = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        with _LIVE_LOCK:
            _LIVE.add(self)

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if key not in self._entries:
                self.misses += 1
                return default
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]

    def __setitem__(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key: Hashable, build: Callable[[], Any]) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = self[key] = build()
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def publish_cache_metrics(metrics) -> None:
    """Set ``cache_{hits,misses,evictions,size}{cache="<name>"}``
    gauges on ``metrics`` for every live cache of this process, summed
    over caches sharing a name."""
    totals: Dict[str, List[int]] = {}
    with _LIVE_LOCK:
        caches = list(_LIVE)
    for cache in caches:
        row = totals.setdefault(cache.name, [0, 0, 0, 0])
        row[0] += cache.hits
        row[1] += cache.misses
        row[2] += cache.evictions
        row[3] += len(cache)
    for name, row in totals.items():
        for family, value in zip(
            ("cache_hits", "cache_misses", "cache_evictions", "cache_size"),
            row,
        ):
            metrics.gauge(labeled_name(family, cache=name), float(value))
