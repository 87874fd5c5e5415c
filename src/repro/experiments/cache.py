"""Sweep result caching: whole-sweep entries plus per-point entries.

A sweep is a pure function of its *request*: the scenario definition
(grid, defaults, curves, seed), the model-protocol mode
(repro.modelmode), the calibration profile — and the code itself.
:func:`request_key` hashes the canonical request description plus a
code fingerprint (a sha256 over the ``repro`` package sources and the
Python and numpy versions, computed once per process), so two
invocations that would provably compute identical series share one
cache entry, while a grid override, another seed, the reference model,
a calibration tweak, or any source edit — committed or not — each miss
by construction. Worker count is deliberately *not* part of the key:
the driver's determinism contract makes results byte-identical at any
parallelism.

The same purity holds one level down: **each grid point** is a pure
function of its fully-bound ``cfg`` (plus modes/calibration/code), so
:func:`point_key` keys single points and :class:`PointCache` stores
them individually under ``<cache_dir>/points/``. When a sweep's
whole-request key misses but most of its points are unchanged — the
typical "tweak one grid value / one default" iteration — the driver
executes only the missing points and assembles the rest from cache.

Two more files live next to the entries:

- ``timings.json`` (:class:`TimingStore`) — recorded per-point
  ``elapsed_s`` from prior runs; purely advisory, used to dispatch
  pending points longest-first so wide pools do not end on a straggler.
- nothing else: :func:`prune_cache` (``repro sweep --cache-prune``)
  deletes whole-sweep and point entries by age and/or total size,
  oldest first, and leaves ``timings.json`` alone.

Entries are one JSON file each, ``<scenario>-<key16>.json``, holding
the full key and the canonical payload. A hit reconstructs the result
without running a single simulation; a corrupt or mismatched entry is
treated as a miss and overwritten.

**Concurrent access.** A long-lived ``repro serve`` daemon reads and
writes this cache while ``repro sweep --cache-prune`` (or another
sweep) races it, so every path here is safe against files appearing,
vanishing, or being replaced mid-operation: writes go through a
same-directory temp file plus :func:`os.replace` (readers see the old
bytes or the new bytes, never a torn file), reads treat a vanished or
unreadable entry as a miss, and :func:`prune_cache` tolerates entries
deleted under its feet. :class:`InflightRegistry` is the in-process
complement: a thread-safe map of request keys to live computations, so
concurrent identical requests coalesce onto one run instead of racing
each other to the same entry.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, TypeVar, Union

import repro.modelmode as modelmode
import repro.obs as obs
from repro.experiments.driver import SweepResult, run_sweep
from repro.experiments.pool import SweepPool
from repro.experiments.registry import get_scenario
from repro.experiments.scenario import Scenario
from repro.perf.calibration import PAPER_CALIBRATION

__all__ = [
    "InflightRegistry",
    "PointCache",
    "PruneStats",
    "TimingStore",
    "cache_path",
    "cached_sweep",
    "load_cached",
    "point_key",
    "prune_cache",
    "request_key",
    "store_cached",
]

_FORMAT = 1
"""Whole-sweep cache schema version; bump to invalidate stored entries."""

_POINT_FORMAT = 1
"""Per-point cache schema version."""


@functools.cache
def _code_version() -> str:
    """Fingerprint of the simulator code the results come from.

    sha256 over every ``repro`` source file (relative path plus bytes,
    in sorted order) and the Python and numpy versions, since float
    output may depend on them. Uncommitted edits change it; computed
    once per process."""
    import numpy

    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package.parent)).encode())
        digest.update(path.read_bytes())
    digest.update(f"python {platform.python_version()} numpy {numpy.__version__}".encode())
    return digest.hexdigest()


def _hash_request(request: dict[str, Any]) -> str:
    blob = json.dumps(request, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` all-or-nothing: a same-directory temp
    file + :func:`os.replace`, so a concurrent reader (another sweep, a
    serving daemon) sees the previous entry or the new one, never a
    half-written file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


_T = TypeVar("_T")


class InflightRegistry:
    """Thread-safe map of request key → live computation.

    The admission/coalescing primitive the serving layer builds on:
    :meth:`claim` either returns the existing in-flight entry for a key
    (attach — the caller shares that computation's result) or invokes
    ``factory`` under the lock and registers the fresh entry (the caller
    owns the execution). :meth:`release` removes a finished entry, after
    which an identical request starts a new computation — typically a
    whole-sweep cache hit.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: dict[str, Any] = {}

    def claim(self, key: str, factory: Callable[[], _T]) -> tuple[_T, bool]:
        """``(entry, created)``: attach to the in-flight entry for
        ``key``, or create and register one via ``factory``."""
        with self._lock:
            entry = self._live.get(key)
            if entry is not None:
                return entry, False
            entry = factory()
            self._live[key] = entry
            return entry, True

    def get(self, key: str) -> Optional[Any]:
        with self._lock:
            return self._live.get(key)

    def release(self, key: str, entry: Any) -> bool:
        """Drop ``key`` if it still maps to ``entry`` (a stale release
        must never evict a newer computation that reused the key)."""
        with self._lock:
            if self._live.get(key) is entry:
                del self._live[key]
                return True
            return False

    def __len__(self) -> int:
        with self._lock:
            return len(self._live)


def request_key(
    scenario: Scenario,
    model_reference: Optional[bool] = None,
) -> str:
    """sha256 over everything that determines a sweep's bytes."""
    if model_reference is None:
        model_reference = modelmode.REFERENCE_MODE
    return _hash_request({
        "format": _FORMAT,
        "code_version": _code_version(),
        "scenario": scenario.name,
        "grid": {k: list(v) for k, v in scenario.grid.items()},
        "defaults": dict(scenario.defaults),
        "seed": scenario.seed,
        "x": scenario.x,
        "curves": list(scenario.curves),
        "reference_model": bool(model_reference),
        "calibration": PAPER_CALIBRATION.to_dict(),
    })


def point_key(
    scenario: Scenario,
    cfg: Mapping[str, Any],
    model_reference: Optional[bool] = None,
) -> str:
    """sha256 over everything that determines one grid point's values.

    The fully-bound ``cfg`` already carries every grid value, every
    default, and the seed, so grid *membership* is deliberately absent:
    adding or removing neighbors never invalidates a point, which is
    exactly what makes incremental re-sweeps possible.
    """
    if model_reference is None:
        model_reference = modelmode.REFERENCE_MODE
    return _hash_request({
        "format": _POINT_FORMAT,
        "code_version": _code_version(),
        "scenario": scenario.name,
        "cfg": dict(cfg),
        "curves": list(scenario.curves),
        "reference_model": bool(model_reference),
        "calibration": PAPER_CALIBRATION.to_dict(),
    })


def cache_path(cache_dir: Path, scenario: Union[str, Scenario], key: str) -> Path:
    """The single source of the entry naming scheme (load and store must
    agree or every lookup silently misses)."""
    name = scenario if isinstance(scenario, str) else scenario.name
    return Path(cache_dir) / f"{name}-{key[:16]}.json"


def store_cached(result: SweepResult, cache_dir: Path, key: str) -> Path:
    """Persist one sweep result under its request key."""
    path = cache_path(cache_dir, result.scenario, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {"format": _FORMAT, "key": key, "result": result.canonical_dict()}
    _atomic_write(path, json.dumps(entry, sort_keys=True, indent=2) + "\n")
    return path


def load_cached(cache_dir: Path, scenario: Scenario, key: str) -> Optional[SweepResult]:
    """Rebuild a stored result, or None on miss/corruption/key mismatch.

    A file that vanishes between the existence check and the read — a
    concurrent prune — is a miss too, not an error.
    """
    path = cache_path(cache_dir, scenario, key)
    if not path.exists():
        return None
    try:
        entry = json.loads(path.read_text())
        if entry.get("format") != _FORMAT or entry.get("key") != key:
            return None
        return SweepResult.from_dict(entry["result"])
    except (OSError, ValueError, KeyError, TypeError):
        return None  # unreadable/vanished entry == miss; the rerun overwrites it


class PointCache:
    """Per-point result entries under ``<cache_dir>/points/``.

    One small JSON file per grid point, named by scenario plus the
    first 16 hex chars of the :func:`point_key`; the full key stored
    inside guards against prefix collisions. Values round-trip through
    JSON, which serializes floats at full ``repr`` precision — a
    cache-assembled sweep is byte-identical to a fresh one.
    """

    def __init__(self, cache_dir: Path):
        self.dir = Path(cache_dir) / "points"
        #: Lifetime lookup tallies (always on — two int bumps). When
        #: telemetry is enabled at construction they are mirrored into
        #: the obs registry as counters.
        self.hits = 0
        self.misses = 0
        self._obs_lookups = (
            obs.registry().counter(
                "repro_point_cache_lookups_total",
                "Point-cache lookups by outcome",
                labels=("outcome",),
            )
            if obs.enabled()
            else None
        )

    def lookup(
        self,
        scenario: Scenario,
        cfg: Mapping[str, Any],
        model_reference: Optional[bool] = None,
    ) -> tuple[str, Optional[dict[str, float]]]:
        """``(key, stored values or None)`` for one bound point."""
        key = point_key(scenario, cfg, model_reference)
        values = self.get(scenario.name, key)
        if values is not None:
            self.hits += 1
        else:
            self.misses += 1
        if self._obs_lookups is not None:
            self._obs_lookups.inc(outcome="hit" if values is not None else "miss")
        return key, values

    def _path(self, name: str, key: str) -> Path:
        return self.dir / f"{name}-{key[:16]}.json"

    def get(self, name: str, key: str) -> Optional[dict[str, float]]:
        path = self._path(name, key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
            if entry.get("format") != _POINT_FORMAT or entry.get("key") != key:
                return None
            values = entry["values"]
            return dict(values) if isinstance(values, dict) else None
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable == miss; OSError covers an entry pruned away
            # between the existence check and the read.
            return None

    def store(self, name: str, key: str, values: Mapping[str, float]) -> Path:
        path = self._path(name, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": _POINT_FORMAT,
            "key": key,
            "scenario": name,
            "values": dict(values),
        }
        _atomic_write(path, json.dumps(entry, sort_keys=True, indent=2) + "\n")
        return path


class TimingStore:
    """Recorded per-point ``elapsed_s`` from prior runs, persisted as
    ``<cache_dir>/timings.json``.

    Purely advisory — never part of any cache key or canonical byte —
    so its key deliberately *excludes* the code version and calibration:
    a commit does not change how long a point roughly takes, and a
    stale estimate only costs dispatch-order quality, never
    correctness. The model mode is included (the reference model is
    much slower). Entries are keyed by the first 16 hex chars and
    capped at ``max_entries``, evicting least-recently-updated first.
    """

    def __init__(self, cache_dir: Path, max_entries: int = 10_000):
        self.path = Path(cache_dir) / "timings.json"
        self.max_entries = max_entries
        self._data: Optional[dict[str, float]] = None
        self._dirty = False

    def key(
        self,
        scenario: Scenario,
        cfg: Mapping[str, Any],
        model_reference: Optional[bool] = None,
    ) -> str:
        if model_reference is None:
            model_reference = modelmode.REFERENCE_MODE
        return _hash_request({
            "scenario": scenario.name,
            "cfg": dict(cfg),
            "reference_model": bool(model_reference),
        })

    def _load(self) -> dict[str, float]:
        if self._data is None:
            try:
                raw = json.loads(self.path.read_text())
                data = raw["elapsed_s"] if raw.get("format") == 1 else {}
                self._data = {
                    str(k): float(v) for k, v in data.items()
                } if isinstance(data, dict) else {}
            except (OSError, ValueError, KeyError, TypeError):
                self._data = {}
        return self._data

    def estimate(self, key: str) -> Optional[float]:
        return self._load().get(key[:16])

    def record(self, key: str, elapsed_s: Optional[float]) -> None:
        if elapsed_s is None:
            return
        data = self._load()
        data.pop(key[:16], None)  # re-insert at the end: LRU-by-update
        data[key[:16]] = round(float(elapsed_s), 6)
        self._dirty = True

    def flush(self) -> None:
        if not self._dirty:
            return
        data = self._load()
        if len(data) > self.max_entries:
            for stale in list(data)[: len(data) - self.max_entries]:
                del data[stale]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # No sort_keys: JSON objects round-trip in insertion order, and
        # insertion order *is* the recency order the cap evicts by —
        # sorting here would reset eviction to alphabetical on reload.
        _atomic_write(
            self.path, json.dumps({"format": 1, "elapsed_s": data}, indent=2) + "\n"
        )
        self._dirty = False


@dataclass
class PruneStats:
    """What one :func:`prune_cache` pass did."""

    scanned: int = 0
    removed: int = 0
    freed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0


def prune_cache(
    cache_dir: Path,
    max_age_days: Optional[float] = None,
    max_bytes: Optional[int] = None,
    now: Optional[float] = None,
) -> PruneStats:
    """Delete cache entries by age and/or total size (oldest first).

    Covers whole-sweep entries in ``cache_dir`` and point entries in
    ``cache_dir/points``; the advisory ``timings.json`` is exempt (it
    is one bounded file, and losing it costs dispatch quality, not
    space). With ``max_age_days``, entries whose mtime is older are
    removed; with ``max_bytes``, the oldest entries are removed until
    the survivors fit. With neither, nothing is removed (the stats
    still report the current entry count and footprint).
    """
    cache_dir = Path(cache_dir)
    now = time.time() if now is None else now
    entries: list[tuple[float, int, Path]] = []
    for root in (cache_dir, cache_dir / "points"):
        # Everything below tolerates a racing writer/pruner: the listing
        # may name entries that vanish before they are statted (skip) or
        # unlinked (already counted gone), and the directory itself may
        # disappear mid-scan.
        try:
            listing = sorted(root.glob("*.json")) if root.is_dir() else []
        except OSError:
            continue
        for path in listing:
            if path == cache_dir / "timings.json":
                continue
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))

    stats = PruneStats(scanned=len(entries))
    survivors: list[tuple[float, int, Path]] = []
    for mtime, size, path in entries:
        if max_age_days is not None and now - mtime > max_age_days * 86_400:
            _remove(path, size, stats)
        else:
            survivors.append((mtime, size, path))
    if max_bytes is not None:
        survivors.sort()  # oldest first
        total = sum(size for _, size, _ in survivors)
        while survivors and total > max_bytes:
            _, size, path = survivors.pop(0)
            _remove(path, size, stats)
            total -= size
    stats.kept = len(survivors)
    stats.kept_bytes = sum(size for _, size, _ in survivors)
    return stats


def _remove(path: Path, size: int, stats: PruneStats) -> None:
    try:
        path.unlink()
    except OSError:
        return
    stats.removed += 1
    stats.freed_bytes += size


def cached_sweep(
    scenario: Union[str, Scenario],
    *,
    workers: int = 1,
    cache_dir: Path,
    seed: Optional[int] = None,
    pool: Optional[SweepPool] = None,
) -> tuple[SweepResult, bool]:
    """``run_sweep`` behind the cache: returns ``(result, was_hit)``.

    ``was_hit`` reports a **whole-sweep** hit (nothing ran at all).
    On a whole-sweep miss the run still goes through the point cache,
    so only points whose individual keys miss actually execute — check
    ``result.executed_points`` / ``result.cached_points`` for the
    split — and recorded point timings order the dispatch.
    """
    sc = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if seed is not None:
        sc = sc.with_overrides(None, seed=seed)
    key = request_key(sc)
    cached = load_cached(cache_dir, sc, key)
    if cached is not None:
        return cached, True
    result = run_sweep(
        sc,
        workers=workers,
        pool=pool,
        point_cache=PointCache(cache_dir),
        timings=TimingStore(cache_dir),
    )
    store_cached(result, cache_dir, key)
    return result, False
