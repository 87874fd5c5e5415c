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

- ``timings.jsonl`` (:class:`TimingStore`) — an append-only log of
  recorded per-point ``elapsed_s`` from prior runs; purely advisory,
  used to dispatch pending points longest-first so wide pools do not
  end on a straggler.
- nothing else: :func:`prune_cache` (``repro sweep --cache-prune``)
  deletes whole-sweep and point entries (``*.json``) by age and/or
  total size, oldest first, and leaves ``timings.jsonl`` alone.

Entries are one JSON file each, ``<scenario>-<key16>.json``, holding
the full key and the canonical payload. A hit reconstructs the result
without running a single simulation; a corrupt or mismatched entry is
treated as a miss and overwritten. Point entries also store a sha256 of
their canonical value bytes, so an entry whose values were altered on
disk (still valid JSON, right key) is caught on read, counted in
:attr:`PointCache.corrupt`, and recomputed.

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

import contextlib
import functools
import hashlib
import itertools
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

_POINT_FORMAT = 2
"""Per-point cache schema version (2: entries carry a value digest)."""


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


def value_digest(values: Mapping[str, float]) -> str:
    """sha256 of one point's canonical value bytes (sorted keys, no
    whitespace, floats at full ``repr`` precision)."""
    blob = json.dumps(dict(values), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


_tmp_seq = itertools.count()


def _atomic_write(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` all-or-nothing: a same-directory temp
    file + :func:`os.replace`, so a concurrent reader (another sweep, a
    serving daemon) sees the previous entry or the new one, never a
    half-written file. The temp name is unique per call (pid plus a
    process-wide counter), so threads writing the same entry never
    replace each other's temp file; a failed write removes its own."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_tmp_seq)}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


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
    inside guards against prefix collisions, and the stored
    :func:`value_digest` against values altered on disk (a mismatch is
    a miss, tallied in :attr:`corrupt`). Values round-trip through
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
        #: Entries that existed for the key but failed the value digest
        #: (or would not parse); each also counts as a miss.
        self.corrupt = 0
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
            text = path.read_text()
        except OSError:
            return None  # pruned away between the check and the read
        try:
            entry = json.loads(text)
            if entry.get("format") != _POINT_FORMAT or entry.get("key") != key:
                return None
            values = entry["values"]
            if isinstance(values, dict) and entry["sha256"] == value_digest(values):
                return dict(values)
        except (ValueError, KeyError, TypeError, AttributeError):
            pass
        self.corrupt += 1
        return None

    def store(self, name: str, key: str, values: Mapping[str, float]) -> Path:
        path = self._path(name, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": _POINT_FORMAT,
            "key": key,
            "scenario": name,
            "values": dict(values),
            "sha256": value_digest(values),
        }
        _atomic_write(path, json.dumps(entry, sort_keys=True, indent=2) + "\n")
        return path


class TimingStore:
    """Recorded per-point ``elapsed_s`` from prior runs, persisted as the
    append-only log ``<cache_dir>/timings.jsonl``.

    Purely advisory — never part of any cache key or canonical byte —
    so its key deliberately *excludes* the code version and calibration:
    a commit does not change how long a point roughly takes, and a
    stale estimate only costs dispatch-order quality, never
    correctness. The model mode is included (the reference model is
    much slower). Entries are keyed by the first 16 hex chars and
    capped at ``max_entries``, evicting least-recently-updated first.

    The log holds one ``{"key": ..., "elapsed_s": ...}`` line per
    record; on load the last line of a key wins, a torn or foreign line
    is skipped, and the recency cap is applied. :meth:`flush` appends
    the new records in one ``O_APPEND`` write, and rewrites the log
    compactly (through :func:`_atomic_write`) only once it has grown
    past ``2 * max_entries`` lines, so a served job does not pay a
    whole-file rename per flush. One lock guards the table: a serving
    daemon's concurrent jobs share one store. Stores in other processes
    append to the same log; a compaction may drop their records made
    since its load, which costs an estimate, never a byte.
    """

    def __init__(self, cache_dir: Path, max_entries: int = 10_000):
        self.path = Path(cache_dir) / "timings.jsonl"
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._data: Optional[dict[str, float]] = None
        self._lines = 0  # lines in the on-disk log, as this store knows it
        self._torn_tail = False  # the log ends mid-line (a crashed append)
        self._pending: list[str] = []

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

    @staticmethod
    def _line(key: str, elapsed_s: float) -> str:
        return json.dumps({"key": key, "elapsed_s": elapsed_s}) + "\n"

    def _load(self) -> dict[str, float]:
        """The table, read from the log on first use (lock held)."""
        if self._data is None:
            data: dict[str, float] = {}
            lines = 0
            line = ""
            try:
                with open(self.path, encoding="utf-8", errors="replace") as fh:
                    for line in fh:
                        lines += 1
                        try:
                            entry = json.loads(line)
                            key, elapsed = str(entry["key"]), float(entry["elapsed_s"])
                        except (ValueError, KeyError, TypeError):
                            continue  # torn or foreign line
                        data.pop(key, None)  # re-insert at the end: LRU-by-update
                        data[key] = elapsed
            except OSError:
                pass
            self._data = data
            self._lines = lines
            self._torn_tail = bool(line) and not line.endswith("\n")
            self._trim()
        return self._data

    def _trim(self) -> None:
        data = self._data
        if len(data) > self.max_entries:
            for stale in list(data)[: len(data) - self.max_entries]:
                del data[stale]

    def estimate(self, key: str) -> Optional[float]:
        with self._lock:
            return self._load().get(key[:16])

    def record(self, key: str, elapsed_s: Optional[float]) -> None:
        if elapsed_s is None:
            return
        short, value = key[:16], round(float(elapsed_s), 6)
        with self._lock:
            data = self._load()
            data.pop(short, None)  # re-insert at the end: LRU-by-update
            data[short] = value
            self._pending.append(self._line(short, value))

    def flush(self) -> None:
        with self._lock:
            if not self._pending:
                return
            self._trim()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._lines + len(self._pending) > 2 * self.max_entries:
                # Insertion order *is* the recency order the cap evicts
                # by, so the compacted log keeps it.
                text = "".join(self._line(k, v) for k, v in self._data.items())
                _atomic_write(self.path, text)
                self._lines = len(self._data)
            else:
                # A torn last line is terminated first, so it cannot
                # swallow the first record appended after it.
                text = ("\n" if self._torn_tail else "") + "".join(self._pending)
                fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
                try:
                    os.write(fd, text.encode())
                finally:
                    os.close(fd)
                self._lines += len(self._pending)
            self._torn_tail = False
            self._pending.clear()


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
    ``cache_dir/points`` (``*.json``); the advisory ``timings.jsonl``
    log does not match and is exempt (it is one bounded file, and
    losing it costs dispatch quality, not space). With ``max_age_days``, entries whose mtime is older are
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
