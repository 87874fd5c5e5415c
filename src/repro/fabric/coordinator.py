"""The fleet coordinator: ``repro fleet serve`` behind one socket.

A thin, lock-serialized network shell over :class:`SweepTracker`. The
coordinator binds one listener (TCP or unix socket), accepts one
persistent connection per worker, and answers each worker frame with
exactly one reply — registration, heartbeat-driven lease handout,
result acceptance, failure reports. All failure-detection policy lives
in the tracker; all byte-producing assembly goes through the exact
:func:`~repro.experiments.driver.build_result` path serial sweeps use,
so a fleet-merged result is byte-identical to ``repro sweep`` by
construction.

Durability: every accepted point is appended to a :class:`Journal`
before the accepting frame is acknowledged, so a coordinator that
crashes mid-sweep restarts into a resume — prior points prefill the
tracker and only unfinished work re-dispatches. The journal is removed
only after the final result is assembled (and cached, when a cache is
configured).

Fail-fast: a fleet with no live workers for ``no_worker_timeout_s``
aborts with a clear :class:`FleetError` instead of waiting forever,
and a quarantined (poison) point aborts the sweep and tells every
worker to stop. Hangs are the one failure mode this module refuses to
have.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

import repro.modelmode as modelmode
from repro.experiments.cache import (
    PointCache,
    load_cached,
    request_key,
    store_cached,
)
from repro.experiments.driver import SweepResult, build_result
from repro.experiments.registry import get_scenario
from repro.experiments.scenario import Scenario
from repro.fabric import protocol
from repro.fabric.journal import Journal
from repro.fabric.protocol import FleetError
from repro.fabric.tracker import SweepTracker, TrackerConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import render as render_prometheus
from repro.serve.logs import log_event
from repro.wire import ProtocolError, decode, send_msg

__all__ = ["FleetCoordinator"]

logger = logging.getLogger("repro.fleet")

#: How often the monitor thread advances the tracker's failure
#: detectors and checks for completion. Real time, deliberately small:
#: it bounds how stale a detector can be, not how fast points finish.
_MONITOR_INTERVAL_S = 0.02


class FleetCoordinator:
    """One sweep's coordinator: listener + tracker + journal.

    Parameters
    ----------
    scenario: registry name or a bound :class:`Scenario`.
    overrides: grid/default replacements, as ``--grid`` parses them.
    seed: root seed override.
    port: TCP port (0 = OS-assigned); exclusive with ``socket_path``.
    socket_path: unix socket path to listen on.
    host: TCP bind address (loopback by default — the fleet protocol
        has no authentication).
    model_reference: model mode for the sweep; None pins the
        coordinator process's current mode.
    config: tracker tuning (:class:`TrackerConfig`).
    journal_path: where accepted points are journaled; an existing
        journal with a matching request key is resumed. None disables
        journaling (and therefore crash-resume).
    cache_dir: optional sweep/point cache directory, used exactly as
        ``repro sweep --cache`` does: whole-sweep hit answers without
        any fleet work, point hits prefill, fresh points are stored.
    no_worker_timeout_s: abort when no live worker exists for this
        long — the fully-dead-fleet fail-fast.
    linger_s: how long to keep answering ``done`` to heartbeats after
        the sweep completes, so workers exit cleanly.
    chaos: optional coordinator fault injection (duck-typed; see
        :mod:`repro.fabric.chaos`): ``crash_after_results=N`` crashes
        the coordinator after N accepted results, leaving the journal.
    clock: time source for the tracker (tests inject a fake one).
    """

    def __init__(
        self,
        scenario,
        overrides: Optional[Mapping[str, Any]] = None,
        *,
        seed: Optional[int] = None,
        port: Optional[int] = None,
        socket_path: Optional[Path] = None,
        host: str = "127.0.0.1",
        model_reference: Optional[bool] = None,
        config: Optional[TrackerConfig] = None,
        journal_path: Optional[Path] = None,
        cache_dir: Optional[Path] = None,
        no_worker_timeout_s: float = 30.0,
        linger_s: float = 1.0,
        chaos=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if (port is None) == (socket_path is None):
            raise ValueError("exactly one of port= or socket_path= is required")
        sc = get_scenario(scenario) if isinstance(scenario, str) else scenario
        self.scenario: Scenario = sc.with_overrides(
            dict(overrides) if overrides else None, seed=seed
        )
        self.model_reference = (modelmode.REFERENCE_MODE
                                if model_reference is None
                                else bool(model_reference))
        self.key = request_key(self.scenario, self.model_reference)
        self.points = self.scenario.points()
        self.total = len(self.points)
        self.host = host
        self.port = port
        self.socket_path = Path(socket_path) if socket_path is not None else None
        self.config = config or TrackerConfig()
        self.no_worker_timeout_s = no_worker_timeout_s
        self.linger_s = linger_s
        self.chaos = chaos
        self._clock = clock
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.point_cache = PointCache(self.cache_dir) if self.cache_dir else None
        self.journal: Optional[Journal] = None
        if journal_path is not None:
            self.journal = Journal(Path(journal_path), self.key,
                                   self.scenario.name, self.total)

        # Dispatch order: canonical order is already fine (cost-aware
        # ordering is a cache-side refinement the fleet can add later);
        # what matters is that revoked work re-enters at the front.
        self.tracker = SweepTracker(range(self.total), self.total,
                                    config=self.config, clock=clock)
        self._results: list[Optional[dict[str, float]]] = [None] * self.total
        self._elapsed: list[Optional[float]] = [None] * self.total

        self.result: Optional[SweepResult] = None
        self.error: Optional[str] = None
        self.crashed = False
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._conns: set[socket.socket] = set()
        self._threads: set[threading.Thread] = set()
        self._done = threading.Event()
        self._stopping = False
        self._finished_at: Optional[float] = None
        self._no_worker_since: Optional[float] = None
        self._t0: Optional[float] = None

        self.metrics = MetricsRegistry()
        self._m_frames = self.metrics.counter(
            "repro_fleet_frames_total", "Worker frames handled, by type",
            labels=("type",),
        )

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "FleetCoordinator":
        if self._listener is not None:
            return self
        self._t0 = time.perf_counter()
        self._prefill()
        if self.result is not None:
            # Whole-sweep cache hit: nothing to coordinate. Still bind
            # briefly so eager workers get a clean "done" during linger.
            pass
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            if self.socket_path.exists():
                self.socket_path.unlink()
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            sock.bind(str(self.socket_path))
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
            self.port = sock.getsockname()[1]
        sock.listen(128)
        self._listener = sock
        resumed = self.journal.resumed if self.journal else {}
        log_event(logger, logging.INFO, "fleet_started",
                  endpoint=self.endpoint(), scenario=self.scenario.name,
                  request_key=self.key[:16], total=self.total,
                  resumed_points=len(resumed),
                  cache_prefilled=self.tracker.prefilled - len(resumed))
        self._spawn(self._accept_loop, name="repro-fleet-accept")
        self._spawn(self._monitor_loop, name="repro-fleet-monitor")
        return self

    def _prefill(self) -> None:
        """Seed the tracker from every durable source before any worker
        connects: whole-sweep cache, journal, then per-point cache."""
        if self.cache_dir is not None:
            cached = load_cached(self.cache_dir, self.scenario, self.key)
            if cached is not None:
                self.result = cached
                if self.journal is not None:
                    self.journal.remove()
                return
        if self.journal is not None:
            self.journal.open()
            for index, (values, elapsed) in self.journal.resumed.items():
                self.tracker.prefill(index, values, elapsed)
                self._results[index] = values
                self._elapsed[index] = elapsed
        if self.point_cache is not None:
            for index, cfg in enumerate(self.points):
                if self._results[index] is not None:
                    continue
                _, hit = self.point_cache.lookup(
                    self.scenario, cfg, model_reference=self.model_reference)
                if hit is not None:
                    self.tracker.prefill(index, hit)
                    self._results[index] = hit

    def endpoint(self) -> str:
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host}:{self.port}"

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def run(self) -> SweepResult:
        """start + wait + unwrap: the blocking one-call entry point.
        Raises :class:`FleetError` on abort (poison, dead fleet) or
        coordinator chaos crash."""
        self.start()
        self.wait()
        if self.result is not None:
            return self.result
        raise FleetError(self.error or "fleet sweep did not complete")

    def shutdown(self) -> None:
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        me = threading.current_thread()
        for t in list(self._threads):
            if t is not me:
                t.join(timeout=10)
        if self.journal is not None and self.result is not None:
            self.journal.remove()
        elif self.journal is not None:
            self.journal.close()  # crash/abort: keep the file for resume
        if (self.socket_path is not None and self.socket_path.exists()):
            try:
                self.socket_path.unlink()
            except OSError:
                pass
        log_event(logger, logging.INFO, "fleet_stopped",
                  scenario=self.scenario.name, crashed=self.crashed,
                  error=self.error, **self.tracker.accounting())
        self._done.set()

    def close(self) -> None:
        if self.error is None and self.result is None:
            self.error = "coordinator closed before the sweep completed"
        self.shutdown()

    def __enter__(self) -> "FleetCoordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _spawn(self, target, *args, name: str) -> None:
        t = threading.Thread(target=target, args=args, name=name, daemon=True)
        t.start()  # before tracking: shutdown must never join an unstarted thread
        self._threads.add(t)

    # -- accept + per-worker connections --------------------------------------
    def _accept_loop(self) -> None:
        while True:
            listener = self._listener
            if listener is None:
                return
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with self._lock:
                self._conns.add(conn)
            self._spawn(self._handle_conn, conn, name="repro-fleet-conn")

    def _handle_conn(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        try:
            while True:
                line = stream.readline()
                if not line:
                    return  # worker went away; liveness timeout handles it
                try:
                    msg = protocol.parse_worker_msg(decode(line))
                except ProtocolError as exc:
                    send_msg(stream, {"type": "error", "message": str(exc)})
                    return
                reply = self._handle_frame(msg)
                if reply is None:
                    return  # chaos crash: die without acknowledging
                send_msg(stream, reply)
                if reply["type"] in ("done", "abort", "error"):
                    return
        except (BrokenPipeError, ConnectionResetError, OSError, ProtocolError):
            pass
        finally:
            with self._lock:
                self._conns.discard(conn)
            for closer in (stream.close, conn.close):
                try:
                    closer()
                except OSError:
                    pass

    # -- frame handling (lock-serialized onto the tracker) --------------------
    def _handle_frame(self, msg: dict[str, Any]) -> Optional[dict[str, Any]]:
        mtype = msg["type"]
        self._m_frames.inc(type=mtype)
        with self._lock:
            if self.crashed:
                return None
            if mtype == "register":
                return self._frame_register(msg)
            if mtype == "heartbeat":
                return self._frame_heartbeat(msg)
            if mtype == "result":
                return self._frame_result(msg)
            return self._frame_failure(msg)

    def _frame_register(self, msg: dict[str, Any]) -> dict[str, Any]:
        worker_key = msg.get("request_key")
        if worker_key is not None and worker_key != self.key:
            log_event(logger, logging.WARNING, "fleet_register_rejected",
                      worker=msg["worker"], reason="request key mismatch")
            return {
                "type": "error",
                "message": (
                    f"request key mismatch: coordinator {self.key[:16]} vs "
                    f"worker {worker_key[:16]} — the worker is running "
                    "different code, calibration, or request; refusing its "
                    "results"
                ),
            }
        self.tracker.register(msg["worker"], msg["capacity"])
        log_event(logger, logging.INFO, "fleet_worker_registered",
                  worker=msg["worker"], capacity=msg["capacity"])
        return protocol.registered_reply(
            msg["worker"], self.scenario, self.key,
            self.model_reference, self.total,
        )

    def _frame_heartbeat(self, msg: dict[str, Any]) -> dict[str, Any]:
        if self.result is not None:
            return {"type": "done"}
        verdict, grant = self.tracker.heartbeat(msg["worker"], msg["free"])
        if verdict == "lease":
            assert grant is not None
            return protocol.lease_reply(
                [(i, self.points[i]) for i in grant])
        if verdict == "abort":
            return {"type": "abort", "message": self._poison_message()}
        return {"type": verdict}

    def _frame_result(self, msg: dict[str, Any]) -> Optional[dict[str, Any]]:
        index = msg["index"]
        accepted = self.tracker.report_result(
            msg["worker"], index, msg["values"], msg["elapsed_s"])
        if accepted:
            self._results[index] = msg["values"]
            self._elapsed[index] = msg["elapsed_s"]
            if self.journal is not None:
                self.journal.record(index, msg["values"], msg["elapsed_s"])
            if self._chaos_crash_due():
                return None
        return {"type": "ok", "accepted": accepted}

    def _frame_failure(self, msg: dict[str, Any]) -> dict[str, Any]:
        log_event(logger, logging.WARNING, "fleet_point_failed",
                  worker=msg["worker"], index=msg["index"],
                  error=msg["error"], attempt=msg["attempt"])
        self.tracker.report_failure(msg["worker"], msg["index"], msg["error"])
        return {"type": "ok"}

    def _chaos_crash_due(self) -> bool:
        crash_after = getattr(self.chaos, "crash_after_results", None)
        if crash_after is None or self.crashed:
            return self.crashed
        if self.tracker.counters["results_accepted"] >= crash_after:
            self.crashed = True
            self.error = (
                f"chaos: coordinator crashed after "
                f"{self.tracker.counters['results_accepted']} accepted "
                "results (journal preserved for resume)")
            log_event(logger, logging.WARNING, "fleet_chaos_crash",
                      accepted=self.tracker.counters["results_accepted"])
        return self.crashed

    def _poison_message(self) -> str:
        worst = sorted(self.tracker.poison.items())
        head = "; ".join(f"point {i}: {err}" for i, err in worst[:3])
        more = f" (+{len(worst) - 3} more)" if len(worst) > 3 else ""
        return (
            f"{len(worst)} point(s) quarantined after "
            f"{self.config.max_attempts} failed attempts — {head}{more}"
        )

    # -- monitor: detectors, completion, fail-fast ----------------------------
    def _monitor_loop(self) -> None:
        while not self._stopping:
            time.sleep(_MONITOR_INTERVAL_S)
            with self._lock:
                if self.crashed:
                    break
                self.tracker.tick()
                if self.result is None and self.tracker.finished:
                    self._assemble_locked()
                if self.result is not None:
                    if self._finished_at is None:
                        self._finished_at = self._clock()
                    if self._clock() - self._finished_at >= self.linger_s:
                        break
                    continue
                if self.tracker.poisoned:
                    self.error = self._poison_message()
                    log_event(logger, logging.ERROR, "fleet_poisoned",
                              error=self.error)
                    break
                if not self._check_fleet_alive_locked():
                    break
        self.shutdown()

    def _check_fleet_alive_locked(self) -> bool:
        now = self._clock()
        if self.tracker.live_workers():
            self._no_worker_since = None
            return True
        if self._no_worker_since is None:
            self._no_worker_since = now
            return True
        if now - self._no_worker_since <= self.no_worker_timeout_s:
            return True
        dead_for = now - self._no_worker_since
        verb = ("no worker ever registered"
                if not self.tracker.ever_registered
                else "every worker is dead")
        self.error = (
            f"fleet is fully dead: {verb} for {dead_for:.1f}s "
            f"(> no_worker_timeout_s={self.no_worker_timeout_s}); "
            f"{len(self.tracker.completed)}/{self.total} points completed"
            + (", journal preserved for resume" if self.journal else ""))
        log_event(logger, logging.ERROR, "fleet_dead", error=self.error)
        return False

    def _assemble_locked(self) -> None:
        result = build_result(
            self.scenario,
            self._results,
            self._elapsed,
            workers=max(1, len(self.tracker.live_workers())),
            elapsed_s=time.perf_counter() - (self._t0 or 0.0),
            start_method=None,
            executed_points=len(self.tracker.accepted),
            cached_points=self.tracker.prefilled,
        )
        if self.point_cache is not None:
            for index in self.tracker.accepted:
                key, hit = self.point_cache.lookup(
                    self.scenario, self.points[index],
                    model_reference=self.model_reference)
                if hit is None:
                    self.point_cache.store(self.scenario.name, key,
                                           self._results[index])
        if self.cache_dir is not None:
            store_cached(result, self.cache_dir, self.key)
        self.result = result
        log_event(logger, logging.INFO, "fleet_done",
                  scenario=self.scenario.name, sha256=result.sha256(),
                  **self.tracker.accounting())

    # -- reporting -----------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "scenario": self.scenario.name,
                "request_key": self.key[:16],
                "endpoint": self.endpoint(),
                **self.tracker.stats(),
                **self.tracker.accounting(),
            }

    def render_metrics(self) -> str:
        """Prometheus text for the fleet: tracker counters/gauges are
        refreshed into the registry at render time."""
        stats = self.stats()
        gauges = (
            ("workers_live", "Workers currently considered alive"),
            ("pending", "Points waiting in the dispatch queue"),
            ("running", "Point attempts currently leased"),
            ("completed", "Points accepted (including prefilled)"),
            ("redispatched", "Leases revoked and re-enqueued"),
            ("retries", "Failed attempts scheduled for retry"),
            ("speculative", "Speculative attempts launched"),
            ("speculative_wins", "Speculative attempts that won"),
            ("duplicates", "Duplicate result deliveries dropped"),
            ("dead_workers", "Workers declared dead by the detector"),
            ("quarantined", "Points quarantined as poison"),
        )
        for name, help_text in gauges:
            self.metrics.gauge(f"repro_fleet_{name}", help_text).set(
                stats[name])
        return render_prometheus(self.metrics)
