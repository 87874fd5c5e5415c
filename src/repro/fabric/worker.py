"""The fleet worker: connect, register, heartbeat, execute, deliver.

A worker is a deliberately thin client around the repo's existing
point machinery: every leased point runs through the same
``_run_point_task`` the multiprocessing pool uses, with the
coordinator's model reference mode applied around it — so the
values a worker produces are bit-identical to a serial sweep on the
same code.

The loop is strict request/reply over one persistent connection:

1. connect (with jittered backoff up to ``reconnect_timeout_s``);
2. ``register`` → ``registered`` reply carries the scenario spec and
   the coordinator's request key; the worker **rebuilds the scenario
   locally, recomputes the key, and refuses on mismatch** — the same
   consistency check shard merging runs, catching code drift before a
   wrong-but-plausible value can enter the sweep;
3. heartbeat on a jittered cadence; leases come back as fully-bound
   cfgs; each point executes inline and its result (or failure) is
   delivered and acknowledged immediately;
4. ``done`` → clean exit, ``abort``/``error`` → :class:`FleetError`,
   ``reregister`` or any socket error → reconnect and re-register.

Work is never wasted: a result computed across a partition is
delivered after reconnecting, and the coordinator accepts it (or
dedups it) under its exactly-once ledger.

Chaos hooks (duck-typed, see :mod:`repro.fabric.chaos`) simulate the
failure schedule the tests script: abrupt kills after N delivered
results, heartbeat-silence windows, delayed and duplicated deliveries.
"""

from __future__ import annotations

import logging
import os
import random
import socket as socket_mod
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro.experiments.cache import PointCache, request_key
from repro.experiments.driver import _run_point_task
from repro.experiments.registry import get_scenario
from repro.experiments.scenario import GridError, Scenario
from repro.fabric import protocol
from repro.fabric.protocol import FleetError
from repro.serve.client import Address, connect
from repro.serve.logs import log_event
from repro.wire import ProtocolError, recv_msg, send_msg

__all__ = ["FleetWorker"]

logger = logging.getLogger("repro.fleet.worker")


class _Killed(Exception):
    """Internal: the chaos schedule says this worker dies *now*."""


class FleetWorker:
    """One fleet worker process/thread.

    Parameters
    ----------
    address: coordinator endpoint (:class:`repro.serve.client.Address`).
    name: stable worker identity across reconnects; defaults to
        ``<hostname>-<pid>``. Re-registering under the same name
        supersedes the previous incarnation on the coordinator.
    capacity: concurrent points this worker advertises. Execution is
        inline (one at a time); capacity>1 simply batches leases.
    heartbeat_s: base heartbeat cadence; each sleep is jittered to
        ``[0.5, 1.5)×`` so a fleet started together does not thunder.
    cache_dir: optional point-cache directory consulted before
        executing and updated after — a worker on a warm cache answers
        leases without recomputing.
    reconnect_timeout_s: how long connection attempts may keep failing
        (from the last successful contact) before the worker gives up
        with a :class:`FleetError`.
    io_timeout_s: blocking-read limit per reply; a coordinator that
        goes silent longer looks like a dead connection → reconnect.
    chaos: optional scripted fault injection (duck-typed; see
        :class:`repro.fabric.chaos.WorkerChaos`).
    rng: jitter source, injectable for determinism in tests.
    """

    def __init__(
        self,
        address: Address,
        *,
        name: Optional[str] = None,
        capacity: int = 1,
        heartbeat_s: float = 0.2,
        cache_dir: Optional[Path] = None,
        reconnect_timeout_s: float = 10.0,
        io_timeout_s: float = 30.0,
        chaos=None,
        rng: Callable[[], float] = random.random,
    ):
        self.address = address
        self.name = name or f"{socket_mod.gethostname()}-{os.getpid()}"
        self.capacity = max(1, int(capacity))
        self.heartbeat_s = heartbeat_s
        self.reconnect_timeout_s = reconnect_timeout_s
        self.io_timeout_s = io_timeout_s
        self.chaos = chaos
        self._rng = rng
        self.point_cache = PointCache(Path(cache_dir)) if cache_dir else None
        self._sc: Optional[Scenario] = None
        self._model_reference = False
        self._key: Optional[str] = None
        self._silences_done: set[int] = set()
        self._stop = threading.Event()
        self.report: dict[str, Any] = {
            "worker": self.name,
            "results_sent": 0,
            "failures_sent": 0,
            "duplicates_sent": 0,
            "cache_hits": 0,
            "reconnects": 0,
            "reregisters": 0,
            "killed": False,
        }

    def stop(self) -> None:
        """Ask the worker to wind down at the next safe point (between
        points / frames / sleeps). Used by in-process harnesses; a
        standalone worker process just gets signalled instead."""
        self._stop.set()

    def _backoff_s(self, attempt: int) -> float:
        """Reconnect delay for the ``attempt``-th consecutive failure:
        exponential from 50 ms, capped at 0.5 s, jittered by ±50% so a
        fleet of workers orphaned together does not reconnect in
        lockstep. The exponent itself is clamped *before* ``2 **
        attempt`` is evaluated — during a long coordinator outage the
        attempt counter keeps climbing, and past ~1000 doublings the
        intermediate power no longer fits in a float (``OverflowError``)
        even though the result would just be clamped to 0.5 s anyway."""
        return min(0.5, 0.05 * 2.0 ** min(attempt, 16)) * (0.5 + self._rng())

    # -- top-level loop ------------------------------------------------------
    def run(self) -> dict[str, Any]:
        """Work until the coordinator says ``done`` (returns the
        worker's report), the chaos schedule kills this worker (report
        has ``killed=True``), or the fleet is unreachable/aborted
        (raises :class:`FleetError`)."""
        last_contact = time.monotonic()
        attempt = 0
        while not self._stop.is_set():
            try:
                sock = connect(self.address, timeout=2.0)
            except OSError as exc:
                if time.monotonic() - last_contact > self.reconnect_timeout_s:
                    raise FleetError(
                        f"worker {self.name}: coordinator at "
                        f"{self.address} unreachable for more than "
                        f"{self.reconnect_timeout_s}s: {exc}"
                    ) from exc
                self._stop.wait(self._backoff_s(attempt))
                attempt += 1
                continue
            attempt = 0
            sock.settimeout(self.io_timeout_s)
            stream = sock.makefile("rwb")
            try:
                self._session(stream)
                return self.report
            except _Killed:
                self.report["killed"] = True
                log_event(logger, logging.WARNING, "worker_chaos_killed",
                          worker=self.name,
                          results_sent=self.report["results_sent"])
                return self.report
            except (OSError, ProtocolError) as exc:
                last_contact = time.monotonic()  # we *had* a connection
                self.report["reconnects"] += 1
                log_event(logger, logging.INFO, "worker_reconnecting",
                          worker=self.name, error=str(exc))
            finally:
                for closer in (stream.close, sock.close):
                    try:
                        closer()
                    except OSError:
                        pass
        return self.report  # stop() mid-reconnect: wind down quietly

    # -- one connection ------------------------------------------------------
    def _session(self, stream) -> None:
        self._register(stream)
        while not self._stop.is_set():
            self._maybe_die()
            self._maybe_silence()
            reply = self._rpc(stream, protocol.heartbeat_msg(
                self.name, self.capacity))
            rtype = reply.get("type")
            if rtype == "lease":
                self._execute_lease(stream, reply.get("points", []))
            elif rtype == "ok":
                self._stop.wait(self.heartbeat_s * (0.5 + self._rng()))
            elif rtype == "done":
                log_event(logger, logging.INFO, "worker_done",
                          **self.report)
                return
            elif rtype == "reregister":
                self.report["reregisters"] += 1
                self._register(stream)
            elif rtype == "abort":
                raise FleetError(
                    f"worker {self.name}: sweep aborted by coordinator: "
                    f"{reply.get('message', 'no reason given')}")
            else:
                raise FleetError(
                    f"worker {self.name}: coordinator error: "
                    f"{reply.get('message', reply)}")

    def _register(self, stream) -> None:
        reply = self._rpc(stream, protocol.register_msg(
            self.name, self.capacity, self._key))
        if reply.get("type") == "error":
            raise FleetError(
                f"worker {self.name}: registration refused: "
                f"{reply.get('message')}")
        if reply.get("type") != "registered":
            raise ProtocolError(
                f"expected 'registered' reply, got {reply.get('type')!r}")
        spec = reply["scenario"]
        self._model_reference = bool(reply["model_reference"])
        try:
            base = get_scenario(spec["name"])
            self._sc = base.with_overrides(
                {**spec["grid"], **spec["defaults"]}, seed=spec["seed"])
        except (KeyError, GridError) as exc:
            raise FleetError(
                f"worker {self.name}: cannot rebuild scenario "
                f"{spec.get('name')!r} from the coordinator's spec "
                f"({exc}); worker code is too old for this sweep"
            ) from exc
        self._key = request_key(self._sc, self._model_reference)
        if self._key != reply["request_key"]:
            raise FleetError(
                f"worker {self.name}: request key mismatch — coordinator "
                f"{reply['request_key'][:16]} vs locally recomputed "
                f"{self._key[:16]}. The worker is running different code "
                "or calibration than the coordinator; its values could "
                "silently diverge, so it refuses to participate."
            )
        log_event(logger, logging.INFO, "worker_registered",
                  worker=self.name, scenario=spec["name"],
                  request_key=self._key[:16], total=reply["total"])

    # -- lease execution -----------------------------------------------------
    def _execute_lease(self, stream, points: list[dict[str, Any]]) -> None:
        for point in points:
            if self._stop.is_set():
                return
            self._maybe_die()
            index, cfg = point["index"], point["cfg"]
            attempt = 1
            try:
                values, elapsed = self._execute_point(index, cfg)
            except _Killed:
                raise
            except Exception as exc:  # the point itself failed
                self._rpc(stream, protocol.failure_msg(
                    self.name, index, f"{type(exc).__name__}: {exc}",
                    attempt))
                self.report["failures_sent"] += 1
                continue
            self._chaos_delay()
            msg = protocol.result_msg(self.name, index, values, elapsed,
                                      attempt)
            self._rpc(stream, msg)
            self.report["results_sent"] += 1
            if self._chaos_duplicate():
                self._rpc(stream, msg)
                self.report["duplicates_sent"] += 1

    def _execute_point(
        self, index: int, cfg: dict[str, Any]
    ) -> tuple[dict[str, float], float]:
        assert self._sc is not None
        if self.point_cache is not None:
            key, hit = self.point_cache.lookup(
                self._sc, cfg, model_reference=self._model_reference)
            if hit is not None:
                self.report["cache_hits"] += 1
                return hit, 0.0
        _, values, elapsed, _ = _run_point_task((
            self._sc.name, index, cfg, self._model_reference, False,
        ))
        if self.point_cache is not None:
            self.point_cache.store(self._sc.name, key, values)
        return values, elapsed

    # -- plumbing ------------------------------------------------------------
    def _rpc(self, stream, msg: dict[str, Any]) -> dict[str, Any]:
        send_msg(stream, msg)
        return recv_msg(stream)

    # -- chaos hooks ---------------------------------------------------------
    def _maybe_die(self) -> None:
        kill_after = getattr(self.chaos, "kill_after_results", None)
        if (kill_after is not None
                and self.report["results_sent"] >= kill_after):
            # Abrupt: no goodbye frame, no lease handback — exactly what
            # SIGKILL looks like from the coordinator's side.
            raise _Killed()

    def _maybe_silence(self) -> None:
        """Scripted heartbeat drops: after delivering N results, go
        silent for a window (a GC pause / network partition stand-in)
        and let the coordinator's failure detector do its worst."""
        for i, (after_results, duration) in enumerate(
                getattr(self.chaos, "silences", ()) or ()):
            if (i not in self._silences_done
                    and self.report["results_sent"] >= after_results):
                self._silences_done.add(i)
                log_event(logger, logging.INFO, "worker_chaos_silence",
                          worker=self.name, duration_s=duration)
                self._stop.wait(duration)

    def _chaos_delay(self) -> None:
        delay = getattr(self.chaos, "delay_results_s", None)
        if delay:
            self._stop.wait(delay)

    def _chaos_duplicate(self) -> bool:
        return bool(getattr(self.chaos, "duplicate_results", False))
