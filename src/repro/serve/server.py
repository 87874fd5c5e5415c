"""The long-running simulation daemon behind ``repro serve``.

One process, three kinds of threads:

- an **accept loop** listening on a TCP port or unix socket;
- one **connection handler** per client, reading a single line-JSON
  request and streaming response events back (see
  :mod:`repro.serve.protocol`);
- one **executor** per admitted job, fanning the job's grid points onto
  the shared persistent :class:`~repro.experiments.pool.SweepPool` and
  publishing per-point progress to every subscribed client.

Correctness properties, in order of importance:

- **Byte identity.** A served payload is assembled by the exact
  :func:`~repro.experiments.driver.build_result` path offline sweeps
  use, from per-point values computed by the same worker-side task
  function — so it is byte-identical to ``repro sweep`` output by
  construction, at any concurrency, in either model mode.
- **Coalescing.** Admission goes through the job table's in-flight
  registry: concurrent submits with one canonical request key execute
  the grid once; every attached client receives the same payload.
- **Isolation.** Grid points always run in pool worker processes, and
  each task re-applies its job's model mode around the point (exactly
  as parallel sweeps do), so concurrent jobs in different modes never
  perturb each other or the daemon process.
- **Prompt cancellation.** Points are dispatched in waves of at most
  ``workers`` in-flight tasks (``apply_async``, not a bulk ``imap``),
  so a cancelled job stops consuming the pool after the current wave.

Cancellation and client disconnects are independent: a client that
goes away mid-stream just loses its subscription — the job keeps
running for the other attached clients (and for the cache). Only an
explicit ``cancel`` verb kills a job.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from pathlib import Path
from queue import Empty, SimpleQueue
from typing import Any, Callable, Mapping, Optional

from repro.experiments.cache import (
    PointCache,
    TimingStore,
    load_cached,
    store_cached,
)
from repro.experiments.driver import _order_tasks, _run_point_task, build_result
from repro.experiments.pool import SweepPool
from repro.experiments.scenario import GridError
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import CONTENT_TYPE, render as render_prometheus
from repro.serve import protocol
from repro.serve.jobs import Job, JobRequest, JobTable
from repro.serve.logs import log_event, server_logger

__all__ = ["ReproServer"]


class ReproServer:
    """The daemon: a listener, a job table, and a worker pool.

    Parameters
    ----------
    port: TCP port to listen on (0 = OS-assigned); exclusive with
        ``socket_path``.
    socket_path: unix socket path to listen on.
    host: TCP bind address (default loopback; this protocol has no
        authentication, so binding wider is an explicit choice).
    workers: pool worker processes serving grid points.
    cache_dir: optional cache directory; when set, jobs go through the
        whole-sweep and per-point caches (and record point timings)
        exactly as ``repro sweep --cache`` does.
    pool: an existing :class:`SweepPool` to serve on (left open on
        shutdown unless ``owns_pool=True``). Default: a dedicated pool
        the server closes on shutdown.
    abandon_timeout_s: how long a running job may outlive its last
        streaming client before it is reaped (cancelled) — the lease a
        mid-stream disconnect leaves behind expires instead of leaking
        pool capacity. A job keeps running while *any* coalesced
        client is still attached, and detach-submitted jobs are never
        reaped (their clients poll by job id). None disables reaping.
    clock: time source for the job table (tests inject a fake one).
    """

    def __init__(
        self,
        *,
        port: Optional[int] = None,
        socket_path: Optional[Path] = None,
        host: str = "127.0.0.1",
        workers: int = 2,
        cache_dir: Optional[Path] = None,
        pool: Optional[SweepPool] = None,
        owns_pool: Optional[bool] = None,
        abandon_timeout_s: Optional[float] = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if (port is None) == (socket_path is None):
            raise ValueError("exactly one of port= or socket_path= is required")
        self.host = host
        self.port = port
        self.socket_path = Path(socket_path) if socket_path is not None else None
        if pool is None:
            pool = SweepPool(workers)
            owns_pool = True if owns_pool is None else owns_pool
        else:
            owns_pool = False if owns_pool is None else owns_pool
        self.pool = pool
        self.workers = pool.workers
        self._owns_pool = owns_pool
        self.abandon_timeout_s = abandon_timeout_s
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.point_cache = PointCache(self.cache_dir) if self.cache_dir else None
        self.timings = TimingStore(self.cache_dir) if self.cache_dir else None
        self.table = JobTable(clock=clock)
        self._clock = clock
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._threads: set[threading.Thread] = set()
        self._shutting_down = False
        self._done = threading.Event()
        self._started_at: Optional[float] = None
        self.points_executed = 0
        self.cache_hits = 0
        # Daemon metrics are always on (unlike simulation telemetry):
        # the registry is private to this server instance and costs a
        # few counter bumps per request — nothing on any simulation
        # path. The `metrics` verb renders it as Prometheus text.
        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "repro_serve_requests_total", "Requests handled, by verb",
            labels=("verb",),
        )
        self._m_latency = self.metrics.histogram(
            "repro_serve_request_seconds",
            "Request handling wall time (includes streaming), by verb",
            labels=("verb",),
        )
        self._m_points = self.metrics.counter(
            "repro_serve_points_total", "Grid points served, by source",
            labels=("source",),
        )
        self._m_sweep_cache_hits = self.metrics.counter(
            "repro_serve_sweep_cache_hits_total",
            "Jobs answered from the whole-sweep cache",
        )
        self._m_jobs = self.metrics.counter(
            "repro_serve_jobs_total", "Jobs reaching a terminal state, by outcome",
            labels=("outcome",),
        )
        self._m_reaped = self.metrics.counter(
            "repro_serve_jobs_reaped_total",
            "Running jobs cancelled after every streaming client vanished",
        )
        self._m_worker_deaths = self.metrics.counter(
            "repro_serve_worker_deaths_total",
            "Pool worker deaths detected and survived mid-job",
        )

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ReproServer":
        """Bind, listen, and spawn the accept loop."""
        if self._listener is not None:
            return self
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            if self.socket_path.exists():
                self.socket_path.unlink()  # stale socket from a dead daemon
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            sock.bind(str(self.socket_path))
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
            self.port = sock.getsockname()[1]
        sock.listen(128)
        self._listener = sock
        self._started_at = self._clock()
        log_event(server_logger, logging.INFO, "server_started",
                  endpoint=self.endpoint(), workers=self.workers,
                  cache_dir=self.cache_dir)
        self._spawn(self._accept_loop, name="repro-serve-accept")
        return self

    def endpoint(self) -> str:
        """Human-readable listen address (also what clients connect to)."""
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host}:{self.port}"

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until shutdown completes (the CLI's serve loop)."""
        return self._done.wait(timeout)

    def shutdown(self, mode: str = "graceful") -> None:
        """Stop accepting, settle jobs, release the pool, wake waiters.

        ``graceful`` lets running jobs finish (queued-but-never-claimed
        jobs too — executors are spawned at admission, so nothing can be
        stranded); ``now`` cancels every non-terminal job first. Either
        way the pool this server owns is closed, so a clean shutdown
        leaves no worker processes behind.
        """
        with self._lock:
            if self._shutting_down:
                return
            self._shutting_down = True
        self._close_listener()
        if mode == "now":
            for job in self.table.active():
                job.cancel()
        me = threading.current_thread()
        while True:
            with self._lock:
                live = [t for t in self._threads if t.is_alive() and t is not me]
            if not live:
                break
            for t in live:
                t.join(timeout=30)
        if self._owns_pool:
            self.pool.close()
        if self.socket_path is not None and self.socket_path.exists():
            try:
                self.socket_path.unlink()
            except OSError:
                pass
        log_event(server_logger, logging.INFO, "server_stopped", mode=mode)
        self._done.set()

    def close(self) -> None:
        """Idempotent teardown for tests/embedding: immediate shutdown."""
        self.shutdown(mode="now")

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                # close() alone does not wake a thread blocked in
                # accept(); shutdown() does, making it fail with OSError.
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass

    def _spawn(self, target: Callable[..., None], *args, name: str) -> None:
        thread = threading.Thread(target=target, args=args, name=name, daemon=True)
        with self._lock:
            self._threads = {t for t in self._threads if t.is_alive()}
            self._threads.add(thread)
        thread.start()

    # -- stats ---------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._lock:
            uptime = (self._clock() - self._started_at
                      if self._started_at is not None else 0.0)
            return {
                "jobs": len(self.table),
                "active_jobs": len(self.table.active()),
                "coalesced_submits": self.table.coalesced_submits,
                "points_executed": self.points_executed,
                "cache_hits": self.cache_hits,
                "workers": self.workers,
                "uptime_s": round(uptime, 3),
                "version": protocol.PROTOCOL_VERSION,
            }

    # -- accepting + connection handling -------------------------------------
    def _accept_loop(self) -> None:
        while True:
            listener = self._listener
            if listener is None:
                return
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed: shutdown in progress
            self._spawn(self._handle_conn, conn, name="repro-serve-conn")

    def _handle_conn(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        try:
            line = stream.readline()
            if not line:
                return
            try:
                msg = protocol.parse_request(protocol.decode(line))
            except protocol.ProtocolError as exc:
                self._send(stream, {"event": "error", "message": str(exc)})
                return
            self.handle_request(msg, lambda event: self._send(stream, event))
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; the job (if any) keeps running
        finally:
            try:
                stream.close()
            except OSError:
                pass
            try:
                # shutdown(), not just close(): forked pool workers hold
                # inherited duplicates of this fd, and only a shutdown
                # terminates the stream itself — otherwise the client
                # never sees EOF until the workers exit.
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _send(stream, event: Mapping[str, Any]) -> None:
        stream.write(protocol.encode(event))
        stream.flush()

    # -- request dispatch (socket-free, so unit tests can call it) -----------
    def handle_request(
        self, msg: Mapping[str, Any], send: Callable[[Mapping[str, Any]], None]
    ) -> None:
        """Serve one validated request, writing events through ``send``."""
        verb = msg["verb"]
        started = time.perf_counter()
        try:
            if verb == "ping":
                send({"event": "pong", "version": protocol.PROTOCOL_VERSION})
            elif verb == "status":
                self._handle_status(msg, send)
            elif verb == "cancel":
                ok, state = self.table.cancel(msg["job"])
                log_event(server_logger, logging.INFO, "job_cancel_requested",
                          job=msg["job"], ok=ok, state=state)
                send({"event": "cancel", "job": msg["job"], "ok": ok, "state": state})
            elif verb == "shutdown":
                send({"event": "shutdown", "ok": True,
                      "mode": msg.get("mode", "graceful")})
                # The response is flushed before the drain starts, so the
                # client is never left waiting on a dying daemon.
                log_event(server_logger, logging.INFO, "shutdown_requested",
                          mode=msg.get("mode", "graceful"))
                self.shutdown(mode=msg.get("mode", "graceful"))
            elif verb == "metrics":
                send({"event": "metrics", "content_type": CONTENT_TYPE,
                      "text": self.render_metrics()})
            elif verb == "submit":
                self._handle_submit(msg, send)
            else:  # pragma: no cover - parse_request already rejects these
                send({"event": "error", "message": f"unhandled verb {verb!r}"})
        finally:
            self._m_requests.inc(verb=verb)
            self._m_latency.observe(time.perf_counter() - started, verb=verb)

    def render_metrics(self) -> str:
        """Prometheus text exposition of the daemon registry, with the
        point-in-time stats refreshed into gauges at render time."""
        stats = self.stats()
        for name, help_text in (
            ("jobs", "Jobs admitted since start"),
            ("active_jobs", "Jobs currently queued or running"),
            ("coalesced_submits", "Submits coalesced onto an in-flight job"),
            ("workers", "Pool worker processes"),
            ("uptime_s", "Daemon uptime in seconds"),
        ):
            self.metrics.gauge(f"repro_serve_{name}", help_text).set(stats[name])
        return render_prometheus(self.metrics)

    def _handle_status(self, msg, send) -> None:
        job_id = msg.get("job")
        if job_id is None:
            send({"event": "status", "jobs": self.table.rows(),
                  "stats": self.stats()})
            return
        job = self.table.get(job_id)
        if job is None:
            send({"event": "error", "message": f"unknown job {job_id!r}"})
            return
        row = job.snapshot()
        if job.payload is not None:
            # Terminal detail includes the payload: a detached client
            # can recover its full result from the job id alone.
            row["payload"] = job.payload
        send({"event": "status", "jobs": [row], "stats": self.stats()})

    def _handle_submit(self, msg, send) -> None:
        with self._lock:
            if self._shutting_down:
                send({"event": "error", "message": "server is shutting down"})
                return
        request = JobRequest(
            scenario=msg["scenario"],
            overrides=msg.get("overrides") or {},
            seed=msg.get("seed"),
            reference_model=msg.get("reference_model"),
        )
        try:
            job, created = self.table.admit(request)
        except (KeyError, GridError) as exc:
            reason = exc.args[0] if exc.args else str(exc)
            log_event(server_logger, logging.WARNING, "submit_rejected",
                      scenario=msg.get("scenario"), error=str(reason))
            send({"event": "error", "message": str(reason)})
            return
        log_event(server_logger, logging.INFO, "job_admitted",
                  job=job.id, request_key=job.key, scenario=request.scenario,
                  coalesced=not created, total=job.total)
        queue = None if msg.get("detach") else job.subscribe()
        send({
            "event": "accepted",
            "job": job.id,
            "request_key": job.key,
            "coalesced": not created,
            "state": job.state,
            "done": job.done,
            "total": job.total,
        })
        if created:
            self._spawn(self._execute, job, name=f"repro-serve-{job.id}")
        if queue is None:
            return
        try:
            while True:
                try:
                    event = queue.get(timeout=1.0)
                except Empty:
                    continue
                send(event)
                if event["event"] in ("result", "cancelled", "error"):
                    return
        finally:
            job.unsubscribe(queue)

    # -- job execution --------------------------------------------------------
    def _execute(self, job: Job) -> None:
        try:
            self._run_job(job)
        except Exception as exc:  # noqa: BLE001 - one job must not kill the daemon
            job.finish_failed(f"{type(exc).__name__}: {exc}")
            log_event(server_logger, logging.ERROR, "job_failed",
                      job=job.id, request_key=job.key,
                      error=f"{type(exc).__name__}: {exc}")
            self._m_jobs.inc(outcome="failed")
        finally:
            self.table.release(job)

    def _run_job(self, job: Job) -> None:
        sc = job.scenario
        mref = job.reference_model
        if self.cache_dir is not None:
            cached = load_cached(self.cache_dir, sc, job.key)
            if cached is not None:
                if not job.mark_running():
                    return  # cancelled before the executor got here
                with self._lock:
                    self.cache_hits += 1
                self._m_sweep_cache_hits.inc()
                log_event(server_logger, logging.INFO, "job_done",
                          job=job.id, request_key=job.key, cache_hit=True)
                self._finish_with_result(job, cached, cache_hit=True)
                return
        if not job.mark_running():
            return
        log_event(server_logger, logging.DEBUG, "job_running",
                  job=job.id, request_key=job.key, total=job.total)

        points = sc.points()
        total = len(points)
        results: list[Optional[dict[str, float]]] = [None] * total
        point_elapsed: list[Optional[float]] = [None] * total
        cache_keys: list[Optional[str]] = [None] * total
        cached_n = 0
        if self.point_cache is not None:
            for i, cfg in enumerate(points):
                cache_keys[i], hit = self.point_cache.lookup(
                    sc, cfg, model_reference=mref
                )
                if hit is not None:
                    results[i] = hit
                    cached_n += 1
            job.note_cached(cached_n)

        pending = [i for i in range(total) if results[i] is None]
        tasks = [(sc.name, i, points[i], mref, False) for i in pending]
        cost_keys: dict[int, str] = {}
        if self.timings is not None:
            cost_keys = {
                i: self.timings.key(sc, points[i], model_reference=mref)
                for i in pending
            }
            tasks = _order_tasks(
                tasks, lambda t: self.timings.estimate(cost_keys[t[1]])
            )

        t0 = time.perf_counter()
        executed: list[int] = []
        if tasks and not self._dispatch_waves(
            job, tasks, points, results, point_elapsed, executed
        ):
            # Cancelled mid-flight. Completed points are pure values —
            # bank them so a resubmit only pays for what never ran.
            self._store_fresh(sc, executed, results, point_elapsed,
                              cache_keys, cost_keys)
            log_event(server_logger, logging.INFO, "job_cancelled",
                      job=job.id, request_key=job.key,
                      completed_points=len(executed))
            self._m_jobs.inc(outcome="cancelled")
            job.finish_cancelled()
            return

        self._store_fresh(sc, pending, results, point_elapsed,
                          cache_keys, cost_keys)
        result = build_result(
            sc,
            results,
            point_elapsed,
            workers=self.pool.workers,
            elapsed_s=time.perf_counter() - t0,
            start_method=self.pool.start_method,
            executed_points=len(pending),
            cached_points=cached_n,
        )
        if self.cache_dir is not None:
            store_cached(result, self.cache_dir, job.key)
        with self._lock:
            self.points_executed += len(pending)
        if pending:
            self._m_points.inc(len(pending), source="executed")
        if cached_n:
            self._m_points.inc(cached_n, source="point_cache")
        log_event(server_logger, logging.INFO, "job_done",
                  job=job.id, request_key=job.key, sha256=result.sha256(),
                  executed_points=len(pending), cached_points=cached_n,
                  elapsed_s=round(result.elapsed_s, 3))
        self._finish_with_result(job, result)

    def _dispatch_waves(
        self, job: Job, tasks, points, results, point_elapsed, executed
    ) -> bool:
        """Run ``tasks`` on the pool, at most ``workers`` in flight;
        False when the job was cancelled before every task finished.
        Completed indices are appended to ``executed``.

        The completion wait polls rather than blocks, which buys two
        kinds of fault tolerance: a SIGKILLed pool worker (whose task
        would otherwise never complete) is detected via
        :meth:`SweepPool.reap_dead` and the whole in-flight wave is
        re-dispatched onto the respawned pool, and a job every
        streaming client abandoned mid-run is reaped (cancelled) after
        ``abandon_timeout_s`` instead of leaking its lease. Tasks are
        idempotent pure point functions, so a re-dispatch can at worst
        deliver a duplicate result — deduplicated here by index."""
        completions: SimpleQueue = SimpleQueue()
        it = iter(tasks)
        inflight: dict[int, Any] = {}  # point index -> task tuple

        def dispatch(task) -> None:
            self.pool.apply_async(
                _run_point_task, (task,),
                callback=completions.put,
                error_callback=completions.put,
            )

        while True:
            self._maybe_reap_abandoned(job)
            if not job.cancelled:
                while len(inflight) < self.workers:
                    task = next(it, None)
                    if task is None:
                        break
                    inflight[task[1]] = task
                    dispatch(task)
            if not inflight:
                return not job.cancelled
            try:
                outcome = completions.get(timeout=0.5)
            except Empty:
                # A silent pool may just be slow — or a worker died and
                # its task is gone for good. Health-check, and respawn +
                # re-dispatch the whole wave when a death is detected
                # (the terminated pool drops its queue, so at most one
                # stale duplicate per point can still arrive).
                if self.pool.reap_dead():
                    log_event(server_logger, logging.WARNING,
                              "pool_worker_died", job=job.id,
                              redispatched=len(inflight),
                              deaths=self.pool.deaths_detected)
                    self._m_worker_deaths.inc()
                    for task in inflight.values():
                        dispatch(task)
                continue
            if isinstance(outcome, BaseException):
                raise outcome
            idx, values, dt, _snap = outcome
            if inflight.pop(idx, None) is None:
                continue  # duplicate from a pre-respawn dispatch
            results[idx] = values
            point_elapsed[idx] = dt
            executed.append(idx)
            params = {k: v for k, v in points[idx].items() if k != "seed"}
            job.publish_point(idx, params, values)
            if job.cancelled and not inflight:
                return False

    def _maybe_reap_abandoned(self, job: Job) -> None:
        """Cancel a running job whose last streaming client vanished
        more than ``abandon_timeout_s`` ago — a disconnect without a
        cancel must expire the lease, not leak pool capacity forever.
        Jobs with any attached subscriber (coalesced survivors) and
        detach-submitted jobs never accrue abandonment time."""
        timeout = self.abandon_timeout_s
        if timeout is None or job.cancelled:
            return
        idle = job.abandoned_for(self._clock())
        if idle <= timeout:
            return
        log_event(server_logger, logging.WARNING, "job_reaped",
                  job=job.id, request_key=job.key, idle_s=round(idle, 3),
                  timeout_s=timeout)
        self._m_reaped.inc()
        job.cancel()

    def _store_fresh(self, sc, indices, results, point_elapsed,
                     cache_keys, cost_keys) -> None:
        for i in indices:
            if results[i] is None:
                continue
            if self.point_cache is not None and cache_keys[i] is not None:
                self.point_cache.store(sc.name, cache_keys[i], results[i])
            if self.timings is not None and i in cost_keys:
                self.timings.record(cost_keys[i], point_elapsed[i])
        if self.timings is not None:
            self.timings.flush()

    def _finish_with_result(self, job: Job, result, cache_hit: bool = False) -> None:
        job.finish_done(result, result.pretty_json(), result.sha256(),
                        cache_hit=cache_hit)
        self._m_jobs.inc(outcome="done")

    # -- context manager ------------------------------------------------------
    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
