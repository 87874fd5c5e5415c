"""Deterministic fault injection for the fleet: scripted, not random.

The fabric's contract — any failure schedule merges byte-identical to
a serial sweep — is only testable if failure schedules can be
*scripted*: kill worker 0 after its second result, drop worker 1's
heartbeats for 300ms, crash the coordinator after five accepted
points, restart it, and demand the same bytes. This module provides
the two chaos descriptors the worker and coordinator consult
(duck-typed, so neither imports this module) and
:func:`run_chaos_fleet`, the in-process harness the tests and the CI
chaos-smoke job drive.

Everything runs in threads inside one process: workers execute points
inline, the coordinator serves its socket, and "kills" are abrupt
socket closes with leases still held — indistinguishable, from the
coordinator's side, from SIGKILL on a remote host.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import repro.modelmode as modelmode
from repro.experiments.driver import SweepResult
from repro.fabric.coordinator import FleetCoordinator
from repro.fabric.protocol import FleetError
from repro.fabric.tracker import TrackerConfig
from repro.fabric.worker import FleetWorker
from repro.serve.client import Address

__all__ = ["CoordinatorChaos", "WorkerChaos", "run_chaos_fleet"]


@dataclass(frozen=True)
class WorkerChaos:
    """One worker's scripted failure schedule.

    All triggers key off ``results_sent`` — a deterministic progress
    marker — never wall time, so a schedule means the same thing on a
    fast machine and a loaded CI runner.
    """

    #: Die abruptly (no goodbye, leases kept) after delivering N
    #: results. None: never.
    kill_after_results: Optional[int] = None
    #: ``(after_results, duration_s)`` heartbeat-silence windows — the
    #: worker stops heartbeating for ``duration_s`` once it has
    #: delivered ``after_results`` results (each window fires once).
    silences: tuple[tuple[int, float], ...] = ()
    #: Sleep this long between computing a result and delivering it
    #: (makes every point a straggler: speculation bait).
    delay_results_s: float = 0.0
    #: Deliver every result twice (exactly-once dedup exercise).
    duplicate_results: bool = False


@dataclass(frozen=True)
class CoordinatorChaos:
    """The coordinator's scripted failure schedule."""

    #: Crash (stop answering, leave the journal) after accepting N
    #: results. None: never.
    crash_after_results: Optional[int] = None


@dataclass
class _Fleet:
    """Mutable harness state shared between spawn helpers."""

    threads: list[threading.Thread] = field(default_factory=list)
    workers: list[FleetWorker] = field(default_factory=list)
    reports: list[dict[str, Any]] = field(default_factory=list)
    spawned: int = 0


def run_chaos_fleet(
    scenario,
    overrides: Optional[Mapping[str, Any]] = None,
    *,
    seed: Optional[int] = None,
    model_reference: Optional[bool] = None,
    journal_path: Optional[Path] = None,
    cache_dir: Optional[Path] = None,
    workers: int = 2,
    worker_chaos: Optional[Sequence[Optional[WorkerChaos]]] = None,
    coordinator_chaos: Optional[CoordinatorChaos] = None,
    respawn_killed: bool = True,
    max_restarts: int = 3,
    config: Optional[TrackerConfig] = None,
    heartbeat_s: float = 0.05,
    no_worker_timeout_s: float = 10.0,
    reconnect_timeout_s: float = 20.0,
    linger_s: float = 1.0,
    timeout_s: float = 120.0,
) -> tuple[SweepResult, dict[str, Any], list[dict[str, Any]]]:
    """Run one sweep through a localhost fleet under a failure script.

    Starts a TCP coordinator on an OS-assigned port and ``workers``
    worker threads (``worker_chaos[i]`` scripts worker i). Killed
    workers are replaced by fresh chaos-free workers when
    ``respawn_killed``; a chaos-crashed coordinator is restarted **on
    the same port with the same journal** (the resume path) up to
    ``max_restarts`` times, with chaos applied only to the first
    incarnation.

    Returns ``(result, stats, reports)``: the merged
    :class:`SweepResult`, the final coordinator stats augmented with
    ``restarts``, and one report dict per worker incarnation. Raises
    :class:`FleetError` when the sweep genuinely fails (poison points,
    fully dead fleet, restart budget exhausted).
    """
    if coordinator_chaos is not None and journal_path is None:
        raise ValueError(
            "coordinator_chaos without journal_path would lose every "
            "accepted point on crash; pass journal_path=")
    config = config or TrackerConfig(
        worker_timeout_s=1.0, lease_timeout_s=15.0, retry_backoff_s=0.1)
    schedules = list(worker_chaos or [])
    schedules += [None] * (workers - len(schedules))

    def make_coordinator(port: int, chaos) -> FleetCoordinator:
        return FleetCoordinator(
            scenario, overrides, seed=seed, port=port,
            model_reference=model_reference,
            config=config, journal_path=journal_path, cache_dir=cache_dir,
            no_worker_timeout_s=no_worker_timeout_s, linger_s=linger_s,
            chaos=chaos,
        ).start()

    coord = make_coordinator(0, coordinator_chaos)
    port = coord.port
    address = Address.parse(f"127.0.0.1:{port}", None)
    fleet = _Fleet()

    def spawn(chaos: Optional[WorkerChaos]) -> None:
        name = f"w{fleet.spawned}"
        fleet.spawned += 1
        worker = FleetWorker(
            address, name=name, chaos=chaos, heartbeat_s=heartbeat_s,
            reconnect_timeout_s=reconnect_timeout_s)

        def target() -> None:
            try:
                fleet.reports.append(worker.run())
            except FleetError as exc:
                fleet.reports.append({**worker.report, "error": str(exc)})

        t = threading.Thread(target=target, daemon=True,
                             name=f"repro-fleet-{name}")
        fleet.threads.append(t)
        fleet.workers.append(worker)
        t.start()

    for chaos in schedules:
        spawn(chaos)

    deadline = threading.Event()
    timer = threading.Timer(timeout_s, deadline.set)
    timer.start()
    restarts = 0
    # Worker threads run points in-process, and _run_point_task's
    # save/set/restore of the process-global model mode races between
    # threads — harmless during the run (every worker sets the same
    # value) but able to *leak* the fleet's mode past it. Pin the entry
    # state and force-restore once every thread is joined.
    prev_model_reference = modelmode.REFERENCE_MODE
    try:
        while True:
            if coord.wait(0.05):
                if coord.result is not None:
                    break
                if coord.crashed and restarts < max_restarts:
                    restarts += 1
                    # Same port, same journal: the genuine resume path.
                    coord = make_coordinator(port, None)
                    continue
                raise FleetError(coord.error or "fleet sweep failed")
            if deadline.is_set():
                coord.close()
                raise FleetError(
                    f"chaos fleet did not converge within {timeout_s}s; "
                    f"stats: {coord.stats()}")
            if respawn_killed:
                for t in list(fleet.threads):
                    if not t.is_alive():
                        fleet.threads.remove(t)
            # A replacement is owed for every reported kill that has
            # not been replaced yet.
            if respawn_killed:
                kills = sum(1 for r in fleet.reports if r.get("killed"))
                owed = workers + kills - fleet.spawned
                for _ in range(max(0, owed)):
                    spawn(None)
    finally:
        timer.cancel()
        coord.close()
        for worker in fleet.workers:
            worker.stop()
        for t in fleet.threads:
            t.join(timeout=10.0)
        leaked = [t.name for t in fleet.threads if t.is_alive()]
        modelmode.set_model_reference(prev_model_reference)
        if leaked and sys.exc_info()[0] is None:
            # Never mask a real failure in flight; but a quiet leak
            # would let worker threads outlive the test that spawned
            # them (and pollute whatever runs next), so it is an error.
            raise FleetError(
                f"chaos fleet leaked worker threads past stop(): {leaked}")
    stats = {**coord.stats(), "restarts": restarts,
             "workers_spawned": fleet.spawned}
    return coord.result, stats, fleet.reports
