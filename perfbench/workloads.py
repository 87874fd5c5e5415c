"""The benchmark workloads.

Each workload owns its in-process set-up (``prepare``), one pass of its
fixed work (``run_pass``, timed by the caller), the in-process
simulation region the traced run profiles (``sim_region``), and the
offline results its passes are checked against (``reference``). A pass
returns a :class:`PassResult`; only its times are measurements,
everything else is checked by ``run.py``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import repro.experiments as experiments
from layers import Tracer

#: The six paper figures (39 grid points at paper defaults).
PAPER_FIGS = ("fig2", "fig4", "fig5", "fig6", "fig7", "fig8")

#: ``served_sweeps`` bases: (scenario, grid key, cold values, edited values).
#: The edit swaps one value for a point no other request has, so it runs
#: exactly one point. Most edits cost 40-75 ms, which puts the median
#: request (11 bases, 33 requests: the 17th) among many of similar cost.
SERVED_BASES = (
    ("fig8", "nodes", (4, 64), (4, 12)),
    ("fig8", "nodes", (8, 32), (8, 24)),
    ("fig7", "samples", (3e3, 3e11), (3e3, 3e5)),
    ("fig7", "samples", (3e7, 3e9), (3e7, 3e8)),
    ("fig4", "nodes", (24, 36), (24, 12)),
    ("sched_compare", "nodes", (8, 16), (8, 5)),
    ("skew", "splits_per_slot", (4, 8), (4, 3)),
    ("multijob", "num_jobs", (2, 6), (2, 5)),
    ("hetero", "accelerated_fraction", (0.0, 0.5, 1.0), (0.0, 0.5, 0.75)),
    ("fig2", "size_mb", (1, 8, 16), (1, 8, 4)),
    ("gpu", "nodes", (8, 16), (8, 12)),
)

#: Seconds of requests between host-speed calibrations in a served pass.
TICK_EVERY_S = 0.3

FLEET_SCENARIO = "fig5"
POOL_WORKERS = 2
FLEET_WORKERS = 2


@dataclass
class PassResult:
    """What one pass did. ``sweeps`` maps a sweep label to its canonical
    sha256; ``units`` holds one latency per operation;
    ``counts`` are exact and must repeat; ``layer`` holds per-layer
    numbers the pass observed itself."""

    wall_s: float
    sweeps: dict[str, str] = field(default_factory=dict)
    #: One (latency, start, end) per operation: a grid point of an
    #: in-process sweep, a served request, a fleet sweep. ``start`` and
    #: ``end`` bracket it (a point's are its sweep's) for host-speed scaling.
    units: list[tuple[float, float, float]] = field(default_factory=list)
    #: Operations attempted: grid points, or requests for served sweeps.
    ops: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)


class Context:
    """Run-wide state: paths, seed, child processes, the temp directory.

    ``close`` stops every child this run started and removes the temp
    directory, on every exit path.
    """

    def __init__(self, root: Path, seed: int):
        self.src = root / "src"
        self.seed = seed
        # Relative to the checkout root (the working directory), which
        # keeps unix socket paths short wherever the checkout lives.
        self.tmp = Path(".perfbench") / f"tmp-{os.getpid()}"
        self.children: list[subprocess.Popen] = []
        self._serial = 0

    def scratch(self, prefix: str) -> Path:
        self._serial += 1
        path = self.tmp / f"{prefix}{self._serial}"
        path.mkdir(parents=True)
        return path

    def child_env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        return env

    def spawn(self, argv: list[str], log: Path) -> subprocess.Popen:
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL, env=self.child_env())
        self.children.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float) -> Optional[int]:
        """Wait for ``proc``; terminate, then kill, if it overstays."""
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            return None
        finally:
            if proc in self.children:
                self.children.remove(proc)

    def close(self) -> None:
        for proc in list(self.children):
            if proc.poll() is None:
                proc.terminate()
            self.reap(proc, timeout=5)
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()  # only when nothing else lives there
        except OSError:
            pass


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks stop children
    and remove scratch files."""
    def handler(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def sweep_label(scenario: str, overrides: Optional[dict] = None) -> str:
    """One name per distinct sweep request (frozen shas are keyed by it)."""
    if not overrides:
        return scenario
    return scenario + ":" + json.dumps(overrides, sort_keys=True, separators=(",", ":"))


def base_label(label: str) -> str:
    """A pass label without its request-order prefix (``3#fig8:...``)."""
    return label.split("#", 1)[-1]


class Workload:
    """Common shape; subclasses fill in the pass and the checks."""

    name = ""
    min_passes = 3
    max_passes = 50
    #: True when the simulation runs in this process during a pass; the
    #: served and fleet workloads simulate in other processes instead.
    sim_in_pass = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.seed = ctx.seed
        self.ref: dict[str, Any] = {}

    def prepare(self) -> None:
        pass

    def warm_up(self) -> None:
        pass

    def run_pass(self, tracer: Optional[Tracer] = None,
                 tick: Optional[Callable[[], float]] = None) -> PassResult:
        """One pass of the fixed work. ``tick`` (a host-speed calibration
        returning its own duration) may be called between the sweeps or
        requests of the pass; its time is left out of the pass."""
        raise NotImplementedError

    def sim_region(self, tracer: Tracer) -> PassResult:
        """The in-process simulation the traced run measures layer by
        layer: the pass itself, or else the offline reference run of
        the same requests (kept as ``self.ref`` for the output checks)."""
        if self.sim_in_pass:
            return self.run_pass(tracer)
        tracer.rid = "reference"
        t0 = perf_counter()
        self.ref = self.reference()
        return PassResult(wall_s=perf_counter() - t0,
                          sweeps={k: r.sha256() for k, r in self.ref.items()})

    def reference(self) -> dict[str, Any]:
        """Offline ``run_sweep`` results the passes are checked against,
        by sweep label (none for workloads that run ``run_sweep`` itself)."""
        return {}

    def close(self) -> None:
        pass


class PaperFigs(Workload):
    name = "paper_figs"

    def run_pass(self, tracer=None, tick=None):
        out = PassResult(wall_s=0.0)
        for n, fig in enumerate(PAPER_FIGS):
            if tracer is not None:
                tracer.rid = fig
            if n and tick is not None:
                tick()
            s0 = perf_counter()
            result = experiments.run_sweep(fig, seed=self.seed)
            s1 = perf_counter()
            out.wall_s += s1 - s0
            out.units += [(row["elapsed_s"], s0, s1) for row in result.points]
            out.sweeps[fig] = result.sha256()
            out.ops += len(result.points)
            out.counts["experiments.points_executed"] = (
                out.counts.get("experiments.points_executed", 0) + result.executed_points)
            out.counts["experiments.points_cached"] = (
                out.counts.get("experiments.points_cached", 0) + result.cached_points)
        return out


class ServedSweeps(Workload):
    """One closed-loop client against an in-process ``ReproServer``."""

    name = "served_sweeps"
    sim_in_pass = False
    # 33 requests a pass: 4-6 passes keep 132-198 latency samples, so
    # the tail percentile (ten samples beyond it) is always p90.
    min_passes = 4
    max_passes = 6

    def __init__(self, ctx):
        super().__init__(ctx)
        self.requests = self._sequence()
        self.pool = None
        self._payloads: dict[str, str] = {}

    def _sequence(self) -> list[tuple[str, str, dict]]:
        """Three requests per base in a seed-shuffled order: each base
        once cold, once repeated, once with one grid value edited; the
        cold run always comes first."""
        rng = random.Random(self.seed)
        slots = [i for i in range(len(SERVED_BASES)) for _ in range(3)]
        rng.shuffle(slots)
        seen: dict[int, list[str]] = {}
        out = []
        for i in slots:
            scenario, key, cold, edit = SERVED_BASES[i]
            kinds = seen.get(i)
            if kinds is None:
                kinds = seen[i] = rng.sample(["repeat", "edit"], 2)
                kind = "cold"
            else:
                kind = kinds.pop()
            values = edit if kind == "edit" else cold
            out.append((kind, scenario, {key: list(values)}))
        return out

    def prepare(self):
        self.pool = experiments.SweepPool(POOL_WORKERS)
        # Fork the workers now; the daemons of every pass share them. They
        # must not inherit a Python-level SIGTERM handler: one that lands
        # just before a worker blocks on the task-queue lock is never run,
        # and Pool.terminate() then waits on that worker forever.
        previous = signal.signal(signal.SIGTERM, signal.SIG_DFL)
        try:
            for res in [self.pool.apply_async(os.getpid) for _ in range(POOL_WORKERS)]:
                res.get(timeout=60)
        finally:
            signal.signal(signal.SIGTERM, previous)

    def warm_up(self) -> None:
        """One untimed pass: a long-lived daemon's workers have long
        since run every scenario once, so first-use costs are set-up."""
        self.run_pass()

    def run_pass(self, tracer=None, tick=None):
        from repro.serve import Address, ReproServer
        from repro.serve.client import request_stream
        from repro.serve.protocol import submit_request

        work = self.ctx.scratch("serve")
        sock = work / "s.sock"
        server = ReproServer(socket_path=sock, cache_dir=work / "cache",
                             pool=self.pool).start()
        address = Address(socket_path=sock)
        out = PassResult(wall_s=0.0)
        phases = {"admit": 0.0, "exec": 0.0, "finish": 0.0}
        executed = cached = cache_hits = payload_bytes = 0
        try:
            t0 = last_tick = perf_counter()
            paused = 0.0
            for n, (_kind, scenario, overrides) in enumerate(self.requests):
                if tracer is not None:
                    tracer.rid = f"req{n}"
                if tick is not None and perf_counter() - last_tick > TICK_EVERY_S:
                    paused += tick()
                    last_tick = perf_counter()
                msg = submit_request(scenario, overrides, seed=self.seed)
                sent = perf_counter()
                accepted = last_point = done = None
                result = None
                for event in request_stream(address, msg, timeout=30):
                    now = perf_counter()
                    etype = event.get("event")
                    if etype == "accepted":
                        accepted = now
                    elif etype == "point":
                        last_point = now
                    elif etype == "result":
                        done, result = now, event
                    else:
                        out.errors.append(f"request {n} ({scenario}): {event}")
                if result is None or accepted is None:
                    out.errors.append(f"request {n} ({scenario}): no result")
                    continue
                out.units.append((done - sent, sent, done))
                phases["admit"] += accepted - sent
                exec_end = last_point if last_point is not None else accepted
                phases["exec"] += exec_end - accepted
                phases["finish"] += done - exec_end
                label = f"{n}#{sweep_label(scenario, overrides)}"
                out.sweeps[label] = result["sha256"]
                self._payloads[label] = result["payload"]
                executed += result["executed_points"]
                cached += result["cached_points"]
                cache_hits += bool(result.get("cache_hit"))
                payload_bytes += len(result["payload"])
            out.wall_s = perf_counter() - t0 - paused
        finally:
            server.close()
        out.ops = len(self.requests)
        out.counts = {"experiments.points_executed": executed,
                      "experiments.points_cached": cached,
                      "serve.sweep_cache_hits": cache_hits}
        out.layer = {f"serve.{k}_share": v / out.wall_s for k, v in phases.items()}
        out.layer["serve.payload_bytes"] = payload_bytes
        return out

    def reference(self):
        ref = {}
        for _kind, scenario, overrides in self.requests:
            label = sweep_label(scenario, overrides)
            if label not in ref:
                ref[label] = experiments.run_sweep(scenario, overrides, seed=self.seed)
        return ref

    def payload_mismatches(self, ref) -> list[str]:
        """Labels whose served payload bytes differ from the offline sweep."""
        bad = []
        for label, payload in self._payloads.items():
            expected = ref[base_label(label)]
            if payload != expected.pretty_json():
                bad.append(label)
        self._payloads.clear()
        return bad

    def close(self):
        if self.pool is not None:
            self.pool.close()


class FleetSweep(Workload):
    """A journaled ``FleetCoordinator`` and two ``repro fleet worker``
    subprocesses; each pass starts all three afresh."""

    name = "fleet_sweep"
    sim_in_pass = False

    def __init__(self, ctx):
        super().__init__(ctx)
        self._results: list[Any] = []

    def prepare(self):
        import repro.fabric  # noqa: F401 - imported before the first timed pass

    def run_pass(self, tracer=None, tick=None):
        from repro.fabric import FleetCoordinator

        work = self.ctx.scratch("fleet")
        sock = work / "c.sock"
        if tracer is not None:
            tracer.rid = "fleet"
        out = PassResult(wall_s=0.0)
        t0 = perf_counter()
        coord = FleetCoordinator(FLEET_SCENARIO, seed=self.seed, socket_path=sock,
                                 journal_path=work / "journal.jsonl",
                                 linger_s=1.0, no_worker_timeout_s=30.0)
        workers = []
        try:
            coord.start()
            for i in range(FLEET_WORKERS):
                workers.append(self.ctx.spawn(
                    [sys.executable, "-m", "repro", "fleet", "worker",
                     "--socket", str(sock), "--name", f"w{i}",
                     "--log-level", "warning"], work / f"w{i}.log"))
            deadline = time.monotonic() + 120
            while coord.result is None and not coord.wait(0):
                if time.monotonic() > deadline:
                    out.errors.append("fleet sweep did not finish in 120 s")
                    break
                time.sleep(0.002)
            t1 = perf_counter()
            out.wall_s = t1 - t0
            coord.wait(timeout=30)
        finally:
            coord.close()
            codes = [self.ctx.reap(w, timeout=10) for w in workers]
        if coord.result is None:
            out.errors.append(f"fleet: {coord.error}")
        else:
            out.sweeps[FLEET_SCENARIO] = coord.result.sha256()
            self._results.append(coord.result)
        for i, code in enumerate(codes):
            if code != 0:
                log = (work / f"w{i}.log").read_text(errors="replace")[-2000:]
                out.errors.append(f"worker w{i} exited {code}: {log}")
        acct = coord.tracker.accounting()
        if acct["quarantined"]:
            out.errors.append(f"fleet quarantined {acct['quarantined']} point(s)")
        out.units = [(out.wall_s, t0, t1)]
        out.ops = acct["total"]
        out.counts = {"experiments.points_executed": acct["accepted"],
                      "experiments.points_cached": acct["prefilled"],
                      "fabric.results_accepted": acct["results_accepted"]}
        out.layer = {"fabric.duplicates": acct["duplicates"],
                     "fabric.redispatched": acct["redispatched"]}
        if tracer is not None and len(tracer.registered_at) >= FLEET_WORKERS:
            live = sorted(tracer.registered_at)[FLEET_WORKERS - 1]
            out.layer["fabric.register_share"] = (live - t0) / out.wall_s
        return out

    def reference(self):
        return {FLEET_SCENARIO: experiments.run_sweep(FLEET_SCENARIO, seed=self.seed)}

    def payload_mismatches(self, ref) -> list[str]:
        expected = ref[FLEET_SCENARIO].pretty_json()
        bad = [f"pass {i}" for i, r in enumerate(self._results)
               if r.pretty_json() != expected]
        self._results.clear()
        return bad


WORKLOADS = {cls.name: cls for cls in (PaperFigs, ServedSweeps, FleetSweep)}
