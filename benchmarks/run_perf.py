#!/usr/bin/env python
"""Tracked engine-performance harness.

Runs six suites and records the results in ``BENCH_engine.json``:

1. **Engine microbenchmarks** — apples-to-apples A/B against the frozen
   seed engine (``benchmarks/legacy``): the same workload driven through
   the pre-overhaul kernel and the optimized one, interleaved to defeat
   host-timing noise. The headline metric is the median per-pair
   **wall-clock speedup**; events/sec is reported only as a diagnostic,
   because event-eliding optimizations make it misleading (a bench that
   cancels 3000 events in 8 actual events has a *lower* events/sec
   precisely because it is faster).
2. **Determinism** — the sha256 of the engine's ``(time, priority, seq,
   event-class)`` trace for a dense mixed scenario and for one Fig-8
   point, checked against the frozen fixture
   ``tests/sim/data/frozen_traces.json``.
   **Fig-8 sweep** — the full Pi node-scaling sweep (the heaviest figure
   reproduction), recording its wall-clock and asserting that the
   reduced golden grid reproduces ``tests/golden/data/fig8.golden.json``
   **byte for byte**.
3. **Model bench** — the cluster-protocol A/B (``repro.modelmode``):
   event-thin heartbeats + analytic task segments vs the pre-overhaul
   fixed-interval model, reporting events-per-simulated-job, cluster-
   scale wall-clock, and the makespan drift the protocol change costs.
4. **Sweep bench** — the experiment-layer fan-out: persistent
   ``SweepPool`` dispatch overhead vs a cold per-sweep pool, the
   point-cache incremental re-sweep (executed-point reduction after a
   one-value grid edit), and 4-shard ``--merge`` parity against a
   serial run in both model modes.
5. **Scale bench** — the weak-scaling envelope: the ``scale`` scenario
   family (256-4096 nodes, every placement policy) timed against a
   frozen seed-tree baseline with a >= 2x gate on the 1024-node point,
   the 2048/4096 wall-clock + peak-RSS envelope recorded, and the
   per-policy mean-completion values re-checked byte-exactly (the
   speedup must be pure wall-clock, never model drift).

Usage::

    PYTHONPATH=src python benchmarks/run_perf.py          # full run
    PYTHONPATH=src python benchmarks/run_perf.py --smoke  # quick CI smoke

``--smoke`` shrinks every workload and enforces a wall-clock budget so
it can gate CI; it still checks byte-identity and the event-reduction
floor (those are algorithmic, not timing-sensitive). Exit status is
non-zero if determinism, event-thinness, or (non-smoke) speed targets
fail.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for p in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

import benchmarks.legacy as legacy  # noqa: E402
from repro.sim import Environment, Interrupt, PriorityResource, Store  # noqa: E402

# --------------------------------------------------------------------------- #
# Microbenchmark workloads                                                     #
#                                                                              #
# Each takes a module namespace (legacy or current) plus a size, builds a      #
# fresh Environment, runs, and returns (wall_seconds, processed_events).       #
# --------------------------------------------------------------------------- #


def _run(env) -> tuple[float, int]:
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    env.run()
    dt = time.perf_counter() - t0
    gc.enable()
    return dt, env.processed_events


def micro_timeout_chain(ns, n: int) -> tuple[float, int]:
    """Pure event-loop throughput: one process, n sequential sleeps."""
    env = ns.Environment()
    to = env.timeout

    def proc():
        for _ in range(n):
            yield to(1.0)

    env.process(proc())
    return _run(env)


def micro_event_pingpong(ns, n: int) -> tuple[float, int]:
    """Two processes rendezvousing through bare events (succeed path)."""
    env = ns.Environment()
    box = {"evt": ns.Event(env)}

    def ping():
        for _ in range(n):
            box["evt"].succeed()
            box["evt"] = ns.Event(env)
            yield env.timeout(1.0)

    def pong():
        for _ in range(n):
            yield box["evt"]

    env.process(pong())
    env.process(ping())
    return _run(env)


def micro_interrupt_storm(ns, n: int) -> tuple[float, int]:
    """n sleepers on one shared event, all interrupted: exercises
    cancellation (eager O(n) callback removal vs lazy tombstones)."""
    env = ns.Environment()
    barrier = env.timeout(10_000.0)
    interrupt_cls = ns.Interrupt  # each engine raises its own class

    def sleeper():
        try:
            yield barrier
        except interrupt_cls:
            pass

    procs = [env.process(sleeper()) for _ in range(n)]

    def killer():
        yield env.timeout(1.0)
        # Reverse order: each eager O(n) callback removal scans the
        # whole subscriber list (worst case); lazy tombstones are O(1)
        # regardless of order.
        for p in reversed(procs):
            if p.is_alive:
                p.interrupt("storm")

    env.process(killer())
    return _run(env)


def micro_cancel_churn(ns, n: int) -> tuple[float, int]:
    """n queued priority requests withdrawn in waves: exercises the
    eager heapify-per-cancel vs lazy-deletion + compaction path."""
    env = ns.Environment()
    res = ns.PriorityResource(env, capacity=1)

    def holder():
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(1_000.0)

    def churn():
        yield env.timeout(1.0)
        reqs = [res.request(priority=1 + (i % 7)) for i in range(n)]
        yield env.timeout(1.0)
        for r in reqs:
            r.cancel()

    env.process(holder())
    env.process(churn())
    return _run(env)


def micro_store_pingpong(ns, n: int) -> tuple[float, int]:
    """Producer/consumer message loop through a bounded Store — the
    heartbeat-mailbox pattern that dominates the cluster protocol."""
    env = ns.Environment()
    inbox = ns.Store(env, capacity=4)
    outbox = ns.Store(env, capacity=4)

    def producer():
        for i in range(n):
            yield inbox.put(i)
            yield outbox.get()

    def consumer():
        for _ in range(n):
            item = yield inbox.get()
            yield outbox.put(item)

    env.process(producer())
    env.process(consumer())
    return _run(env)


def micro_resource_cycle(ns, n: int) -> tuple[float, int]:
    """Acquire/hold/release cycles on an uncontended unit resource."""
    env = ns.Environment()
    res = ns.Resource(env, capacity=1)

    def worker():
        for _ in range(n):
            with res.request() as req:
                yield req
                yield env.timeout(1.0)

    env.process(worker())
    return _run(env)


MICROS = {
    "timeout_chain": (micro_timeout_chain, 150_000, 20_000),
    "event_pingpong": (micro_event_pingpong, 60_000, 8_000),
    "interrupt_storm": (micro_interrupt_storm, 3_000, 600),
    "cancel_churn": (micro_cancel_churn, 3_000, 600),
    "store_pingpong": (micro_store_pingpong, 40_000, 6_000),
    "resource_cycle": (micro_resource_cycle, 50_000, 7_000),
}


class _CurrentNS:
    """Adapter giving the current engine the same surface as the legacy
    namespace object."""

    from repro.sim import (  # type: ignore[misc]
        Environment,
        Event,
        Interrupt,
        PriorityResource,
        Resource,
        Store,
    )


def run_micros(pairs: int, smoke: bool) -> dict:
    results = {}
    for name, (fn, full_n, smoke_n) in MICROS.items():
        n = smoke_n if smoke else full_n
        rows = []
        for _ in range(pairs):
            # Two back-to-back reps per side, keeping the faster one:
            # filters one-sided host hiccups out of the pair ratio
            # (this harness runs on shared/virtualized CPUs).
            l_dt, l_events = fn(legacy, n)
            l_dt = min(l_dt, fn(legacy, n)[0])
            c_dt, c_events = fn(_CurrentNS, n)
            c_dt = min(c_dt, fn(_CurrentNS, n)[0])
            rows.append((l_dt, l_events, c_dt, c_events))
        med_speedup = statistics.median(r[0] / r[2] for r in rows)
        best = min(rows, key=lambda r: r[2])
        results[name] = {
            # Headline: wall-clock. Events/sec lives under "diagnostic"
            # because event-eliding benches (e.g. cancel_churn: 3009
            # legacy events vs 8) report *lower* events/sec the faster
            # they get — comparing it across engines is meaningless
            # unless the event counts match.
            "n": n,
            "wallclock_speedup_median": round(med_speedup, 3),
            "wallclock_optimized_best_s": round(best[2], 5),
            "diagnostic": {
                "events_legacy": rows[0][1],
                "events_optimized": rows[0][3],
                "events_comparable": rows[0][1] == rows[0][3],
                "events_per_sec_legacy": max(r[1] / r[0] for r in rows),
                "events_per_sec_optimized": max(r[3] / r[2] for r in rows),
                "note": (
                    "diagnostic only; when events_comparable is false the "
                    "optimized engine eliminated events, so events/sec is "
                    "not a speed metric — wallclock_speedup_median is"
                ),
            },
        }
        eliding = "" if rows[0][1] == rows[0][3] else "  [event-eliding]"
        print(
            f"  micro {name:<16} n={n:<7} speedup x{med_speedup:5.2f}  "
            f"({rows[0][1]} legacy events vs {rows[0][3]} optimized){eliding}"
        )
    geomean = math.exp(
        statistics.fmean(math.log(r["wallclock_speedup_median"]) for r in results.values())
    )
    results["_geomean_speedup"] = round(geomean, 3)
    print(f"  micro geomean speedup: x{geomean:.2f}")
    return results


# --------------------------------------------------------------------------- #
# Determinism: event traces against the frozen fixture                         #
# --------------------------------------------------------------------------- #

FROZEN_TRACES = REPO_ROOT / "tests" / "sim" / "data" / "frozen_traces.json"
FIG8_GOLDEN = REPO_ROOT / "tests" / "golden" / "data" / "fig8.golden.json"
#: The reduced grid ``tests/golden`` freezes fig8 at.
FIG8_GOLDEN_GRID = {"nodes": [2, 4], "samples": 1e9}


def _trace_scenario(env: Environment) -> None:
    """A dense mixed scenario: stores, priority cancels, interrupts,
    conditions — every dispatch path the optimized loop specializes."""
    res = PriorityResource(env, capacity=2)
    store = Store(env, capacity=3)

    def worker(i):
        with res.request(priority=i % 3) as req:
            yield req
            yield env.timeout(1 + i % 4)
        yield store.put(i)

    def fickle(i):
        yield env.timeout(0.5 * i)
        req = res.request(priority=0)
        yield env.timeout(0.25)
        req.cancel()

    def consumer():
        for _ in range(8):
            yield store.get()

    def sleeper():
        try:
            yield env.timeout(500.0)
        except Interrupt:
            yield env.timeout(0.125)

    def killer(victim):
        yield env.timeout(3.0)
        if victim.is_alive:
            victim.interrupt("trace")

    for i in range(8):
        env.process(worker(i))
    for i in range(4):
        env.process(fickle(i))
    env.process(consumer())
    victim = env.process(sleeper())
    env.process(killer(victim))
    env.process((t for t in [env.timeout(2.0) & env.timeout(4.0)]))  # condition yield
    env.run()


def _trace_digest(trace: list) -> str:
    return hashlib.sha256(json.dumps(trace).encode()).hexdigest()


def check_trace_determinism() -> bool:
    """Both traced programs must reproduce their frozen sha256."""
    import repro.modelmode as modelmode
    from repro.experiments.scenarios import fig8_point

    frozen = json.loads(FROZEN_TRACES.read_text())
    env = Environment()
    mixed = env.capture_trace()
    _trace_scenario(env)

    # Every Environment one fig8 point builds, traced into one list.
    fig8: list = []
    init = Environment.__init__

    def tracing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.capture_trace(fig8)

    Environment.__init__ = tracing_init
    prev = modelmode.set_model_reference(False)
    try:
        fig8_point(frozen["fig8_point"]["cfg"])
    finally:
        Environment.__init__ = init
        modelmode.set_model_reference(prev)

    ok = True
    for name, trace in (("trace_scenario", mixed), ("fig8_point", fig8)):
        same = _trace_digest(trace) == frozen[name]["sha256"]
        print(f"  trace determinism ({name}, {len(trace)} events vs frozen "
              f"{frozen[name]['events']}): {'IDENTICAL' if same else 'MISMATCH'}")
        ok = ok and same
    return ok


# --------------------------------------------------------------------------- #
# Fig-8 sweep: wall-clock + byte-identical series                              #
# --------------------------------------------------------------------------- #


def _fig8_series(nodes, samples, workers: int = 1) -> list[tuple[str, list[float]]]:
    """The Fig-8 sweep through the declarative scenario registry.

    Goes through the same parallel sweep driver the CLI uses
    (`repro sweep fig8`), so the perf harness measures exactly the code
    path the figure reproduction runs; the driver's grid-order
    aggregation keeps the series byte-identical at any worker count.
    """
    from repro.experiments import run_sweep

    result = run_sweep(
        "fig8", {"nodes": list(nodes), "samples": samples}, workers=workers
    )
    return [(s.label, s.ys) for s in result.series]


def run_fig8(pairs: int, smoke: bool, workers: int = 1) -> tuple[dict, bool]:
    from repro.experiments import run_sweep

    nodes = (4, 8) if smoke else (4, 8, 16, 32, 64)
    samples = 1e10 if smoke else 1e11
    _fig8_series((4,), 1e9)  # warm up imports/caches outside the timed region
    times = []
    runs = []
    for _ in range(pairs):
        t0 = time.perf_counter()
        runs.append(_fig8_series(nodes, samples, workers))
        times.append(time.perf_counter() - t0)
    repeatable = all(json.dumps(r) == json.dumps(runs[0]) for r in runs)
    # Byte-identity: the golden grid must reproduce the frozen file.
    golden = run_sweep("fig8", FIG8_GOLDEN_GRID, workers=workers)
    matches_golden = golden.pretty_json() == FIG8_GOLDEN.read_text()
    identical = repeatable and matches_golden
    print(f"  fig8 sweep nodes={nodes}: best {min(times):.3f}s, "
          f"median {statistics.median(times):.3f}s")
    print(f"  fig8 series repeat across runs: {repeatable}; golden grid "
          f"byte-identical to {FIG8_GOLDEN.name}: {matches_golden}")
    result = {
        "nodes": list(nodes),
        "samples": samples,
        "sweep_workers": workers,
        "wallclock_best_s": round(min(times), 4),
        "wallclock_median_s": round(statistics.median(times), 4),
        "series_byte_identical": identical,
        "series": [{"label": lbl, "makespans_s": ys} for lbl, ys in runs[0]],
    }
    return result, identical


# --------------------------------------------------------------------------- #
# Model bench: event-thin cluster protocol vs the reference model              #
# --------------------------------------------------------------------------- #


def _model_case_pi(nodes: float, samples: float):
    from repro.core.simexec import run_pi_job
    from repro.perf.calibration import Backend

    result, sim = run_pi_job(
        nodes, samples, Backend.CELL_SPE_DIRECT, return_cluster=True
    )
    assert result.succeeded
    return sim.env.processed_events, 1, result.makespan_s, "makespan"


def _model_case_mix(nodes: int, num_jobs: int):
    from repro.core.simexec import run_workload_mix

    mix, sim = run_workload_mix(
        nodes,
        num_jobs=num_jobs,
        scheduler="fair",
        stagger_s=5.0,
        data_gb=2.0,
        samples=2e10,
        accelerated_fraction=0.5,
        return_cluster=True,
    )
    assert mix.succeeded
    return sim.env.processed_events, num_jobs, mix.mean_completion_s, "mean_completion"


def _model_cases(smoke: bool) -> dict:
    """name -> (zero-arg runner, descriptor). Sizes follow the paper's
    Fig-8 grid (64 nodes) plus a cluster-scale point the event-thin
    layer exists for."""
    if smoke:
        return {
            "pi_fig8_64nodes": (lambda: _model_case_pi(64, 1e10), "pi, 64 nodes"),
            "pi_scale_128nodes": (lambda: _model_case_pi(128, 1e11), "pi, 128 nodes"),
            "mix_fair_16nodes": (lambda: _model_case_mix(16, 4), "4-job mix, 16 nodes"),
        }
    return {
        "pi_fig8_64nodes": (lambda: _model_case_pi(64, 1e11), "pi, 64 nodes"),
        "pi_scale_256nodes": (lambda: _model_case_pi(256, 1e12), "pi, 256 nodes"),
        "mix_fair_64nodes": (lambda: _model_case_mix(64, 4), "4-job mix, 64 nodes"),
    }


def run_model_bench(pairs: int, smoke: bool) -> tuple[dict, bool]:
    """A/B the cluster model layer: reference protocol vs event-thin.

    Both sides run the optimized engine; only ``repro.modelmode``
    differs. Headline per case: wall-clock speedup and the events-per-
    simulated-job reduction. The makespan drift is recorded (the
    event-thin protocol intentionally trades exact queue timing at the
    serialized JobTracker for event count) and gated loosely — a large
    drift means a protocol bug, not noise.
    """
    import repro.modelmode as modelmode

    results: dict = {}
    ok = True
    for name, (runner, desc) in _model_cases(smoke).items():
        ref_times, thin_times = [], []
        ref_events = thin_events = jobs = 0
        ref_metric = thin_metric = 0.0
        metric_name = "makespan"
        for _ in range(pairs):
            for reference in (True, False):
                prev = modelmode.set_model_reference(reference)
                try:
                    gc.collect()
                    t0 = time.perf_counter()
                    events, jobs, metric, metric_name = runner()
                    dt = time.perf_counter() - t0
                finally:
                    modelmode.set_model_reference(prev)
                if reference:
                    ref_times.append(dt)
                    ref_events, ref_metric = events, metric
                else:
                    thin_times.append(dt)
                    thin_events, thin_metric = events, metric
        speedup = statistics.median(r / t for r, t in zip(ref_times, thin_times))
        reduction = ref_events / thin_events
        drift = (thin_metric - ref_metric) / ref_metric
        results[name] = {
            "workload": desc,
            "jobs": jobs,
            "wallclock_speedup_median": round(speedup, 3),
            "wallclock_thin_best_s": round(min(thin_times), 4),
            "wallclock_reference_best_s": round(min(ref_times), 4),
            "events_per_job_reference": round(ref_events / jobs, 1),
            "events_per_job_thin": round(thin_events / jobs, 1),
            "event_reduction": round(reduction, 3),
            # Which simulated quantity the drift is measured on: single-
            # job cases report the makespan, the mix case the mean job
            # completion time (the number its scenarios plot).
            "metric": metric_name,
            "metric_reference_s": ref_metric,
            "metric_thin_s": thin_metric,
            "metric_drift": round(drift, 5),
        }
        print(
            f"  model {name:<18} events/job {ref_events // jobs} -> "
            f"{thin_events // jobs} (x{reduction:.2f}), wallclock "
            f"x{speedup:.2f}, {metric_name} drift {drift:+.2%}"
        )
        if abs(drift) > 0.20:
            print(f"  MODEL DRIFT TOO LARGE on {name}: {drift:+.2%}")
            ok = False
        if reduction < 2.0:
            # The acceptance floor: events-per-job must at least halve.
            print(f"  EVENT REDUCTION BELOW 2x on {name}: x{reduction:.2f}")
            ok = False
    return results, ok


def run_model_fig8_ab(pairs: int, smoke: bool) -> dict:
    """Fig-8 sweep wall-clock, event-thin vs reference *model* (the
    number the PR-4 acceptance compares against the pre-overhaul
    ``BENCH_engine.json`` fig8 wallclock)."""
    import repro.modelmode as modelmode

    nodes = (4, 8) if smoke else (4, 8, 16, 32, 64)
    samples = 1e10 if smoke else 1e11
    ref_times, thin_times = [], []
    for _ in range(pairs):
        for reference in (True, False):
            prev = modelmode.set_model_reference(reference)
            try:
                t0 = time.perf_counter()
                _fig8_series(nodes, samples)
                dt = time.perf_counter() - t0
            finally:
                modelmode.set_model_reference(prev)
            (ref_times if reference else thin_times).append(dt)
    speedup = statistics.median(r / t for r, t in zip(ref_times, thin_times))
    print(
        f"  model fig8 sweep nodes={nodes}: reference-model best "
        f"{min(ref_times):.3f}s, event-thin best {min(thin_times):.3f}s, "
        f"median speedup x{speedup:.2f}"
    )
    return {
        "nodes": list(nodes),
        "samples": samples,
        "wallclock_reference_model_best_s": round(min(ref_times), 4),
        "wallclock_thin_model_best_s": round(min(thin_times), 4),
        "wallclock_speedup_median": round(speedup, 3),
    }


# --------------------------------------------------------------------------- #
# Sweep bench: persistent pools, point cache, shard/merge parity               #
# --------------------------------------------------------------------------- #


def _sweep_dispatch_point(cfg):
    """Near-zero work: the sweep's cost is pure dispatch overhead, which
    is exactly what the cold-vs-warm pool A/B isolates."""
    return {"y": cfg["k"] * 1.0 + cfg["seed"] / 7.0}


def _register_dispatch_scenario():
    from repro.experiments import Scenario, register

    return register(Scenario(
        name="_bench_dispatch",
        title="pool-dispatch microbench",
        description="trivial points; measures sweep fan-out overhead",
        run_point=_sweep_dispatch_point,
        grid={"k": tuple(range(8))},
        x="k",
        curves=("y",),
    ), replace=True)


def run_sweep_bench(pairs: int, smoke: bool) -> tuple[dict, bool]:
    """Suite [5/5]: the experiment layer's own overheads.

    All three sub-benches assert byte-level invariants (pooling,
    caching, and sharding must never change result bytes); the pool and
    cache sub-benches additionally gate algorithmic ratios that hold on
    any host — executed-point counts, and a dispatch-overhead ratio
    with an order of magnitude of headroom over its 2x floor.
    """
    import shutil
    import tempfile

    import repro.modelmode as modelmode
    from repro.experiments import run_sweep
    from repro.experiments.cache import cached_sweep
    from repro.experiments.pool import SweepPool
    from repro.experiments.shard import merge_shards, run_shard, write_shard

    ok = True
    results: dict = {}
    _register_dispatch_scenario()
    workers = 4
    reps = max(3, pairs)

    # Cold: a fresh pool forked (and torn down) per sweep — the pre-
    # SweepPool behavior. Warm: one persistent pool reused across
    # sweeps, warmed up once outside the timed region.
    cold_times = []
    baseline = None
    for _ in range(reps):
        with SweepPool(workers) as pool:
            t0 = time.perf_counter()
            r = run_sweep("_bench_dispatch", workers=workers, pool=pool)
            cold_times.append(time.perf_counter() - t0)
        baseline = baseline or r.canonical_json()
    warm_times = []
    with SweepPool(workers) as pool:
        warm = run_sweep("_bench_dispatch", workers=workers, pool=pool)
        for _ in range(reps):
            t0 = time.perf_counter()
            warm = run_sweep("_bench_dispatch", workers=workers, pool=pool)
            warm_times.append(time.perf_counter() - t0)
    pool_ratio = statistics.median(cold_times) / statistics.median(warm_times)
    pooled_identical = warm.canonical_json() == baseline
    results["pool_dispatch"] = {
        "workers": workers,
        "grid_points": len(warm.points),
        "cold_per_sweep_pool_median_s": round(statistics.median(cold_times), 5),
        "warm_persistent_pool_median_s": round(statistics.median(warm_times), 5),
        "overhead_ratio": round(pool_ratio, 3),
        "bytes_identical": pooled_identical,
    }
    print(f"  sweep pool: cold {statistics.median(cold_times) * 1e3:.1f}ms vs "
          f"warm {statistics.median(warm_times) * 1e3:.1f}ms per sweep "
          f"(x{pool_ratio:.1f} overhead reduction)")
    if pool_ratio < 2.0:
        # Wall-clock target: recorded always, enforced only by the full
        # run (smoke fails solely on algorithmic invariants — the byte
        # and executed-count gates below — per the harness contract).
        print(f"  POOL OVERHEAD REDUCTION BELOW 2x: x{pool_ratio:.2f}"
              f"{' (not gated in smoke)' if smoke else ''}")
        ok = ok and smoke
    if not pooled_identical:
        print("  POOLED SWEEP BYTES DIFFER FROM COLD-POOL SWEEP")
        ok = False

    # Point cache: a one-value grid edit must re-run only the new point.
    cache_dir = Path(tempfile.mkdtemp(prefix="sweep-bench-cache-"))
    try:
        first, _ = cached_sweep("_bench_dispatch", workers=1, cache_dir=cache_dir)
        from repro.experiments import get_scenario

        edited = get_scenario("_bench_dispatch").with_overrides(
            {"k": [0, 1, 2, 3, 4, 5, 6, 99]}
        )
        second, _ = cached_sweep(edited, workers=1, cache_dir=cache_dir)
        fresh = run_sweep(edited, workers=1)
        cache_identical = second.canonical_json() == fresh.canonical_json()
        executed_reduction = (
            len(second.points) / max(1, second.executed_points)
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    results["point_cache"] = {
        "grid_points": len(second.points),
        "first_run_executed": first.executed_points,
        "resweep_executed": second.executed_points,
        "resweep_cached": second.cached_points,
        "executed_reduction": round(executed_reduction, 3),
        "bytes_identical": cache_identical,
    }
    print(f"  point cache: grid edit re-ran {second.executed_points}/"
          f"{len(second.points)} points (x{executed_reduction:.1f} fewer), "
          f"bytes identical: {cache_identical}")
    if executed_reduction < 5.0:
        print(f"  CACHED RE-SWEEP REDUCTION BELOW 5x: x{executed_reduction:.2f}")
        ok = False
    if not cache_identical:
        print("  CACHE-ASSEMBLED SWEEP BYTES DIFFER FROM FRESH RUN")
        ok = False

    # Shard/merge parity: 4 shards reassemble to the serial sha256 in
    # both model modes.
    overrides = {"nodes": [2, 4], "samples": 1e9}
    parity: dict = {}
    for mod_ref in (False, True):
        prev_m = modelmode.set_model_reference(mod_ref)
        try:
            serial = run_sweep("fig8", overrides, workers=1)
            with tempfile.TemporaryDirectory() as td:
                dirs = []
                for i in range(4):
                    manifest = run_shard("fig8", i, 4, overrides, workers=1)
                    dirs.append(write_shard(manifest, Path(td) / f"s{i}").parent)
                merged = merge_shards(dirs)
        finally:
            modelmode.set_model_reference(prev_m)
        label = f"model_{'reference' if mod_ref else 'thin'}"
        identical = merged.sha256() == serial.sha256()
        parity[label] = identical
        if not identical:
            print(f"  SHARD MERGE NOT BYTE-IDENTICAL under {label}")
            ok = False
    results["shard_merge"] = {
        "shards": 4,
        "grid": overrides,
        "sha256_identical": parity,
    }
    print(f"  4-shard merge sha256-identical to serial: "
          f"{all(parity.values())} ({len(parity)} model modes)")
    return results, ok


# --------------------------------------------------------------------------- #
# Scale bench: the weak-scaling envelope                                       #
# --------------------------------------------------------------------------- #

#: Frozen seed-tree measurements for the ``scale`` scenario family.
#: The live harness cannot run the seed's cluster stack in-process (the
#: workload modules import the current engine), so the baseline was
#: measured once at PR time and recorded with its methodology — the same
#: pattern as SEED_BASELINE below.
SCALE_BASELINE = {
    "methodology": (
        "scale scenario points (4-job AES+Pi mixes, every placement "
        "policy, weak-scaled per-node work, seed 1234) timed on the "
        "seed tree (restored via git stash) back-to-back with the "
        "optimized tree on the same host; one gc-fenced rep per size"
    ),
    "wallclock_s": {"256": 4.72, "512": 13.73, "1024": 37.22},
    "policy_mean_completion_s": {
        "256": {
            "FIFO": 287.3745120235993,
            "Fair": 436.9375435460291,
            "Locality-aware": 302.77103761252,
            "Accel-aware": 308.73353761251417,
        },
        "1024": {
            "FIFO": 907.995596269413,
            "Fair": 1086.3955962693315,
            "Locality-aware": 908.0080962694128,
            "Accel-aware": 907.995596269413,
        },
    },
    "note": (
        "policy mean-completion values are byte-identical between the "
        "seed and optimized trees at every measured size, so the scale "
        "speedups are pure wall-clock — not model drift"
    ),
}


def _peak_rss_mb() -> float:
    """Process-wide peak RSS (Linux ru_maxrss is in KB). Monotone over
    the process lifetime, so per-size readings taken in ascending size
    order attribute the peak to the size that set it."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scale_point(nodes: int, **overrides) -> dict[str, float]:
    """One ``scale`` scenario point exactly as the sweep driver binds it
    (scenario defaults + scenario seed), sized by ``nodes``."""
    from repro.experiments.scenarios import SCALE_SCENARIOS, scale_point

    sc = SCALE_SCENARIOS[0]
    cfg = dict(sc.defaults)
    cfg.update(overrides)
    cfg["nodes"] = nodes
    cfg["seed"] = sc.seed
    return scale_point(cfg)


def _print_scale_diff(points: dict, gated: tuple[str, ...]) -> None:
    """The failure diff: per-size seed-vs-now table, not a bare assert."""
    print("    nodes   seed_s    now_s  speedup  gate")
    for key in sorted(points, key=int):
        row = points[key]
        seed_s = row["seed_wallclock_s"]
        if seed_s is None:
            continue
        mark = "x2.0 required" if key in gated else "-"
        print(
            f"    {key:>5}  {seed_s:7.2f}  {row['wallclock_s']:7.2f}  "
            f"x{row['wallclock_speedup']:5.2f}  {mark}"
        )


def run_scale_bench(smoke: bool) -> tuple[dict, bool]:
    """Suite [6/6]: raw wall-clock of the cluster-scale weak-scaling
    envelope (the ``scale`` scenario family, 256-4096 nodes).

    Full mode runs every grid size once (these points cost seconds to
    minutes; the x2 gate below has far more headroom than host timing
    noise), gates the 1024-node point at >= 2x over the frozen seed
    baseline, and records the 2048/4096 envelope (wall-clock + peak
    RSS) that the batch-served protocol and vectorized cost models
    open. Smoke runs a reduced 2048-node leg (2 jobs, 1/8 the per-node
    work — same protocol pressure, budget-sized) plus the 256-node
    point. Both modes re-check the frozen per-policy mean-completion
    values exactly: the speedup must be pure wall-clock.
    """
    ok = True
    gated = ("1024",)
    points: dict = {}
    sizes = ((256,) if smoke else (256, 512, 1024, 2048, 4096))
    for nodes in sizes:
        gc.collect()
        t0 = time.perf_counter()
        values = _scale_point(nodes)
        dt = time.perf_counter() - t0
        key = str(nodes)
        seed_s = SCALE_BASELINE["wallclock_s"].get(key)
        speedup = round(seed_s / dt, 3) if seed_s else None
        points[key] = {
            "wallclock_s": round(dt, 2),
            "peak_rss_mb": round(_peak_rss_mb(), 1),
            "seed_wallclock_s": seed_s,
            "wallclock_speedup": speedup,
            "policy_mean_completion_s": values,
        }
        vs = f", x{speedup:.2f} vs seed" if speedup else ""
        print(f"  scale {nodes:>4} nodes: {dt:6.2f}s, "
              f"peak RSS {points[key]['peak_rss_mb']:.0f}MB{vs}")
        expected = SCALE_BASELINE["policy_mean_completion_s"].get(key)
        if expected is not None and values != expected:
            print(f"  SCALE POLICY VALUES DRIFTED AT {nodes} NODES:")
            for label in sorted(set(expected) | set(values)):
                want, got = expected.get(label), values.get(label)
                if want != got:
                    print(f"    {label}: seed {want!r} != now {got!r}")
            ok = False
    smoke_leg = None
    if smoke:
        # The 2048-node protocol-pressure leg, budget-sized: the same
        # heartbeat fan-in the full envelope measures, with the per-job
        # work cut so the point fits the CI smoke budget.
        gc.collect()
        t0 = time.perf_counter()
        values = _scale_point(
            2048, num_jobs=2, gb_per_node=0.03125, samples_per_node=5e8
        )
        dt = time.perf_counter() - t0
        smoke_leg = {
            "nodes": 2048,
            "num_jobs": 2,
            "gb_per_node": 0.03125,
            "samples_per_node": 5e8,
            "wallclock_s": round(dt, 2),
            "peak_rss_mb": round(_peak_rss_mb(), 1),
            "policy_mean_completion_s": values,
        }
        print(f"  scale 2048-node smoke leg (2 jobs, 1/8 work): {dt:6.2f}s, "
              f"peak RSS {smoke_leg['peak_rss_mb']:.0f}MB")
    else:
        missing = [k for k in gated if points.get(k, {}).get("wallclock_speedup") is None]
        low = [k for k in gated
               if k not in missing and points[k]["wallclock_speedup"] < 2.0]
        if missing or low:
            print("  SCALE GATE FAILED: 1024-node family below x2 vs the "
                  "frozen seed baseline")
            _print_scale_diff(points, gated)
            ok = False
    results = {
        "points": points,
        "smoke_leg": smoke_leg,
        "gate": {"sizes": list(gated), "min_speedup": 2.0,
                 "enforced": not smoke},
        "baseline": SCALE_BASELINE,
    }
    return results, ok


#: Interleaved A/B against the actual seed tree (git stash), measured at
#: PR time on this harness's reference hardware. The live harness cannot
#: re-run the seed's full cluster stack in-process (the workload modules
#: import the current engine), so the measurement is recorded here with
#: its methodology; `benchmarks/legacy` keeps the seed *engine* runnable
#: for the microbenchmark A/B above.
SEED_BASELINE = {
    "methodology": (
        "fig8 sweep (nodes 4-64, 3 backends) timed in alternating "
        "subprocesses against the seed source tree, 6 pairs; ratios are "
        "seed_wallclock / optimized_wallclock per pair"
    ),
    "fig8_pair_ratios": [1.57, 1.63, 1.51, 1.59, 1.25, 1.86],
    "fig8_speedup_median": 1.58,
    "series_vs_seed": (
        "makespans bit-identical to the seed except single-ulp drift on "
        "points whose composite timeouts re-associate float addition"
    ),
}


# --------------------------------------------------------------------------- #
# Entry point                                                                  #
# --------------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes + wall-clock budget (CI gate)")
    parser.add_argument("--pairs", type=int, default=None,
                        help="interleaved A/B pairs per benchmark (default 5, smoke 1)")
    parser.add_argument("--budget-s", type=float, default=120.0,
                        help="smoke-mode wall-clock budget in seconds")
    parser.add_argument("--sweep-workers", type=int, default=1,
                        help="worker processes for the Fig-8 sweep (series "
                             "stay byte-identical at any count)")
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_engine.json")
    args = parser.parse_args(argv)
    pairs = args.pairs if args.pairs is not None else (1 if args.smoke else 5)
    if pairs < 1:
        parser.error(f"--pairs must be >= 1, got {pairs}")

    t_start = time.perf_counter()
    print(f"engine perf harness ({'smoke' if args.smoke else 'full'}, {pairs} pair(s))")
    print("[1/6] microbenchmarks vs frozen seed engine (benchmarks/legacy)")
    micros = run_micros(pairs, args.smoke)
    print("[2/6] determinism: event traces vs the frozen fixture")
    traces_ok = check_trace_determinism()
    print("[3/6] Fig-8 sweep: wall-clock + golden byte-identity "
          f"({args.sweep_workers} sweep worker(s))")
    fig8, series_ok = run_fig8(pairs, args.smoke, args.sweep_workers)
    print("[4/6] model bench: event-thin cluster protocol vs reference model")
    model_bench, model_ok = run_model_bench(pairs, args.smoke)
    model_bench["fig8_model_ab"] = run_model_fig8_ab(pairs, args.smoke)
    print("[5/6] sweep bench: persistent pools, point cache, shard/merge parity")
    sweep_bench, sweep_ok = run_sweep_bench(pairs, args.smoke)
    print("[6/6] scale bench: weak-scaling envelope vs frozen seed baseline")
    scale_bench, scale_ok = run_scale_bench(args.smoke)
    elapsed = time.perf_counter() - t_start

    report = {
        "suite": "engine-perf",
        "mode": "smoke" if args.smoke else "full",
        "python": sys.version.split()[0],
        "elapsed_s": round(elapsed, 2),
        "microbench": micros,
        "trace_determinism_ok": traces_ok,
        "fig8_sweep": fig8,
        "model_bench": model_bench,
        "sweep_bench": sweep_bench,
        "scale_bench": scale_bench,
        "seed_baseline": SEED_BASELINE,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out} ({elapsed:.1f}s total)")

    ok = traces_ok and series_ok and model_ok and sweep_ok and scale_ok
    if args.smoke and elapsed > args.budget_s:
        print(f"SMOKE BUDGET EXCEEDED: {elapsed:.1f}s > {args.budget_s}s")
        ok = False
    if not args.smoke:
        if micros["_geomean_speedup"] < 2.0:
            print("TARGET MISSED: microbenchmark geomean speedup < 2x")
            ok = False
        if model_bench["fig8_model_ab"]["wallclock_speedup_median"] < 1.5:
            print("TARGET MISSED: event-thin model < 1.5x on the fig8 sweep")
            ok = False
    if not ok:
        print("FAILED")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
