"""Benchmark for the accelerated-Hadoop simulator: one command, three workloads.

    python3 perfbench/run.py --workload paper_figs --seed 1234 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
set-up time (median of fresh-process probes), the median wall time of
repeated passes over the workload's fixed work, per-operation latency
and peak RSS, with times scaled to a reference host speed (HostSpeed).
``--trace 1`` runs the same workload with the layer boundaries wrapped
(see ``layers.py``) and reports per-layer numbers, including the
tracing overhead against interleaved untraced passes.

Every run checks its outputs: canonical sweep sha256s repeat across
passes, match the values frozen in ``frozen.json`` for frozen seeds,
and, for served and fleet sweeps, match an offline ``run_sweep`` of the
same request byte for byte. Exact counts must repeat within a run and
across runs of the same code and seed (recorded under ``.perfbench/``).
The last stdout line is one JSON object; the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import bisect
import cProfile
import gc
import hashlib
import heapq
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDS = Path(".perfbench")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "submit_p50_s": "s",
    "submit_tail_s": "s",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.self_share": "ratio",
    "hadoop.heartbeats": "count",
    "hadoop.heartbeat_parks": "count",
    "hadoop.heartbeat_batches": "count",
    "hadoop.assignments": "count",
    "hadoop.wasted_attempt_ratio": "ratio",
    "hadoop.self_share": "ratio",
    "sched.assign_calls": "count",
    "sched.assign_s": "s",
    "sched.assign_us_p50": "us",
    "sched.self_share": "ratio",
    "cell.analytic_calls": "count",
    "cell.self_share": "ratio",
    "perf.batch_calls": "count",
    "perf.self_share": "ratio",
    "hdfs.read_block_calls": "count",
    "hdfs.self_share": "ratio",
    "core.jobs": "count",
    "core.job_s_p50": "s",
    "core.self_share": "ratio",
    "experiments.points_executed": "count",
    "experiments.points_cached": "count",
    "experiments.cache_hit_ratio": "ratio",
    "experiments.cache_lookup_share": "ratio",
    "experiments.cache_store_share": "ratio",
    "experiments.build_result_s": "s",
    "experiments.self_share": "ratio",
    "serve.admit_share": "ratio",
    "serve.exec_share": "ratio",
    "serve.finish_share": "ratio",
    "serve.sweep_cache_hits": "count",
    "serve.payload_bytes": "bytes",
    "fabric.register_share": "ratio",
    "fabric.results_accepted": "count",
    "fabric.duplicates": "count",
    "fabric.redispatched": "count",
    "fabric.useful_result_ratio": "ratio",
    "fabric.journal_record_share": "ratio",
    "wire.encode_share": "ratio",
    "wire.decode_share": "ratio",
    "wire.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

#: Counts that must be identical across passes, traced or not, and
#: across runs of one seed on the same code. Fleet duplicates and
#: re-dispatches depend on timing and are left out.
EXACT = (
    "sim.events", "hadoop.heartbeats", "hadoop.heartbeat_parks",
    "hadoop.heartbeat_batches", "hadoop.assignments", "sched.assign_calls",
    "cell.analytic_calls", "perf.batch_calls", "hdfs.read_block_calls",
    "core.jobs", "experiments.points_executed", "experiments.points_cached",
    "fabric.results_accepted", "serve.sweep_cache_hits",
)

#: Layers whose metrics come from the in-process simulation region.
SIM_LAYERS = ("sim.", "hadoop.", "sched.", "cell.", "perf.", "hdfs.", "core.")

SETUP_PROBES = 7
DEFAULT_SEED = 1234

#: Time of one ``calibrate()`` on the reference host (2-vCPU shared VM,
#: Python 3.11.7). Times are reported at this host speed; see HostSpeed.
CAL_NOMINAL_S = 0.05

#: Calibrations at each end of a timed region.
BRACKET_CALIBRATIONS = 4


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop with the simulator's
    instruction mix: generator resumes driven off a heap, dict updates.
    It runs no simulator code, so no change to ``src/`` can move it, and
    the cyclic collector is off while it runs, so neither can the number
    of objects the process holds."""
    gc.disable()
    try:
        t0 = perf_counter()
        totals: dict[int, int] = {}
        heap = [(i % 97, i, iter(range(20))) for i in range(2000)]
        heapq.heapify(heap)
        while heap:
            t, i, gen = heapq.heappop(heap)
            step = next(gen, None)
            if step is None:
                continue
            totals[i] = totals.get(i, 0) + step
            heapq.heappush(heap, (t + step + 1, i, gen))
        return perf_counter() - t0
    finally:
        gc.enable()


class HostSpeed:
    """Scales host times to the reference host speed.

    A shared host's speed can drift by tens of percent within seconds
    to minutes, far beyond what a code change moves. Timed
    regions are bracketed by calibration loops, and workloads also call
    :meth:`tick` between the sweeps or requests of a pass. A region's
    times are multiplied by ``CAL_NOMINAL_S`` over the median of the
    calibrations taken at its ends and inside it; an operation's by the
    median of the two calibrations before and the two after it. Region
    ends get four calibrations. Medians, because a single 50 ms
    calibration can read half or twice the usual.
    Raw times are printed too.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ends: list[float] = []
        self._start = 0
        self._bracket()

    def tick(self) -> float:
        """One calibration; returns its duration (to leave out of a pass)."""
        self.times.append(calibrate())
        self.ends.append(perf_counter())
        return self.times[-1]

    def factor_at(self, start: float, end: float) -> float:
        """Factor for one operation timed from ``start`` to ``end``: the
        median of the two calibrations before it and the two after it."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.ends, end)
        near = self.times[max(0, before - 2):before] + self.times[after:after + 2]
        return CAL_NOMINAL_S / statistics.median(near)

    def _bracket(self) -> None:
        # Region ends get several calibrations: a 5 s pass has no others.
        for _ in range(BRACKET_CALIBRATIONS):
            self.tick()

    def restart(self) -> None:
        """Open a new region after an untimed gap."""
        self._start = len(self.times)
        self._bracket()

    def factor(self) -> float:
        """Factor for the region since the last factor() or restart()."""
        self._bracket()
        window = self.times[self._start:]
        # The closing calibrations open the next region.
        self._start = len(self.times) - BRACKET_CALIBRATIONS
        return CAL_NOMINAL_S / statistics.median(window)


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values: list[float]) -> tuple[str, float]:
    """The highest of p99.9/p99/p95/p90/p75 with at least ten samples
    beyond it (nearest rank). With too few samples for any of them there
    is no tail to report, and the median stands in: the maximum of a
    handful of samples on a shared host measures mostly noise."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = -(-int(pct * n) // 100)  # ceil(pct/100 * n) in integers
        if n - rank >= 10:
            return f"p{pct:g}", ordered[rank - 1]
    return "p50 (too few samples for a tail)", statistics.median(ordered)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_info(seed: int, workload: str, trace: int) -> dict:
    import numpy

    import repro.modelmode as modelmode
    import repro.sim.engine as engine
    from repro.experiments.pool import resolve_start_method

    head = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        head = proc.stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "git_head": head, "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "reference_engine": engine.REFERENCE_MODE,
        "reference_model": modelmode.REFERENCE_MODE,
        "start_method": resolve_start_method(),
    }


def setup_probe(workload: str, seed: int, ctx) -> float:
    """Seconds from spawning a fresh interpreter to the probe reporting
    the workload ready (imports, registry, pool, daemon, workers)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=ctx.child_env())
    ctx.children.append(proc)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    proc.stdout.close()
    code = ctx.reap(proc, timeout=60)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return ready


def check_outputs(wl, passes, ref, frozen) -> tuple[int, list[str]]:
    """Compare every pass's sweeps with each other, with the offline
    reference and with the frozen shas. Returns (checks, failures)."""
    from workloads import base_label

    checks, failures = 0, []
    first = passes[0].sweeps
    for n, p in enumerate(passes):
        failures += p.errors
        for label, sha in p.sweeps.items():
            name = base_label(label)
            checks += 1
            if n and first.get(label) != sha:
                failures.append(f"pass {n}: {label} sha changed between passes")
            elif name in ref and ref[name].sha256() != sha:
                failures.append(f"pass {n}: {label} differs from offline run_sweep")
            elif name in frozen and frozen[name] != sha:
                failures.append(f"pass {n}: {label} differs from frozen sha")
    for name, result in ref.items():
        checks += 1
        if name in frozen and frozen[name] != result.sha256():
            failures.append(f"offline {name} differs from frozen sha")
    if hasattr(wl, "payload_mismatches") and ref:
        bad = wl.payload_mismatches(ref)
        checks += 1
        failures += [f"{label}: payload bytes differ from offline run_sweep"
                     for label in bad]
    return checks, failures


def count_drift(counts: list[dict]) -> tuple[int, list[str]]:
    """Compare every exact count with its first occurrence across the
    passes and regions of this run. Returns (comparisons, drift)."""
    first: dict[str, int] = {}
    compared, drift = 0, []
    for n, snapshot in enumerate(counts):
        for key in EXACT:
            if key not in snapshot:
                continue
            if key not in first:
                first[key] = snapshot[key]
                continue
            compared += 1
            if snapshot[key] != first[key]:
                drift.append(f"{key}: {snapshot[key]} in pass/region {n}, "
                             f"{first[key]} earlier")
    return compared, drift


def record_counts(info: dict, counts: dict) -> tuple[int, list[str]]:
    """Compare exact counts with earlier runs of the same code and seed,
    then add this run's. Returns (comparisons, drift)."""
    path = RECORDS / "counts.json"
    try:
        book = json.loads(path.read_text())
    except (OSError, ValueError):
        book = {}
    key = f"{info['source_sha256']}/{info['workload']}/{info['seed']}"
    prior = book.get(key, {})
    shared = [k for k in EXACT if k in counts and k in prior]
    drift = [f"{k}: {counts[k]} here, {prior[k]} in an earlier run"
             for k in shared if counts[k] != prior[k]]
    prior.update({k: counts[k] for k in EXACT if k in counts})
    book[key] = prior
    RECORDS.mkdir(exist_ok=True)
    tmp = path.with_name(f".counts.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return len(shared), drift


def layer_snapshot(tracer, wall: float) -> dict:
    """Per-layer numbers from one traced region of ``wall`` seconds."""
    h = tracer.hadoop
    assign = tracer.durations("sched.assign")
    events = tracer.events
    jobs = tracer.durations("core.run_job") + tracer.durations("core.run_jobs")
    share = (lambda name: tracer.total(name) / wall) if wall else (lambda name: 0.0)
    return {
        "sim.events": events,
        "sim.us_per_event": tracer.total("sim.run") / events * 1e6 if events else 0.0,
        "hadoop.heartbeats": h["heartbeats"],
        "hadoop.heartbeat_parks": h["heartbeat_parks"],
        "hadoop.heartbeat_batches": h["heartbeat_batches"],
        "hadoop.assignments": h["assignments"],
        # kills_issued already includes preemption kills.
        "hadoop.wasted_attempt_ratio": (
            (h["speculative_assignments"] + h["kills_issued"]) / h["assignments"]
            if h["assignments"] else 0.0),
        "sched.assign_calls": len(assign),
        "sched.assign_s": sum(assign),
        "sched.assign_us_p50": _median(assign) * 1e6,
        "cell.analytic_calls": tracer.count("cell.analytic"),
        "perf.batch_calls": tracer.count("perf.batch"),
        "hdfs.read_block_calls": tracer.count("hdfs.read_block"),
        "core.jobs": tracer.jobs,
        "core.job_s_p50": _median(jobs),
        "experiments.cache_lookup_share": share("experiments.cache_lookup"),
        "experiments.cache_store_share": share("experiments.cache_store"),
        "experiments.build_result_s": tracer.total("experiments.build_result"),
        "fabric.journal_record_share": share("fabric.journal_record"),
        "wire.encode_share": share("wire.encode"),
        "wire.decode_share": share("wire.decode"),
        "wire.bytes": tracer.count("wire.bytes"),
    }


def run_timed(wl, ctx, seconds: float):
    """End-to-end metrics with nothing wrapped."""
    speed = HostSpeed()
    raw_setup = []
    for _ in range(SETUP_PROBES):
        raw_setup.append(setup_probe(wl.name, ctx.seed, ctx))
        speed.tick()
    setup_factor = speed.factor()  # one factor from every calibration around the probes
    wl.prepare()
    wl.warm_up()
    speed.restart()
    passes, walls, latencies = [], [], []
    t0 = perf_counter()
    while len(passes) < wl.max_passes:
        p = wl.run_pass(tick=speed.tick)
        passes.append(p)
        factor = speed.factor()
        scaled = [x * speed.factor_at(t0, t1) for x, t0, t1 in p.units]
        latencies += scaled
        # Operations at the host speed around them; the rest of the pass
        # (gaps between requests, sweep assembly) at the pass's.
        walls.append(sum(scaled) + (p.wall_s - sum(u[0] for u in p.units)) * factor)
        if len(passes) >= wl.min_passes and perf_counter() - t0 + _median(walls) > seconds:
            break
    ref = wl.reference() if not wl.sim_in_pass else {}
    tail_name, tail = tail_percentile(latencies)
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median(raw_setup) * setup_factor,
        "peak_rss_mb": peak_rss_mb(),
        "submit_p50_s": _median(latencies),
        "submit_tail_s": tail,
    }
    notes = [f"passes={len(passes)} raw_wall_s={[round(p.wall_s, 4) for p in passes]}",
             f"raw_setup_s={[round(s, 4) for s in raw_setup]}",
             f"calibration_s={[round(c, 4) for c in speed.times]} nominal={CAL_NOMINAL_S}",
             f"submit_tail={tail_name} over {len(latencies)} operations"]
    return metrics, passes, ref, [p.counts for p in passes], notes


def _traced(tracer, fn, profiler=None):
    """Run ``fn`` with the layer wrappers installed (and the profiler on,
    if given); return its PassResult and the layer snapshot."""
    tracer.reset()
    tracer.install()
    if profiler is not None:
        profiler.enable()
    try:
        out = fn()
    finally:
        if profiler is not None:
            profiler.disable()
        tracer.uninstall()
    return out, layer_snapshot(tracer, out.wall_s)


def run_traced(wl, seconds: float, trace_path: Path, info: dict):
    """Per-layer metrics: interleaved untraced and traced passes, then
    the simulation region traced once more under cProfile."""
    from layers import Tracer, profile_shares

    tracer = Tracer()
    wl.prepare()
    wl.warm_up()
    speed = HostSpeed()
    untraced, traced, snaps, plain_s, traced_s = [], [], [], [], []
    t0 = perf_counter()
    while True:
        untraced.append(wl.run_pass(tick=speed.tick))
        plain_s.append(untraced[-1].wall_s * speed.factor())
        p, snap = _traced(tracer, lambda: wl.run_pass(tracer, tick=speed.tick))
        traced_s.append(p.wall_s * speed.factor())
        traced.append(p)
        snaps.append({**snap, **p.layer, **p.counts})
        if len(traced) == 1:
            tracer.write_chrome_trace(trace_path, info)
            self_times = tracer.self_times()
        if perf_counter() - t0 + untraced[-1].wall_s + p.wall_s > seconds:
            break

    passes = untraced + traced
    if wl.sim_in_pass:
        sim_snaps = list(snaps)
    else:
        region, snap = _traced(tracer, lambda: wl.sim_region(tracer))
        sim_snaps = [snap]
        regions = [region]
    profiler = cProfile.Profile()
    region, snap = _traced(tracer, lambda: wl.sim_region(tracer), profiler)
    shares = profile_shares(pstats.Stats(profiler), SRC)
    if wl.sim_in_pass:
        passes.append(region)
    else:
        regions.append(region)

    metrics = {}
    for name in PER_LAYER:
        source = sim_snaps if name.startswith(SIM_LAYERS) else snaps
        values = [s[name] for s in source if name in s]
        metrics[name] = _median(values) if values else 0.0
        if PER_LAYER[name] in ("count", "bytes"):
            metrics[name] = int(metrics[name])
    for layer, value in shares.items():
        metrics[f"{layer}.self_share"] = value
    executed = metrics["experiments.points_executed"]
    cached = metrics["experiments.points_cached"]
    metrics["experiments.cache_hit_ratio"] = (
        cached / (executed + cached) if executed + cached else 0.0)
    accepted, dups = metrics["fabric.results_accepted"], metrics["fabric.duplicates"]
    metrics["fabric.useful_result_ratio"] = (
        accepted / (accepted + dups) if accepted + dups else 0.0)
    metrics["trace.overhead_ratio"] = _median(traced_s) / _median(plain_s)

    failures = []
    if not wl.sim_in_pass and regions[0].sweeps != regions[1].sweeps:
        failures.append("traced and profiled offline runs disagree")
    counts = [p.counts for p in untraced + traced]
    counts += [{k: v for k, v in s.items() if k.startswith(SIM_LAYERS)}
               for s in sim_snaps + [snap]]
    notes = [f"untraced_wall_s={[round(p.wall_s, 4) for p in untraced]}",
             f"traced_wall_s={[round(p.wall_s, 4) for p in traced]}",
             "span_self_s=" + json.dumps({k: round(v, 4) for k, v in sorted(self_times.items())}),
             f"spans written to {trace_path}"]
    return metrics, passes, wl.ref, counts, notes, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_figs", "served_sweeps", "fleet_sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "experiments" / "driver.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # Default (non-reference) engine and model modes, whatever the caller's
    # environment says; child processes inherit the pinned values.
    os.environ["REPRO_SIM_REFERENCE"] = "0"
    os.environ["REPRO_MODEL_REFERENCE"] = "0"
    os.environ.pop("REPRO_OBS", None)
    os.environ.pop("REPRO_SWEEP_START_METHOD", None)
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, Context, exit_on_sigterm

    exit_on_sigterm()

    frozen_all = json.loads((HERE / "frozen.json").read_text())
    frozen = frozen_all.get(str(args.seed), {})
    ctx = Context(ROOT, args.seed)
    wl = WORKLOADS[args.workload](ctx)
    try:
        info = run_info(args.seed, args.workload, args.trace)
        print("# run " + json.dumps(info, sort_keys=True), flush=True)
        if args.trace:
            trace_path = RECORDS / f"trace-{args.workload}-{args.seed}.json"
            metrics, passes, ref, counts, notes, failures = run_traced(
                wl, args.seconds, trace_path, info)
            units = PER_LAYER
        else:
            metrics, passes, ref, counts, notes = run_timed(wl, ctx, args.seconds)
            failures = []
            units = END_TO_END
        checks, failed_checks = check_outputs(wl, passes, ref, frozen)
        failures += failed_checks
        compared, drift = count_drift(counts)
        merged = {}
        for snapshot in counts:
            merged.update({k: v for k, v in snapshot.items() if k in EXACT})
        across, drift_runs = record_counts(info, merged)
        checks += compared + across
        failures += [f"count drift: {d}" for d in drift + drift_runs]
    except Exception:  # noqa: BLE001 - report, then fail loudly without a result
        traceback.print_exc()
        print(f"error: workload {args.workload} failed; no result", file=sys.stderr)
        return 1
    finally:
        wl.close()
        ctx.close()
    if "peak_rss_mb" in metrics:
        metrics["peak_rss_mb"] = peak_rss_mb()  # now the pool workers are reaped too

    attempted = sum(p.ops for p in passes) + checks
    failed = len(failures)
    for line in notes:
        print("# " + line)
    print(f"# frozen shas for seed {args.seed}: {'yes' if frozen else 'no'}; "
          f"checks={checks} failed_ratio={failed / attempted:.6f} "
          f"({failed}/{attempted})")
    for msg in failures:
        print("# FAILED " + msg)
    for name, unit in units.items():
        print(f"# {name:32s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
