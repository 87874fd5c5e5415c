"""Layer-boundary tracing for the benchmark, done entirely from outside.

Nothing in ``src/`` knows about this module. :class:`Tracer.install`
replaces the public functions at each layer boundary with thin wrappers
(every module attribute that binds the function, or the class
attribute for methods) and :meth:`Tracer.uninstall` puts the originals
back, so untraced passes run the unmodified program.

A wrapper records a span — name, start, end, parent span, request id —
in memory; spans nest per thread. Hot leaf functions that are
generators or run millions of times only bump a counter. Layers that
are reached only through simulation generator processes (HDFS reads,
Cell kernels, the Hadoop daemons) get their host time from a
deterministic profile instead: :func:`profile_shares` groups cProfile
self time by ``repro`` sub-package.
"""

from __future__ import annotations

import functools
import itertools
import json
import pstats
import sys
import threading
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

#: Decision-counter keys summed into the ``hadoop.*`` metrics.
HADOOP_COUNTERS = ("heartbeats", "heartbeat_parks", "heartbeat_batches",
                   "assignments", "speculative_assignments", "kills_issued")

#: Sub-packages whose cProfile self time is reported as ``<pkg>.self_share``.
PROFILED_LAYERS = ("sim", "hadoop", "sched", "cell", "perf", "hdfs", "core",
                   "experiments")


class Tracer:
    """In-memory spans and counters around the layer boundaries."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent id, request id, thread id)
        self.spans: list[tuple] = []
        self.rid: Optional[str] = None
        self.events = 0
        self.hadoop: dict[str, int] = defaultdict(int)
        self.jobs = 0
        self.registered_at: list[float] = []
        self._counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._seen_counters: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- recording -------------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.events = 0
        self.hadoop.clear()
        self.jobs = 0
        self.registered_at.clear()
        self._counts.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    def count(self, name: str) -> int:
        return self._counts.get(name, 0)

    def _span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)  # re-entry (super() call): one span
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.rid,
                                     threading.get_ident()))
            if after is not None:
                after(args, out)
            return out

        return wrapped

    def _counter(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.bump(name)
            return fn(*args, **kwargs)

        return wrapped

    # -- patching --------------------------------------------------------------
    def _patch_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def _patch_function(self, module, attr: str, wrapper: Callable) -> None:
        """Rebind ``module.attr`` in every loaded ``repro`` module that
        imported it by name, so callers through any binding are seen."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary. Idempotent only via uninstall()."""
        import repro.experiments.cache as cache
        import repro.experiments.driver as driver
        import repro.wire as wire
        from repro.cell.runtime import OffloadRuntime
        from repro.core.simexec import SimulatedCluster
        from repro.fabric.journal import Journal
        from repro.fabric.tracker import SweepTracker
        from repro.hdfs.client import HDFSClient
        from repro.perf import kernels
        from repro.sched import base as sched_base
        from repro.serve.server import ReproServer
        from repro.sim.engine import Environment

        t = self
        if self._patches:
            raise RuntimeError("tracer already installed")

        # sim: event counts as exact deltas of processed_events per run().
        env_run = Environment.run

        def run(env, until=None):
            before = env.processed_events
            try:
                return env_run(env, until)
            finally:
                t.events += env.processed_events - before
        self._patch_method(Environment, "run", self._span("sim.run", run))

        # core + hadoop: per-cluster decision-counter deltas after each run.
        def after_cluster(args, results):
            cluster = args[0]
            counters = cluster.jobtracker.decision_counters()
            seen = t._seen_counters.get(cluster, {})
            for key in HADOOP_COUNTERS:
                t.hadoop[key] += int(counters.get(key, 0)) - seen.get(key, 0)
            t._seen_counters[cluster] = {k: int(counters.get(k, 0))
                                         for k in HADOOP_COUNTERS}
            t.jobs += len(results) if isinstance(results, list) else 1
        for attr in ("run_job", "run_jobs"):
            self._patch_method(SimulatedCluster, attr, self._span(
                "core." + attr, SimulatedCluster.__dict__[attr], after_cluster))

        # sched: every registered policy's own assign().
        sched_base.scheduler_names()  # loads the builtin policies
        classes = {sched_base.Scheduler, *sched_base._REGISTRY.values()}  # noqa: SLF001
        for cls in sorted(classes, key=lambda c: c.__qualname__):
            if "assign" in cls.__dict__:
                self._patch_method(cls, "assign",
                                   self._span("sched.assign", cls.__dict__["assign"]))

        # cell / perf / hdfs: call counts only (hot or generator functions).
        for attr in ("analytic_time", "analytic_samples_time",
                     "analytic_samples_time_batch"):
            self._patch_method(OffloadRuntime, attr, self._counter(
                "cell.analytic", OffloadRuntime.__dict__[attr]))
        for cls in (kernels.KernelPerfModel, kernels.RatePerfModel,
                    kernels.SamplesPerfModel):
            if "time_for_batch" in cls.__dict__:
                self._patch_method(cls, "time_for_batch", self._counter(
                    "perf.batch", cls.__dict__["time_for_batch"]))
        # Every block read picks its replica here, both in read_block and
        # in the record reader, which reads from the datanode directly.
        self._patch_method(HDFSClient, "choose_replica", self._counter(
            "hdfs.read_block", HDFSClient.__dict__["choose_replica"]))

        # experiments: sweep roots, result assembly, cache I/O.
        self._patch_function(driver, "run_sweep",
                             self._span("experiments.run_sweep", driver.run_sweep))
        self._patch_function(driver, "build_result",
                             self._span("experiments.build_result", driver.build_result))
        self._patch_function(cache, "load_cached",
                             self._span("experiments.cache_lookup", cache.load_cached))
        self._patch_function(cache, "store_cached",
                             self._span("experiments.cache_store", cache.store_cached))
        for cls, attr, name in ((cache.PointCache, "lookup", "experiments.cache_lookup"),
                                (cache.PointCache, "store", "experiments.cache_store"),
                                (cache.TimingStore, "flush", "experiments.cache_store")):
            self._patch_method(cls, attr, self._span(name, cls.__dict__[attr]))

        # serve: request handling and job execution inside the daemon.
        self._patch_method(ReproServer, "handle_request", self._span(
            "serve.handle_request", ReproServer.__dict__["handle_request"]))
        self._patch_method(ReproServer, "_run_job", self._span(
            "serve.run_job", ReproServer.__dict__["_run_job"]))

        # fabric: registrations (for register time), the fsynced journal.
        def after_register(args, _out):
            t.registered_at.append(perf_counter())
        self._patch_method(SweepTracker, "register", self._span(
            "fabric.register", SweepTracker.__dict__["register"], after_register))
        self._patch_method(Journal, "record", self._span(
            "fabric.journal_record", Journal.__dict__["record"]))

        # wire: frame encode/decode in this process, with byte counts.
        def after_encode(_args, out):
            t.bump("wire.bytes", len(out))

        def after_decode(args, _out):
            t.bump("wire.bytes", len(args[0]))
        self._patch_function(wire, "encode",
                             self._span("wire.encode", wire.encode, after_encode))
        self._patch_function(wire, "decode",
                             self._span("wire.decode", wire.decode, after_decode))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: each span's duration minus the time its
        child spans cover, summed by layer (the name's first part)."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, _name, t0, t1, parent, _rid, _tid in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, name, t0, t1, _parent, _rid, _tid in self.spans:
            out[name.split(".", 1)[0]] += (t1 - t0) - child_time.get(sid, 0.0)
        return dict(out)

    def write_chrome_trace(self, path: Path, meta: dict) -> None:
        """Spans as Chrome-trace ``X`` events (opens in Perfetto)."""
        base = min((s[2] for s in self.spans), default=0.0)
        events = [
            {"name": name, "cat": name.split(".", 1)[0], "ph": "X",
             "ts": round((t0 - base) * 1e6, 3), "dur": round((t1 - t0) * 1e6, 3),
             "pid": 1, "tid": tid,
             "args": {"id": sid, "parent": parent, "rid": rid}}
            for sid, name, t0, t1, parent, rid, tid in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "metadata": meta}))


def profile_shares(stats: pstats.Stats, src_root: Path) -> dict[str, float]:
    """Share of cProfile self time per ``repro`` sub-package.

    The benchmark's own wrapper frames are left out of the total, so
    the shares read the same with and without the tracer installed.
    """
    pkg_root = str((src_root / "repro").resolve())
    bench_root = str(Path(__file__).resolve().parent)
    by_layer: dict[str, float] = defaultdict(float)
    total = 0.0
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in stats.stats.items():
        if filename.startswith(bench_root):
            continue
        total += tottime
        if filename.startswith(pkg_root):
            rel = Path(filename).relative_to(pkg_root).parts
            layer = rel[0] if len(rel) > 1 else Path(rel[0]).stem
            by_layer[layer] += tottime
    return {layer: (by_layer.get(layer, 0.0) / total if total else 0.0)
            for layer in PROFILED_LAYERS}
