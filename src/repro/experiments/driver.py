"""The parallel sweep driver.

Fans a scenario's parameter grid out across ``multiprocessing`` workers
— every grid point is an isolated simulation in its own process with a
fresh :class:`~repro.sim.engine.Environment` — streams results back as
they finish, and reassembles them **in canonical grid order**, so the
merged series are byte-identical to a serial run regardless of worker
count, completion order, dispatch order, or caching. That is the
determinism contract the golden-series tests pin down (see
``docs/EXPERIMENTS.md``).

Workers receive only ``(scenario_name, point_index, cfg,
model_reference, collect_metrics)``: the scenario is re-resolved from
the registry on the worker side, and the parent's model mode is
re-applied explicitly so sweeps behave identically under any start
method. ``collect_metrics`` additionally flips the
telemetry layer (:mod:`repro.obs`) on around the point and ships the
registry snapshot back as a **non-canonical** extra on the point row —
telemetry never touches canonical bytes.

Sweep-scale machinery layered on top (all byte-neutral):

- **Persistent pools** — by default parallel sweeps run on a shared
  :class:`~repro.experiments.pool.SweepPool` that survives across
  sweeps, amortizing worker startup; pass ``pool=`` to control the
  lifetime explicitly.
- **Point-level caching** — pass ``point_cache=`` (see
  ``experiments/cache.py``) and only grid points whose per-point key
  misses are executed; the rest assemble from stored values.
- **Cost-aware dispatch** — pass ``timings=`` and pending points are
  dispatched longest-recorded-first (unknown points first), which kills
  straggler tails on wide pools without touching result order.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Union

import repro.modelmode as modelmode
import repro.obs as obs
from repro.analysis.series import Series
from repro.experiments.pool import SweepPool, shared_pool
from repro.experiments.registry import get_scenario
from repro.experiments.scenario import Scenario

__all__ = ["SweepResult", "build_result", "run_sweep"]


@dataclass
class SweepResult:
    """Everything one sweep produced, plus how it was produced.

    ``canonical_json`` covers only run-independent content (no worker
    count, no wall-clock, no per-point timing, no pool/cache metadata),
    which is what persistence writes and what the byte-identity
    guarantees apply to. Each ``points`` row always carries canonical
    ``params``/``values``; executed points add a non-canonical
    ``elapsed_s`` and cache-assembled points a non-canonical
    ``cached`` marker — both stripped by :meth:`canonical_dict`.
    """

    scenario: str
    title: str
    seed: int
    x: str
    xlabel: str
    ylabel: str
    grid: dict[str, list]
    defaults: dict[str, Any]
    points: list[dict[str, Any]] = field(default_factory=list)
    series: list[Series] = field(default_factory=list)
    workers: int = 1
    elapsed_s: float = 0.0
    #: Multiprocessing start method the sweep actually used; None for
    #: serial/in-process runs. Never part of the canonical bytes.
    start_method: Optional[str] = None
    #: How many grid points actually ran vs. came from the point cache.
    executed_points: int = 0
    cached_points: int = 0

    def canonical_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "title": self.title,
            "seed": self.seed,
            "x": self.x,
            "xlabel": self.xlabel,
            "ylabel": self.ylabel,
            "grid": {k: list(v) for k, v in self.grid.items()},
            "defaults": dict(self.defaults),
            # Strip run metadata (elapsed_s, cached) from the rows: the
            # canonical bytes must not depend on timing or cache state.
            "points": [
                {"params": p["params"], "values": p["values"]}
                for p in self.points
            ],
            "series": [
                {"label": s.label, "xs": s.xs, "ys": s.ys} for s in self.series
            ],
        }

    def canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, no whitespace; float
        values keep full ``repr`` precision, so equal bytes mean equal
        floats bit for bit."""
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    def pretty_json(self) -> str:
        """The human-readable form of :meth:`canonical_json` — the exact
        bytes persistence writes and the golden tests freeze (one
        definition, so the two cannot drift apart)."""
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SweepResult":
        """Rebuild a result from a canonical dict — a stored cache entry
        or a served payload. Nothing ran locally, so the run metadata
        reflects that: zero workers, every point counted as assembled."""
        points = list(d["points"])
        return cls(
            scenario=d["scenario"],
            title=d["title"],
            seed=d["seed"],
            x=d["x"],
            xlabel=d["xlabel"],
            ylabel=d["ylabel"],
            grid={k: list(v) for k, v in d["grid"].items()},
            defaults=dict(d["defaults"]),
            points=points,
            series=[
                Series(label=s["label"], xs=list(s["xs"]), ys=list(s["ys"]))
                for s in d["series"]
            ],
            workers=0,
            elapsed_s=0.0,
            executed_points=0,
            cached_points=len(points),
        )


def _execute_point(
    sc_or_name: Union[str, Scenario], cfg: Mapping[str, Any], collect: bool
) -> tuple[dict[str, float], float, Optional[dict]]:
    """Run one grid point, optionally under telemetry collection.

    Returns ``(values, elapsed_s, metrics_snapshot_or_None)``. With
    ``collect`` the obs switch is flipped on and the registry reset for
    exactly this point, then restored — byte-transparent either way.
    """
    sc = get_scenario(sc_or_name) if isinstance(sc_or_name, str) else sc_or_name
    prev_obs = False
    if collect:
        prev_obs = obs.set_obs(True)
        obs.reset_registry()
    t0 = time.perf_counter()
    try:
        values = dict(sc.run_point(cfg))
        dt = time.perf_counter() - t0
        snap = obs.registry().snapshot() if collect else None
        return values, dt, snap
    finally:
        if collect:
            obs.set_obs(prev_obs)


def _run_point_task(task: tuple) -> tuple[int, dict[str, float], float, Optional[dict]]:
    """Worker-side: one grid point, resolved by scenario name. Returns
    ``(index, values, elapsed_s, metrics)`` so the parent can record
    per-point cost for straggler reporting and (when requested) the
    point's telemetry snapshot."""
    name, idx, cfg, model_reference, collect = task
    prev_model = modelmode.set_model_reference(model_reference)
    try:
        values, dt, snap = _execute_point(name, cfg, collect)
        return idx, values, dt, snap
    finally:
        modelmode.set_model_reference(prev_model)


def _order_tasks(tasks: list[tuple], estimate: Callable[[tuple], Optional[float]]) -> list[tuple]:
    """Longest-estimated-first dispatch order (stable, so points with no
    recorded cost keep canonical order, ahead of every known point —
    an unknown point might be the longest, and starting it late is the
    one mistake a wide pool cannot recover from). Pure reordering: the
    results still land in canonical slots, so bytes are unaffected."""
    return sorted(
        tasks,
        key=lambda t: -(e if (e := estimate(t)) is not None else float("inf")),
    )


def dispatch_tasks(
    sc: Scenario,
    tasks: list[tuple],
    workers: int,
    pool: Optional[SweepPool],
):
    """The one serial-vs-pooled execution split every sweep path uses
    (``run_sweep`` and ``shard.run_shard``). Returns ``(start_method,
    iterator of (index, values, elapsed_s, metrics))``: in-process
    execution for one worker or a single task (``start_method`` None),
    otherwise a persistent pool — the one passed in, or a shared pool
    capped at the task count so narrow grids never fork idle workers."""
    if (pool.workers if pool is not None else workers) == 1 or len(tasks) <= 1:
        def _serial():
            for _, i, cfg, _, collect in tasks:
                values, dt, snap = _execute_point(sc, cfg, collect)
                yield i, values, dt, snap
        return None, _serial()
    try:
        registered = get_scenario(sc.name)
    except KeyError:
        registered = None
    if registered is None or registered.run_point is not sc.run_point:
        raise ValueError(
            f"scenario {sc.name!r} must be registered to sweep with "
            f"workers > 1 (workers re-resolve it by name)"
        )
    if pool is None:
        pool = shared_pool(min(workers, len(tasks)))
    # run_tasks (not imap_unordered): survives a worker process killed
    # mid-point by respawning the pool and re-dispatching lost tasks.
    return pool.start_method, pool.run_tasks(_run_point_task, tasks)


def run_sweep(
    scenario: Union[str, Scenario],
    overrides: Optional[Mapping[str, Any]] = None,
    *,
    seed: Optional[int] = None,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    pool: Optional[SweepPool] = None,
    point_cache=None,
    timings=None,
    collect_metrics: bool = False,
) -> SweepResult:
    """Run one scenario's full grid and aggregate deterministically.

    Parameters
    ----------
    scenario: registry name or a :class:`Scenario` instance (instances
        must be registered when running in parallel, so worker
        processes can resolve them by name).
    overrides: grid/default replacements (see
        :meth:`Scenario.with_overrides`).
    seed: root seed override, threaded into every point's ``cfg``.
    workers: process count; ``1`` runs serially in-process. Results are
        byte-identical across any worker count.
    progress: optional ``(done, total)`` callback, called as points
        finish (in completion order; cache hits count as already done).
    pool: an explicit :class:`SweepPool` to dispatch on (its worker
        count takes precedence over ``workers``; the pool is left open
        for reuse). Default: the session-shared persistent pool.
    point_cache: optional per-point cache
        (:class:`repro.experiments.cache.PointCache`); hits skip
        execution entirely, fresh results are stored back.
    timings: optional per-point cost store
        (:class:`repro.experiments.cache.TimingStore`); recorded costs
        order dispatch longest-first and fresh costs are recorded.
    collect_metrics: run every executed point under the telemetry layer
        (:mod:`repro.obs`) and attach each point's registry snapshot to
        its row as a non-canonical ``metrics`` entry (``repro sweep
        -v`` surfaces the aggregate). Canonical bytes are unchanged.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    sc = get_scenario(scenario) if isinstance(scenario, str) else scenario
    sc = sc.with_overrides(overrides, seed=seed)
    points = sc.points()
    total = len(points)
    # Workers re-apply the parent's model-protocol mode, so sweeps
    # behave identically under any start method.
    model_reference = modelmode.REFERENCE_MODE

    t0 = time.perf_counter()
    results: list[Optional[dict[str, float]]] = [None] * total
    point_elapsed: list[Optional[float]] = [None] * total
    cache_keys: list[Optional[str]] = [None] * total
    cached = 0
    if point_cache is not None:
        for i, cfg in enumerate(points):
            cache_keys[i], hit = point_cache.lookup(
                sc, cfg, model_reference=model_reference
            )
            if hit is not None:
                results[i] = hit
                cached += 1

    pending = [i for i in range(total) if results[i] is None]
    tasks = [
        (sc.name, i, points[i], model_reference, collect_metrics)
        for i in pending
    ]
    cost_keys: dict[int, str] = {}
    if timings is not None:
        cost_keys = {
            i: timings.key(sc, points[i], model_reference=model_reference)
            for i in pending
        }

    effective_workers = pool.workers if pool is not None else workers
    done = cached
    if progress and cached:
        progress(done, total)
    if timings is not None and effective_workers > 1:
        # Cost-aware ordering only changes *dispatch*; results still
        # land in canonical slots. Serial runs keep canonical order.
        tasks = _order_tasks(tasks, lambda t: timings.estimate(cost_keys[t[1]]))
    point_metrics: list[Optional[dict]] = [None] * total
    start_method, stream = dispatch_tasks(sc, tasks, workers, pool)
    for idx, values, dt, snap in stream:
        results[idx] = values
        point_elapsed[idx] = dt
        point_metrics[idx] = snap
        done += 1
        if progress:
            progress(done, total)

    if point_cache is not None:
        for i in pending:
            point_cache.store(sc.name, cache_keys[i], results[i])
    if timings is not None:
        for i in pending:
            timings.record(cost_keys[i], point_elapsed[i])
        timings.flush()
    elapsed = time.perf_counter() - t0

    return build_result(
        sc,
        results,
        point_elapsed,
        workers=effective_workers,
        elapsed_s=elapsed,
        start_method=start_method,
        executed_points=len(pending),
        cached_points=cached,
        point_metrics=point_metrics if collect_metrics else None,
    )


def build_result(
    sc: Scenario,
    results: list,
    point_elapsed: list,
    *,
    workers: int,
    elapsed_s: float,
    start_method: Optional[str] = None,
    executed_points: int = 0,
    cached_points: int = 0,
    point_metrics: Optional[list] = None,
) -> SweepResult:
    """Assemble per-point values into a :class:`SweepResult`.

    The one definition of how canonical rows and series come together —
    shared by :func:`run_sweep` and the serving layer
    (:mod:`repro.serve`), so served payloads are byte-identical to
    offline sweeps by construction, not by parallel maintenance.
    ``results`` holds one value dict per canonical grid point; a row
    whose ``point_elapsed`` entry is None is marked cache-assembled.
    ``point_metrics`` (when given) attaches each point's telemetry
    snapshot as a non-canonical ``metrics`` entry on its row —
    :meth:`SweepResult.canonical_dict` strips it like every other bit
    of run metadata.
    """
    series = sc.assemble(results)  # raises if any point went missing
    point_rows = []
    for i, (cfg, values) in enumerate(zip(sc.points(), results)):
        row: dict[str, Any] = {
            "params": {k: v for k, v in cfg.items() if k != "seed"},
            "values": values,
        }
        if point_elapsed[i] is not None:
            row["elapsed_s"] = round(point_elapsed[i], 6)
        else:
            row["cached"] = True
        if point_metrics is not None and point_metrics[i] is not None:
            row["metrics"] = point_metrics[i]
        point_rows.append(row)
    return SweepResult(
        scenario=sc.name,
        title=sc.format_title(),
        seed=sc.seed,
        x=sc.x,
        xlabel=sc.xlabel,
        ylabel=sc.ylabel,
        grid={k: list(v) for k, v in sc.grid.items()},
        defaults=dict(sc.defaults),
        points=point_rows,
        series=series,
        workers=workers,
        elapsed_s=elapsed_s,
        start_method=start_method,
        executed_points=executed_points,
        cached_points=cached_points,
    )
