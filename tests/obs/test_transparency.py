"""The telemetry hard invariant: observation never perturbs canonical bytes.

Runs a small real sweep twice per model mode —
once cold, once with metrics collection AND span tracing fully enabled
— and requires identical ``canonical_json()``/``sha256()``. This is
what makes it safe to leave the instrumentation wired into the engine,
the Hadoop model, HDFS, and the sweep driver permanently.
"""

import pytest

import repro.modelmode as modelmode
import repro.obs as obs
from repro.experiments import run_sweep
from repro.obs.traceexport import TraceCollector

GRID = {"nodes": [2, 4], "samples": 1e9}


@pytest.mark.parametrize("reference_model", [False, True],
                         ids=["model-thin", "model-reference"])
def test_sweep_bytes_identical_with_telemetry_enabled(reference_model):
    prev_m = modelmode.set_model_reference(reference_model)
    try:
        baseline = run_sweep("fig8", GRID, seed=7)

        prev_obs = obs.set_obs(True)
        obs.reset_registry()
        collector = TraceCollector()
        prev_collector = obs.set_trace_collector(collector)
        try:
            instrumented = run_sweep("fig8", GRID, seed=7,
                                     collect_metrics=True)
        finally:
            obs.set_trace_collector(prev_collector)
            obs.set_obs(prev_obs)
    finally:
        modelmode.set_model_reference(prev_m)

    assert instrumented.sha256() == baseline.sha256()
    assert instrumented.canonical_json() == baseline.canonical_json()
    # The instrumentation actually ran: spans were recorded and every
    # point carried a metrics snapshot back...
    assert collector.span_count() > 0
    assert all(p.get("metrics") for p in instrumented.points)
    # ...and none of it leaked into the canonical payload.
    canonical = instrumented.canonical_dict()
    assert all(set(row) == {"params", "values"}
               for row in canonical["points"])


def test_collect_metrics_snapshots_have_sim_counters():
    prev_obs = obs.set_obs(False)  # driver flips obs on per point itself
    try:
        result = run_sweep("fig8", {"nodes": [2], "samples": 1e9},
                           seed=7, collect_metrics=True)
    finally:
        obs.set_obs(prev_obs)
    (row,) = result.points
    snap = row["metrics"]
    assert snap["sim_heartbeats_total"]["values"][""] > 0
    assert snap["sim_assignments_total"]["values"][""] > 0
    assert "sim_vt_map_slot_utilization" in snap


def test_worker_pool_path_matches_serial_with_metrics():
    """collect_metrics survives the multiprocess dispatch path and the
    bytes still match a plain serial run."""
    plain = run_sweep("fig8", GRID, seed=3)
    collected = run_sweep("fig8", GRID, seed=3, workers=2,
                          collect_metrics=True)
    assert collected.sha256() == plain.sha256()
    assert all(p.get("metrics") for p in collected.points)
