"""The close contract: a finished simulated cluster frees itself.

Every one-shot runner closes its cluster once the result is built
(``SimulatedCluster.close``: the environment closes every live process
generator and empties its heap, the JobTracker drops its links to the
TaskTrackers and scheduler views). What the job allocated is then freed
by reference counting, so the cyclic collector finds nothing.

Each check runs the job with automatic collection off and
``gc.DEBUG_SAVEALL`` on, then requires that no simulation environment
outlived the call and that one ``gc.collect()`` finds nothing. Any
back-reference that closes a cycle again fails here.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import asdict

import pytest

import repro.obs as obs
from repro.core.simexec import (
    SimulatedCluster,
    run_empty_job,
    run_encryption_job,
    run_pi_job,
    run_sort_job,
    run_workload_mix,
)
from repro.experiments import run_sweep
from repro.experiments.scenarios import scale_point, sla_mix_point
from repro.hadoop import ChurnPlan
from repro.hadoop.config import JobConf
from repro.perf.calibration import GB, Backend
from repro.sim.engine import Environment, SimulationError


def _live_environments() -> set[int]:
    return {id(o) for o in gc.get_objects() if isinstance(o, Environment)}


def _cyclic_garbage(fn):
    """Run ``fn()`` with automatic collection off; return its value, the
    environments it left alive, and a Counter of the types one
    ``gc.collect()`` then finds. A freed cluster leaves neither.

    Both checks are needed: a cycle through a suspended generator is
    broken by the generator's finalizer during collection and never
    shows in ``gc.garbage``, but it keeps the cluster's environment
    alive until the collector runs.
    """
    gc.collect()
    before = _live_environments()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        value = fn()
        leaked_envs = len(_live_environments() - before)
        gc.collect()
        found = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return value, leaked_envs, found


def _assert_no_cyclic_garbage(fn):
    fn()  # warm module-level caches outside the measured call
    value, leaked_envs, found = _cyclic_garbage(fn)
    assert leaked_envs == 0, f"{leaked_envs} environment(s) outlived the call"
    assert not found, f"cyclic garbage left behind: {found.most_common(10)}"
    return value


CHURN_MIX = dict(
    num_jobs=3, scheduler="fair_preempt", stagger_s=6.0, data_gb=0.5,
    samples=8e9, seed=5,
    churn=ChurnPlan.elastic(joins=[8.0], leaves=[(20.0, None)]),
)


RUNNERS = {
    "pi-java": lambda: run_pi_job(4, 1e9, Backend.JAVA_PPE, seed=3),
    "pi-cell": lambda: run_pi_job(4, 1e9, Backend.CELL_SPE_DIRECT, seed=3),
    "aes-empty": lambda: run_empty_job(4, 1 * GB, seed=3),
    "aes-java": lambda: run_encryption_job(4, 1 * GB, Backend.JAVA_PPE, seed=3),
    "aes-cell": lambda: run_encryption_job(
        4, 1 * GB, Backend.CELL_SPE_DIRECT, seed=3
    ),
    "sort": lambda: run_sort_job(3, 0.5 * GB, seed=3),
    "mix-churn-fair-preempt": lambda: run_workload_mix(3, **CHURN_MIX),
    "aes-cell-trace": lambda: run_encryption_job(
        4, 1 * GB, Backend.CELL_SPE_DIRECT, seed=3, trace=True
    ),
    "scale-point": lambda: scale_point({
        "nodes": 16, "num_jobs": 2, "stagger_s": 10.0, "gb_per_node": 0.25,
        "samples_per_node": 4e9, "accelerated_fraction": 0.5, "seed": 1,
    }),
    "sla-mix-point": lambda: sla_mix_point({
        "nodes": 2, "seed": 1, "jobs_per_tenant": 1, "stagger_s": 8.0,
        "samples": 1e9,
    }),
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_runner_leaves_no_cyclic_garbage(name):
    _assert_no_cyclic_garbage(RUNNERS[name])


def test_runner_under_telemetry_leaves_no_cyclic_garbage():
    previous = obs.set_obs(True)
    try:
        _assert_no_cyclic_garbage(
            lambda: run_pi_job(4, 1e9, Backend.CELL_SPE_DIRECT, seed=3)
        )
        _assert_no_cyclic_garbage(
            lambda: run_encryption_job(4, 1 * GB, Backend.JAVA_PPE, seed=3)
        )
    finally:
        obs.set_obs(previous)
        obs.reset_registry()


@pytest.mark.parametrize(
    "run",
    [
        lambda **kw: run_pi_job(4, 1e9, Backend.CELL_SPE_DIRECT, seed=9, **kw),
        lambda **kw: run_encryption_job(4, 1 * GB, Backend.JAVA_PPE, seed=9, **kw),
        lambda **kw: run_sort_job(3, 0.5 * GB, seed=9, **kw),
        lambda **kw: run_workload_mix(3, **CHURN_MIX, **kw),
    ],
    ids=["pi", "aes", "sort", "mix-churn-fair-preempt"],
)
def test_closed_result_is_bit_identical_to_open_cluster_result(run):
    closed = run()
    opened, sim = run(return_cluster=True)
    assert repr(asdict(closed)) == repr(asdict(opened))
    sim.close()


def test_returned_cluster_stays_open_and_inspectable():
    result, sim = run_pi_job(
        4, 1e9, Backend.CELL_SPE_DIRECT, seed=3, return_cluster=True
    )
    assert result.succeeded
    assert sim.jobtracker.live_trackers == [t.tracker_id for t in sim.trackers]
    assert sim.job_energy_j(result, Backend.CELL_SPE_DIRECT) > 0
    # Still runnable: a second job on the same cluster completes.
    again = sim.run_job(JobConf(
        name="pi-again", workload="pi", backend=Backend.CELL_SPE_DIRECT,
        samples=1e9, num_map_tasks=8, num_reduce_tasks=1,
    ))
    assert again.succeeded and again.submit_time >= result.finish_time


def test_close_is_idempotent_and_the_environment_refuses_to_run():
    sim = SimulatedCluster(2, seed=1)
    result = sim.run_job(JobConf(
        name="pi", workload="pi", backend=Backend.JAVA_PPE,
        samples=1e8, num_map_tasks=4, num_reduce_tasks=1,
    ))
    assert result.succeeded
    sim.close()
    sim.close()
    with pytest.raises(SimulationError):
        sim.env.run()
    with pytest.raises(SimulationError):
        sim.env.run(until=sim.env.now + 1.0)


def test_reduced_paper_sweeps_leave_no_cyclic_garbage():
    """Guard: the distributed paper figures (one cluster per job) stay
    free of cyclic garbage end to end through the sweep driver."""
    def sweeps():
        run_sweep("fig5", {"nodes": [2, 4], "data_gb": 2}, workers=1)
        run_sweep("fig8", {"nodes": [2, 4], "samples": 1e9}, workers=1)

    _assert_no_cyclic_garbage(sweeps)
