"""Builtin scenarios: the paper's figures plus the extension studies.

Each figure from the evaluation (§IV) is one registered
:class:`~repro.experiments.scenario.Scenario` whose defaults reproduce
the paper's exact grid; the extension scenarios open the §V questions
(heterogeneous node mixes, fault injection, GPU offload, skewed split
assignments) on the same declarative surface. Point functions are
module-level so worker processes can resolve them by reference.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.raw import (
    FIG2_CONFIGS,
    FIG6_CONFIGS,
    raw_encryption_bandwidth,
    raw_pi_rates,
)
from repro.analysis.report import percentile
from repro.core.simexec import (
    SimulatedCluster,
    run_empty_job,
    run_encryption_job,
    run_pi_job,
    run_workload_mix,
)
from repro.experiments.registry import register
from repro.experiments.scenario import Scenario
from repro.hadoop.config import JobConf
from repro.hadoop.faults import ChurnPlan
from repro.perf.calibration import GB, Backend, PAPER_CALIBRATION

__all__ = [
    "FIGURE_SCENARIOS",
    "ELASTIC_SCENARIOS",
    "EXTENSION_SCENARIOS",
    "SCALE_SCENARIOS",
    "SCHED_SCENARIOS",
]

_CALIB = PAPER_CALIBRATION


# --------------------------------------------------------------------------- #
# Paper figures                                                                #
# --------------------------------------------------------------------------- #


def fig2_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """Raw single-node AES bandwidth at one working-set size (Fig. 2)."""
    out = {}
    for backend in FIG2_CONFIGS:
        (series,) = raw_encryption_bandwidth(
            sizes_mb=[cfg["size_mb"]], configs=[backend]
        )
        out[series.label] = series.ys[0]
    return out


def fig4_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """Proportional-dataset encryption at one node count (Fig. 4)."""
    n = cfg["nodes"]
    data = n * _CALIB.mappers_per_node * cfg["gb_per_mapper"] * GB
    out = {}
    for label, backend in (
        ("Java Mapper", Backend.JAVA_PPE),
        ("Cell BE Mapper", Backend.CELL_SPE_DIRECT),
    ):
        out[label] = run_encryption_job(n, data, backend, seed=cfg["seed"]).makespan_s
    return out


def fig5_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """Fixed-dataset encryption at one node count (Fig. 5)."""
    n, data = cfg["nodes"], cfg["data_gb"] * GB
    seed = cfg["seed"]
    return {
        "Empty Mapper": run_empty_job(n, data, seed=seed).makespan_s,
        "Java Mapper": run_encryption_job(
            n, data, Backend.JAVA_PPE, seed=seed
        ).makespan_s,
        "Cell Mapper": run_encryption_job(
            n, data, Backend.CELL_SPE_DIRECT, seed=seed
        ).makespan_s,
    }


def fig6_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """Raw single-node Pi sample rate at one problem size (Fig. 6)."""
    out = {}
    for backend in FIG6_CONFIGS:
        (series,) = raw_pi_rates(sample_counts=[cfg["samples"]], configs=[backend])
        out[series.label] = series.ys[0]
    return out


def fig7_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """Distributed Pi at one sample count, fixed cluster (Fig. 7)."""
    n, c, seed = cfg["nodes"], cfg["samples"], cfg["seed"]
    return {
        "Java Mapper": run_pi_job(n, c, Backend.JAVA_PPE, seed=seed).makespan_s,
        "Cell BE Mapper": run_pi_job(
            n, c, Backend.CELL_SPE_DIRECT, seed=seed
        ).makespan_s,
    }


def fig8_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """Distributed Pi at one node count, fixed samples (Fig. 8)."""
    n, c, seed = cfg["nodes"], cfg["samples"], cfg["seed"]
    return {
        "Java Mapper": run_pi_job(n, c, Backend.JAVA_PPE, seed=seed).makespan_s,
        "Cell BE Mapper": run_pi_job(
            n, c, Backend.CELL_SPE_DIRECT, seed=seed
        ).makespan_s,
        "Cell BE Mapper (10x)": run_pi_job(
            n, c * 10, Backend.CELL_SPE_DIRECT, seed=seed
        ).makespan_s,
    }


FIGURE_SCENARIOS = (
    register(Scenario(
        name="fig2",
        figure="fig2",
        title="Fig. 2",
        description="Raw node encryption bandwidth vs. working-set size; "
                    "no Hadoop involved (§IV-A).",
        run_point=fig2_point,
        grid={"size_mb": (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)},
        x="size_mb",
        curves=("Cell BE", "MapReduce Cell", "PPC", "Power 6"),
        xlabel="Size(MB)",
        ylabel="MB/s",
    )),
    register(Scenario(
        name="fig4",
        figure="fig4",
        title="Fig. 4: {gb_per_mapper:.0f} GB per mapper",
        description="Distributed encryption with the dataset growing "
                    "proportionally to the cluster (§IV-A).",
        run_point=fig4_point,
        grid={"nodes": (12, 24, 36, 48, 60)},
        x="nodes",
        curves=("Java Mapper", "Cell BE Mapper"),
        defaults={"gb_per_mapper": 1.0},
        xlabel="Nodes",
    )),
    register(Scenario(
        name="fig5",
        figure="fig5",
        title="Fig. 5: {data_gb:.0f} GB fixed",
        description="Distributed encryption of a fixed dataset as nodes "
                    "scale, with the EmptyMapper overhead probe (§IV-A).",
        run_point=fig5_point,
        grid={"nodes": (4, 8, 16, 32, 64)},
        x="nodes",
        curves=("Empty Mapper", "Java Mapper", "Cell Mapper"),
        defaults={"data_gb": 120.0},
        xlabel="Nodes",
    )),
    register(Scenario(
        name="fig6",
        figure="fig6",
        title="Fig. 6",
        description="Raw node Pi estimation rate vs. problem size; the "
                    "SPU-initialization crossover (§IV-B).",
        run_point=fig6_point,
        grid={"samples": (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)},
        x="samples",
        curves=("Cell BE", "PPC", "Power 6"),
        xlabel="Samples",
        ylabel="Samples/sec",
    )),
    register(Scenario(
        name="fig7",
        figure="fig7",
        title="Fig. 7: Pi on {nodes} nodes",
        description="Distributed Pi across sample counts on a fixed "
                    "cluster (§IV-B).",
        run_point=fig7_point,
        grid={"samples": (3e3, 3e5, 3e7, 3e9, 3e11, 3e12)},
        x="samples",
        curves=("Java Mapper", "Cell BE Mapper"),
        defaults={"nodes": 50},
        xlabel="Samples",
    )),
    register(Scenario(
        name="fig8",
        figure="fig8",
        title="Fig. 8: Pi of {samples:.0e} samples",
        description="Distributed Pi node scaling at a fixed sample count, "
                    "plus the 10x-samples curve (§IV-B).",
        run_point=fig8_point,
        grid={"nodes": (4, 8, 16, 32, 64)},
        x="nodes",
        curves=("Java Mapper", "Cell BE Mapper", "Cell BE Mapper (10x)"),
        defaults={"samples": 1e11},
        xlabel="Nodes",
    )),
)


# --------------------------------------------------------------------------- #
# Extension studies (§V questions)                                             #
# --------------------------------------------------------------------------- #


def hetero_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """Encryption on a partially-accelerated cluster with Java fallback."""
    n, data, seed = cfg["nodes"], cfg["data_gb"] * GB, cfg["seed"]
    frac = cfg["accelerated_fraction"]
    return {
        "Cell (Java fallback)": run_encryption_job(
            n, data, Backend.CELL_SPE_DIRECT,
            seed=seed,
            accelerated_fraction=frac,
            fallback_backend=Backend.JAVA_PPE,
        ).makespan_s,
        "Java Mapper": run_encryption_job(
            n, data, Backend.JAVA_PPE, seed=seed
        ).makespan_s,
    }


def faults_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """Pi with one straggler node, with and without speculation."""
    n, c, seed = cfg["nodes"], cfg["samples"], cfg["seed"]
    factor = cfg["slow_factor"]
    slow = {1: float(factor)} if factor > 1 else None
    out = {}
    for label, speculative in (("No speculation", False), ("Speculative", True)):
        out[label] = run_pi_job(
            n, c, Backend.CELL_SPE_DIRECT,
            seed=seed, slow_nodes=slow, speculative=speculative,
        ).makespan_s
    return out


def gpu_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """Pi node scaling: Cell blades vs. GPU-equipped nodes (§I outlook)."""
    n, c, seed = cfg["nodes"], cfg["samples"], cfg["seed"]
    return {
        "Cell BE Mapper": run_pi_job(
            n, c, Backend.CELL_SPE_DIRECT, seed=seed
        ).makespan_s,
        "GPU Mapper": run_pi_job(
            n, c, Backend.GPU_TESLA,
            seed=seed, accelerated_fraction=0.0, gpu_fraction=1.0,
        ).makespan_s,
    }


def skew_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """Fixed dataset split into more (smaller) map tasks than slots.

    splits_per_slot=1 is the paper's one-split-per-mapper setting; larger
    values trade per-task overhead against load-balance tail latency.
    """
    n, data, seed = cfg["nodes"], cfg["data_gb"] * GB, cfg["seed"]
    maps = n * _CALIB.mappers_per_node * cfg["splits_per_slot"]
    out = {}
    for label, backend in (
        ("Java Mapper", Backend.JAVA_PPE),
        ("Cell BE Mapper", Backend.CELL_SPE_DIRECT),
    ):
        out[label] = run_encryption_job(
            n, data, backend, num_map_tasks=maps, seed=seed
        ).makespan_s
    return out


# --------------------------------------------------------------------------- #
# Scheduling-policy studies (repro.sched)                                      #
# --------------------------------------------------------------------------- #

#: Curve label → repro.sched registry name, in declared curve order.
SCHED_POLICIES = (
    ("FIFO", "fifo"),
    ("Fair", "fair"),
    ("Locality-aware", "locality"),
    ("Accel-aware", "accel"),
)


def sched_compare_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """One multi-job workload under every placement policy.

    The workload mixes delivery-bound AES jobs with compute-bound
    Cell-targeted Pi jobs on a partially-accelerated cluster — the
    regime where placement decides completion time (the paper's core
    sensitivity, §IV/§V). Metric: mean job completion time.
    """
    out = {}
    for label, policy in SCHED_POLICIES:
        mix = run_workload_mix(
            cfg["nodes"],
            num_jobs=cfg["num_jobs"],
            scheduler=policy,
            stagger_s=cfg["stagger_s"],
            data_gb=cfg["data_gb"],
            samples=cfg["samples"],
            accelerated_fraction=cfg["accelerated_fraction"],
            seed=cfg["seed"],
        )
        out[label] = mix.mean_completion_s
    return out


def multijob_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """FIFO vs. fair sharing as the number of concurrent jobs grows.

    A homogeneous all-Cell cluster isolates the *sharing* discipline
    from accelerator affinity: both mean job completion time (what each
    user waits) and workload makespan (what the operator pays) per
    policy.
    """
    out = {}
    for label, policy in (("FIFO", "fifo"), ("Fair", "fair")):
        mix = run_workload_mix(
            cfg["nodes"],
            num_jobs=cfg["num_jobs"],
            scheduler=policy,
            stagger_s=cfg["stagger_s"],
            data_gb=cfg["data_gb"],
            samples=cfg["samples"],
            seed=cfg["seed"],
        )
        out[f"{label} (mean completion)"] = mix.mean_completion_s
        out[f"{label} (makespan)"] = mix.makespan_s
    return out


SCHED_SCENARIOS = (
    register(Scenario(
        name="sched_compare",
        title="Scheduler comparison: {num_jobs} jobs, "
              "{accelerated_fraction:.0%} accelerated",
        description="One mixed AES+Pi workload under every placement "
                    "policy on a partially-accelerated cluster; mean job "
                    "completion time per policy (repro.sched).",
        run_point=sched_compare_point,
        grid={"nodes": (2, 4, 8, 16)},
        x="nodes",
        curves=tuple(label for label, _ in SCHED_POLICIES),
        defaults={
            "num_jobs": 3,
            "stagger_s": 5.0,
            "data_gb": 2.0,
            "samples": 2e9,
            "accelerated_fraction": 0.5,
        },
        xlabel="Nodes",
        ylabel="Mean job completion (s)",
    )),
    register(Scenario(
        name="multijob",
        title="Multi-job scaling on {nodes} nodes: FIFO vs. fair",
        description="Concurrent-job count sweep under FIFO and weighted "
                    "fair sharing; per-user wait vs. operator makespan "
                    "(repro.sched).",
        run_point=multijob_point,
        grid={"num_jobs": (1, 2, 4, 6)},
        x="num_jobs",
        curves=(
            "FIFO (mean completion)",
            "Fair (mean completion)",
            "FIFO (makespan)",
            "Fair (makespan)",
        ),
        defaults={
            "nodes": 4,
            "stagger_s": 5.0,
            "data_gb": 2.0,
            "samples": 2e9,
        },
        xlabel="Concurrent jobs",
        ylabel="Time (s)",
    )),
)


# --------------------------------------------------------------------------- #
# Elastic-membership studies (churn, revocation, multi-tenant SLAs)             #
# --------------------------------------------------------------------------- #


def elastic_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """One mixed workload on a cluster that grows and shrinks mid-run.

    A blade joins at ``join_at`` and the youngest live blade is revoked
    at ``leave_at`` while the jobs execute. The static-membership fair
    run anchors the cost of churn; the preemptive policy shows whether
    reclamation helps once the slot pool is moving.
    """
    plan = ChurnPlan.elastic(
        joins=[cfg["join_at"]], leaves=[(cfg["leave_at"], None)]
    )
    out = {}
    for label, policy, churn in (
        ("Fair (static)", "fair", None),
        ("Fair (churn)", "fair", plan),
        ("Fair preempt (churn)", "fair_preempt", plan),
    ):
        mix = run_workload_mix(
            cfg["nodes"],
            num_jobs=cfg["num_jobs"],
            scheduler=policy,
            stagger_s=cfg["stagger_s"],
            data_gb=cfg["data_gb"],
            samples=cfg["samples"],
            seed=cfg["seed"],
            churn=churn,
        )
        out[label] = mix.mean_completion_s
    return out


def spot_storm_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """Graceful degradation under a spot-revocation storm.

    ``revoked`` youngest blades are taken away in a window starting at
    ``at_s``; the two curves bound the operator's choices — ride out the
    loss versus win replacement capacity back ``replace_after_s`` later.
    ``revoked=0`` anchors both curves at the undisturbed makespan.
    """
    n = cfg["nodes"]
    victims = [n - i for i in range(cfg["revoked"])]
    out = {}
    for label, replace_after_s in (
        ("No replacement", None),
        ("Replaced", cfg["replace_after_s"]),
    ):
        plan = ChurnPlan.spot_storm(
            victims,
            at_time=cfg["at_s"],
            window_s=cfg["window_s"],
            replace_after_s=replace_after_s,
        )
        mix = run_workload_mix(
            n,
            num_jobs=cfg["num_jobs"],
            scheduler="fair",
            stagger_s=cfg["stagger_s"],
            data_gb=cfg["data_gb"],
            samples=cfg["samples"],
            seed=cfg["seed"],
            churn=plan,
        )
        out[label] = mix.makespan_s
    return out


#: (tenant, fair-share weight, submission wave) — bronze floods the
#: cluster first, gold arrives last into a fully-occupied slot pool:
#: the regime where grant-only fair sharing can only wait for tasks to
#: finish, and preemption is the difference for the p95 SLO.
SLA_TENANTS = (("gold", 4.0, 2), ("silver", 2.0, 1), ("bronze", 1.0, 0))


def sla_mix_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """Per-tenant p95 job latency with and without preemption.

    Three weighted tenants submit Pi jobs in adversarial order (lowest
    weight first). Metric per curve: the tenant's p95 submit-to-finish
    latency (``analysis.report.percentile``) under ``fair`` versus
    ``fair_preempt``.
    """
    n, seed = cfg["nodes"], cfg["seed"]
    maps = n * _CALIB.mappers_per_node
    out = {}
    for policy in ("fair", "fair_preempt"):
        sim = SimulatedCluster(n, seed=seed, scheduler=policy)
        confs: list[JobConf] = []
        arrivals: list[float] = []
        for tenant, weight, wave in SLA_TENANTS:
            for j in range(cfg["jobs_per_tenant"]):
                confs.append(JobConf(
                    name=f"{tenant}-{j}",
                    workload="pi",
                    backend=Backend.CELL_SPE_DIRECT,
                    fallback_backend=Backend.JAVA_PPE,
                    samples=cfg["samples"],
                    num_map_tasks=maps,
                    num_reduce_tasks=1,
                    weight=weight,
                ))
                # Each tenant submits as a burst: same-weight jobs split
                # slots by granting alone, so any preemption measured is
                # strictly cross-tenant reclamation.
                arrivals.append(wave * cfg["stagger_s"])
        results = sim.run_jobs(confs, arrivals=arrivals)
        sim.close()
        per_tenant: dict[str, list[float]] = {t: [] for t, _, _ in SLA_TENANTS}
        for conf, res in zip(confs, results):
            per_tenant[conf.name.rsplit("-", 1)[0]].append(res.makespan_s)
        for tenant, _, _ in SLA_TENANTS:
            out[f"{tenant.capitalize()} p95 ({policy})"] = percentile(
                per_tenant[tenant], 95
            )
    return out


ELASTIC_SCENARIOS = (
    register(Scenario(
        name="elastic",
        title="Elastic membership: {num_jobs} jobs, join@{join_at:.0f}s "
              "leave@{leave_at:.0f}s",
        description="A mixed AES+Pi workload while a blade joins and the "
                    "youngest live blade is revoked mid-run; static fair "
                    "sharing vs. churn vs. churn with preemption "
                    "(repro.hadoop.faults.ChurnPlan).",
        run_point=elastic_point,
        grid={"nodes": (2, 4)},
        x="nodes",
        curves=("Fair (static)", "Fair (churn)", "Fair preempt (churn)"),
        defaults={
            "num_jobs": 3,
            "stagger_s": 5.0,
            "data_gb": 1.0,
            "samples": 1e9,
            "join_at": 20.0,
            "leave_at": 60.0,
        },
        xlabel="Nodes",
        ylabel="Mean job completion (s)",
    )),
    register(Scenario(
        name="spot_storm",
        title="Spot-revocation storm on {nodes} nodes "
              "(window {window_s:.0f}s)",
        description="K youngest blades revoked in a window mid-workload, "
                    "with and without replacement capacity arriving "
                    "later; workload makespan vs. storm size (graceful-"
                    "degradation envelope).",
        run_point=spot_storm_point,
        grid={"revoked": (0, 1, 2)},
        x="revoked",
        curves=("No replacement", "Replaced"),
        defaults={
            "nodes": 4,
            "num_jobs": 4,
            "stagger_s": 5.0,
            "data_gb": 2.0,
            "samples": 4e9,
            "at_s": 30.0,
            "window_s": 10.0,
            "replace_after_s": 15.0,
        },
        xlabel="Blades revoked",
        ylabel="Workload makespan (s)",
    )),
    register(Scenario(
        name="sla_mix",
        title="Multi-tenant SLA mix: {jobs_per_tenant} jobs/tenant",
        description="Gold/silver/bronze tenants (weights 4/2/1) submit in "
                    "adversarial order (bronze floods first); per-tenant "
                    "p95 job latency under fair vs. preemptive fair "
                    "sharing.",
        run_point=sla_mix_point,
        grid={"nodes": (2, 4)},
        x="nodes",
        curves=(
            "Gold p95 (fair)",
            "Silver p95 (fair)",
            "Bronze p95 (fair)",
            "Gold p95 (fair_preempt)",
            "Silver p95 (fair_preempt)",
            "Bronze p95 (fair_preempt)",
        ),
        defaults={
            "jobs_per_tenant": 2,
            "stagger_s": 8.0,
            "samples": 1e10,
        },
        xlabel="Nodes",
        ylabel="p95 job completion (s)",
    )),
)


# --------------------------------------------------------------------------- #
# Cluster-scale studies (event-thin model layer)                                #
# --------------------------------------------------------------------------- #


def scale_point(cfg: Mapping[str, Any]) -> dict[str, float]:
    """One weak-scaled multi-job mix per placement policy at one size.

    Per-node work is held constant as the cluster grows (each AES job
    reads ``gb_per_node`` GB per blade, each Pi job draws
    ``samples_per_node`` samples per blade), so the curves isolate the
    *coordination* cost — JobTracker serialization, placement quality —
    from plain problem-size effects. These node counts (256-1024) are
    far beyond the paper's 64-blade testbed; the event-thin cluster
    protocol is what keeps them simulable (docs/PERFORMANCE.md,
    "Model-layer performance").
    """
    nodes = cfg["nodes"]
    out = {}
    for label, policy in SCHED_POLICIES:
        mix = run_workload_mix(
            nodes,
            num_jobs=cfg["num_jobs"],
            scheduler=policy,
            stagger_s=cfg["stagger_s"],
            data_gb=cfg["gb_per_node"] * nodes,
            samples=cfg["samples_per_node"] * nodes,
            accelerated_fraction=cfg["accelerated_fraction"],
            seed=cfg["seed"],
        )
        out[label] = mix.mean_completion_s
    return out


SCALE_SCENARIOS = (
    register(Scenario(
        name="scale",
        title="Cluster scale: {num_jobs}-job mixes, weak scaling",
        description="Multi-job AES+Pi workloads on 256 through 4096 worker "
                    "blades under every placement policy, with per-node "
                    "work held constant; mean job completion time per "
                    "policy (the weak-scaling envelope the batch-served "
                    "protocol and vectorized cost models open).",
        run_point=scale_point,
        grid={"nodes": (256, 512, 1024, 2048, 4096)},
        x="nodes",
        curves=tuple(label for label, _ in SCHED_POLICIES),
        defaults={
            "num_jobs": 4,
            "stagger_s": 10.0,
            "gb_per_node": 0.25,
            "samples_per_node": 4e9,
            "accelerated_fraction": 0.5,
        },
        xlabel="Nodes",
        ylabel="Mean job completion (s)",
    )),
)


EXTENSION_SCENARIOS = (
    register(Scenario(
        name="hetero",
        title="Heterogeneous cluster: {data_gb:.0f} GB on {nodes} nodes",
        description="Only a fraction of nodes carry Cell accelerators; "
                    "accelerated tasks fall back to Java elsewhere (§V).",
        run_point=hetero_point,
        grid={"accelerated_fraction": (0.0, 0.25, 0.5, 0.75, 1.0)},
        x="accelerated_fraction",
        curves=("Cell (Java fallback)", "Java Mapper"),
        defaults={"nodes": 8, "data_gb": 8.0},
        xlabel="Accelerated fraction",
    )),
    register(Scenario(
        name="faults",
        title="Straggler injection: Pi of {samples:.0e} on {nodes} nodes",
        description="One node slowed by a factor; speculative re-execution "
                    "should bound the tail (§III-A fault machinery).",
        run_point=faults_point,
        grid={"slow_factor": (1, 2, 4, 8)},
        x="slow_factor",
        curves=("No speculation", "Speculative"),
        defaults={"nodes": 4, "samples": 4e9},
        xlabel="Straggler slowdown",
    )),
    register(Scenario(
        name="gpu",
        title="GPU offload: Pi of {samples:.0e} samples",
        description="The same offload interface bound to Tesla-class GPUs "
                    "instead of Cell SPEs (§I: other accelerators).",
        run_point=gpu_point,
        grid={"nodes": (2, 4, 8, 16)},
        x="nodes",
        curves=("Cell BE Mapper", "GPU Mapper"),
        defaults={"samples": 1e10},
        xlabel="Nodes",
    )),
    register(Scenario(
        name="skew",
        title="Split skew: {data_gb:.0f} GB on {nodes} nodes",
        description="Oversplitting a fixed dataset: per-task overhead vs. "
                    "load-balance tail (§III-A two-level partitioning).",
        run_point=skew_point,
        grid={"splits_per_slot": (1, 2, 4, 8)},
        x="splits_per_slot",
        curves=("Java Mapper", "Cell BE Mapper"),
        defaults={"nodes": 8, "data_gb": 16.0},
        xlabel="Splits per slot",
    )),
)
