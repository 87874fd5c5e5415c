"""Virtual-time sampling and post-run metric flushing for simulations.

Two complementary mechanisms, both guaranteed not to perturb canonical
bytes:

- :func:`attach_sampler` spawns a **passive** process inside the
  simulation that wakes on plain ``env.timeout`` delays, reads
  cluster state, and records (virtual_time, value) samples into
  :class:`~repro.obs.metrics.Timeseries` instruments. It consumes no
  resources, uses no randomness, and schedules nothing but its own
  tick — event times of every model process are unchanged, only their
  tie-break sequence numbers shift uniformly.

- :func:`publish_cluster_metrics` runs *after* ``env.run`` returns and
  delta-flushes tallies the model already maintains (decision
  counters, job counters, HDFS datanode counters, engine event count,
  tracer drops) into registry counters — zero additional work on any
  hot path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simexec import SimulatedCluster

__all__ = ["attach_sampler", "publish_cluster_metrics"]


def attach_sampler(
    sim: "SimulatedCluster",
    reg: MetricsRegistry,
    interval_s: float | None = None,
) -> None:
    """Attach the virtual-time sampler process to a started cluster."""
    env = sim.env
    if interval_s is None:
        interval_s = float(sim.jobtracker.calib.heartbeat_interval_s)
    if interval_s <= 0:
        interval_s = 1.0

    ts_map_util = reg.timeseries(
        "sim_vt_map_slot_utilization",
        "Fraction of map slots busy, sampled each heartbeat interval",
    )
    ts_reduce_util = reg.timeseries(
        "sim_vt_reduce_slot_utilization",
        "Fraction of reduce slots busy, sampled each heartbeat interval",
    )
    ts_pending = reg.timeseries(
        "sim_vt_pending_tasks",
        "Pending (unassigned) map+reduce tasks across all jobs",
    )
    ts_parks = reg.timeseries(
        "sim_vt_heartbeat_parks",
        "Cumulative parked heartbeats across trackers (event-thin mode)",
    )
    jt = sim.jobtracker

    def _sampler():
        while True:
            now = env.now
            trackers = sim.trackers
            map_slots = used_maps = reduce_slots = used_reduces = 0
            parks = 0
            for tt in trackers:
                map_slots += tt.map_slots
                used_maps += tt._used_map_slots  # noqa: SLF001
                reduce_slots += tt.reduce_slots
                used_reduces += tt._used_reduce_slots  # noqa: SLF001
                parks += tt.heartbeat_parks
            ts_map_util.observe(now, used_maps / map_slots if map_slots else 0.0)
            ts_reduce_util.observe(
                now, used_reduces / reduce_slots if reduce_slots else 0.0
            )
            pending = sum(len(v) for v in jt._pending_maps.values())  # noqa: SLF001
            pending += sum(len(v) for v in jt._pending_reduces.values())  # noqa: SLF001
            ts_pending.observe(now, pending)
            ts_parks.observe(now, parks)
            yield env.timeout(interval_s)

    env.process(_sampler(), name="obs-sampler")


def _flush_delta(
    reg: MetricsRegistry,
    last: dict[str, float],
    key: str,
    metric_name: str,
    help: str,
    current: float,
    **labels: Any,
) -> None:
    delta = current - last.get(key, 0.0)
    last[key] = current
    if delta > 0:
        label_names = tuple(sorted(labels))
        reg.counter(metric_name, help, labels=label_names).inc(delta, **labels)


def publish_cluster_metrics(
    sim: "SimulatedCluster",
    reg: MetricsRegistry,
    last: dict[str, float],
) -> None:
    """Delta-flush model-maintained tallies into the registry.

    ``last`` is the caller-owned high-water-mark dict (one per
    SimulatedCluster) so repeated flushes — e.g. one per job in a
    multi-job workload — never double count.
    """
    jt = sim.jobtracker

    for key, value in jt.decision_counters().items():
        if key == "heartbeat_batch_hist" and isinstance(value, Mapping):
            for size, passes in value.items():
                _flush_delta(
                    reg, last, f"bh:{size}",
                    "sim_heartbeat_batch_passes_total",
                    "JobTracker service passes by number of drained heartbeats",
                    float(passes), size=str(size),
                )
            continue
        if isinstance(value, (int, float)):
            _flush_delta(
                reg, last, f"dc:{key}", f"sim_{key}_total",
                f"Model decision counter {key!r}", float(value),
            )

    for job in jt._jobs.values():  # noqa: SLF001
        for cname, cval in job.counters.items():
            key = f"jc:{job.job_id}:{cname}"
            _flush_delta(
                reg, last, key, f"sim_{cname}_total",
                f"Job counter {cname!r} summed across jobs", float(cval),
            )

    for dn in sim.namenode._datanodes.values():  # noqa: SLF001
        nid = dn.node_id
        _flush_delta(
            reg, last, f"dn:{nid}:bytes", "sim_hdfs_bytes_served_total",
            "Bytes served by all datanodes", float(dn.bytes_served),
        )
        _flush_delta(
            reg, last, f"dn:{nid}:local", "sim_hdfs_reads_local_total",
            "Node-local block reads", float(dn.reads_local),
        )
        _flush_delta(
            reg, last, f"dn:{nid}:remote", "sim_hdfs_reads_remote_total",
            "Remote (network) block reads", float(dn.reads_remote),
        )

    _flush_delta(
        reg, last, "env:events", "sim_events_total",
        "Engine events processed", float(sim.env.processed_events),
    )
    tracer = sim.cluster.tracer
    _flush_delta(
        reg, last, "trace:dropped", "sim_trace_dropped_total",
        "Trace records/spans evicted by the ring-buffer cap",
        float(tracer.dropped),
    )
