"""FIFO scheduling — the stock Hadoop 0.19 policy the paper ran.

Extracted verbatim from the pre-refactor ``JobTracker``: jobs are served
strictly in submission order, each job filling every slot it can
(locality-first within the job, straggler speculation only once its
queue is dry) before the next job sees a single slot. This is the
policy behind every paper figure, and its decision stream is pinned
byte-identically by the golden-series tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sched.base import (
    AssignmentBatch,
    Scheduler,
    TaskChoice,
    fill_job_map_slots,
    fill_job_reduce_slots,
    register_scheduler,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.hadoop.messages import Heartbeat
    from repro.sched.view import ClusterView

__all__ = ["FifoScheduler"]


@register_scheduler
class FifoScheduler(Scheduler):
    """Strict job-arrival order; locality-first within the head job."""

    name = "fifo"

    def assign(self, view: "ClusterView", hb: "Heartbeat") -> list[TaskChoice]:
        batch = AssignmentBatch()
        now = view.now
        free_maps = hb.free_map_slots
        free_reduces = hb.free_reduce_slots
        for job in view.jobs():
            if free_maps > 0:
                free_maps -= fill_job_map_slots(
                    job, hb.tracker_id, now, batch, free_maps
                )
            if free_reduces > 0:
                free_reduces -= fill_job_reduce_slots(job, batch, free_reduces)
            if free_maps <= 0 and free_reduces <= 0:
                break
        return batch.choices
