"""The scheduling-policy contract.

A :class:`Scheduler` is a pure decision layer: per heartbeat the
JobTracker hands it a read-only :class:`~repro.sched.view.ClusterView`
plus the :class:`~repro.hadoop.messages.Heartbeat` (both plain data) and
gets back the *entire batch* of :class:`TaskChoice` decisions for that
exchange — one ``assign`` call per heartbeat, however many slots the
tracker reported free. The JobTracker alone mutates state (queue
removal, counters, attempt records, the wire ``Assignment``s); a policy
that tries to hand out a task that is not actually available is a bug
and surfaces as :class:`SchedulerError` at apply time.

Policies may keep *internal* state across calls (delay-scheduling skip
counters, affinity patience) — the purity requirement is only that they
never touch engine objects and never mutate anything reachable through
the view. That is what makes every policy unit-testable against a
:class:`~repro.sched.view.SyntheticView` with no simulation running.

The shared pick helpers in this module reproduce, decision for
decision, the FIFO + locality + straggler-speculation logic that used to
live inline in ``JobTracker._handle_heartbeat`` — the byte-identity of
:class:`~repro.sched.fifo.FifoScheduler` with the pre-refactor engine
(golden tests) rests on them.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Optional, Sequence, Union

from repro.hadoop.job import TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.hadoop.messages import Heartbeat
    from repro.sched.view import ClusterView, JobView

__all__ = [
    "AssignmentBatch",
    "PreemptChoice",
    "Scheduler",
    "SchedulerError",
    "TaskChoice",
    "pick_pending_map",
    "pick_pending_reduce",
    "pick_speculative_map",
    "register_scheduler",
    "resolve_scheduler",
    "scheduler_names",
]


class SchedulerError(RuntimeError):
    """A policy returned a decision the cluster state cannot honor."""


@dataclass(frozen=True)
class TaskChoice:
    """One policy decision: run this task on the heartbeating tracker.

    ``speculative`` marks a duplicate attempt of an already-running task
    (straggler mitigation) rather than a pick from the pending queue.
    """

    job_id: int
    kind: TaskKind
    task_id: int
    speculative: bool = False


@dataclass(frozen=True)
class PreemptChoice:
    """One policy decision: kill this running attempt and requeue its task.

    Unlike :class:`TaskChoice`, a preemption names a *specific attempt*
    (tracker + attempt number), because a speculated task can be running
    in two places and the policy chooses which copy dies. The JobTracker
    issues the kill on the victim tracker's next exchange, retires the
    attempt's accounting immediately, and re-enqueues the task exactly
    once — only when no other attempt of it remains live.
    """

    job_id: int
    kind: TaskKind
    task_id: int
    tracker_id: int
    attempt: int


class AssignmentBatch:
    """In-batch bookkeeping while a policy builds one heartbeat's choices.

    The JobTracker applies choices only after ``assign`` returns, so the
    view does not reflect earlier picks from the same batch. This tracker
    keeps the picks self-consistent: a task chosen from the queue cannot
    be chosen again, a task speculated once cannot be speculated twice,
    and fair-share load counts include in-batch launches.
    """

    __slots__ = ("choices", "taken", "extra_running", "_taken_maps", "_taken_reduces")

    #: Shared empty set the per-job accessors return for untouched jobs,
    #: so the (overwhelmingly common) no-pick-yet case allocates nothing.
    _EMPTY: ClassVar[frozenset] = frozenset()

    def __init__(self) -> None:
        self.choices: list[TaskChoice] = []
        self.taken: set[tuple[int, TaskKind, int]] = set()
        self.extra_running: dict[int, int] = {}
        # Per-(job, kind) plain-int mirrors of ``taken``: the pick loops
        # probe these instead of building a (jid, kind, tid) tuple and
        # hashing a TaskKind per pending task.
        self._taken_maps: dict[int, set[int]] = {}
        self._taken_reduces: dict[int, set[int]] = {}

    def add(self, choice: TaskChoice) -> TaskChoice:
        self.choices.append(choice)
        self.taken.add((choice.job_id, choice.kind, choice.task_id))
        by_job = self._taken_maps if choice.kind is TaskKind.MAP else self._taken_reduces
        ids = by_job.get(choice.job_id)
        if ids is None:
            ids = by_job[choice.job_id] = set()
        ids.add(choice.task_id)
        self.extra_running[choice.job_id] = self.extra_running.get(choice.job_id, 0) + 1
        return choice

    def taken_maps(self, job_id: int):
        """Map task ids already picked for ``job_id`` in this batch."""
        return self._taken_maps.get(job_id) or self._EMPTY

    def taken_reduces(self, job_id: int):
        """Reduce task ids already picked for ``job_id`` in this batch."""
        return self._taken_reduces.get(job_id) or self._EMPTY

    def running_count(self, job: "JobView") -> int:
        """The job's live attempts including this batch's picks."""
        return job.running_attempt_count + self.extra_running.get(job.job_id, 0)


# --------------------------------------------------------------------------- #
# Shared decision primitives (the extracted JobTracker logic)                  #
# --------------------------------------------------------------------------- #


def pick_pending_map(
    job: "JobView",
    tracker_id: int,
    batch: AssignmentBatch,
    pending: Optional[Sequence[int]] = None,
) -> Optional[int]:
    """Locality-first FIFO pick among the job's untaken pending maps.

    Exactly the pre-refactor rule: first a split whose preferred nodes
    include this tracker's blade, otherwise the head of the queue.
    ``pending`` lets a policy reuse one snapshot of the queue across a
    batch instead of re-copying it per slot.
    """
    if pending is None:
        pending = job.pending_maps
    taken = batch.taken_maps(job.job_id)
    if not job.has_locality:
        # No map task has a split, so the locality probe can never hit:
        # the answer is always the first untaken pending id.
        for task_id in pending:
            if task_id not in taken:
                return task_id
        return None
    if job.pending_maps_sorted and pending is job.pending_maps:
        # Ascending queue: first-in-queue-order == smallest id, so the
        # locality probe can walk this tracker's few candidates instead
        # of the whole queue (O(replication) vs O(pending)).
        candidates = job.local_candidates.get(tracker_id)
        if candidates:
            pending_set = job.pending_map_set
            for task_id in candidates:
                if task_id in pending_set and task_id not in taken:
                    return task_id
        for task_id in pending:
            if task_id not in taken:
                return task_id
        return None
    lookup = job.preferred_lookup
    head: Optional[int] = None
    for task_id in pending:
        if task_id in taken:
            continue
        if head is None:
            head = task_id
        preferred = lookup.get(task_id)
        if preferred and tracker_id in preferred:
            return task_id
    return head


def pick_speculative_map(
    job: "JobView",
    tracker_id: int,
    now: float,
    batch: AssignmentBatch,
) -> Optional[int]:
    """Duplicate the longest-running map that looks like a straggler.

    The pre-refactor criteria, verbatim: only single-attempt running
    maps, never onto the node already running it, only once elapsed time
    exceeds 1.5x the mean duration of completed maps.
    """
    done = job.done_map_durations()
    if not done:
        return None
    mean = sum(done) / len(done)
    taken = batch.taken_maps(job.job_id)
    best_id: Optional[int] = None
    best_elapsed = 0.0
    for task_id, attempts in job.running_map_attempts():
        if task_id in taken:
            continue  # already picked (or duplicated) in this batch
        if len(attempts) != 1:
            continue  # already duplicated (or lost)
        if attempts[0].tracker_id == tracker_id:
            continue  # don't duplicate onto the same node
        elapsed = now - attempts[0].start_time
        if elapsed > 1.5 * mean and elapsed > best_elapsed and not math.isnan(mean):
            best_id, best_elapsed = task_id, elapsed
    return best_id


def pick_pending_reduce(
    job: "JobView",
    batch: AssignmentBatch,
) -> Optional[int]:
    """Head-of-queue reduce pick, gated on the map phase finishing."""
    if not job.maps_all_done:
        return None
    taken = batch.taken_reduces(job.job_id)
    for task_id in job.pending_reduces:
        if task_id not in taken:
            return task_id
    return None


def fill_job_map_slots(
    job: "JobView",
    tracker_id: int,
    now: float,
    batch: AssignmentBatch,
    free_maps: int,
) -> int:
    """Feed one job map work until it runs dry or the slots do.

    The per-job inner loop every queue-ordering policy shares: pending
    picks first (locality-aware), then — only with an empty queue and
    speculation enabled — straggler duplicates. Returns the number of
    slots consumed.
    """
    used = 0
    pending = job.pending_maps
    jid = job.job_id
    while used < free_maps:
        task_id = pick_pending_map(job, tracker_id, batch, pending=pending)
        speculative = False
        if task_id is None and job.speculative:
            task_id = pick_speculative_map(job, tracker_id, now, batch)
            speculative = True
        if task_id is None:
            break
        batch.add(TaskChoice(jid, TaskKind.MAP, task_id, speculative=speculative))
        used += 1
    return used


def fill_job_reduce_slots(
    job: "JobView",
    batch: AssignmentBatch,
    free_reduces: int,
) -> int:
    """Feed one job reduce work until it runs dry or the slots do."""
    used = 0
    while used < free_reduces:
        task_id = pick_pending_reduce(job, batch)
        if task_id is None:
            break
        batch.add(TaskChoice(job.job_id, TaskKind.REDUCE, task_id))
        used += 1
    return used


# --------------------------------------------------------------------------- #
# The policy interface + registry                                              #
# --------------------------------------------------------------------------- #


class Scheduler(ABC):
    """Base class for task-placement policies.

    Subclasses set ``name`` (the registry key surfaced through
    ``JobConf.scheduler``, ``--scheduler`` and the scenario grids) and
    implement :meth:`assign`.
    """

    name: ClassVar[str] = ""

    @abstractmethod
    def assign(self, view: "ClusterView", hb: "Heartbeat") -> list[TaskChoice]:
        """Decide every task launched in reply to one heartbeat.

        Must return at most ``hb.free_map_slots`` map choices and
        ``hb.free_reduce_slots`` reduce choices; each choice must be
        honorable (pending, or a valid speculation target). The
        JobTracker validates and raises :class:`SchedulerError` on
        violations.

        A preempting policy may interleave :class:`PreemptChoice`
        entries in the returned list; each must name a live attempt
        (visible through ``JobView.running_map_attempts``) or the
        JobTracker raises :class:`SchedulerError` at apply time.
        Preemptions do not count against the slot budget — they *free*
        slots on another tracker.
        """

    def on_membership_change(
        self,
        view: "ClusterView",
        joined: Sequence[int] = (),
        lost: Sequence[int] = (),
    ) -> None:
        """Membership-change notification (elastic clusters, node loss).

        Called by the JobTracker after a tracker registers at runtime or
        is declared lost, *after* ``_membership_epoch`` was bumped — so
        ``view`` already reflects the new membership. Policies use this
        to drop state keyed on departed trackers or to re-arm
        locality/affinity patience; the default is a no-op. Must not
        mutate anything reachable through the view.
        """

    def describe(self) -> str:
        """One-line human description (CLI listing)."""
        doc = (self.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else self.name

    # -- decision counters ---------------------------------------------------
    def _bump_counter(self, key: str, amount: int = 1) -> None:
        """Tally a policy-internal decision (e.g. a delay-scheduling
        wait). Surfaced next to the JobTracker's mechanism counters via
        :meth:`JobTracker.decision_counters`."""
        counters = getattr(self, "_counters", None)
        if counters is None:
            counters = self._counters = {}
        counters[key] = counters.get(key, 0) + amount

    def decision_counters(self) -> dict[str, int]:
        """Policy-internal decision tallies (empty unless the policy
        counts something)."""
        return dict(getattr(self, "_counters", {}) or {})

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


_REGISTRY: dict[str, type[Scheduler]] = {}


def register_scheduler(cls: type[Scheduler]) -> type[Scheduler]:
    """Class decorator: expose a policy under ``cls.name``."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"scheduler {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def scheduler_names() -> list[str]:
    """Public policy names (underscore-prefixed registrations — test
    doubles, experiments — stay resolvable but unlisted)."""
    _ensure_builtins()
    return sorted(n for n in _REGISTRY if not n.startswith("_"))


def resolve_scheduler(
    spec: Union[None, str, Scheduler, type[Scheduler]],
) -> Scheduler:
    """Turn a policy spec into a live policy instance.

    ``None`` means the default (FIFO — the paper's Hadoop 0.19
    behaviour); a string resolves through the registry; an instance
    passes through; a class is instantiated.
    """
    _ensure_builtins()
    if spec is None:
        spec = "fifo"
    if isinstance(spec, Scheduler):
        return spec
    if isinstance(spec, type) and issubclass(spec, Scheduler):
        return spec()
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]()
        except KeyError:
            raise KeyError(
                f"unknown scheduler {spec!r}; known: {', '.join(scheduler_names())}"
            ) from None
    raise TypeError(f"cannot resolve scheduler from {spec!r}")


def _ensure_builtins() -> None:
    # Deferred so policy modules can `import repro.sched.base` to
    # self-register without a circular import.
    from repro.sched import accel, fair, fifo, locality  # noqa: F401
