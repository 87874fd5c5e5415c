"""The simulation event loop.

:class:`Environment` owns the virtual clock and the event heap. Events are
ordered by ``(time, priority, sequence)`` so that simultaneous events run
in a deterministic FIFO order — determinism is a hard requirement for the
reproduction benchmarks (same seed, same schedule, same numbers).

Engine internals (see ``docs/PERFORMANCE.md`` for the full contract):

- :meth:`Environment.run` processes one event per :meth:`step` call;
  every event class and every waiter goes through the same dispatch.
- :meth:`composite_timeout` collapses a deterministic chain of pure
  delays into one event; :meth:`schedule_many` batch-pushes events and
  backs :meth:`start_processes`.
- :meth:`capture_trace` records the ``(time, priority, seq,
  event-class)`` trace; ``tests/sim/data/frozen_traces.json`` pins its
  sha256 for fixed programs, and ``benchmarks/run_perf.py`` checks it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Iterable, Optional

from repro.sim.events import (
    AllOf,
    AnyOf,
    Environment_NORMAL,
    Environment_URGENT,
    Event,
    Initialize,
    Process,
    Timeout,
)

__all__ = ["Environment", "SimulationError"]

#: There is one event loop; ``perfbench/run.py`` records this constant.
REFERENCE_MODE = False


class SimulationError(RuntimeError):
    """Raised for structural simulation errors (deadlock, bad run bound)."""


class _StopFlag:
    """Reusable bound flag for ``run(until=Event)``.

    Appending one shared callable object instead of a fresh closure per
    call keeps tight driver loops (one ``run()`` per job) allocation-free.
    """

    __slots__ = ("done",)

    def __init__(self) -> None:
        self.done = False

    def __call__(self, _event: Event) -> None:
        self.done = True


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock (seconds by convention
        throughout this project).

    Notes
    -----
    The engine is single-threaded and fully deterministic: ties in time
    are broken by scheduling priority, then by a monotonically increasing
    sequence number.
    """

    URGENT = Environment_URGENT
    NORMAL = Environment_NORMAL

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_proc: Optional[Process] = None
        self._processed_count = 0
        self._trace: Optional[list[tuple[float, int, int, str]]] = None
        self._until_flag: Optional[_StopFlag] = _StopFlag()

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (monitoring aid)."""
        return self._processed_count

    # -- event tracing -----------------------------------------------------------
    def capture_trace(self, sink: Optional[list] = None) -> list:
        """Record ``(time, priority, seq, event-class-name)`` per processed
        event into ``sink`` (a fresh list if omitted) and return it.

        The trace is the engine's determinism contract: the same program
        must always produce the same trace. Tracing costs one branch per
        event.
        """
        self._trace = [] if sink is None else sink
        return self._trace

    def stop_trace(self) -> None:
        """Stop recording processed events."""
        self._trace = None

    # -- event factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def composite_timeout(self, *delays: float, value: Any = None) -> Timeout:
        """One event covering a chain of deterministic delay phases.

        Collapses ``timeout(d1); timeout(d2); ...`` — a multi-phase
        compute chain with nothing observing the phase boundaries — into
        a single scheduled event.
        """
        total = 0.0
        for d in delays:
            if d < 0:
                raise ValueError(f"negative timeout delay: {d}")
            total += d
        return Timeout(self, total, value)

    def process(self, gen: Generator, name: Optional[str] = None, start: bool = True) -> Process:
        """Start a new process from generator ``gen``.

        With ``start=False`` the process is created but its initial
        resume is not scheduled; pass it to :meth:`start_processes` to
        batch-schedule several starts with one heap pass.
        """
        return Process(self, gen, name=name, start=start)

    def all_of(self, events) -> AllOf:
        """Event that triggers when all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place a triggered event on the heap ``delay`` from now."""
        self._seq += 1
        heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def schedule_many(
        self, events: Iterable[Event], delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Batch-schedule triggered events sharing one delay and priority.

        Sequence numbers are assigned in iteration order, so this is
        trace-identical to calling :meth:`schedule` in a loop — it only
        hoists the per-call attribute traffic out of the loop.
        """
        t = self._now + delay
        heap = self._heap
        seq = self._seq
        for event in events:
            seq += 1
            heappush(heap, (t, priority, seq, event))
        self._seq = seq

    def start_processes(self, procs: Iterable[Process]) -> None:
        """Batch-schedule the initial resume of processes created with
        ``start=False`` (same trace as starting each one eagerly)."""
        self.schedule_many(
            [Initialize(self, p, schedule=False) for p in procs],
            priority=Environment_URGENT,
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event.

        Raises
        ------
        SimulationError
            If the heap is empty.
        """
        if not self._heap:
            raise SimulationError("no more events to process")
        t, prio, seq, event = heappop(self._heap)
        if t < self._now:  # pragma: no cover - defensive; cannot happen
            raise SimulationError(f"time went backwards: {t} < {self._now}")
        self._now = t
        if self._trace is not None:
            self._trace.append((t, prio, seq, event.__class__.__name__))
        callbacks, event.callbacks = event.callbacks, []
        event._processed = True
        self._processed_count += 1
        for cb in callbacks:
            cb(event)
        if event._exc is not None and not event._defused:
            # Unhandled failure: nobody waited on this event.
            raise event._exc

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the heap drains.
            a number — run until the clock reaches that time.
            an :class:`Event` — run until that event is processed and
            return its value.
        """
        heap = self._heap
        step = self.step
        if until is None:
            while heap:
                step()
            return None

        if isinstance(until, Event):
            target = until
            if target._processed:
                return target._value if target._exc is None else _reraise(target._exc)
            # Reuse one bound flag object instead of allocating a
            # sentinel closure per call (nested runs get a fresh flag).
            flag = self._until_flag
            if flag is None:
                flag = _StopFlag()
            else:
                self._until_flag = None
            flag.done = False
            target.callbacks.append(flag)
            try:
                while not flag.done:
                    if not heap:
                        raise SimulationError(
                            f"simulation ran out of events before {target!r} triggered "
                            "(deadlock: a process is waiting on an event nobody will fire)"
                        )
                    step()
            finally:
                if not flag.done:
                    # Exceptional exit (propagated failure or deadlock):
                    # unsubscribe before pooling the flag, or a later
                    # run(until=...) could be stopped early by this stale
                    # subscription firing.
                    try:
                        target.callbacks.remove(flag)
                    except ValueError:  # pragma: no cover - defensive
                        pass
                self._until_flag = flag
            return target._value if target._exc is None else _reraise(target._exc)

        stop_at = float(until)
        if stop_at < self._now:
            raise SimulationError(f"run(until={stop_at}) is in the past (now={self._now})")
        while heap and heap[0][0] <= stop_at:
            step()
        self._now = stop_at
        return None


def _reraise(exc: BaseException) -> Any:
    raise exc
