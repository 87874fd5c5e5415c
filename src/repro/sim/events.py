"""Event primitives for the discrete-event engine.

Events move through three states: *pending* (created but not scheduled),
*triggered* (scheduled on the event heap with a value), and *processed*
(callbacks have run). Processes are themselves events that trigger when
their generator terminates, which is what makes ``yield process`` a join.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
]


class Interrupt(Exception):
    """Raised inside a process generator when another process interrupts it.

    The ``cause`` is whatever object the interrupter passed, typically a
    short human-readable reason string or a structured failure record.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Interrupt({self.cause!r})"


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event may carry a *value* (delivered as the result of a ``yield``)
    or an exception (raised at the ``yield`` site of every waiter).
    """

    __slots__ = ("env", "callbacks", "_value", "_exc", "_triggered", "_processed", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value/exception."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once all callbacks have been invoked."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (no exception)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise RuntimeError("value accessed before event was triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    def defused(self) -> "Event":
        """Mark a failed event as handled so it does not crash the run.

        An event that triggers with an exception and has no waiters would
        otherwise propagate out of :meth:`Environment.run`.
        """
        self._defused = True
        return self

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._value = value
        self._triggered = True
        # Inlined Environment.schedule (hot path: every grant/put/get).
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now, Environment_NORMAL, seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception raised at every waiter."""
        if self._triggered:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exc = exc
        self._triggered = True
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now, Environment_NORMAL, seq, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Chain-trigger: mirror another (already triggered) event."""
        if event._exc is not None:
            self.fail(event._exc)
        else:
            self.succeed(event._value)

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        delay = float(delay)
        # Inlined Event.__init__ + Environment.schedule: timeouts are the
        # dominant event class, so construction is the hottest allocation
        # site in the whole simulator.
        self.env = env
        self.callbacks = []
        self.delay = delay
        self._value = value
        self._exc = None
        self._triggered = True
        self._processed = False
        self._defused = False
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now + delay, Environment_NORMAL, seq, self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Internal event used to start a process at its creation time.

    Sets itself as the process's resume target so the lazy-cancellation
    check in :meth:`Process._resume` accepts the initial wakeup. With
    ``schedule=False`` the event is created but not placed on the heap —
    :meth:`Environment.start_processes` batch-schedules those.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process", schedule: bool = True):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._value = None
        self._triggered = True
        process._target = self
        if schedule:
            env.schedule(self, priority=Environment_URGENT)


# Priority constants shared with the engine (kept here to avoid a cycle).
Environment_URGENT = 0
Environment_NORMAL = 1


class Process(Event):
    """A running generator; also an event that triggers on termination.

    The generator yields :class:`Event` instances. When a yielded event
    triggers, the generator is resumed with the event's value (or the
    event's exception is thrown into it).
    """

    __slots__ = ("gen", "name", "_target")

    def __init__(
        self,
        env: "Environment",
        gen: Generator,
        name: Optional[str] = None,
        start: bool = True,
    ):
        if not hasattr(gen, "throw"):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        super().__init__(env)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None
        env._procs[self] = None
        if start:
            Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a terminated process is an error. Interrupting a
        process that is waiting on an event detaches it *lazily*: instead
        of an O(n) scan of the event's callback list, the target pointer
        is tombstoned (cleared) and :meth:`_resume` drops the stale
        wakeup when the abandoned event eventually fires.
        """
        if self._triggered:
            raise RuntimeError(f"cannot interrupt dead process {self.name!r}")
        target = self._target
        if target is not None and target.__class__ is not Initialize:
            # Tombstone: the stale subscription stays on the event and is
            # discarded at dispatch (the event no longer matches _target).
            # A not-yet-started process keeps its Initialize target so the
            # interrupt is delivered right after the generator starts,
            # matching eager-cancellation semantics.
            self._target = None
        failed = Event(self.env)
        failed._value = None
        failed._exc = Interrupt(cause)
        failed._triggered = True
        failed.callbacks.append(self._deliver_interrupt)
        self.env.schedule(failed, priority=Environment_URGENT)

    # -- engine interface ---------------------------------------------------
    def _deliver_interrupt(self, event: Event) -> None:
        """Resume with an interrupt, bypassing the stale-wakeup check.

        If the process died between the ``interrupt()`` call and this
        delivery (e.g. an earlier same-instant interrupt made it exit),
        the interrupt is dropped — there is no frame left to throw into.
        """
        if self._triggered:
            event._defused = True
            return
        self._target = event
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the triggered event's outcome.

        This is the hottest function in the simulator (one call per
        process wakeup).
        """
        if event is not self._target:
            # Stale wakeup from an event this process was lazily detached
            # from (see interrupt()); the exception, if any, stays
            # un-defused exactly as under eager callback removal.
            return
        env = self.env
        env._active_proc = self
        self._target = None
        try:
            if event._exc is None:
                nxt = self.gen.send(event._value)
            else:
                event._defused = True
                nxt = self.gen.throw(event._exc)
        except StopIteration as stop:
            env._active_proc = None
            env._procs.pop(self, None)
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_proc = None
            env._procs.pop(self, None)
            self.fail(exc)
            return
        # Dominant continuation inlined: a fresh pending event in this
        # environment — subscribe without a second call frame.
        if isinstance(nxt, Event) and nxt.env is env and not nxt._processed:
            nxt.callbacks.append(self._resume)
            self._target = nxt
            env._active_proc = None
            return
        self._after_yield(nxt)

    def _after_yield(self, nxt: Any) -> None:
        """Handle a just-yielded value (``env._active_proc`` is set).

        Subscribes to a pending event, loops through already-processed
        events without a scheduler trip, and converts bad yields into
        process failures.
        """
        env = self.env
        gen = self.gen
        while True:
            if isinstance(nxt, Event) and nxt.env is env:
                if not nxt._processed:
                    nxt.callbacks.append(self._resume)
                    self._target = nxt
                    env._active_proc = None
                    return
                # Already resolved: advance immediately.
                try:
                    if nxt._exc is None:
                        nxt = gen.send(nxt._value)
                    else:
                        nxt._defused = True
                        nxt = gen.throw(nxt._exc)
                except StopIteration as stop:
                    env._active_proc = None
                    env._procs.pop(self, None)
                    self.succeed(stop.value)
                    return
                except BaseException as exc:
                    env._active_proc = None
                    env._procs.pop(self, None)
                    self.fail(exc)
                    return
                continue
            env._active_proc = None
            env._procs.pop(self, None)
            if not isinstance(nxt, Event):
                self.fail(TypeError(f"process {self.name!r} yielded non-event {nxt!r}"))
            else:
                self.fail(RuntimeError("yielded event belongs to a different Environment"))
            return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'dead' if self._triggered else 'alive'}>"


class ConditionValue:
    """Ordered mapping of the events a condition collected, with values."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event._value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self.todict()!r}>"


class _Condition(Event):
    """Base for AllOf / AnyOf composition events."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for evt in self._events:
            if evt.env is not env:
                raise ValueError("all events must share one Environment")
        # Evaluate immediately for already-processed events; subscribe to rest.
        for evt in self._events:
            if evt._processed:
                self._check(evt)
            else:
                evt.callbacks.append(self._check)
        if not self._events and not self._triggered:
            self.succeed(ConditionValue())

    def _check(self, event: Event) -> None:
        if self._triggered:
            if event._exc is not None:
                event._defused = True
            return
        self._count += 1
        if event._exc is not None:
            event._defused = True
            self.fail(event._exc)
        elif self._evaluate():
            value = ConditionValue()
            value.events = [e for e in self._events if e._triggered and e._exc is None]
            self.succeed(value)

    def _evaluate(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every component event has triggered successfully."""

    __slots__ = ()

    def _evaluate(self) -> bool:
        return self._count >= len(self._events)


class AnyOf(_Condition):
    """Triggers when at least one component event has triggered."""

    __slots__ = ()

    def _evaluate(self) -> bool:
        return self._count >= 1 or not self._events
