"""Event primitives for the simkit discrete-event simulation kernel.

simkit is a from-scratch replacement for SimPy (the paper's simulation
model was written against SimPy 2.3, which is not available in this
environment).  The kernel follows the SimPy-3 style API: an
:class:`~reference.simkit.core.Environment` owns a priority event queue,
processes are Python generators that ``yield`` events, and resources
hand out request/release events.

Only the features the Borg master-slave simulation model needs are
implemented -- timeouts, process joining, condition events, interrupts
and FIFO resources -- but they are implemented completely enough to be
reusable as a general-purpose kernel.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "Process",
    "ConditionEvent",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "StopProcess",
]


class _Pending:
    """Sentinel for the value of an event that has not been triggered."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


#: Unique sentinel object marking an untriggered event's value.
PENDING = _Pending()


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the (arbitrary) object passed to
    :meth:`Process.interrupt`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class StopProcess(Exception):
    """Raised to exit a process early with a return value."""

    @property
    def value(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """An event that may happen at some point in simulated time.

    Events progress through three states:

    * *pending* -- created but not yet triggered;
    * *triggered* -- a value (or exception) has been set and the event
      has been scheduled on the environment's queue;
    * *processed* -- the environment has popped the event and run its
      callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self.env = env
        #: Callables invoked with this event when it is processed.  Set
        #: to ``None`` once processed (late callbacks are invoked
        #: immediately).
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or exception has been set."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    def defused(self) -> bool:
        """True if a failed event's exception was handled by a process."""
        return self._defused

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on this
        event; if no process handles it, it propagates out of
        :meth:`Environment.run`.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror the state of another (triggered) event onto this one."""
        if event._ok:
            self.succeed(event._value)
        else:
            self._defused = True
            self.fail(event._value)

    # -- callback management --------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback``; runs immediately if already processed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay in simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class Initialize(Event):
    """Internal event used to start a process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:  # noqa: F821
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self)


class Process(Event):
    """Wraps a generator; the process is itself an event that fires when
    the generator exits (its value is the generator's return value).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator, name: Optional[str] = None) -> None:  # noqa: F821
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on.
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not exited."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The process stops waiting on its current target (the target
        event itself is unaffected and may fire later) and resumes with
        the exception raised at its current ``yield``.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated; cannot interrupt")
        if self._generator is self.env.active_process_generator:
            raise RuntimeError("a process is not allowed to interrupt itself")
        # Unsubscribe from the current target: if it fires later it must
        # not resume this (already-resumed, possibly finished) process.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        event = Event(self.env)
        event._ok = False
        event._defused = True
        event._value = Interrupt(cause)
        event.callbacks.append(self._resume)
        self.env._schedule(event, priority=0)

    # -- engine ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the value of ``event``."""
        if not self.is_alive:
            # A stale wake-up (e.g. the pre-interrupt target firing after
            # the process already exited); nothing to do.
            if not event._ok:
                event._defused = True
            return
        env = self.env
        env._active_process = self

        while True:
            if event._ok:
                try:
                    next_event = self._generator.send(event._value)
                except StopIteration as exc:
                    env._active_process = None
                    self._target = None
                    self.succeed(exc.value)
                    return
                except StopProcess as exc:
                    env._active_process = None
                    self._target = None
                    self.succeed(exc.value)
                    return
                except BaseException as exc:
                    env._active_process = None
                    self._target = None
                    self.fail(exc)
                    return
            else:
                # Propagate the failure into the generator so it can
                # handle it (mark as defused: the process saw it).
                event._defused = True
                exc = event._value
                try:
                    next_event = self._generator.throw(type(exc), exc)
                except StopIteration as stop:
                    env._active_process = None
                    self._target = None
                    self.succeed(stop.value)
                    return
                except StopProcess as stop:
                    env._active_process = None
                    self._target = None
                    self.succeed(stop.value)
                    return
                except BaseException as err:
                    env._active_process = None
                    self._target = None
                    self.fail(err)
                    return

            if not isinstance(next_event, Event):
                env._active_process = None
                self._target = None
                self.fail(
                    TypeError(
                        f"process {self.name!r} yielded a non-event: "
                        f"{next_event!r}"
                    )
                )
                return

            if next_event.callbacks is None:
                # Already processed: continue immediately with its value.
                event = next_event
                continue

            self._target = next_event
            next_event.callbacks.append(self._resume)
            break

        env._active_process = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class ConditionEvent(Event):
    """Composite event over several sub-events.

    ``evaluate`` receives (events, triggered_count) and returns True when
    the condition is satisfied.  The condition's value is a dict mapping
    each *triggered* sub-event to its value.
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        if not self._events:
            self.succeed({})
            return

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.add_callback(self._check)

    def _collect_values(self) -> dict[Event, Any]:
        # Timeouts carry their value from creation ("triggered"), so
        # only *processed* events -- ones that have actually fired in
        # simulated time -- belong in the condition's value.
        return {
            event: event._value
            for event in self._events
            if event.processed and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())


def AllOf(env: "Environment", events: Iterable[Event]) -> ConditionEvent:  # noqa: F821
    """Condition event that fires once *all* ``events`` have fired."""
    return ConditionEvent(env, lambda events, count: count == len(events), events)


def AnyOf(env: "Environment", events: Iterable[Event]) -> ConditionEvent:  # noqa: F821
    """Condition event that fires once *any* of ``events`` has fired."""
    return ConditionEvent(env, lambda events, count: count >= 1, events)
