"""The simkit :class:`Environment`: event queue and simulation loop."""

from __future__ import annotations

import heapq
from typing import Any, Generator, Optional

from .events import (
    PENDING,
    AllOf,
    AnyOf,
    Event,
    Process,
    Timeout,
)

__all__ = ["Environment", "EmptySchedule"]

#: Scheduling priorities.  URGENT events (interrupts) jump the queue at a
#: given timestamp; NORMAL events preserve FIFO order via a sequence
#: counter.
URGENT = 0
NORMAL = 1


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


#: Bit position at which the scheduling priority is folded into the heap
#: tie-break key: ``key = seq + (priority << _PRIORITY_SHIFT)``.  URGENT
#: (0) events therefore sort below NORMAL (1) events at equal timestamps,
#: and within a priority the insertion sequence preserves FIFO order.
#: 2**52 insertions per simulation is far beyond any realistic run.
_PRIORITY_SHIFT = 52


class Environment:
    """A discrete-event simulation environment with a virtual clock.

    The environment owns a priority queue of ``(time, key, event)``
    triples, where ``key`` folds the scheduling priority and an insertion
    counter into a single integer (see :data:`_PRIORITY_SHIFT`) -- one
    fewer tuple slot to allocate and compare per event than the classic
    ``(time, priority, seq, event)`` layout.  :meth:`run` pops events in
    order, advances ``now`` and invokes callbacks.  Determinism: ties at
    the same timestamp are broken by priority then by insertion order, so
    a seeded simulation replays identically.
    """

    __slots__ = ("_now", "_queue", "_eid", "_active_process")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None

    # -- inspection ------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def active_process_generator(self):
        proc = self._active_process
        return proc._generator if proc is not None else None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def __len__(self) -> int:
        return len(self._queue)

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> Event:
        """Event that fires once all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events) -> Event:
        """Event that fires once any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._eid += 1
        heapq.heappush(
            self._queue,
            (self._now + delay, self._eid + (priority << _PRIORITY_SHIFT), event),
        )

    # -- execution -----------------------------------------------------------
    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` if the queue is empty, and
        re-raises the exception of any failed event that no process
        defused (mirrors SimPy's crash-on-unhandled-failure semantics).
        """
        try:
            when, _key, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None

        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if event._ok is False and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        * ``until=None`` -- run until no events remain.
        * ``until=<number>`` -- run until the clock reaches that time.
        * ``until=<Event>`` -- run until the event fires; returns its
          value (raises its exception if it failed).
        """
        if until is None:
            try:
                while True:
                    self.step()
            except EmptySchedule:
                return None

        if isinstance(until, Event):
            stop = until
            while not stop.triggered:
                try:
                    self.step()
                except EmptySchedule:
                    raise RuntimeError(
                        f"no more events scheduled but {stop!r} never fired"
                    ) from None
            # Drain remaining events at the trigger timestamp so the
            # event is also processed.
            while not stop.processed and self._queue:
                self.step()
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(
                f"until ({horizon}) must not be before current time ({self._now})"
            )
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self._now = horizon
        return None

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={len(self._queue)}>"
