"""Shared resources for simkit processes.

The Borg master-slave simulation model (paper §IV-B) represents the
master node as a contended resource: workers *request* the master, the
master is *held* for ``2*TC + TA`` to model communication plus
processing, then *released*.  :class:`Resource` implements exactly these
request/hold/release semantics with a FIFO wait queue, plus the
utilisation and queue-length accounting the experiments need.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .core import Environment
from .events import Event

__all__ = ["Request", "Release", "Resource"]


class Request(Event):
    """Request for one slot of a :class:`Resource`.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            yield env.timeout(service_time)
    """

    __slots__ = ("resource", "time_requested", "time_granted")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.time_requested = resource.env.now
        self.time_granted: Optional[float] = None
        resource._do_request(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request from the wait queue."""
        if not self.triggered:
            self.resource._cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        if self.triggered and self._ok:
            self.resource.release(self)
        else:
            self.cancel()


class Release(Event):
    """Event that fires once a slot has been handed back."""

    __slots__ = ("resource", "request")

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        resource._do_release(self)


class Resource:
    """A resource with ``capacity`` slots and a FIFO wait queue.

    Tracks aggregate statistics needed by the scalability experiments:

    * ``busy_time`` -- total slot-seconds the resource was held, from
      which utilisation is derived;
    * ``total_wait`` / ``granted_count`` -- mean queueing delay;
    * ``max_queue_length`` -- peak contention.
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        # A deque keeps FIFO grants O(1); at paper-scale P (thousands of
        # queued workers) a list's pop(0) turns every release into an
        # O(P) shift.
        self.queue: "deque[Request]" = deque()

        # -- statistics --
        self.busy_time = 0.0
        self.total_wait = 0.0
        self.granted_count = 0
        self.max_queue_length = 0
        self._busy_since: Optional[float] = None

    # -- public API -------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of waiting requests."""
        return len(self.queue)

    def request(self) -> Request:
        """Request a slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Release the slot held by ``request``."""
        return Release(self, request)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of capacity-time spent busy over ``elapsed`` (defaults
        to the current simulation clock)."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += (self.env.now - self._busy_since) * len(self.users)
        horizon = self.env.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return busy / (horizon * self.capacity)

    def mean_wait(self) -> float:
        """Mean time a granted request spent queued."""
        if self.granted_count == 0:
            return 0.0
        return self.total_wait / self.granted_count

    # -- internals ----------------------------------------------------------
    def _account_busy_change(self, delta_users: int) -> None:
        """Update busy_time bookkeeping when user count changes."""
        now = self.env.now
        if self._busy_since is not None:
            self.busy_time += (now - self._busy_since) * (len(self.users) - delta_users)
        self._busy_since = now if self.users else None

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        self._account_busy_change(+1)
        request.time_granted = self.env.now
        self.total_wait += request.time_granted - request.time_requested
        self.granted_count += 1
        request.succeed(request)

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self._grant(request)
        else:
            self.queue.append(request)
            if len(self.queue) > self.max_queue_length:
                self.max_queue_length = len(self.queue)

    def _do_release(self, release: Release) -> None:
        request = release.request
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError(
                f"{request!r} does not hold a slot of this resource"
            ) from None
        self._account_busy_change(-1)
        self._pop_queue()
        release.succeed(release)

    def _pop_queue(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            self._grant(self.queue.popleft())

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} capacity={self.capacity} "
            f"users={len(self.users)} queued={len(self.queue)}>"
        )
