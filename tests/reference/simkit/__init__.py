"""simkit: a from-scratch discrete-event simulation kernel.

A SimPy-3-style API (the paper used SimPy 2.3, unavailable here): a
virtual-clock :class:`Environment`, generator-based processes,
timeouts, condition events, interrupts and contended FIFO resources.
It runs the executable specification of the paper's §IV-B simulation
model (:mod:`reference.simmodel`) and the frozen churn model
(:mod:`reference.faults`); production runs the FIFO-master recurrence
of :mod:`repro.models.fastsim` and :mod:`repro.models.faults` instead.

Quick example::

    from reference.simkit import Environment, Resource

    env = Environment()
    master = Resource(env, capacity=1)

    def worker(env, master):
        with master.request() as req:
            yield req                 # wait for the master
            yield env.timeout(0.01)   # hold it while it processes
        return env.now

    procs = [env.process(worker(env, master)) for _ in range(4)]
    env.run()
"""

from .core import EmptySchedule, Environment
from .events import (
    AllOf,
    AnyOf,
    ConditionEvent,
    Event,
    Interrupt,
    Process,
    StopProcess,
    Timeout,
)
from .resources import Release, Request, Resource

__all__ = [
    "Environment",
    "EmptySchedule",
    "Event",
    "Timeout",
    "Process",
    "ConditionEvent",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "StopProcess",
    "Resource",
    "Request",
    "Release",
]
