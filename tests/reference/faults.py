"""Frozen discrete-event churn model (oracle for the event-heap
:func:`repro.models.faults.simulate_async_with_failures`).

Each worker is a simkit process cycling through the master
:class:`~reference.simkit.Resource`, and a killer process per worker
throws an :class:`~reference.simkit.Interrupt` into it at each sampled
failure instant.  With ``repair=None`` a dead pool reports ``elapsed``
at the last event left on the clock, which is the dead workers' last
failure draw rather than the last death; ``repair=math.inf`` never
returns.

Failure semantics:

* a worker fails after an Exponential(mtbf) up-time, losing whatever
  evaluation it was running (the master re-generates on demand);
* it recovers after an Exponential(repair) down-time, if ``repair`` is
  finite, and asks the master for fresh work; with ``repair=None``
  failures are permanent and a fully-dead pool ends the run early.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.faults import FaultyOutcome
from repro.stats.timing import TimingModel, TimingSampler

from .simkit import Environment, Interrupt, Resource

__all__ = ["simulate_async_with_failures"]


def simulate_async_with_failures(
    processors: int,
    max_nfe: int,
    timing: TimingModel,
    mtbf: float,
    repair: Optional[float] = None,
    seed: Optional[int] = None,
) -> FaultyOutcome:
    """Asynchronous master-slave simulation with worker churn.

    Parameters
    ----------
    mtbf:
        Mean worker up-time (seconds of virtual time); Exponential.
    repair:
        Mean down-time before the worker rejoins; ``None`` means
        failures are permanent.
    """
    if processors < 2:
        raise ValueError("need at least 2 processors")
    if max_nfe < 1:
        raise ValueError("max_nfe must be >= 1")
    if mtbf <= 0:
        raise ValueError("mtbf must be positive")
    if repair is not None and repair < 0:
        raise ValueError("repair cannot be negative")

    env = Environment()
    master = Resource(env, capacity=1)
    # Costs come from the same per-component streams as the no-failure
    # model; failures and repairs draw from their own generator.
    sampler = TimingSampler(timing, seed)
    frng = np.random.default_rng(None if seed is None else seed + 0xFA17)
    done = env.event()
    stats = {
        "nfe": 0,
        "failures": 0,
        "recoveries": 0,
        "lost": 0,
        "live": processors - 1,
        "live_integral": 0.0,
        "last_change": 0.0,
    }

    def note_live_change(delta: int) -> None:
        now = env.now
        stats["live_integral"] += stats["live"] * (now - stats["last_change"])
        stats["last_change"] = now
        stats["live"] += delta

    up = [True] * (processors - 1)

    def worker_lifecycle(env: Environment, wid: int):
        """Run work cycles; a killer process interrupts us at failure."""
        while not done.triggered:
            try:
                # -- one service lifetime --
                with master.request() as req:
                    yield req
                    if done.triggered:
                        return
                    yield env.timeout(sampler.ta() + sampler.tc())
                while not done.triggered:
                    yield env.timeout(sampler.tf())
                    with master.request() as req:
                        yield req
                        if done.triggered:
                            return
                        yield env.timeout(
                            sampler.tc() + sampler.ta() + sampler.tc()
                        )
                        stats["nfe"] += 1
                        if stats["nfe"] >= max_nfe:
                            if not done.triggered:
                                done.succeed(env.now)
                            return
                return
            except Interrupt:
                # Failed mid-cycle: the in-flight evaluation is lost.
                stats["failures"] += 1
                stats["lost"] += 1
                up[wid] = False
                note_live_change(-1)
                if repair is None:
                    return
                yield env.timeout(frng.exponential(repair))
                if done.triggered:
                    return
                stats["recoveries"] += 1
                up[wid] = True
                note_live_change(+1)
                # loop: rejoin with a fresh dispatch

    def killer(env: Environment, victim, wid: int):
        """Interrupt the worker at each sampled failure instant.

        A failure drawn while the worker is already down is skipped
        (machines do not fail while being repaired); the clock simply
        restarts for the next failure.
        """
        while victim.is_alive and not done.triggered:
            yield env.timeout(frng.exponential(mtbf))
            if victim.is_alive and not done.triggered and up[wid]:
                try:
                    victim.interrupt("failure")
                except RuntimeError:
                    return

    for wid in range(processors - 1):
        proc = env.process(worker_lifecycle(env, wid), name=f"worker-{wid}")
        env.process(killer(env, proc, wid), name=f"killer-{wid}")

    try:
        elapsed = float(env.run(until=done))
    except RuntimeError:
        # Every worker died permanently before the budget completed;
        # report the partial run (elapsed = time of the last event).
        elapsed = float(env.now)
    stats["live_integral"] += stats["live"] * (elapsed - stats["last_change"])
    mean_live = stats["live_integral"] / elapsed if elapsed > 0 else 0.0

    return FaultyOutcome(
        elapsed=elapsed,
        nfe=stats["nfe"],
        processors=processors,
        failures=stats["failures"],
        recoveries=stats["recoveries"],
        lost_evaluations=stats["lost"],
        mean_live_workers=mean_live,
    )
