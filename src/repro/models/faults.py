"""Failure-injection simulation: master-slave throughput under churn.

At 62,976 cores (Ranger) worker failures are routine, and the
asynchronous master-slave topology degrades gracefully: a dead worker
simply stops requesting work, shrinking effective P, while the
synchronous topology *stalls a whole generation* waiting for a result
that will never arrive unless the master re-issues it.  This module
extends the §IV-B simulation model with worker mean-time-between-
failures / repair times, quantifying both effects (the paper does not
study failures; see DESIGN.md §7).

Failure semantics:

* a worker fails after an Exponential(mtbf) up-time, losing whatever
  evaluation it was running (the master re-generates on demand);
* it recovers after an Exponential(repair) down-time, if ``repair`` is
  finite, and asks the master for fresh work; with ``repair=None``
  failures are permanent and a fully-dead pool ends the run early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..simkit import Environment, Interrupt, Resource
from ..stats.timing import TimingModel, TimingSampler

__all__ = [
    "ChaosSummary",
    "FaultyOutcome",
    "simulate_async_with_failures",
    "summarize_run",
    "throughput_degradation",
]


@dataclass(frozen=True)
class ChaosSummary:
    """One row of the measured-vs-modeled chaos report.

    A common schema for a real chaos-injected backend run (see
    :func:`summarize_run`) and a failure-injected simulation (see
    :meth:`FaultyOutcome.summary`), so ``repro chaos`` can lay both out
    side by side.
    """

    source: str
    elapsed: float
    nfe: int
    processors: int
    failures: int
    recoveries: int
    lost_or_redispatched: int

    @property
    def throughput(self) -> float:
        """Completed evaluations per second (wall or virtual)."""
        return self.nfe / self.elapsed if self.elapsed > 0 else 0.0

    def as_row(self) -> tuple:
        return (
            self.source,
            self.processors,
            self.nfe,
            self.elapsed,
            self.throughput,
            self.failures,
            self.recoveries,
            self.lost_or_redispatched,
        )


def summarize_run(result, source: str = "measured") -> ChaosSummary:
    """Summarize a :class:`~repro.parallel.ParallelRunResult`.

    Duck-typed so :mod:`repro.models` needs no import of
    :mod:`repro.parallel`: any object with ``elapsed``, ``nfe``,
    ``processors``, ``failures_detected``, ``tasks_redispatched`` and a
    ``faults.workers_respawned`` counter qualifies.
    """
    return ChaosSummary(
        source=source,
        elapsed=float(result.elapsed),
        nfe=int(result.nfe),
        processors=int(result.processors),
        failures=int(result.failures_detected),
        recoveries=int(result.faults.workers_respawned),
        lost_or_redispatched=int(result.tasks_redispatched),
    )


def throughput_degradation(baseline: ChaosSummary, faulty: ChaosSummary) -> float:
    """Fractional throughput loss of ``faulty`` relative to ``baseline``.

    0.0 means no degradation, 0.25 means the faulty run completed
    evaluations 25% slower; NaN when the baseline throughput is zero.
    """
    if baseline.throughput <= 0:
        return float("nan")
    return 1.0 - faulty.throughput / baseline.throughput


@dataclass(frozen=True)
class FaultyOutcome:
    """Result of one failure-injected asynchronous simulation."""

    elapsed: float
    nfe: int
    processors: int
    failures: int
    recoveries: int
    #: Evaluations lost mid-flight to failures.
    lost_evaluations: int
    #: Time-averaged number of live workers.
    mean_live_workers: float

    def efficiency(self, serial_time: float) -> float:
        if self.elapsed <= 0:
            return float("nan")
        return serial_time / (self.processors * self.elapsed)

    def summary(self, source: str = "simulated") -> ChaosSummary:
        """This outcome in the shared measured-vs-modeled schema."""
        return ChaosSummary(
            source=source,
            elapsed=self.elapsed,
            nfe=self.nfe,
            processors=self.processors,
            failures=self.failures,
            recoveries=self.recoveries,
            lost_or_redispatched=self.lost_evaluations,
        )


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
