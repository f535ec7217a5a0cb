"""The simulation model (paper §IV-B): timing-only master-slave runs.

This is the direct counterpart of the paper's SimPy 2.3 model, rebuilt
on :mod:`repro.simkit`.  "The structure of the simulation model is
identical to that of the Borg MOEA.  However, instead of actually
performing the calculations or sending messages, the simulation model
holds the resources for a set amount of time" -- workers *request* the
master, the master is *held* for TC + TA + TC, then *released* and the
worker is re-activated with a fresh TF hold.

Unlike the analytical model, the simulation model captures resource
contention: when results arrive faster than the master can turn them
around, workers queue, which is exactly the regime (small TF, large P)
where Table II shows the analytical model failing.

:func:`simulate_async`, :func:`simulate_sync` and
:func:`simulate_islands` run the **vectorized kernels**
(:mod:`repro.models.fastsim`): sequential recurrences over pre-sampled
NumPy blocks.  The discrete-event model itself stays here as the
executable specification (:func:`simulate_async_reference`,
:func:`simulate_sync_reference`, :func:`simulate_islands_reference`);
on a shared seed it produces the identical outcome, because both draw
through :class:`~repro.stats.timing.TimingSampler`, so per-component
streams line up no matter how draws interleave in event time.

The module also provides steady-state extrapolation so Ranger-scale
runs (N = 100,000, P = 16,384) are predicted from a truncated
simulation in milliseconds rather than simulating every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..simkit import Environment, Resource
from ..stats.timing import TimingModel, TimingSampler

__all__ = [
    "SimulationOutcome",
    "IslandsOutcome",
    "simulate_async",
    "simulate_sync",
    "simulate_islands",
    "simulate_async_reference",
    "simulate_sync_reference",
    "simulate_islands_reference",
    "predict_async_time",
    "predict_sync_time",
    "predict_islands_time",
]

Seed = Union[int, np.random.SeedSequence, None]


@dataclass(frozen=True)
class SimulationOutcome:
    """Timing prediction from one simulation-model run."""

    elapsed: float
    nfe: int
    processors: int
    master_busy: float
    master_mean_wait: float
    #: Peak number of workers simultaneously queued at the master over
    #: the whole run, *including* the t=0 initial-dispatch burst (P-2
    #: whenever the P-1 workers start together) -- a transient-fill
    #: figure, not steady-state contention (see ``master_mean_wait``).
    master_max_queue: int
    #: (nfe, time) checkpoints used for steady-state extrapolation.
    checkpoints: tuple[tuple[int, float], ...] = ()

    @property
    def master_utilization(self) -> float:
        return self.master_busy / self.elapsed if self.elapsed > 0 else 0.0

    def efficiency(self, serial_time: float) -> float:
        """E_P = T_S / (P T_P)."""
        if self.elapsed <= 0:
            return float("nan")
        return serial_time / (self.processors * self.elapsed)


@dataclass(frozen=True)
class IslandsOutcome:
    """Timing prediction for a sharded multi-master (island) run.

    ``per_island`` holds the :class:`SimulationOutcome` of each
    *simulated* island (ids in ``island_ids``); when ``estimated`` is
    true only a subsample of exchangeable islands was simulated and
    ``elapsed`` is the Gumbel extreme-value estimate of the full
    makespan.  ``group_of``/``group_sizes`` record the exchangeability
    partition the estimate ran over (islands with identical migration
    degrees and timing model), aligned with ``per_island``.
    """

    #: Global makespan: the slowest island's completion time.
    elapsed: float
    islands: int
    #: Total processors = islands * processors_per_island.
    processors: int
    #: Total evaluations = islands * max_nfe_per_island.
    nfe: int
    topology: str
    migration_interval: float
    migrants: int
    per_island: tuple[SimulationOutcome, ...]
    island_ids: tuple[int, ...]
    estimated: bool
    #: Migration exchanges each simulated island served before finishing.
    migration_services: tuple[int, ...] = ()
    group_of: tuple[int, ...] = ()
    group_sizes: tuple[int, ...] = ()

    @property
    def processors_per_island(self) -> int:
        return self.processors // self.islands

    @property
    def mean_master_utilization(self) -> float:
        if not self.per_island:
            return 0.0
        return sum(o.master_utilization for o in self.per_island) / len(
            self.per_island
        )

    def efficiency(self, serial_time: float) -> float:
        """E_P = T_S / (P T_P) for the whole sharded allocation."""
        if self.elapsed <= 0:
            return float("nan")
        return serial_time / (self.processors * self.elapsed)


def simulate_async(
    processors: int,
    max_nfe: int,
    timing: TimingModel,
    seed: Seed = None,
) -> SimulationOutcome:
    """Simulate the asynchronous master-slave pipeline for ``max_nfe``
    evaluations; no algorithm state, only sampled holds.

    Runs the vectorized kernel; :func:`simulate_async_reference` is the
    discrete-event specification it reproduces.
    """
    from .fastsim import simulate_async_fast

    return simulate_async_fast(processors, max_nfe, timing, seed=seed)


def simulate_sync(
    processors: int,
    max_nfe: int,
    timing: TimingModel,
    seed: Seed = None,
) -> SimulationOutcome:
    """Simulate the synchronous (generational) pipeline: dispatch P-1,
    master evaluates one itself, barrier, P sequential TA holds.

    Runs the vectorized kernel; :func:`simulate_sync_reference` is the
    discrete-event specification it reproduces.
    """
    from .fastsim import simulate_sync_fast

    return simulate_sync_fast(processors, max_nfe, timing, seed=seed)


def simulate_islands(
    islands: int,
    processors_per_island: int,
    max_nfe_per_island: int,
    timing: Union[TimingModel, Sequence[TimingModel]],
    migration_interval: Optional[float] = None,
    topology: str = "ring",
    migrants: int = 1,
    seed: Seed = None,
    max_sim_islands: Optional[int] = None,
) -> IslandsOutcome:
    """Simulate a sharded multi-master run: M islands, each an async
    master-slave instance, exchanging archive members at every global
    epoch ``T_k = k * migration_interval`` over the given topology.

    Runs the multi-master fastsim kernel;
    :func:`simulate_islands_reference` is the discrete-event
    specification it reproduces (it always simulates every island --
    ``max_sim_islands`` is a kernel optimisation).
    """
    from .fastsim import simulate_islands_fast

    return simulate_islands_fast(
        islands,
        processors_per_island,
        max_nfe_per_island,
        timing,
        migration_interval=migration_interval,
        topology=topology,
        migrants=migrants,
        seed=seed,
        max_sim_islands=max_sim_islands,
    )


def simulate_async_reference(
    processors: int,
    max_nfe: int,
    timing: TimingModel,
    seed: Seed = None,
) -> SimulationOutcome:
    """The discrete-event reference implementation of the async model."""
    if processors < 2:
        raise ValueError("need at least 2 processors")
    if max_nfe < 1:
        raise ValueError("max_nfe must be >= 1")

    env = Environment()
    master = Resource(env, capacity=1)
    sampler = TimingSampler(timing, seed)
    done = env.event()
    state = {"nfe": 0}
    quarter = max(1, max_nfe // 4)
    checkpoints: list[tuple[int, float]] = []

    def worker(env: Environment):
        # Initial dispatch: master generates (TA) and sends (TC).
        with master.request() as req:
            yield req
            yield env.timeout(sampler.ta() + sampler.tc())
        while not done.triggered:
            yield env.timeout(sampler.tf())
            with master.request() as req:
                yield req
                if done.triggered:
                    return
                # The paper's hold: sampleTc() + sampleTa() + sampleTc().
                yield env.timeout(sampler.tc() + sampler.ta() + sampler.tc())
                state["nfe"] += 1
                if state["nfe"] % quarter == 0:
                    checkpoints.append((state["nfe"], env.now))
                if state["nfe"] >= max_nfe:
                    if not done.triggered:
                        done.succeed(env.now)
                    return

    for _ in range(processors - 1):
        env.process(worker(env))
    elapsed = float(env.run(until=done))

    return SimulationOutcome(
        elapsed=elapsed,
        nfe=state["nfe"],
        processors=processors,
        master_busy=master.busy_time,
        master_mean_wait=master.mean_wait(),
        master_max_queue=master.max_queue_length,
        checkpoints=tuple(checkpoints),
    )


def simulate_sync_reference(
    processors: int,
    max_nfe: int,
    timing: TimingModel,
    seed: Seed = None,
) -> SimulationOutcome:
    """The discrete-event reference implementation of the sync model."""
    if processors < 2:
        raise ValueError("need at least 2 processors")
    if max_nfe < 1:
        raise ValueError("max_nfe must be >= 1")

    env = Environment()
    master = Resource(env, capacity=1)
    sampler = TimingSampler(timing, seed)
    state = {"nfe": 0}
    quarter = max(1, max_nfe // 4)
    checkpoints: list[tuple[int, float]] = []

    def worker_generation(env: Environment, done_ev):
        yield env.timeout(sampler.tf())
        with master.request() as req:
            yield req
            yield env.timeout(sampler.tc())
        done_ev.succeed(None)

    def master_proc(env: Environment):
        while state["nfe"] < max_nfe:
            done_events = []
            with master.request() as req:
                yield req
                for _ in range(processors - 1):
                    yield env.timeout(sampler.tc())
                    ev = env.event()
                    env.process(worker_generation(env, ev))
                    done_events.append(ev)
                yield env.timeout(sampler.tf())
            yield env.all_of(done_events)
            with master.request() as req:
                yield req
                for _ in range(processors):
                    yield env.timeout(sampler.ta())
                    state["nfe"] += 1
                    if state["nfe"] % quarter == 0:
                        checkpoints.append((state["nfe"], env.now))
                    if state["nfe"] >= max_nfe:
                        break
        return env.now

    proc = env.process(master_proc(env))
    elapsed = float(env.run(until=proc))

    return SimulationOutcome(
        elapsed=elapsed,
        nfe=state["nfe"],
        processors=processors,
        master_busy=master.busy_time,
        master_mean_wait=master.mean_wait(),
        master_max_queue=master.max_queue_length,
        checkpoints=tuple(checkpoints),
    )


def simulate_islands_reference(
    islands: int,
    processors_per_island: int,
    max_nfe_per_island: int,
    timing: Union[TimingModel, Sequence[TimingModel]],
    migration_interval: Optional[float] = None,
    topology: str = "ring",
    migrants: int = 1,
    seed: Seed = None,
) -> IslandsOutcome:
    """Discrete-event reference for the multi-master island model.

    All M islands share one virtual clock.  Each island master is a
    FIFO :class:`~repro.simkit.resources.Resource` serving its own
    workers exactly as :func:`simulate_async_reference` does; a per-
    island ticker process additionally enqueues a migration-exchange
    request at every global epoch ``T_k = k * migration_interval``,
    holding the master for out-degree TC draws (sends), in-degree TC
    draws (receives) and ``in_degree * migrants`` TA draws (ingests),
    drawn at grant time in that order.  Every island draws from its own
    :func:`~repro.models.fastsim.island_seed_streams` child, so the
    per-island timings here are bit-identical to the fastsim kernel's
    (elapsed / busy / nfe / checkpoints; the wait and queue statistics
    additionally observe the post-completion drain on this path).
    """
    from .fastsim import (
        _island_groups,
        _island_timings,
        island_seed_streams,
        migration_degrees,
        resolve_migration_interval,
    )

    if islands < 1:
        raise ValueError("need at least one island")
    if processors_per_island < 2:
        raise ValueError("each island needs a master and a worker")
    if max_nfe_per_island < 1:
        raise ValueError("max_nfe_per_island must be >= 1")
    if migrants < 1:
        raise ValueError("migrants must be >= 1")

    timings = _island_timings(timing, islands)
    in_deg, out_deg = migration_degrees(topology, islands)
    interval = resolve_migration_interval(
        migration_interval, processors_per_island, max_nfe_per_island,
        timings[0],
    )

    env = Environment()
    streams = island_seed_streams(seed, islands)
    samplers = [
        TimingSampler(timings[i], streams[i][0]) for i in range(islands)
    ]
    masters = [Resource(env, capacity=1) for _ in range(islands)]
    dones = [env.event() for _ in range(islands)]
    states = [{"nfe": 0} for _ in range(islands)]
    quarter = max(1, max_nfe_per_island // 4)
    checkpoints: list[list[tuple[int, float]]] = [[] for _ in range(islands)]
    exchange_counts = [0] * islands

    def worker(env: Environment, i: int):
        sampler, master, done = samplers[i], masters[i], dones[i]
        state = states[i]
        with master.request() as req:
            yield req
            yield env.timeout(sampler.ta() + sampler.tc())
        while not done.triggered:
            yield env.timeout(sampler.tf())
            with master.request() as req:
                yield req
                if done.triggered:
                    return
                yield env.timeout(sampler.tc() + sampler.ta() + sampler.tc())
                state["nfe"] += 1
                if state["nfe"] % quarter == 0:
                    checkpoints[i].append((state["nfe"], env.now))
                if state["nfe"] >= max_nfe_per_island:
                    if not done.triggered:
                        done.succeed(env.now)
                    return

    def exchange(env: Environment, i: int):
        with masters[i].request() as req:
            yield req
            if dones[i].triggered:
                return
            sampler = samplers[i]
            hold = 0.0
            for _ in range(int(out_deg[i])):
                hold += sampler.tc()
            for _ in range(int(in_deg[i])):
                hold += sampler.tc()
            for _ in range(int(in_deg[i]) * migrants):
                hold += sampler.ta()
            exchange_counts[i] += 1
            yield env.timeout(hold)

    def ticker(env: Environment, i: int):
        # Epoch times accumulate by repeated timeout(interval), matching
        # the kernel's `next_epoch = a + interval` bit for bit.
        while True:
            yield env.timeout(interval)
            if dones[i].triggered:
                return
            env.process(exchange(env, i), name=f"island{i}-exchange")

    for i in range(islands):
        for w in range(processors_per_island - 1):
            env.process(worker(env, i), name=f"island{i}-worker{w}")
        if islands > 1 and (in_deg[i] > 0 or out_deg[i] > 0):
            env.process(ticker(env, i), name=f"island{i}-ticker")
    finished = env.all_of(dones)
    env.run(until=finished)

    per_island = tuple(
        SimulationOutcome(
            elapsed=float(dones[i].value),
            nfe=states[i]["nfe"],
            processors=processors_per_island,
            master_busy=masters[i].busy_time,
            master_mean_wait=masters[i].mean_wait(),
            master_max_queue=masters[i].max_queue_length,
            checkpoints=tuple(checkpoints[i]),
        )
        for i in range(islands)
    )
    group_of, group_sizes = _island_groups(in_deg, out_deg, timings)
    return IslandsOutcome(
        elapsed=max(o.elapsed for o in per_island),
        islands=islands,
        processors=islands * processors_per_island,
        nfe=sum(o.nfe for o in per_island),
        topology=topology,
        migration_interval=interval,
        migrants=migrants,
        per_island=per_island,
        island_ids=tuple(range(islands)),
        estimated=False,
        migration_services=tuple(exchange_counts),
        group_of=tuple(group_of),
        group_sizes=tuple(group_sizes),
    )


def _extrapolate(outcome: SimulationOutcome, target_nfe: int) -> float:
    """Project a truncated simulation to ``target_nfe`` evaluations
    using the steady-state rate between the first and last checkpoint
    (discarding the pipeline-fill transient).

    Degenerate checkpoint sets -- fewer than two checkpoints, zero NFE
    progress between the first and last, or non-advancing clocks -- fall
    back to straight proportional scaling, and a simulation that made no
    progress at all (``nfe == 0``) cannot be extrapolated.
    """
    if target_nfe <= 0:
        raise ValueError("target_nfe must be positive")
    if outcome.nfe >= target_nfe:
        return outcome.elapsed
    if outcome.nfe <= 0:
        raise ValueError(
            "cannot extrapolate from a simulation with zero completed NFE"
        )
    if len(outcome.checkpoints) >= 2:
        (n0, t0), (n1, t1) = outcome.checkpoints[0], outcome.checkpoints[-1]
        if n1 > n0 and t1 >= t0:
            rate = (t1 - t0) / (n1 - n0)
            return t1 + rate * (target_nfe - n1)
    return outcome.elapsed * target_nfe / outcome.nfe


def predict_async_time(
    processors: int,
    nfe: int,
    timing: TimingModel,
    seed: Seed = None,
    sim_nfe: Optional[int] = None,
) -> float:
    """Predicted asynchronous runtime for ``nfe`` evaluations.

    Simulates ``sim_nfe`` evaluations (default: enough for every worker
    to cycle ~8 times, at least 2,000) and extrapolates at the
    steady-state throughput, through the vectorized kernel of
    :func:`simulate_async`.
    """
    budget = sim_nfe or max(2000, 8 * (processors - 1))
    outcome = simulate_async(processors, min(nfe, budget), timing, seed=seed)
    return _extrapolate(outcome, nfe)


def predict_sync_time(
    processors: int,
    nfe: int,
    timing: TimingModel,
    seed: Seed = None,
    sim_nfe: Optional[int] = None,
) -> float:
    """Predicted synchronous runtime for ``nfe`` evaluations."""
    budget = sim_nfe or max(2000, 8 * processors)
    outcome = simulate_sync(processors, min(nfe, budget), timing, seed=seed)
    return _extrapolate(outcome, nfe)


def predict_islands_time(
    islands: int,
    processors_per_island: int,
    nfe_per_island: int,
    timing: Union[TimingModel, Sequence[TimingModel]],
    seed: Seed = None,
    sim_nfe: Optional[int] = None,
    migration_interval: Optional[float] = None,
    topology: str = "ring",
    migrants: int = 1,
    max_sim_islands: Optional[int] = None,
) -> float:
    """Predicted makespan of a sharded run of ``islands`` instances for
    ``nfe_per_island`` evaluations each.

    Simulates a truncated per-island budget (default: enough for every
    worker to cycle ~8 times, at least 2,000 NFE), extrapolates each
    simulated island at its steady-state checkpoint rate, and re-applies
    the per-group extreme-value max.  When ``migration_interval`` is
    omitted the default epoch length is derived from the *truncated*
    horizon so the simulated window sees the same number of exchanges
    per run (and hence the same relative migration overhead) as the
    full-length default would.  ``max_sim_islands`` caps how many
    islands are simulated; with it, a P = 10^6
    allocation is predicted in milliseconds.
    """
    from .fastsim import _expected_max

    budget = sim_nfe or max(2000, 8 * (processors_per_island - 1))
    outcome = simulate_islands(
        islands,
        processors_per_island,
        min(nfe_per_island, budget),
        timing,
        migration_interval=migration_interval,
        topology=topology,
        migrants=migrants,
        seed=seed,
        max_sim_islands=max_sim_islands,
    )
    extrapolated = [
        _extrapolate(o, nfe_per_island) for o in outcome.per_island
    ]
    if not outcome.group_of:
        return max(extrapolated)
    by_group: dict[int, list[float]] = {}
    for g, value in zip(outcome.group_of, extrapolated):
        by_group.setdefault(g, []).append(value)
    return max(
        _expected_max(vals, outcome.group_sizes[g])
        for g, vals in by_group.items()
    )
