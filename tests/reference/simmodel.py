"""Frozen discrete-event specification of the §IV-B simulation model
(oracle for the FIFO-master recurrence of :mod:`repro.models.fastsim`).

"The structure of the simulation model is identical to that of the
Borg MOEA.  However, instead of actually performing the calculations or
sending messages, the simulation model holds the resources for a set
amount of time" -- workers *request* the master, the master is *held*
for TC + TA + TC, then *released* and the worker is re-activated with a
fresh TF hold.  These are the paper's SimPy 2.3 processes on
:mod:`reference.simkit`.  Every component is drawn through
:class:`~repro.stats.timing.TimingSampler`, so on a shared seed each
reference returns the same outcome as its
:func:`~repro.models.simmodel.simulate_async`,
:func:`~repro.models.simmodel.simulate_sync` or
:func:`~repro.models.simmodel.simulate_islands` counterpart.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.models.simmodel import IslandsOutcome, Seed, SimulationOutcome
from repro.stats.timing import TimingModel, TimingSampler

from .simkit import Environment, Resource

__all__ = [
    "simulate_async_reference",
    "simulate_sync_reference",
    "simulate_islands_reference",
]


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
    FIFO :class:`~reference.simkit.Resource` serving its own
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
    from repro.models.fastsim import (
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
