"""The simulation model (paper §IV-B): timing-only master-slave runs.

The paper's SimPy 2.3 model: "The structure of the simulation model is
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
:func:`simulate_islands` run the vectorized FIFO-master kernels of
:mod:`repro.models.fastsim`: sequential recurrences over pre-sampled
NumPy blocks.  The discrete-event processes they reproduce are kept as
test oracles (``tests/reference/simmodel.py``); on a shared seed both
give the identical outcome, because both draw through
:class:`~repro.stats.timing.TimingSampler`, so per-component streams
line up no matter how draws interleave in event time.

The module also provides steady-state extrapolation so Ranger-scale
runs (N = 100,000, P = 16,384) are predicted from a truncated
simulation in milliseconds rather than simulating every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..stats.timing import TimingModel

__all__ = [
    "SimulationOutcome",
    "IslandsOutcome",
    "simulate_async",
    "simulate_sync",
    "simulate_islands",
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

    Runs the vectorized kernel, which reproduces the discrete-event
    specification kept in ``tests/reference/simmodel.py``.
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

    Runs the vectorized kernel, which reproduces the discrete-event
    specification kept in ``tests/reference/simmodel.py``.
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

    Runs the multi-master fastsim kernel, which reproduces the
    discrete-event specification kept in ``tests/reference/simmodel.py``
    (that one always simulates every island -- ``max_sim_islands`` is a
    kernel optimisation).
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
