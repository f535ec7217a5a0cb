"""Parallel topology design: sizing a multi-master allocation (§VI).

Paper §VI observes that when P is large and TF small, a single
master-slave instance saturates its master, and suggests running
several smaller concurrently-running master-slave instances sized with
the simulation model; §VII names the adaptive island model as future
work.  :func:`suggest_partition` uses the simulation model to choose
the per-instance processor count that maximises efficiency, then packs
the available processors with instances of that size.

Both topologies run on the one multi-master runtime,
:func:`repro.parallel.islands.run_sharded_islands`:
``migration_interval=math.inf`` runs the plan's instances independently
and merges their archives at the end (§VI); a finite interval (the
default heuristic when ``None``) with ``topology="ring"`` is the §VII
island model::

    plan = suggest_partition(256, timing)
    result = run_sharded_islands(
        factory, plan.instances, plan.processors_per_instance, nfe,
        timing, migration_interval=math.inf,
    )
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..models.analytical import serial_time
from ..models.simmodel import predict_async_time
from ..stats.timing import TimingModel

__all__ = [
    "TopologyPlan",
    "default_partition_candidates",
    "suggest_partition",
]


def default_partition_candidates(total_processors: int) -> tuple[int, ...]:
    """Candidate instance sizes for ``suggest_partition``: every power
    of two from 4 up to the available processor count, so the candidate
    grid always scales with the allocation instead of stopping at a
    hard-coded 1024.  Allocations too small for even the smallest
    power-of-two instance fall back to one instance of everything."""
    if total_processors < 2:
        raise ValueError("need at least 2 processors")
    candidates = tuple(
        1 << k
        for k in range(2, total_processors.bit_length() + 1)
        if (1 << k) <= total_processors
    )
    return candidates or (total_processors,)


@dataclass(frozen=True)
class TopologyPlan:
    """A hierarchical decomposition of a processor allocation."""

    total_processors: int
    instances: int
    processors_per_instance: int
    predicted_efficiency: float
    #: Processors left unused by the packing.
    leftover: int

    def __str__(self) -> str:
        return (
            f"{self.instances} instance(s) x {self.processors_per_instance} "
            f"processors (predicted efficiency "
            f"{self.predicted_efficiency:.2f}, {self.leftover} spare)"
        )


def suggest_partition(
    total_processors: int,
    timing: TimingModel,
    nfe: int = 10_000,
    candidates: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> TopologyPlan:
    """Size master-slave instances with the simulation model (§VI).

    Evaluates the predicted efficiency of each candidate instance size
    and returns the plan with the highest per-instance efficiency,
    breaking ties toward larger instances (fewer redundant masters).
    ``candidates`` defaults to :func:`default_partition_candidates`
    (powers of two up to the allocation); pass an explicit sequence to
    restrict or extend the grid.
    """
    if total_processors < 2:
        raise ValueError("need at least 2 processors")
    if candidates is None:
        candidates = default_partition_candidates(total_processors)
    best: Optional[TopologyPlan] = None
    for p in sorted(set(candidates)):
        if p < 2 or p > total_processors:
            continue
        # Efficiency is intensive: probe each candidate with an NFE
        # budget proportional to its worker count so the pipeline-fill
        # transient never biases the comparison toward small instances.
        nfe_cell = max(nfe, 100 * (p - 1))
        ts = serial_time(nfe_cell, timing.mean_tf, timing.mean_ta)
        tp = predict_async_time(
            p, nfe_cell, timing, seed=seed, sim_nfe=max(2000, 4 * (p - 1))
        )
        eff = ts / (p * tp) if tp > 0 else 0.0
        plan = TopologyPlan(
            total_processors=total_processors,
            instances=total_processors // p,
            processors_per_instance=p,
            predicted_efficiency=eff,
            leftover=total_processors % p,
        )
        if (
            best is None
            or plan.predicted_efficiency > best.predicted_efficiency + 1e-9
            or (
                abs(plan.predicted_efficiency - best.predicted_efficiency) <= 1e-9
                and p > best.processors_per_instance
            )
        ):
            best = plan
    if best is None:
        raise ValueError(
            f"no candidate instance size fits {total_processors} processors"
        )
    return best
