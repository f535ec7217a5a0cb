"""The analytical model of the asynchronous master-slave Borg MOEA
(paper §III and §IV-A, Equations 1-4).

All formulas assume *constant* TF, TC and TA.  Under that assumption
the asynchronous pipeline runs in lockstep -- the master is always free
when a result arrives -- so closed forms exist.  The paper (and our
Table II reproduction) shows exactly where this assumption collapses:
once ``TF / (2 TC + TA)`` approaches the worker count, contention for
the master dominates and the analytical prediction can be off by 90%+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "serial_time",
    "async_parallel_time",
    "speedup",
    "efficiency",
    "processor_upper_bound",
    "processor_lower_bound",
    "multi_master_upper_bound",
    "AnalyticalModel",
]


def serial_time(nfe: int, tf: float, ta: float) -> float:
    """Eq. 1: T_S = N (TF + TA)."""
    return nfe * (tf + ta)


def async_parallel_time(
    nfe: int, processors: int, tf: float, tc: float, ta: float, batch: int = 1
) -> float:
    """Eq. 2: T_P = N / (P - 1) * (TF + 2 TC + TA).

    ``batch > 1`` generalises to the variant the paper mentions but
    does not explore (§II: "It is also possible to send multiple
    solutions to a single worker node"): each interaction carries
    ``batch`` solutions, amortising the two message latencies:

        T_P = N / (P - 1) * (TF + TA + 2 TC / b).
    """
    if processors < 2:
        raise ValueError("need at least 2 processors")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    return nfe / (processors - 1) * (tf + ta + 2.0 * tc / batch)


def speedup(nfe: int, processors: int, tf: float, tc: float, ta: float) -> float:
    """S_P = T_S / T_P (constant-time model)."""
    return serial_time(nfe, tf, ta) / async_parallel_time(
        nfe, processors, tf, tc, ta
    )


def efficiency(nfe: int, processors: int, tf: float, tc: float, ta: float) -> float:
    """E_P = T_S / (P T_P) (constant-time model)."""
    return speedup(nfe, processors, tf, tc, ta) / processors


def processor_upper_bound(tf: float, tc: float, ta: float, batch: int = 1) -> float:
    """Eq. 3: P_UB = TF / (2 TC + TA), the master-saturation point.

    Beyond this many *workers*, results arrive faster than the master
    can turn them around and queueing is inevitable.  With ``batch``
    solutions per message the bound becomes
    ``b TF / (2 TC + b TA)`` -- batching helps only while the message
    latency (not TA) dominates the master's service time.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    denom = 2.0 * tc + batch * ta
    if denom <= 0:
        return math.inf
    return batch * tf / denom


def multi_master_upper_bound(
    tf: float,
    tc: float,
    ta: float,
    islands: int,
    migration_interval: float = math.inf,
    in_degree: int = 0,
    out_degree: int = 0,
    migrants: int = 1,
) -> float:
    """Worker-saturation bound of a sharded M-master allocation.

    Eq. 3's ``P_UB = TF / (2 TC + TA)`` caps a *single* master.  With M
    islands each master serves only its own shard, but spends a fraction
    of every migration epoch ``delta`` on exchange traffic,

        o = (out_deg TC + in_deg TC + in_deg * migrants * TA) / delta,

    leaving ``1 - o`` of its capacity for results.  The sharded
    saturation point is therefore

        P_UB^M = M * (1 - o) * TF / (2 TC + TA),

    reducing to ``M * P_UB`` with no migration (``delta = inf``) and to
    Eq. 3 for M = 1.  Returns 0 when migration alone saturates a master
    (``o >= 1``).  Degrees default to 0; pass the per-island values from
    :func:`repro.models.fastsim.migration_degrees` (for the hierarchical
    topology the hub's degrees differ from the leaves' -- the bound then
    applies per island class, and the hub is the binding one).
    """
    if islands < 1:
        raise ValueError("need at least one island")
    if migrants < 1:
        raise ValueError("migrants must be >= 1")
    # Same rule as fastsim.resolve_migration_interval: NaN is rejected
    # with the non-positive values, math.inf is "no migration".
    if not migration_interval > 0:
        raise ValueError(
            f"migration_interval must be positive, got {migration_interval!r}"
        )
    single = processor_upper_bound(tf, tc, ta)
    if not math.isfinite(single):
        return math.inf
    if math.isinf(migration_interval) or (in_degree == 0 and out_degree == 0):
        overhead = 0.0
    else:
        cost = (out_degree + in_degree) * tc + in_degree * migrants * ta
        overhead = cost / migration_interval
    capacity = max(0.0, 1.0 - overhead)
    return islands * capacity * single


def processor_lower_bound(tf: float, tc: float, ta: float) -> float:
    """Eq. 4: P_LB > 2 + 2 TC / (TF + TA).

    The smallest processor count for which the parallel algorithm beats
    the serial one; note it is always > 2 (so at least 3 processors),
    regardless of the time constants.
    """
    denom = tf + ta
    if denom <= 0:
        return math.inf
    return 2.0 + 2.0 * tc / denom


@dataclass(frozen=True)
class AnalyticalModel:
    """Eqs. 1-4 bundled for one (TF, TC, TA) operating point."""

    tf: float
    tc: float
    ta: float

    def serial_time(self, nfe: int) -> float:
        return serial_time(nfe, self.tf, self.ta)

    def parallel_time(self, nfe: int, processors: int) -> float:
        return async_parallel_time(nfe, processors, self.tf, self.tc, self.ta)

    def speedup(self, nfe: int, processors: int) -> float:
        return speedup(nfe, processors, self.tf, self.tc, self.ta)

    def efficiency(self, nfe: int, processors: int) -> float:
        return efficiency(nfe, processors, self.tf, self.tc, self.ta)

    @property
    def processor_upper_bound(self) -> float:
        return processor_upper_bound(self.tf, self.tc, self.ta)

    @property
    def processor_lower_bound(self) -> float:
        return processor_lower_bound(self.tf, self.tc, self.ta)

    @classmethod
    def from_timing(cls, timing) -> "AnalyticalModel":
        """Collapse a :class:`~repro.stats.timing.TimingModel` to its
        means (the analytical model's constant-time assumption)."""
        return cls(tf=timing.mean_tf, tc=timing.mean_tc, ta=timing.mean_ta)
