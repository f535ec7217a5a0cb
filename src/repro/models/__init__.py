"""Performance models of the master-slave Borg MOEA.

* :mod:`analytical` -- Eqs. 1-4 (constant-time closed forms);
* :mod:`cantupaz` -- Eq. 6, the synchronous baseline;
* :mod:`simmodel` -- the SimPy-style timing-only simulation model that
  captures master contention (paper §IV-B);
* :mod:`compare` -- Eq. 5 error rows.
"""

from .analytical import (
    AnalyticalModel,
    async_parallel_time,
    efficiency,
    multi_master_upper_bound,
    processor_lower_bound,
    processor_upper_bound,
    serial_time,
    speedup,
)
from .cantupaz import (
    SynchronousModel,
    expected_generation_max,
    sync_efficiency,
    sync_parallel_time,
    sync_speedup,
)
from .compare import ModelComparison, compare_models
from .fastsim import (
    MIGRATION_TOPOLOGIES,
    default_migration_interval,
    island_seed_streams,
    migration_degrees,
    migration_links,
    simulate_async_fast,
    simulate_islands_fast,
    simulate_sync_fast,
)
from .faults import (
    ChaosSummary,
    FaultyOutcome,
    simulate_async_with_failures,
    summarize_run,
    throughput_degradation,
)
from .queueing import QueueingModel, RepairmanSolution, solve_repairman
from .service import (
    ServicePrediction,
    predict_service,
    saturation_users,
    service_curve,
    simulate_service,
)
from .simmodel import (
    IslandsOutcome,
    SimulationOutcome,
    predict_async_time,
    predict_islands_time,
    predict_sync_time,
    simulate_async,
    simulate_islands,
    simulate_sync,
)

__all__ = [
    "serial_time",
    "async_parallel_time",
    "speedup",
    "efficiency",
    "processor_upper_bound",
    "processor_lower_bound",
    "multi_master_upper_bound",
    "AnalyticalModel",
    "sync_parallel_time",
    "sync_speedup",
    "sync_efficiency",
    "expected_generation_max",
    "SynchronousModel",
    "SimulationOutcome",
    "IslandsOutcome",
    "simulate_async",
    "simulate_sync",
    "simulate_islands",
    "simulate_async_fast",
    "simulate_sync_fast",
    "simulate_islands_fast",
    "island_seed_streams",
    "default_migration_interval",
    "migration_links",
    "migration_degrees",
    "MIGRATION_TOPOLOGIES",
    "predict_async_time",
    "predict_sync_time",
    "predict_islands_time",
    "ModelComparison",
    "compare_models",
    "FaultyOutcome",
    "simulate_async_with_failures",
    "ChaosSummary",
    "summarize_run",
    "throughput_degradation",
    "QueueingModel",
    "RepairmanSolution",
    "solve_repairman",
    "ServicePrediction",
    "predict_service",
    "saturation_users",
    "service_curve",
    "simulate_service",
]
