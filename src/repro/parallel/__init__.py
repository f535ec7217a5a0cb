"""Master-slave parallel Borg MOEA (the paper's parallel algorithm).

Backends:

* virtual clock (:func:`run_async_master_slave`,
  :func:`run_sync_master_slave`) -- the Ranger-scale experiments;
* threads / processes -- real local parallelism;
* MPI (:mod:`repro.parallel.mpi`) -- cluster deployment via mpi4py;
* multi-master (:mod:`repro.parallel.islands`) -- sharded islands,
  with or without migration, sized by
  :func:`~repro.parallel.topology.suggest_partition`;
* storage-backed service (:mod:`repro.parallel.service`) -- durable
  studies co-driven by independent worker processes over
  :mod:`repro.storage`.
"""

from .islands import IslandShard, ShardedRunResult, run_sharded_islands
from .results import ParallelRunResult
from .runner import BACKENDS, optimize
from .service import (
    ServiceConfig,
    ServiceResult,
    StorageBackedRunner,
    final_front,
    run_study_worker,
)
from .supervision import FaultStats, NoLiveWorkersError, SupervisorConfig
from .threads import run_threaded_master_slave
from .processes import run_process_master_slave
from .topology import (
    TopologyPlan,
    default_partition_candidates,
    suggest_partition,
)
from .virtual import run_async_master_slave, run_sync_master_slave

__all__ = [
    "ParallelRunResult",
    "optimize",
    "BACKENDS",
    "SupervisorConfig",
    "FaultStats",
    "NoLiveWorkersError",
    "run_async_master_slave",
    "run_sync_master_slave",
    "run_threaded_master_slave",
    "run_process_master_slave",
    "TopologyPlan",
    "default_partition_candidates",
    "suggest_partition",
    "IslandShard",
    "ShardedRunResult",
    "run_sharded_islands",
    "ServiceConfig",
    "ServiceResult",
    "StorageBackedRunner",
    "final_front",
    "run_study_worker",
]
