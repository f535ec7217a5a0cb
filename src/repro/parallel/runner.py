"""High-level facade: one call to run Borg on any backend.

``optimize`` is the function a downstream user reaches for first::

    from repro.parallel import optimize
    from repro.problems import DTLZ2

    result = optimize(DTLZ2(nobjs=5), max_nfe=10_000, backend="serial", seed=1)
"""

from __future__ import annotations

from typing import Optional

from ..core.borg import BorgConfig, BorgMOEA, BorgResult
from ..problems.base import Problem
from ..stats.timing import TimingModel, constant_timing
from .processes import run_process_master_slave
from .results import ParallelRunResult
from .supervision import SupervisorConfig
from .threads import run_threaded_master_slave
from .virtual import run_async_master_slave, run_sync_master_slave

__all__ = ["optimize", "BACKENDS"]

BACKENDS = (
    "serial",
    "virtual-async",
    "virtual-sync",
    "threads",
    "processes",
)


def optimize(
    problem: Problem,
    max_nfe: int,
    backend: str = "serial",
    processors: int = 8,
    timing: Optional[TimingModel] = None,
    config: Optional[BorgConfig] = None,
    seed: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    checkpoint: Optional[str] = None,
    checkpoint_interval: Optional[int] = None,
    resume: Optional[str] = None,
    publisher=None,
    **kwargs,
) -> BorgResult | ParallelRunResult:
    """Run the Borg MOEA on the selected backend.

    ``serial`` returns a :class:`BorgResult`; every parallel backend
    returns a :class:`ParallelRunResult` (its ``.borg`` attribute holds
    the equivalent :class:`BorgResult`).  Virtual backends need a
    ``timing`` model; a featureless default (1 ms TF, zero overheads)
    is used when omitted.

    ``checkpoint`` periodically serializes full engine state to a file
    (every ``checkpoint_interval`` evaluations; see
    :mod:`repro.core.checkpoint`); ``resume`` restores such a file and
    continues the run toward ``max_nfe``.  ``supervisor`` tunes worker
    fault handling on the threads/processes backends.  Virtual-clock
    backends support none of these (they replay, not execute).

    ``publisher`` attaches a telemetry event bus
    (:class:`repro.telemetry.EventBus` or anything with its ``emit``
    signature) to the run: the engine publishes epsilon-progress,
    restart, and operator-update events, and the threads/processes
    supervisors publish worker-fault/redispatch events.  Virtual-clock
    backends do not publish (simulated time would mislabel events).
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if backend in ("serial", "virtual-async", "virtual-sync") and supervisor:
        raise ValueError(f"backend {backend!r} has no workers to supervise")

    if backend == "serial":
        if resume is not None:
            moea = BorgMOEA.from_checkpoint(problem, resume, config=config)
        else:
            moea = BorgMOEA(problem, config=config, seed=seed)
        moea.engine.publisher = publisher
        return moea.run(
            max_nfe, checkpoint=checkpoint, checkpoint_interval=checkpoint_interval
        )

    if backend in ("virtual-async", "virtual-sync"):
        if checkpoint is not None or resume is not None:
            raise ValueError(
                f"backend {backend!r} does not support checkpoint/resume"
            )
        if timing is None:
            timing = constant_timing(tf=1e-3, tc=0.0, ta=0.0, label="default")
        runner = (
            run_async_master_slave
            if backend == "virtual-async"
            else run_sync_master_slave
        )
        return runner(
            problem, processors, max_nfe, timing,
            config=config, seed=seed, **kwargs,
        )

    kwargs.update(
        config=config, seed=seed, supervisor=supervisor, checkpoint=checkpoint,
        checkpoint_interval=checkpoint_interval, resume=resume, publisher=publisher,
    )
    if backend == "processes":
        return run_process_master_slave(problem, processors, max_nfe, **kwargs)
    return run_threaded_master_slave(problem, processors, max_nfe, **kwargs)
