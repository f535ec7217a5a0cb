"""Virtual-clock master-slave Borg: the paper's experiment, simulated.

These runners execute the *real* Borg algorithm -- actual operators,
actual archive, actual restarts -- inside a simkit discrete-event
simulation whose clock advances by sampled (TA, TC, TF) costs instead
of wall time.  This is the faithful substitute for the paper's Ranger
runs (see DESIGN.md): every observable the paper reports (elapsed time,
efficiency, master contention, archive-quality dynamics, and the
algorithmic effect of up to P-1 stale in-flight evaluations) emerges
from the same event structure as on the real machine.

Two dispatch disciplines are provided:

* :func:`run_async_master_slave` -- the paper's contribution: the
  master serves one worker at a time; a returning result is received
  (TC), processed and the next offspring generated (TA), and dispatched
  (TC) without any generation barrier (Figure 2).
* :func:`run_sync_master_slave` -- the generational baseline
  (Cantu-Paz): all P offspring of a generation are dispatched, every
  result must arrive before the master processes the generation and
  starts the next (Figure 1).  The master also evaluates one offspring
  itself, as in the paper's Figure 1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cluster.machine import MachineSpec
from ..cluster.trace import Timeline
from ..core.borg import BorgConfig, BorgEngine
from ..core.events import RunHistory
from ..problems.base import Problem
from ..simkit import Environment, Resource, TallyMonitor
from ..stats.timing import TimingModel
from .results import ParallelRunResult

__all__ = ["run_async_master_slave", "run_sync_master_slave"]

#: Offset between the algorithm RNG stream and the timing RNG stream so
#: the same seed yields identical search trajectories regardless of the
#: timing model.
_TIMING_SEED_OFFSET = 0x5EED


class _VirtualRun:
    """What both disciplines share: the engine, the history, the simkit
    environment with its single-capacity master, the timing stream and
    the observed (TA, TC, TF) tallies.  :meth:`hold` is the sampled
    timeout every process yields; :meth:`finish` closes the run out."""

    def __init__(
        self,
        problem: Problem,
        processors: int,
        timing: TimingModel,
        config: Optional[BorgConfig],
        seed: Optional[int],
        machine: Optional[MachineSpec],
        snapshot_interval: Optional[int],
        engine: Optional[BorgEngine],
        collect_trace: bool,
    ) -> None:
        if processors < 2:
            raise ValueError("need at least 2 processors (master + 1 worker)")
        if machine is not None:
            machine.validate_processors(processors)
        cfg = (engine.config if engine is not None else config) or BorgConfig()
        if engine is None:
            engine = BorgEngine(problem, cfg, rng=np.random.default_rng(seed))
        self.engine = engine
        self.processors = processors
        self.timing = timing
        self.trng = np.random.default_rng(
            None if seed is None else seed + _TIMING_SEED_OFFSET
        )
        self.history = RunHistory(
            snapshot_interval=snapshot_interval or cfg.snapshot_interval
        )
        self.observed = {
            "ta": TallyMonitor(), "tc": TallyMonitor(), "tf": TallyMonitor()
        }
        self.env = Environment()
        self.master = Resource(self.env, capacity=1)
        self.worker_evals = np.zeros(processors - 1, dtype=int)
        self.trace = Timeline() if collect_trace else None

    def hold(self, kind: str, actor: str, scale: float = 1.0):
        """Timeout of one sampled ``kind`` duration (times ``scale``),
        tallied unscaled and recorded into the trace."""
        value = getattr(self.timing, f"sample_{kind}")(self.trng)
        self.observed[kind].record(value)
        dt = value * scale
        start = self.env.now
        timeout = self.env.timeout(dt)
        if self.trace is not None:
            self.trace.record(actor, start, start + dt, kind)
        return timeout

    def record(self) -> None:
        """Offer the current archive to the history at the virtual now."""
        engine = self.engine
        self.history.maybe_record(
            engine.nfe, self.env.now, engine.archive.objectives, engine.restarts
        )

    def finish(self, elapsed: float) -> ParallelRunResult:
        """Force the final history record and assemble the result."""
        engine, history, master = self.engine, self.history, self.master
        history.maybe_record(
            engine.nfe, elapsed, engine.archive.objectives, engine.restarts,
            force=True,
        )
        history.total_nfe = engine.nfe
        history.total_restarts = engine.restarts
        history.elapsed = elapsed
        return ParallelRunResult(
            elapsed=float(elapsed),
            nfe=engine.nfe,
            processors=self.processors,
            borg=engine.result(history),
            history=history,
            worker_evaluations=self.worker_evals,
            master_busy=master.busy_time,
            master_mean_wait=master.mean_wait(),
            master_max_queue=master.max_queue_length,
            observed=self.observed,
            trace=self.trace,
        )


def run_async_master_slave(
    problem: Problem,
    processors: int,
    max_nfe: int,
    timing: TimingModel,
    config: Optional[BorgConfig] = None,
    seed: Optional[int] = None,
    machine: Optional[MachineSpec] = None,
    snapshot_interval: Optional[int] = None,
    collect_trace: bool = False,
    batch_size: int = 1,
    engine: Optional[BorgEngine] = None,
    worker_speeds: Optional[np.ndarray] = None,
) -> ParallelRunResult:
    """Asynchronous, master-slave Borg MOEA on a virtual clock.

    Event structure per evaluation (paper §II / Figure 2): the worker
    evaluates for TF; it then queues for the master (contention!); once
    granted, the master receives the result (TC), ingests it and
    generates the next offspring (TA), and sends it back (TC).  The run
    ends when ``max_nfe`` results have been processed; ``elapsed`` is
    the virtual time at that instant.

    ``batch_size`` enables the variant the paper mentions but does not
    study: each message carries that many solutions, the worker
    evaluates them back to back, and the master pays one TC each way
    per batch (but still TA per solution).

    ``worker_speeds`` models a heterogeneous pool: entry ``i``
    multiplies worker ``i``'s TF draws (2.0 = half-speed node).  The
    asynchronous discipline load-balances automatically -- fast workers
    simply come back for work more often -- which is one of its
    practical advantages over the generational barrier.
    """
    if max_nfe < 1:
        raise ValueError("max_nfe must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if worker_speeds is not None:
        worker_speeds = np.asarray(worker_speeds, dtype=float)
        if worker_speeds.shape != (processors - 1,):
            raise ValueError(
                f"worker_speeds needs {processors - 1} entries, "
                f"got {worker_speeds.shape}"
            )
        if np.any(worker_speeds <= 0):
            raise ValueError("worker speeds must be positive")
    run = _VirtualRun(
        problem, processors, timing, config, seed, machine,
        snapshot_interval, engine, collect_trace,
    )
    engine, env, master, hold = run.engine, run.env, run.master, run.hold
    done = env.event()

    def worker(env: Environment, wid: int):
        name = f"worker {wid + 1}"
        # Initial dispatch: the master generates and sends the first
        # batch for each worker sequentially (Figure 2's stagger).
        with master.request() as req:
            yield req
            batch = []
            for _ in range(batch_size):
                yield hold("ta", "master")
                batch.append(engine.next_candidate())
            yield hold("tc", "master")

        speed = 1.0 if worker_speeds is None else float(worker_speeds[wid])
        while not done.triggered:
            # One TF hold per solution (the virtual cost is unchanged),
            # then the whole batch through one vectorized evaluation.
            for _ in batch:
                yield hold("tf", name, scale=speed)
            problem.evaluate_solutions(batch)
            with master.request() as req:
                yield req
                if done.triggered:
                    return
                yield hold("tc", "master")   # worker -> master results
                for candidate in batch:
                    yield hold("ta", "master")   # ingest + generate next
                    engine.ingest(candidate)
                    run.worker_evals[wid] += 1
                    run.record()
                    if engine.nfe >= max_nfe:
                        done.succeed(env.now)
                        return
                batch = [engine.next_candidate() for _ in range(batch_size)]
                yield hold("tc", "master")   # master -> worker dispatch

    for wid in range(processors - 1):
        env.process(worker(env, wid), name=f"worker-{wid}")
    return run.finish(env.run(until=done))


def run_sync_master_slave(
    problem: Problem,
    processors: int,
    max_nfe: int,
    timing: TimingModel,
    config: Optional[BorgConfig] = None,
    seed: Optional[int] = None,
    machine: Optional[MachineSpec] = None,
    snapshot_interval: Optional[int] = None,
    collect_trace: bool = False,
    engine: Optional[BorgEngine] = None,
) -> ParallelRunResult:
    """Synchronous (generational) master-slave Borg on a virtual clock.

    Per generation (Figure 1): the master generates P offspring, sends
    one to each worker (sequential TC), evaluates the last offspring
    itself (TF), waits for every worker's result (each return holds the
    master for TC), then processes the whole generation (P consecutive
    TA holds, matching Cantu-Paz's T_A_sync ~ P * TA).
    """
    if max_nfe < 1:
        raise ValueError("max_nfe must be >= 1")
    run = _VirtualRun(
        problem, processors, timing, config, seed, machine,
        snapshot_interval, engine, collect_trace,
    )
    engine, env, master, hold = run.engine, run.env, run.master, run.hold
    nworkers = processors - 1

    def worker_generation(env: Environment, wid: int, candidate, done_ev):
        yield hold("tf", f"worker {wid + 1}")
        with master.request() as req:
            yield req
            yield hold("tc", "master")   # result return
        run.worker_evals[wid] += 1
        done_ev.succeed(candidate)

    def master_proc(env: Environment):
        while engine.nfe < max_nfe:
            batch = [engine.next_candidate() for _ in range(processors)]
            # Numerically the whole generation is one vectorized batch;
            # the virtual-clock costs (per-worker TF, master's own TF)
            # are still paid at the same instants below.
            problem.evaluate_solutions(batch)
            done_events = []
            with master.request() as req:
                yield req
                for i in range(nworkers):
                    yield hold("tc", "master")   # dispatch to worker i
                    ev = env.event()
                    env.process(
                        worker_generation(env, i, batch[i], ev),
                        name=f"sync-worker-{i}",
                    )
                    done_events.append(ev)
                # Master evaluates the final offspring itself.
                yield hold("tf", "master")
            yield env.all_of(done_events)
            with master.request() as req:
                yield req
                for candidate in batch:
                    yield hold("ta", "master")
                    engine.ingest(candidate)
                    run.record()
                    if engine.nfe >= max_nfe:
                        break
        return env.now

    proc = env.process(master_proc(env), name="sync-master")
    return run.finish(env.run(until=proc))
