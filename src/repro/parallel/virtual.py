"""Virtual-clock master-slave Borg: the paper's experiment, simulated.

These runners execute the *real* Borg algorithm -- actual operators,
actual archive, actual restarts -- on a virtual clock that advances by
sampled (TA, TC, TF) costs instead of wall time.  This is the faithful
substitute for the paper's Ranger runs (see DESIGN.md): every
observable the paper reports (elapsed time, efficiency, master
contention, archive-quality dynamics, and the algorithmic effect of up
to P-1 stale in-flight evaluations) emerges from the same queueing
structure as on the real machine.

The clock is the FIFO-master recurrence of :mod:`repro.models.fastsim`
(``g = max(master_free, a)``, ``c = g + hold``, ``a' = c + TF``) with
the engine working inside each hold.  :class:`_Master` is that
recurrence, the only one under :mod:`repro.parallel`:
:func:`run_async_master_slave` runs one and
:func:`repro.parallel.islands.run_sharded_islands` runs M between
migration epochs.  :func:`run_sync_master_slave` steps the generational
kernel's own per-generation clock (``fastsim._SyncClock``).

Parity contract (``tests/test_parallel_virtual.py``): both runners take
their timing and engine streams from island 0 of
``island_seed_streams(seed, 1)``.  With ``batch_size=1`` and uniform
speeds, :func:`run_async_master_slave` then gives the same ``elapsed``,
``nfe`` and ``master_max_queue`` as ``simulate_async_fast`` on that
timing stream (``master_busy`` and ``master_mean_wait`` to float
rounding), and the same elapsed time and archive, bit for bit, as the
one-island ``run_sharded_islands(..., migration_interval=math.inf)``;
:func:`run_sync_master_slave` matches ``simulate_sync_fast`` the same
way.  Releases that ran these experiments as simkit processes drew every
cost from one RNG in event order, so their seeded timings and ingest
orders differ from these.

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

import math
from heapq import heappop, heappush
from typing import Optional, Sequence

import numpy as np

from ..cluster.machine import MachineSpec
from ..cluster.trace import Timeline
from ..core.borg import BorgConfig, BorgEngine
from ..core.events import RunHistory
from ..core.solution import Solution
from ..models.fastsim import _max_queue_from_events, _SyncClock, island_seed_streams
from ..problems.base import Problem
from ..stats import TallyMonitor
from ..stats.timing import TimingModel, TimingSampler
from .results import ParallelRunResult

__all__ = ["run_async_master_slave", "run_sync_master_slave"]

#: Cost components in draw-counter order.
_KINDS = ("tf", "tc", "ta")
_TF, _TC, _TA = range(3)


class _Master:
    """One FIFO master on the virtual clock, serving cycling workers
    that carry real Borg candidates.

    Each worker is a pending arrival ``(time, worker)`` on a heap.  The
    first service of a worker generates and sends its batch (TA per
    candidate, then TC); every later one receives the results (TC),
    ingests each and generates its successor (TA each) and sends the
    next batch (TC).  The served worker then draws one TF per candidate
    (times its speed) and re-arrives; the service that completes the
    budget draws none.  Draw counts, the arrival and grant logs and the
    observed tallies are kept so a run reports the kernel's statistics
    and an island can resume its timing streams from a checkpoint.
    Between services every field is plain data.
    """

    __slots__ = (
        "engine", "batch_size", "speeds", "history", "trace",
        "heap", "inflight", "initial_left", "master_free", "busy", "done",
        "elapsed", "checkpoints", "exchanges", "draws", "tallies",
        "worker_evals", "arrivals", "grants", "total_wait", "_take",
    )

    def __init__(
        self, engine: BorgEngine, sampler: TimingSampler, workers: int,
        batch_size: int = 1, speeds: Optional[Sequence[float]] = None,
        history: Optional[RunHistory] = None, trace: Optional[Timeline] = None,
    ) -> None:
        self.engine = engine
        self.batch_size = batch_size
        self.speeds = speeds
        self.history = history
        self.trace = trace
        self.heap: list[tuple[float, int]] = [(0.0, w) for w in range(workers)]
        self.inflight: dict[int, list[Solution]] = {}
        self.initial_left = workers
        self.master_free = 0.0
        self.busy = 0.0
        self.done = False
        self.elapsed = 0.0
        #: (nfe, completion time) at every quarter of the budget.
        self.checkpoints: list[tuple[int, float]] = []
        #: Non-worker requests served (migration exchanges).
        self.exchanges = 0
        #: Per-component draw counts [tf, tc, ta]; a resumed sampler is
        #: fast-forwarded to these positions (streams are pure functions
        #: of (seed, position)).
        self.draws = [0, 0, 0]
        self.tallies = [TallyMonitor() for _ in _KINDS]
        self.worker_evals = np.zeros(workers, dtype=int)
        self.arrivals: list[float] = [0.0] * workers
        self.grants: list[float] = []
        self.total_wait = 0.0
        self._take = (sampler.tf, sampler.tc, sampler.ta)

    def draw(self, kind: int) -> float:
        """One counted, tallied draw of component ``kind``."""
        self.draws[kind] += 1
        value = self._take[kind]()
        self.tallies[kind].record(value)
        return value

    def _hold(self, hold: float, kind: int, grant: float) -> float:
        """Extend the master service granted at ``grant`` by one
        ``kind`` draw; returns the new hold."""
        value = self.draw(kind)
        if self.trace is not None:
            self.trace.record(
                "master", grant + hold, grant + (hold + value), _KINDS[kind]
            )
        return hold + value

    def _grant(self, a: float) -> float:
        g = self.master_free if self.master_free > a else a
        self.grants.append(g)
        self.total_wait += g - a
        return g

    def serve_until(self, limit: float, max_nfe: int, quarter: int) -> None:
        """Serve every worker arrival strictly before ``limit``, FIFO,
        stopping when the engine's NFE reaches ``max_nfe``."""
        heap, engine, hold_ = self.heap, self.engine, self._hold
        while not self.done and heap and heap[0][0] < limit:
            a, wid = heappop(heap)
            g = self._grant(a)
            hold = 0.0
            marks = []
            if self.initial_left > 0:
                self.initial_left -= 1
                batch = []
                for _ in range(self.batch_size):
                    hold = hold_(hold, _TA, g)
                    batch.append(engine.next_candidate())
                hold = hold_(hold, _TC, g)
            else:
                batch = self.inflight[wid]
                for candidate in batch:
                    if not candidate.evaluated:
                        engine.problem.evaluate(candidate)
                hold = hold_(hold, _TC, g)
                for candidate in batch:
                    hold = hold_(hold, _TA, g)
                    engine.ingest(candidate)
                    self.worker_evals[wid] += 1
                    if self.history is not None:
                        self.history.maybe_record(
                            engine.nfe, g + hold, engine.archive.objectives,
                            engine.restarts,
                        )
                    if engine.nfe % quarter == 0:
                        marks.append(engine.nfe)
                    if engine.nfe >= max_nfe:
                        self.done = True
                        break
                if not self.done:
                    batch = [engine.next_candidate() for _ in batch]
                hold = hold_(hold, _TC, g)
            c = g + hold
            self.master_free = c
            self.busy += hold
            self.checkpoints.extend((nfe, c) for nfe in marks)
            if self.done:
                self.elapsed = c
                return
            self.inflight[wid] = batch
            # Completion: the worker evaluates its batch and re-arrives.
            speed = 1.0 if self.speeds is None else self.speeds[wid]
            t = c
            for _ in batch:
                start = t
                t = t + self.draw(_TF) * speed
                if self.trace is not None:
                    self.trace.record(f"worker {wid + 1}", start, t, "tf")
            heappush(heap, (t, wid))
            self.arrivals.append(t)

    def serve_exchange(self, a: float, tc_draws: int, ta_draws: int) -> None:
        """Serve a non-worker request that joined the queue at ``a``
        (an island's migration exchange): ``tc_draws`` TC then
        ``ta_draws`` TA, drawn at service time in that order."""
        g = self._grant(a)
        self.arrivals.append(a)
        hold = 0.0
        for _ in range(tc_draws):
            hold = self._hold(hold, _TC, g)
        for _ in range(ta_draws):
            hold = self._hold(hold, _TA, g)
        self.master_free = g + hold
        self.busy += hold
        self.exchanges += 1

    def queue_stats(self) -> tuple[float, int]:
        """``(mean wait, max queue)`` up to the finish.  As in the
        kernel, the release that completes the budget grants one more
        queued request (a wait observation, no busy time)."""
        grants, total_wait = self.grants, self.total_wait
        if self.heap and self.heap[0][0] <= self.elapsed:
            total_wait += self.elapsed - self.heap[0][0]
            grants = grants + [self.elapsed]
        max_queue = _max_queue_from_events(
            [t for t in self.arrivals if t <= self.elapsed], grants
        )
        return (total_wait / len(grants) if grants else 0.0), max_queue

def _start(
    problem: Problem, processors: int, timing: TimingModel,
    config: Optional[BorgConfig], seed: Optional[int],
    machine: Optional[MachineSpec], snapshot_interval: Optional[int],
    engine: Optional[BorgEngine],
) -> tuple[BorgEngine, TimingSampler, RunHistory]:
    """What both disciplines share at the start: validation, the engine
    and timing streams (island 0 of ``island_seed_streams(seed, 1)``)
    and the history."""
    if processors < 2:
        raise ValueError("need at least 2 processors (master + 1 worker)")
    if machine is not None:
        machine.validate_processors(processors)
    timing_ss, _migration_ss, engine_ss = island_seed_streams(seed, 1)[0]
    cfg = (engine.config if engine is not None else config) or BorgConfig()
    if engine is None:
        engine = BorgEngine(problem, cfg, rng=np.random.default_rng(engine_ss))
    history = RunHistory(
        snapshot_interval=snapshot_interval or cfg.snapshot_interval
    )
    return engine, TimingSampler(timing, timing_ss), history


def _finish(
    engine: BorgEngine, history: RunHistory, processors: int, elapsed: float,
    **fields,
) -> ParallelRunResult:
    """Force the final history record and assemble the result."""
    history.maybe_record(
        engine.nfe, elapsed, engine.archive.objectives, engine.restarts,
        force=True,
    )
    history.total_nfe = engine.nfe
    history.total_restarts = engine.restarts
    history.elapsed = elapsed
    return ParallelRunResult(
        elapsed=float(elapsed), nfe=engine.nfe, processors=processors,
        borg=engine.result(history), history=history, **fields,
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
    ends with the service that ingests the ``max_nfe``-th result;
    ``elapsed`` is that service's completion on the virtual clock.
    Seeded timings follow the module's parity contract with
    :func:`~repro.models.fastsim.simulate_async_fast` (they differ from
    releases that ran this experiment on simkit processes).

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
    speeds = None
    if worker_speeds is not None:
        worker_speeds = np.asarray(worker_speeds, dtype=float)
        if worker_speeds.shape != (processors - 1,):
            raise ValueError(
                f"worker_speeds needs {processors - 1} entries, "
                f"got {worker_speeds.shape}"
            )
        if np.any(worker_speeds <= 0):
            raise ValueError("worker speeds must be positive")
        speeds = worker_speeds.tolist()
    engine, sampler, history = _start(
        problem, processors, timing, config, seed, machine,
        snapshot_interval, engine,
    )
    master = _Master(
        engine, sampler, processors - 1, batch_size, speeds, history,
        Timeline() if collect_trace else None,
    )
    master.serve_until(math.inf, max_nfe, max(1, max_nfe // 4))
    mean_wait, max_queue = master.queue_stats()
    return _finish(
        engine, history, processors, master.elapsed,
        worker_evaluations=master.worker_evals, master_busy=master.busy,
        master_mean_wait=mean_wait, master_max_queue=max_queue,
        observed=dict(zip(_KINDS, master.tallies)), trace=master.trace,
    )


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
    master for TC, FIFO), then processes the whole generation (P
    consecutive TA holds, matching Cantu-Paz's T_A_sync ~ P * TA); the
    j-th offspring is ingested when its TA completes.  The clock is the
    generational kernel's own per-generation step, so seeded timings
    match :func:`~repro.models.fastsim.simulate_sync_fast` (and differ
    from releases that ran this experiment on simkit processes).
    """
    if max_nfe < 1:
        raise ValueError("max_nfe must be >= 1")
    engine, sampler, history = _start(
        problem, processors, timing, config, seed, machine,
        snapshot_interval, engine,
    )
    workers = processors - 1
    clock = _SyncClock(sampler, workers)
    tallies = {kind: TallyMonitor() for kind in _KINDS}
    trace = Timeline() if collect_trace else None
    worker_evals = np.zeros(workers, dtype=int)

    while engine.nfe < max_nfe:
        batch = [engine.next_candidate() for _ in range(processors)]
        # Numerically the whole generation is one vectorized batch; the
        # virtual-clock costs are paid at the instants the step yields.
        problem.evaluate_solutions(batch)
        n_ta = min(processors, max_nfe - engine.nfe)
        gen = clock.step(n_ta)
        worker_evals += 1
        for kind, values in (
            ("tc", gen.tc_dispatch), ("tf", gen.tf_drawn),
            ("tc", gen.tc_collect), ("ta", gen.ta),
        ):
            for value in values.tolist():
                tallies[kind].record(value)
        if trace is not None:
            _trace_generation(trace, gen)
        for candidate, t in zip(batch, gen.ta_done.tolist()):
            engine.ingest(candidate)
            history.maybe_record(
                engine.nfe, t, engine.archive.objectives, engine.restarts
            )

    return _finish(
        engine, history, processors, clock.now,
        worker_evaluations=worker_evals, master_busy=float(clock.busy),
        master_mean_wait=clock.mean_wait, master_max_queue=clock.max_queue,
        observed=tallies, trace=trace,
    )


def _trace_generation(trace: Timeline, gen) -> None:
    """Record one generation's spans: dispatch TCs, the master's own TF,
    each worker's TF, the FIFO collection TCs and the TA holds."""
    starts = np.concatenate([[gen.start], gen.spawn[:-1]])
    for s, e in zip(starts.tolist(), gen.spawn.tolist()):
        trace.record("master", s, e, "tc")
    trace.record("master", float(gen.spawn[-1]), gen.master_release, "tf")
    spans = zip(gen.spawn.tolist(), gen.tf_workers.tolist())
    for i, (s, tf) in enumerate(spans):
        trace.record(f"worker {i + 1}", s, s + tf, "tf")
    for s, e in zip(gen.grants.tolist(), gen.completions.tolist()):
        trace.record("master", s, e, "tc")
    ends = gen.ta_done.tolist()
    for s, e in zip([float(gen.completions[-1])] + ends[:-1], ends):
        trace.record("master", s, e, "ta")
