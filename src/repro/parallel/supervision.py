"""Worker supervision: fault detection, re-dispatch, and quarantine.

The paper's premise is that the *asynchronous* master-slave topology
degrades gracefully under worker churn at 62,976-core scale (§IV-B,
extended by :mod:`repro.models.faults`).  This module supplies the
machinery the real execution backends need to actually survive that
churn instead of merely simulating it:

* :class:`SupervisorConfig` -- knobs of the supervised master loop
  (receive deadline, per-task timeout, respawn policy, backoff);
* :class:`TaskRecord` / :class:`TaskTable` -- per-task dispatch
  bookkeeping with exactly-once ingestion (a task id is ingested at
  most once no matter how many times it was re-dispatched, so NFE
  accounting stays exact under duplicates);
* :func:`validate_reply` -- shape/dtype/NaN guards on worker replies
  (corrupt results are quarantined and re-evaluated, never ingested);
* :class:`FaultStats` -- counters surfaced on
  :class:`~repro.parallel.results.ParallelRunResult` so robustness is
  observable, not silent;
* :exc:`NoLiveWorkersError` -- raised instead of hanging when the
  worker pool is extinct and respawn cannot replenish it;
* :func:`run_master_loop` -- the one supervised master loop of every
  real backend: the master alone generates, ingests and archives
  (§II), while a :class:`WorkerPool` (threads, processes, MPI ranks)
  only moves tasks to workers and replies back, and
  :func:`evaluate_task` is the worker body they share.

The supervision *state machine* is documented in docs/RESILIENCE.md.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from ..core.borg import BorgConfig, BorgEngine
from ..core.checkpoint import restore_engine, save_checkpoint
from ..core.events import RunHistory
from ..core.solution import Solution
from ..problems.base import Problem

__all__ = [
    "ANY_WORKER",
    "MSG_OK",
    "MSG_ERR",
    "FaultStats",
    "NoLiveWorkersError",
    "SupervisorConfig",
    "TaskRecord",
    "TaskTable",
    "WorkerPool",
    "assign_results",
    "evaluate_task",
    "run_master_loop",
    "validate_reply",
]

#: Reply-tuple tags of the worker protocol (shared by every real
#: backend): ``(MSG_OK, wid, task_id, payload...)`` for a
#: completed evaluation, ``(MSG_ERR, wid, task_id, message)`` when the
#: worker caught a per-task exception.
MSG_OK = "ok"
MSG_ERR = "err"

#: Slot id of a task put on a shared queue that any worker takes from.
ANY_WORKER = -1


class NoLiveWorkersError(RuntimeError):
    """The worker pool is extinct and cannot be replenished.

    Raised by supervised masters instead of blocking forever on a
    result that can never arrive (the failure mode of the old bare
    ``results.get()`` loop).
    """


@dataclass
class SupervisorConfig:
    """Policy knobs of the supervised master loop.

    The defaults are safe for healthy runs: supervision only costs one
    bounded ``get(timeout=poll_interval)`` per idle interval, and no
    task is ever re-dispatched unless a fault is actually detected.
    """

    #: Bounded receive timeout (seconds); each expiry triggers one
    #: liveness/deadline sweep over the worker pool.
    poll_interval: float = 0.05
    #: Per-task deadline (seconds from dispatch).  A task exceeding it
    #: is presumed lost to a hung worker: the worker is killed (process
    #: backend) or counted out (threads, MPI) and the task is
    #: re-dispatched.  ``None`` disables deadline enforcement.
    task_timeout: Optional[float] = None
    #: Respawn dead worker processes (process backend only).
    respawn: bool = True
    #: Cap on respawns per worker slot; ``None`` means unlimited.
    max_respawns: Optional[int] = None
    #: Base of the capped exponential respawn backoff (seconds).
    backoff_base: float = 0.05
    #: Ceiling of the respawn backoff (seconds).
    backoff_max: float = 2.0
    #: Give up (raise) after a single task has been dispatched this
    #: many times without producing a valid result.
    max_dispatches_per_task: int = 8
    #: Run shape/NaN validation on worker replies and quarantine +
    #: re-evaluate corrupt results.
    validate: bool = True

    def __post_init__(self) -> None:
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive when set")
        if self.max_dispatches_per_task < 1:
            raise ValueError("max_dispatches_per_task must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < self.backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_max")

    def backoff(self, respawns: int) -> float:
        """Capped exponential backoff before the ``respawns``-th respawn."""
        return min(self.backoff_max, self.backoff_base * (2.0 ** respawns))


@dataclass
class FaultStats:
    """Counters of everything the supervisor detected and repaired."""

    #: Worker deaths and hang kills detected by the supervisor.
    failures_detected: int = 0
    #: In-flight tasks re-dispatched after a fault.
    tasks_redispatched: int = 0
    #: Worker replies rejected by validation (shape/dtype/NaN) or
    #: carrying a structured worker error.
    results_quarantined: int = 0
    #: Worker processes respawned after a death.
    workers_respawned: int = 0
    #: Structured per-task error replies received from workers.
    worker_errors: int = 0
    #: Late replies for already-ingested task ids (dropped by dedup).
    duplicate_results: int = 0
    #: Checkpoint files written during the run.
    checkpoints_written: int = 0
    #: Islands retired early because their worker pool died
    #: (:exc:`NoLiveWorkersError` in a sharded island run); their
    #: archive shards stay in the global merge.
    islands_retired: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "failures_detected": self.failures_detected,
            "tasks_redispatched": self.tasks_redispatched,
            "results_quarantined": self.results_quarantined,
            "workers_respawned": self.workers_respawned,
            "worker_errors": self.worker_errors,
            "duplicate_results": self.duplicate_results,
            "checkpoints_written": self.checkpoints_written,
            "islands_retired": self.islands_retired,
        }


@dataclass
class TaskRecord:
    """One outstanding task: its candidates plus dispatch telemetry."""

    task_id: int
    group: list[Solution]
    #: Worker slot the task is currently assigned to (None = backlog).
    wid: Optional[int] = None
    #: ``time.monotonic()`` of the most recent dispatch.
    dispatched_at: float = 0.0
    #: Deadline of the current dispatch (monotonic; None = no deadline).
    deadline: Optional[float] = None
    #: How many times the task has been handed to a worker.
    dispatches: int = 0

    def mark_dispatched(self, wid: int, timeout: Optional[float]) -> None:
        self.wid = wid
        self.dispatched_at = time.monotonic()
        self.deadline = (
            None if timeout is None else self.dispatched_at + timeout
        )
        self.dispatches += 1


class TaskTable:
    """In-flight task bookkeeping with exactly-once ingestion.

    Every candidate handed out by the engine lives in exactly one
    :class:`TaskRecord` until its evaluation is ingested; ``pop`` both
    resolves a reply to its record and guards against duplicates (a
    re-dispatched task that was ultimately completed twice resolves on
    the first reply only).
    """

    def __init__(self) -> None:
        self._records: dict[int, TaskRecord] = {}
        self._next_id = 0
        #: Records assigned to each worker slot, the slots holding none
        #: (in the order they fell idle) and the candidates in all
        #: records, kept up to date so the master never scans the table.
        self._load: Counter = Counter()
        self._idle: dict[int, None] = {}
        self._candidates = 0

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def new(self, group: list[Solution]) -> TaskRecord:
        record = TaskRecord(task_id=self._next_id, group=group)
        self._records[record.task_id] = record
        self._next_id += 1
        self._candidates += len(group)
        return record

    def get(self, task_id: int) -> Optional[TaskRecord]:
        return self._records.get(task_id)

    def pop(self, task_id: int) -> Optional[TaskRecord]:
        """Resolve ``task_id``; None means an already-resolved duplicate."""
        record = self._records.pop(task_id, None)
        if record is not None:
            self.release(record)
            self._candidates -= len(record.group)
        return record

    def dispatch(self, record: TaskRecord, wid: int, timeout: Optional[float]) -> None:
        """Assign ``record`` to worker slot ``wid`` (moving it off any
        slot it held) with a deadline ``timeout`` seconds away."""
        self.release(record)
        record.mark_dispatched(wid, timeout)
        self._load[wid] += 1
        self._idle.pop(wid, None)

    def release(self, record: TaskRecord) -> None:
        """Take ``record`` off its worker slot (it waits in a backlog)."""
        if record.wid is not None:
            self._load[record.wid] -= 1
            if not self._load[record.wid]:
                self._idle[record.wid] = None
            record.wid = None

    def add_idle(self, slots: Iterable[int]) -> None:
        """Register worker slots that hold no record yet."""
        self._idle.update((w, None) for w in slots if not self._load[w])

    def idle(self) -> Collection[int]:
        """Registered slots holding no record, longest idle first."""
        return self._idle.keys()

    def load(self, wid: int) -> int:
        """Number of records assigned to worker slot ``wid``."""
        return self._load[wid]

    def candidates_in_flight(self) -> int:
        """Total candidates outstanding (dispatch accounting)."""
        return self._candidates

    def assigned_to(self, wid: int) -> list[TaskRecord]:
        """Records currently assigned to worker slot ``wid``."""
        return [r for r in self._records.values() if r.wid == wid]

    def expired(self, now: float) -> list[TaskRecord]:
        """Records whose current dispatch blew its deadline."""
        return [
            r
            for r in self._records.values()
            if r.deadline is not None and r.wid is not None and now > r.deadline
        ]

    def records(self) -> list[TaskRecord]:
        """All outstanding records in task-id (dispatch) order."""
        return [self._records[tid] for tid in sorted(self._records)]


def validate_reply(
    F: object,
    C: object,
    n: int,
    nobjs: int,
    nconstraints: int,
) -> Optional[str]:
    """Validate one worker reply payload; return a rejection reason.

    Checks the objective block for shape ``(n, nobjs)``, float dtype
    coercibility, and NaN/Inf corruption, and the constraint block
    (when the problem has constraints) for shape and finiteness.
    Returns ``None`` when the payload is safe to ingest.
    """
    try:
        F = np.asarray(F, dtype=float)
    except (TypeError, ValueError):
        return "objectives not coercible to float"
    if F.shape != (n, nobjs):
        return f"objective block has shape {F.shape}, expected {(n, nobjs)}"
    if not np.all(np.isfinite(F)):
        return "objectives contain NaN/Inf"
    if C is not None:
        try:
            C = np.asarray(C, dtype=float)
        except (TypeError, ValueError):
            return "constraints not coercible to float"
        if C.ndim != 2 or C.shape[0] != n:
            return f"constraint block has shape {C.shape}, expected ({n}, ...)"
        if not np.all(np.isfinite(C)):
            return "constraints contain NaN/Inf"
    elif nconstraints > 0:
        return f"missing constraint block ({nconstraints} expected)"
    return None


def assign_results(
    group: Sequence[Solution], F: np.ndarray, C: Optional[np.ndarray]
) -> None:
    """Copy a validated reply's blocks onto its candidate solutions."""
    F = np.asarray(F, dtype=float)
    for i, candidate in enumerate(group):
        candidate.objectives = np.asarray(F[i], dtype=float)
        if C is not None:
            candidate.constraints = np.asarray(C[i], dtype=float)


_DELAY_LOCK = threading.Lock()  # workers sharing a problem draw delays in turn


def evaluate_task(problem: Problem, wid: int, task_id: int, X) -> tuple:
    """Worker side: evaluate the block ``X`` (sleeping the problem's
    delay when it is real) and return the reply tuple.  An exception
    becomes an ``MSG_ERR`` reply; only a hard crash kills the worker.
    Workers never touch candidate solutions, so a late reply cannot
    corrupt an ingested one."""
    try:
        X = np.asarray(X, dtype=float)
        F, C = problem._evaluate_batch(X)
        if getattr(problem, "real_delay", False):
            with _DELAY_LOCK:
                delay = sum(problem.sample_evaluation_time() for _ in X)
            time.sleep(delay)
        C = None if C is None else np.asarray(C, dtype=float)
        return (MSG_OK, wid, task_id, np.asarray(F, dtype=float), C)
    except Exception as exc:  # noqa: BLE001 -- structured error reply
        return (MSG_ERR, wid, task_id, f"{type(exc).__name__}: {exc}")


class WorkerPool:
    """Transport under :func:`run_master_loop`: it moves task blocks to
    workers and reply tuples back; every decision about what to send,
    re-send, ingest or give up on belongs to the loop.  The defaults
    suit a transport that can neither see a worker die nor kill one.

    ``size`` is the number of worker slots (the paper's P - 1), ``name``
    goes into checkpoint metadata, and ``observed`` (measured cost
    samples) becomes ``ParallelRunResult.observed``.
    """

    size: int
    name: str
    observed: dict

    def start(self) -> None:
        """Launch the workers."""

    def close(self) -> None:
        """Stop the workers and release the transport."""

    def live(self) -> Collection[int]:
        """Slots a task can go to now, in slot order (``[ANY_WORKER]``: a
        shared queue).  The loop tests membership, so a large pool
        should return a set-like view."""
        raise NotImplementedError

    def submit(self, wid: int, task_id: int, X: np.ndarray) -> None:
        """Send the ``(n, nvars)`` block ``X`` to slot ``wid``."""
        raise NotImplementedError

    def receive(self, timeout: float) -> Optional[tuple]:
        """Next reply tuple, or ``None`` after ``timeout`` seconds."""
        raise NotImplementedError

    def poll(self) -> tuple[list[tuple[int, str]], int]:
        """Liveness sweep: (dead slots with reasons, respawns done)."""
        return [], 0

    def kill(self, wid: int, task_id: int) -> bool:
        """``task_id`` blew its deadline on ``wid``: True if the worker
        was killed (all its tasks are lost), False if counted out."""
        return False

    def exhausted(self) -> bool:
        """No worker is live and none is coming back."""
        return False


def run_master_loop(
    pool: WorkerPool,
    problem: Problem,
    max_nfe: int,
    config: Optional[BorgConfig] = None,
    seed: Optional[int] = None,
    snapshot_interval: Optional[int] = None,
    batch_size: int = 1,
    supervisor: Optional[SupervisorConfig] = None,
    checkpoint: Optional[str] = None,
    checkpoint_interval: Optional[int] = None,
    resume: Optional[str] = None,
    publisher=None,
):
    """Supervised master-slave Borg over ``pool``'s workers.

    Asynchronous: a task of ``batch_size`` candidates per worker stays
    in flight, each ingested reply replaced at once (§II).  Each
    iteration sweeps liveness and deadlines, then waits up to
    ``poll_interval`` for a reply; lost, failed and corrupt tasks are
    re-dispatched.  The clock stops before the pool shuts down.
    """
    from .results import ParallelRunResult  # noqa: PLC0415 -- import cycle

    if pool.size < 1:
        raise ValueError("need at least 2 processors (master + 1 worker)")
    if max_nfe < 1:
        raise ValueError("max_nfe must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if checkpoint_interval is not None and checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")
    sup = supervisor or SupervisorConfig()
    stats = FaultStats()
    if resume is not None:
        engine = restore_engine(problem, resume, config=config)
    else:
        rng = np.random.default_rng(seed)
        engine = BorgEngine(problem, config or BorgConfig(), rng=rng)
    engine.publisher = publisher
    cfg = engine.config
    history = RunHistory(
        snapshot_interval=snapshot_interval or cfg.snapshot_interval
    )
    ckpt_every = checkpoint_interval or cfg.snapshot_interval
    last_checkpoint_nfe = engine.nfe
    worker_evals = np.zeros(pool.size, dtype=int)
    table = TaskTable()
    #: Faulted tasks waiting for a live worker.
    backlog: list[TaskRecord] = []
    emit = publisher.emit if publisher is not None else lambda kind, **data: None

    def assign(record: TaskRecord, avoid=None) -> None:
        """Send ``record`` to the longest idle live slot, else the least
        loaded, else backlog it.  In steady state the only idle slot is
        the one that just replied, so a dispatch costs O(1) however many
        slots there are.  ``avoid`` (the slot a re-dispatched task
        failed on) is taken only when no other slot is live."""
        targets = pool.live()
        if not targets:
            table.release(record)
            backlog.append(record)
            return
        wid = next((w for w in table.idle() if w != avoid and w in targets), None)
        if wid is None:
            wid = min(targets, key=lambda w: (w == avoid, table.load(w)))
        table.dispatch(record, wid, sup.task_timeout)
        pool.submit(wid, record.task_id, np.stack([c.variables for c in record.group]))

    def refill() -> None:
        while len(table) < pool.size:
            remaining = max_nfe - engine.nfe - table.candidates_in_flight()
            if remaining <= 0:
                return
            count = min(batch_size, remaining)
            assign(table.new([engine.next_candidate() for _ in range(count)]))

    def redispatch(record: TaskRecord, why: str) -> None:
        if record.dispatches >= sup.max_dispatches_per_task:
            raise NoLiveWorkersError(
                f"task {record.task_id} failed {record.dispatches} dispatches "
                f"(last: {why}); giving up"
            )
        stats.tasks_redispatched += 1
        emit("redispatch", task=record.task_id, reason=why)
        assign(record, avoid=record.wid)

    def worker_lost(wid: int, why: str) -> None:
        stats.failures_detected += 1
        emit("worker-fault", worker=wid, reason=why)
        # Any reply the worker sent first is absorbed by task-id dedup.
        for record in table.assigned_to(wid):
            redispatch(record, why)

    def supervise() -> None:
        dead, respawned = pool.poll()
        stats.workers_respawned += respawned
        for wid, why in dead:
            worker_lost(wid, why)
        if sup.task_timeout is not None:
            now = time.monotonic()
            for record in table.expired(now):
                # An earlier kill in this sweep may have re-dispatched it.
                if record.wid is None or now <= record.deadline:
                    continue
                why = "task deadline exceeded"
                if pool.kill(record.wid, record.task_id):
                    worker_lost(record.wid, why)
                else:
                    stats.failures_detected += 1
                    emit("worker-fault", task=record.task_id, reason=why)
                    redispatch(record, why)
        while backlog and pool.live():
            assign(backlog.pop(0))
        if pool.exhausted():
            raise NoLiveWorkersError(
                f"all {pool.size} workers are dead and respawn is "
                f"{'exhausted' if sup.respawn else 'disabled'} "
                f"(nfe {engine.nfe}/{max_nfe})"
            )

    def maybe_checkpoint(every: int) -> None:
        nonlocal last_checkpoint_nfe
        if checkpoint is None or engine.nfe - last_checkpoint_nfe < every:
            return
        in_flight = [c for r in table.records() for c in r.group]
        meta = {"backend": pool.name, "max_nfe": max_nfe}
        save_checkpoint(engine, checkpoint, extra_pending=in_flight, meta=meta)
        last_checkpoint_nfe = engine.nfe
        stats.checkpoints_written += 1

    def handle(reply: tuple) -> None:
        kind, wid, task_id = reply[:3]
        record = table.get(task_id)
        if record is None:
            stats.duplicate_results += 1
            return
        if kind == MSG_ERR:
            stats.worker_errors += 1
            if record.wid not in (wid, ANY_WORKER):
                # Stale error: the live re-dispatch is still in flight.
                stats.duplicate_results += 1
                return
            stats.results_quarantined += 1
            emit("worker-fault", worker=wid, reason=str(reply[3]))
            redispatch(record, f"worker error: {reply[3]}")
            return
        F, C = reply[3], reply[4]
        if sup.validate:
            reason = validate_reply(
                F, C, len(record.group), problem.nobjs, problem.nconstraints
            )
            if reason is not None:
                stats.results_quarantined += 1
                redispatch(record, f"invalid result: {reason}")
                return
        table.pop(task_id)
        assign_results(record.group, F, C)
        for candidate in record.group:
            engine.ingest(candidate)
        problem.evaluations += len(record.group)
        worker_evals[wid] += len(record.group)
        history.maybe_record(
            engine.nfe,
            time.perf_counter() - start,
            engine.archive.objectives,
            engine.restarts,
        )
        maybe_checkpoint(ckpt_every)
        refill()

    start = time.perf_counter()
    pool.start()
    try:
        table.add_idle(pool.live())
        refill()
        while engine.nfe < max_nfe:
            supervise()
            reply = pool.receive(sup.poll_interval)
            if reply is not None:
                handle(reply)
        elapsed = time.perf_counter() - start
    finally:
        pool.close()

    maybe_checkpoint(1)
    history.maybe_record(
        engine.nfe, elapsed, engine.archive.objectives, engine.restarts, force=True
    )
    history.total_nfe = engine.nfe
    history.total_restarts = engine.restarts
    history.elapsed = elapsed
    return ParallelRunResult(
        elapsed=elapsed,
        nfe=engine.nfe,
        processors=pool.size + 1,
        borg=engine.result(history),
        history=history,
        worker_evaluations=worker_evals,
        observed=pool.observed,
        faults=stats,
    )
