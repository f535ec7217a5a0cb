"""Process-backed master-slave Borg: true multi-core parallelism.

Workers are separate OS processes communicating over multiprocessing
queues -- the closest local analogue of the paper's MPI ranks.  The
problem object is pickled once to each worker at startup; each task
message carries only the decision vectors, and each result only the
objective/constraint blocks, mirroring the constant-payload messages
whose cost the paper measured as TC.

This module is the transport under the supervised master loop
(:func:`repro.parallel.supervision.run_master_loop`, docs/RESILIENCE.md):
the loop sweeps the pool for dead workers (``Process.is_alive()``) and
blown per-task deadlines, a hung worker is killed, and dead workers are
respawned with capped exponential backoff (or the pool shrinks
gracefully when respawn is off).  Each worker slot owns a private task
queue, so the master knows exactly which in-flight tasks died with a
worker.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import queue as pyqueue
import time
from multiprocessing.queues import Queue as _MPQueue
from multiprocessing.reduction import ForkingPickler
from typing import Optional

import numpy as np

from ..core.borg import BorgConfig
from ..problems.base import Problem
from .results import ParallelRunResult
from .supervision import SupervisorConfig, WorkerPool, evaluate_task, run_master_loop

__all__ = ["run_process_master_slave"]


def _worker_main(problem: Problem, tasks, results, wid: int, generation: int = 0) -> None:
    """Worker process: evaluate blocks of decision vectors until poisoned.

    Each task is ``(task_id, X)`` with ``X`` an ``(n, nvars)`` block;
    the reply is ``("ok", wid, task_id, F, C)``.  Per-task exceptions
    are caught and reported as ``("err", wid, task_id, message)``
    instead of killing the worker silently -- only a hard crash
    (signal, ``os._exit``) takes the process down, and the master's
    liveness sweep covers that case.
    """
    reseed = getattr(problem, "reseed_worker", None)
    if callable(reseed):
        reseed(wid, generation)
    with contextlib.suppress(KeyboardInterrupt):
        for task_id, X in iter(tasks.get, None):
            results.put(evaluate_task(problem, wid, task_id, X))


class _ReplyQueue(_MPQueue):
    """Result queue whose ``put`` writes before returning.  The stock
    feeder thread writes later, under the write lock all workers share,
    so a worker crashing mid-write would silence every other worker.
    (Mirrors the stock ``put`` plus feeder, on their private fields.)"""

    def put(self, obj, block=True, timeout=None) -> None:
        self._sem.acquire(block, timeout)
        with self._wlock or contextlib.nullcontext():
            self._send_bytes(ForkingPickler.dumps(obj))


def _drain_and_close(q) -> None:
    """Drain a multiprocessing queue, close it, and join its feeder.

    Stranded items keep the queue's feeder thread alive and can leave
    zombie results pinned in the pipe after an interrupted run; a full
    drain lets ``join_thread`` complete promptly.
    """
    try:
        while True:
            q.get_nowait()
    except (pyqueue.Empty, OSError, ValueError, EOFError):
        pass
    try:
        q.close()
        q.join_thread()
    except (OSError, ValueError, AssertionError):
        try:
            q.cancel_join_thread()
        except Exception:
            pass


class _WorkerSlot:
    """One supervised worker position (stable ``wid`` across respawns);
    retired when it has neither a process nor a pending respawn."""

    __slots__ = ("wid", "proc", "queue", "generation", "respawns", "respawn_at")

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.proc = None
        self.queue = None
        self.generation = 0
        self.respawns = 0
        #: Monotonic instant of the pending respawn (None = not pending).
        self.respawn_at: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class _ProcessPool(WorkerPool):
    """Worker processes, one private task queue each, one result queue."""

    name = "processes"

    def __init__(self, problem: Problem, size: int, start_method: str, sup) -> None:
        self.problem, self.size, self.sup = problem, size, sup
        self.observed: dict = {}
        self.ctx = mp.get_context(start_method)
        self.results = None
        self.slots = [_WorkerSlot(w) for w in range(size)]

    def _spawn(self, slot: _WorkerSlot) -> None:
        slot.queue = self.ctx.Queue()
        args = (self.problem, slot.queue, self.results, slot.wid, slot.generation)
        slot.proc = self.ctx.Process(target=_worker_main, args=args, daemon=True)
        slot.respawn_at = None
        slot.proc.start()

    def _bury(self, slot: _WorkerSlot) -> None:
        """Reap the slot's process, then schedule a respawn or retire it."""
        proc, task_queue = slot.proc, slot.queue
        slot.proc = slot.queue = None
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
        _drain_and_close(task_queue)
        sup, cap = self.sup, self.sup.max_respawns
        if sup.respawn and (cap is None or slot.respawns < cap):
            slot.respawn_at = time.monotonic() + sup.backoff(slot.respawns)
            slot.respawns += 1
            slot.generation += 1

    def start(self) -> None:
        self.results = _ReplyQueue(ctx=self.ctx)
        for slot in self.slots:
            self._spawn(slot)

    def live(self) -> list[int]:
        return [s.wid for s in self.slots if s.alive]

    def submit(self, wid: int, task_id: int, X: np.ndarray) -> None:
        self.slots[wid].queue.put((task_id, X))

    def receive(self, timeout: float) -> Optional[tuple]:
        try:
            return self.results.get(timeout=timeout)
        except pyqueue.Empty:
            return None

    def poll(self) -> tuple[list[tuple[int, str]], int]:
        dead, respawned = [], 0
        now = time.monotonic()
        for slot in self.slots:
            if slot.proc is None:
                if slot.respawn_at is not None and now >= slot.respawn_at:
                    self._spawn(slot)
                    respawned += 1
            elif not slot.proc.is_alive():
                self._bury(slot)
                dead.append((slot.wid, "worker process died"))
        return dead, respawned

    def kill(self, wid: int, task_id: int) -> bool:
        self._bury(self.slots[wid])
        return True

    def exhausted(self) -> bool:
        return not any(s.alive or s.respawn_at is not None for s in self.slots)

    def close(self) -> None:
        for slot in self.slots:
            if slot.alive:
                try:
                    slot.queue.put(None)
                except (OSError, ValueError):
                    pass
        # Then reap every worker and drain both directions, releasing the
        # queue feeder threads so interrupted runs strand no zombies.
        deadline = time.monotonic() + 10.0
        for slot in self.slots:
            if slot.proc is not None:
                slot.proc.join(timeout=max(0.1, deadline - time.monotonic()))
                if slot.proc.is_alive():
                    slot.proc.terminate()
                    slot.proc.join(timeout=1.0)
                _drain_and_close(slot.queue)
        _drain_and_close(self.results)


def run_process_master_slave(
    problem: Problem,
    processors: int,
    max_nfe: int,
    config: Optional[BorgConfig] = None,
    seed: Optional[int] = None,
    snapshot_interval: Optional[int] = None,
    start_method: str = "fork",
    batch_size: int = 1,
    supervisor: Optional[SupervisorConfig] = None,
    checkpoint: Optional[str] = None,
    checkpoint_interval: Optional[int] = None,
    resume: Optional[str] = None,
    publisher=None,
) -> ParallelRunResult:
    """Asynchronous master-slave Borg on ``processors - 1`` supervised
    worker processes.  Requires a picklable problem (all built-ins are).

    ``batch_size`` > 1 packs that many decision vectors into each task
    message; workers evaluate the block with one vectorized pass and
    reply with the stacked objective/constraint matrices, cutting both
    queue round-trips and per-evaluation numpy overhead.

    ``supervisor`` tunes fault handling (defaults are safe and cheap
    for healthy runs).  ``checkpoint`` names a file to periodically
    serialize full engine state to (every ``checkpoint_interval``
    completed evaluations, default the snapshot interval); ``resume``
    restores a previous checkpoint and continues toward ``max_nfe``
    (``seed`` is then ignored -- the RNG state comes from the file).
    """
    sup = supervisor or SupervisorConfig()
    pool = _ProcessPool(problem, processors - 1, start_method, sup)
    return run_master_loop(
        pool, problem, max_nfe, config=config, seed=seed,
        snapshot_interval=snapshot_interval, batch_size=batch_size,
        supervisor=sup, checkpoint=checkpoint,
        checkpoint_interval=checkpoint_interval, resume=resume,
        publisher=publisher,
    )
