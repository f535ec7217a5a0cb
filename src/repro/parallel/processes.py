"""Process-backed master-slave Borg: true multi-core parallelism.

Workers are separate OS processes communicating over multiprocessing
queues -- the closest local analogue of the paper's MPI ranks.  The
problem object is pickled once to each worker at startup; each task
message carries only the decision vectors, and each result only the
objective/constraint blocks, mirroring the constant-payload messages
whose cost the paper measured as TC.

Both directions write their frames directly, so no process runs a queue
feeder thread.  A worker's reply is written under the shared result
lock before the worker takes its next task.  The master writes each
task frame on its own thread before ``submit`` returns, and it never
blocks on a worker's pipe: task pipes are non-blocking, bytes a full
pipe does not take wait in the slot's queue and go out on the loop's
sweeps (and while :meth:`_ProcessPool.receive` waits), and they are
dropped when the slot is buried.  So a stopped worker that stops
reading cannot stall the master; the deadline sweep kills it.

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
import os
import queue as pyqueue
import select
import struct
import time
from multiprocessing.queues import Queue as _MPQueue
from multiprocessing.reduction import ForkingPickler
from typing import Collection, Optional

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


class _DirectQueue(_MPQueue):
    """Queue whose writers write their own frames: no feeder thread.

    ``put`` (workers' replies) writes the whole frame under the write
    lock before it returns.  The stock feeder thread writes later, under
    the write lock all workers share, so a worker crashing mid-write
    would silence every other worker.  (Mirrors the stock ``put`` plus
    feeder, on their private fields.)

    ``send`` (the master's tasks; the master is the queue's only writer)
    never blocks: the write end is non-blocking, the pipe takes what fits
    now and ``flush`` writes the rest later.  ``get`` is the stock one.
    """

    def __init__(self, *, ctx, nonblocking: bool = False) -> None:
        super().__init__(ctx=ctx)
        self._unsent = bytearray()
        if nonblocking:
            os.set_blocking(self._writer.fileno(), False)

    def put(self, obj, block=True, timeout=None) -> None:
        self._sem.acquire(block, timeout)
        with self._wlock or contextlib.nullcontext():
            self._send_bytes(ForkingPickler.dumps(obj))

    def send(self, obj) -> bool:
        """Write ``obj``'s frame as far as the pipe takes it now; True
        once all of it is written (else call ``flush`` later)."""
        self._sem.acquire(False)  # ``get`` releases it
        payload = ForkingPickler.dumps(obj)
        n = len(payload)
        # ``Connection.send_bytes`` framing: a 4-byte big-endian length,
        # or -1 and an 8-byte length beyond 2 GiB.
        header = struct.pack("!i", n) if n <= 0x7FFFFFFF else struct.pack("!iQ", -1, n)
        self._unsent += header
        self._unsent += payload
        return self.flush()

    def flush(self) -> bool:
        """Write what the pipe takes of the unsent bytes; True once none
        are left."""
        if self._unsent:
            with contextlib.suppress(BlockingIOError):
                del self._unsent[: os.write(self._writer.fileno(), self._unsent)]
        return not self._unsent

    def close(self) -> None:
        """Close this process's ends of the pipe; unsent bytes are dropped."""
        self._closed = True
        self._unsent.clear()
        self._reader.close()
        self._writer.close()


class _WorkerSlot:
    """One supervised worker position (stable ``wid`` across respawns);
    retired when it has neither a process nor a pending respawn."""

    __slots__ = ("wid", "proc", "queue", "generation", "respawns", "respawn_at")

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.proc = None
        self.queue: Optional[_DirectQueue] = None
        self.generation = 0
        self.respawns = 0
        #: Monotonic instant of the pending respawn (None = not pending).
        self.respawn_at: Optional[float] = None


class _ProcessPool(WorkerPool):
    """Worker processes, one private task queue each, one result queue."""

    name = "processes"

    def __init__(self, problem: Problem, size: int, start_method: str, sup) -> None:
        self.problem, self.size, self.sup = problem, size, sup
        self.observed: dict = {}
        self.ctx = mp.get_context(start_method)
        self.results = None
        self.slots = [_WorkerSlot(w) for w in range(size)]
        #: Slots with a process, as of the last sweep, in slot order.
        self._live: dict[int, None] = {}
        #: Slots whose task queue holds bytes the pipe has not taken yet.
        self._behind: set[int] = set()

    def _spawn(self, slot: _WorkerSlot) -> None:
        slot.queue = _DirectQueue(ctx=self.ctx, nonblocking=True)
        args = (self.problem, slot.queue, self.results, slot.wid, slot.generation)
        slot.proc = self.ctx.Process(target=_worker_main, args=args, daemon=True)
        slot.respawn_at = None
        slot.proc.start()

    def _bury(self, slot: _WorkerSlot) -> None:
        """Reap the slot's process, then schedule a respawn or retire it."""
        proc, task_queue = slot.proc, slot.queue
        slot.proc = slot.queue = None
        self._behind.discard(slot.wid)
        if proc.is_alive():
            proc.kill()  # SIGTERM would stay pending on a stopped worker
        proc.join(timeout=5.0)
        task_queue.close()
        sup, cap = self.sup, self.sup.max_respawns
        if sup.respawn and (cap is None or slot.respawns < cap):
            slot.respawn_at = time.monotonic() + sup.backoff(slot.respawns)
            slot.respawns += 1
            slot.generation += 1

    def _note_membership(self) -> None:
        self._live = dict.fromkeys(s.wid for s in self.slots if s.proc is not None)

    def _flush(self) -> bool:
        """Push unsent task bytes into pipes with room; True while some
        slot is still behind."""
        self._behind = {w for w in self._behind if not self.slots[w].queue.flush()}
        return bool(self._behind)

    def start(self) -> None:
        self.results = _DirectQueue(ctx=self.ctx)
        for slot in self.slots:
            self._spawn(slot)
        self._note_membership()

    def live(self) -> Collection[int]:
        return self._live.keys()

    def submit(self, wid: int, task_id: int, X: np.ndarray) -> None:
        if not self.slots[wid].queue.send((task_id, X)):
            self._behind.add(wid)

    def receive(self, timeout: float) -> Optional[tuple]:
        if self._behind:
            # Feed part-written tasks as their workers read them, until a
            # reply is waiting or the time is up.
            deadline = time.monotonic() + timeout
            reader = self.results._reader
            while self._flush():
                left = deadline - time.monotonic()
                if left <= 0 or reader.poll(0):
                    break
                waiter = select.poll()
                waiter.register(reader, select.POLLIN)
                for w in self._behind:
                    waiter.register(self.slots[w].queue._writer, select.POLLOUT)
                waiter.poll(left * 1000.0)
            timeout = max(0.0, deadline - time.monotonic())
        try:
            return self.results.get(timeout=timeout)
        except pyqueue.Empty:
            return None

    def poll(self) -> tuple[list[tuple[int, str]], int]:
        self._flush()
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
        if dead or respawned:
            self._note_membership()
        return dead, respawned

    def kill(self, wid: int, task_id: int) -> bool:
        self._bury(self.slots[wid])
        self._note_membership()
        return True

    def exhausted(self) -> bool:
        return not self._live and all(s.respawn_at is None for s in self.slots)

    def close(self) -> None:
        # Poison every worker, then reap them; a worker still unfed or
        # unresponsive at the deadline is killed.
        working = [s for s in self.slots if s.proc is not None]
        for slot in working:
            slot.queue.send(None)
        deadline = time.monotonic() + 10.0
        for slot in working:
            proc, task_queue = slot.proc, slot.queue
            while (
                not task_queue.flush()
                and proc.is_alive()
                and time.monotonic() < deadline
            ):
                proc.join(timeout=0.01)
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
            task_queue.close()
        self.results.close()


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
