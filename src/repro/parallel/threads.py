"""Thread-backed master-slave Borg: real concurrency, wall-clock time.

The virtual backends reproduce Ranger-scale behaviour; this backend
demonstrates the same master/worker protocol with genuine OS threads on
the local machine.  Useful for laptop-scale demos (pair it with
``TimedProblem(real_delay=True)`` so TF means something) and for
exercising the protocol under true nondeterministic interleaving in
tests.

The GIL serialises Python bytecode, but evaluation here is either
numpy-bound or sleep-bound, both of which release the GIL, so worker
threads do overlap usefully.

Supervision (docs/RESILIENCE.md): this module is the transport under
the supervised master loop
(:func:`repro.parallel.supervision.run_master_loop`); threads take
tasks from one shared queue.  Threads cannot be killed, so a thread
past a task deadline is counted out: its task is re-dispatched, a late
reply from it is dropped by task-id dedup, and shutdown does not wait
for it.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Optional

import numpy as np

from ..core.borg import BorgConfig
from ..problems.base import Problem
from ..stats import TallyMonitor
from .results import ParallelRunResult
from .supervision import (
    ANY_WORKER,
    SupervisorConfig,
    WorkerPool,
    evaluate_task,
    run_master_loop,
)

__all__ = ["run_threaded_master_slave"]

_STOP = object()


class _ThreadPool(WorkerPool):
    """Daemon worker threads sharing one task queue."""

    name = "threads"

    def __init__(self, problem: Problem, size: int) -> None:
        self.problem, self.size = problem, size
        self.tasks: "queue.Queue" = queue.Queue()
        self.results: "queue.Queue" = queue.Queue()
        self.observed = {"tf": TallyMonitor()}
        #: Task id each thread is evaluating (None while idle).
        self.running: list[Optional[int]] = [None] * size
        #: Threads counted out past a task deadline.
        self.hung: set[int] = set()
        self.threads = [threading.Thread(target=self._work, args=(w,), daemon=True,
                                         name=f"borg-worker-{w}") for w in range(size)]

    def _work(self, wid: int) -> None:
        reseed = getattr(self.problem, "reseed_worker", None)
        if callable(reseed):
            reseed(wid, 0)
        for task_id, X in iter(self.tasks.get, _STOP):
            self.running[wid] = task_id
            t0 = time.perf_counter()
            reply = evaluate_task(self.problem, wid, task_id, X)
            self.observed["tf"].record(time.perf_counter() - t0)
            self.running[wid] = None
            self.results.put(reply)

    def start(self) -> None:
        for t in self.threads:
            t.start()

    def live(self) -> list[int]:
        # A counted-out thread may still come back, so the shared queue
        # stays open; the re-dispatch budget ends a hopeless run.
        return [ANY_WORKER]

    def submit(self, wid: int, task_id: int, X: np.ndarray) -> None:
        self.tasks.put((task_id, X))

    def receive(self, timeout: float) -> Optional[tuple]:
        try:
            reply = self.results.get(timeout=timeout)
        except queue.Empty:
            return None
        self.hung.discard(reply[1])
        return reply

    def kill(self, wid: int, task_id: int) -> bool:
        self.hung.update(w for w, t in enumerate(self.running) if t == task_id)
        return False

    def close(self) -> None:
        for _ in self.threads:
            self.tasks.put(_STOP)
        for wid, t in enumerate(self.threads):
            if wid not in self.hung:
                t.join(timeout=10.0)


def run_threaded_master_slave(
    problem: Problem,
    processors: int,
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
) -> ParallelRunResult:
    """Asynchronous master-slave Borg on ``processors - 1`` worker
    threads.

    The master thread owns the engine exclusively; workers only
    evaluate.  Shared state is limited to two queues, so no locks are
    needed around algorithm state.

    ``batch_size`` > 1 ships that many solutions per message; the worker
    evaluates the block with one vectorized ``evaluate_batch`` pass,
    which amortises both queue traffic and numpy call overhead.

    ``supervisor``, ``checkpoint``, ``checkpoint_interval`` and
    ``resume`` match :func:`repro.parallel.run_process_master_slave`
    (respawn settings are ignored -- threads don't die; errors are
    caught and hangs are recovered by deadline re-dispatch).
    """
    return run_master_loop(
        _ThreadPool(problem, processors - 1), problem, max_nfe,
        config=config, seed=seed, snapshot_interval=snapshot_interval,
        batch_size=batch_size, supervisor=supervisor, checkpoint=checkpoint,
        checkpoint_interval=checkpoint_interval, resume=resume,
        publisher=publisher,
    )
