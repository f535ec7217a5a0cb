"""MPI master-slave Borg (mpi4py), mirroring the paper's C/OpenMPI code.

The study's original implementation ran over OpenMPI on TACC Ranger;
this module maps the same protocol onto ``mpi4py`` so the library can
be deployed on a real cluster unchanged.  Rank 0 runs the supervised
master loop (:func:`repro.parallel.supervision.run_master_loop`); the
other ranks evaluate.  Messages are constant-size float buffers (the
upper-case mpi4py API), exactly the message pattern whose latency the
paper measured as TC: ``[task_id, x]`` travels to a rank with
``TAG_WORK``, ``[task_id, objectives, constraints]`` comes back with
``TAG_RESULT`` (``TAG_ERROR`` when the evaluation raised or returned
the wrong shape), and ``TAG_STOP`` shuts a rank down.  Error and
corrupt replies are re-dispatched to another rank; a rank cannot be
respawned.

mpi4py is optional (``pip install repro[mpi]``) and not needed by the
test suite, which drives this module through a fake ``mpi4py``; the
launch script is in docs/DEPLOYMENT.md.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..core.borg import BorgConfig
from ..problems.base import Problem
from .results import ParallelRunResult
from .supervision import MSG_ERR, MSG_OK, WorkerPool, evaluate_task, run_master_loop

__all__ = ["run_mpi_master_slave", "TAG_WORK", "TAG_RESULT", "TAG_STOP", "TAG_ERROR"]

TAG_WORK = 1
TAG_RESULT = 2
TAG_STOP = 3
TAG_ERROR = 4


def _require_mpi():
    try:
        from mpi4py import MPI  # noqa: PLC0415
    except ImportError as exc:  # pragma: no cover - environment dependent
        raise RuntimeError(
            "the MPI backend requires mpi4py (pip install repro[mpi])"
        ) from exc
    return MPI


class _MPIPool(WorkerPool):
    """Ranks ``1..size-1`` as slots ``0..size-2``, one candidate a task."""

    name = "mpi"

    def __init__(self, MPI, comm, problem: Problem) -> None:
        self.MPI = MPI
        self.comm = comm
        self.problem = problem
        self.size = comm.Get_size() - 1
        self.observed: dict = {}
        self.status = MPI.Status()
        self.reply = np.empty(1 + problem.nobjs + problem.nconstraints)
        #: Slots not counted out past a task deadline (a dict, so the
        #: loop's membership test is O(1) at any rank count).
        self.ready = dict.fromkeys(range(self.size))

    def live(self):
        return self.ready.keys()

    def submit(self, wid: int, task_id: int, X: np.ndarray) -> None:
        message = np.concatenate(([float(task_id)], X[0]))
        self.comm.Send([message, self.MPI.DOUBLE], dest=wid + 1, tag=TAG_WORK)

    def receive(self, timeout: float) -> Optional[tuple]:
        MPI, status, reply = self.MPI, self.status, self.reply
        deadline = time.monotonic() + timeout
        while not self.comm.Iprobe(MPI.ANY_SOURCE, MPI.ANY_TAG, status):
            if time.monotonic() >= deadline:
                return None
        source, tag = status.Get_source(), status.Get_tag()
        self.comm.Recv([reply, MPI.DOUBLE], source=source, tag=tag)
        wid, task_id = source - 1, int(reply[0])
        self.ready[wid] = None  # a counted-out rank that replies is back
        if tag == TAG_ERROR:
            return (MSG_ERR, wid, task_id, f"evaluation failed on rank {source}")
        m = 1 + self.problem.nobjs
        C = reply[None, m:].copy() if self.problem.nconstraints else None
        return (MSG_OK, wid, task_id, reply[None, 1:m].copy(), C)

    def kill(self, wid: int, task_id: int) -> bool:
        # A rank cannot be killed: count it out until it replies again.
        self.ready.pop(wid, None)
        return False

    def exhausted(self) -> bool:
        return not self.ready

    def close(self) -> None:
        stop = np.zeros(1 + self.problem.nvars)
        for rank in range(1, self.size + 1):
            self.comm.Send([stop, self.MPI.DOUBLE], dest=rank, tag=TAG_STOP)


def run_mpi_master_slave(
    problem: Problem,
    max_nfe: int,
    config: Optional[BorgConfig] = None,
    seed: Optional[int] = None,
    snapshot_interval: Optional[int] = None,
) -> Optional[ParallelRunResult]:
    """Asynchronous master-slave Borg over MPI ranks.

    Rank 0 is the master and returns the :class:`ParallelRunResult`;
    worker ranks return ``None``.  The run uses the default
    :class:`~repro.parallel.supervision.SupervisorConfig`, which sets no
    task deadline.
    """
    MPI = _require_mpi()
    comm = MPI.COMM_WORLD
    if comm.Get_size() < 2:
        raise RuntimeError("MPI master-slave needs at least 2 ranks")
    if comm.Get_rank() != 0:
        _mpi_worker_loop(MPI, comm, problem)
        return None
    return run_master_loop(
        _MPIPool(MPI, comm, problem),
        problem,
        max_nfe,
        config=config,
        seed=seed,
        snapshot_interval=snapshot_interval,
    )


def _mpi_worker_loop(MPI, comm, problem: Problem) -> None:
    """Worker rank: evaluate decision vectors until TAG_STOP."""
    wid = comm.Get_rank() - 1
    reseed = getattr(problem, "reseed_worker", None)
    if callable(reseed):
        reseed(wid, 0)
    status = MPI.Status()
    task = np.empty(1 + problem.nvars)
    reply = np.empty(1 + problem.nobjs + problem.nconstraints)
    while True:
        comm.Recv([task, MPI.DOUBLE], source=0, tag=MPI.ANY_TAG, status=status)
        if status.Get_tag() == TAG_STOP:
            return
        out = evaluate_task(problem, wid, int(task[0]), task[None, 1:])
        reply[0] = task[0]
        ok = out[0] == MSG_OK
        if ok:
            # A block that does not fill the constant-size buffer exactly
            # is reported as an error, never broadcast or truncated.
            try:
                packed = np.concatenate([np.ravel(b) for b in out[3:] if b is not None])
                ok = packed.size == reply.size - 1
                if ok:
                    reply[1:] = packed
            except (TypeError, ValueError):
                ok = False
        comm.Send([reply, MPI.DOUBLE], dest=0, tag=TAG_RESULT if ok else TAG_ERROR)
