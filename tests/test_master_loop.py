"""The one supervised master loop under every real transport.

A run with one worker is sequential, so threads, processes and MPI
must produce bit-identical archives and operator probabilities for the
same seed.  MPI runs against an in-process fake ``mpi4py`` (installed
through ``sys.modules``) whose ranks are threads, so
``run_mpi_master_slave`` is exercised without a cluster.
"""

from __future__ import annotations

import sys
import threading
import time
import types
from collections import deque

import numpy as np
import pytest

from repro.core import BorgConfig
from repro.parallel import run_process_master_slave, run_threaded_master_slave
from repro.parallel.mpi import _MPIPool, run_mpi_master_slave
from repro.parallel.supervision import SupervisorConfig, run_master_loop
from repro.problems import DTLZ2, FaultyProblem

ANY = -1


class _FakeStatus:
    def __init__(self) -> None:
        self.source = self.tag = None

    def Get_source(self) -> int:
        return self.source

    def Get_tag(self) -> int:
        return self.tag


class _FakeComm:
    """Point-to-point buffer messages between thread ranks.

    Each rank has one FIFO mailbox; the loop only ever receives the
    head message (a worker from rank 0, the master from any rank), so
    source/tag filters are checked rather than searched.  A send wakes
    only its destination rank, so hundreds of ranks stay cheap.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.boxes = [deque() for _ in range(size)]
        lock = threading.Lock()
        self.conds = [threading.Condition(lock) for _ in range(size)]
        self.local = threading.local()
        self.last_send = time.monotonic()

    def Get_rank(self) -> int:
        return getattr(self.local, "rank", 0)

    def Get_size(self) -> int:
        return self.size

    def Send(self, buf, dest: int, tag: int) -> None:
        data = np.array(buf[0], dtype=float, copy=True)
        with self.conds[dest]:
            self.last_send = time.monotonic()
            self.boxes[dest].append((self.Get_rank(), tag, data))
            self.conds[dest].notify()

    def _fill(self, status, message) -> None:
        if status is not None:
            status.source, status.tag = message[0], message[1]

    def Iprobe(self, source=ANY, tag=ANY, status=None) -> bool:
        rank = self.Get_rank()
        with self.conds[rank]:
            box = self.boxes[rank]
            # A short wait stands in for the network, so the master's
            # probe loop leaves the GIL to the rank threads.
            if self.conds[rank].wait_for(lambda: box, timeout=1e-3):
                self._fill(status, box[0])
            elif time.monotonic() - self.last_send > 30.0:
                raise TimeoutError("no rank has sent anything for 30 s")
            return bool(box)

    def Recv(self, buf, source=ANY, tag=ANY, status=None) -> None:
        rank = self.Get_rank()
        with self.conds[rank]:
            box = self.boxes[rank]
            if not self.conds[rank].wait_for(lambda: box, timeout=30.0):
                raise TimeoutError(f"rank {self.Get_rank()} got no message")
            message = box.popleft()
        assert source in (ANY, message[0]) and tag in (ANY, message[1])
        buf[0][:] = message[2]
        self._fill(status, message)


class _InstantComm(_FakeComm):
    """Single-threaded comm for rank 0 alone: a ``TAG_WORK`` message is
    evaluated inside ``Send`` and its reply queued at once, so a run
    measures only the master.  ``log`` records ``(op, rank)`` pairs."""

    def __init__(self, size: int, problem) -> None:
        super().__init__(size)
        self.problem = problem
        self.log = []

    def Send(self, buf, dest: int, tag: int) -> None:
        if tag != 1:  # TAG_STOP
            return
        self.log.append(("send", dest))
        task = np.asarray(buf[0], dtype=float)
        F, _ = self.problem._evaluate_batch(task[None, 1:])
        self.boxes[0].append((dest, 2, np.concatenate((task[:1], F[0]))))

    def Recv(self, buf, source=ANY, tag=ANY, status=None) -> None:
        message = self.boxes[0].popleft()
        self.log.append(("recv", message[0]))
        buf[0][:] = message[2]
        self._fill(status, message)


@pytest.fixture
def fake_mpi(monkeypatch):
    """Install a fake ``mpi4py``; yields ``run(problem, ranks, ...)``,
    which drives the worker ranks on threads and returns rank 0's
    result.  With ``supervisor=`` rank 0 runs the master loop over the
    MPI pool directly, since the entry point takes no supervisor."""

    def run(problem, ranks, *args, supervisor=None, **kwargs):
        comm = _FakeComm(ranks)
        MPI = types.SimpleNamespace(
            COMM_WORLD=comm, Status=_FakeStatus, DOUBLE="d",
            ANY_SOURCE=ANY, ANY_TAG=ANY,
        )
        monkeypatch.setitem(sys.modules, "mpi4py", types.SimpleNamespace(MPI=MPI))

        def rank_main(rank: int) -> None:
            comm.local.rank = rank
            assert run_mpi_master_slave(problem, *args, **kwargs) is None

        workers = [
            threading.Thread(target=rank_main, args=(r,), daemon=True,
                             name=f"rank-{r}")
            for r in range(1, ranks)
        ]
        for t in workers:
            t.start()
        if supervisor is None:
            result = run_mpi_master_slave(problem, *args, **kwargs)
        else:
            pool = _MPIPool(MPI, comm, problem)
            result = run_master_loop(pool, problem, *args,
                                     supervisor=supervisor, **kwargs)
        for t in workers:
            t.join(timeout=10.0)
            assert not t.is_alive()
        return result

    return run


def _fingerprint(result):
    borg = result.borg
    X = np.array([s.variables for s in borg.archive])
    F = np.array([s.objectives for s in borg.archive])
    order = np.lexsort(F.T)
    return F[order], X[order], borg.operator_probabilities


def _assert_identical(a, b) -> None:
    fa, fb = _fingerprint(a), _fingerprint(b)
    np.testing.assert_array_equal(fa[0], fb[0])
    np.testing.assert_array_equal(fa[1], fb[1])
    assert fa[2] == fb[2]


class TestSingleWorkerParity:
    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_threads_and_processes_agree(self, batch_size):
        kwargs = dict(seed=11, batch_size=batch_size)
        threads = run_threaded_master_slave(DTLZ2(nobjs=3), 2, 600, **kwargs)
        procs = run_process_master_slave(DTLZ2(nobjs=3), 2, 600, **kwargs)
        assert threads.nfe == procs.nfe == 600
        _assert_identical(threads, procs)

    def test_mpi_agrees_with_threads(self, fake_mpi):
        mpi = fake_mpi(DTLZ2(nobjs=3), 2, 600, seed=11)
        threads = run_threaded_master_slave(DTLZ2(nobjs=3), 2, 600, seed=11)
        assert mpi.nfe == 600
        assert mpi.processors == 2
        _assert_identical(mpi, threads)


class TestMPISupervision:
    def test_error_reply_redispatched(self, fake_mpi):
        config = BorgConfig(initial_population_size=32, snapshot_interval=50)
        prob = FaultyProblem(DTLZ2(nobjs=2), crash_rate=0.3,
                             crash_mode="raise", seed=4, faulty_workers={0})
        result = fake_mpi(prob, 4, 200, config=config, seed=2)
        assert result.nfe == 200
        assert int(result.worker_evaluations.sum()) == 200
        assert result.faults.worker_errors > 0
        assert result.tasks_redispatched == result.faults.worker_errors
        objs = result.borg.objectives
        assert np.isfinite(objs).all()

    def test_wrong_shape_reply_goes_to_another_rank(self, fake_mpi):
        """Rank 1 always returns one objective too many: it reports an
        error instead of dying, and each re-dispatch avoids it, so no
        task exhausts its dispatch budget."""

        class WrongShapeOnRank1(DTLZ2):
            def _evaluate_batch(self, X):
                F, C = super()._evaluate_batch(X)
                if threading.current_thread().name == "rank-1":
                    F = np.hstack([F, F[:, :1]])
                return F, C

        result = fake_mpi(WrongShapeOnRank1(nobjs=2), 4, 150, seed=3)
        assert result.nfe == 150
        assert result.worker_evaluations[0] == 0
        assert result.faults.worker_errors > 0
        assert result.tasks_redispatched == result.faults.worker_errors

    def test_hung_rank_counted_out(self, fake_mpi):
        """A task past its deadline goes to another rank, and the hung
        rank gets no new task while it is counted out, so exactly one
        deadline is blown."""
        prob = FaultyProblem(DTLZ2(nobjs=2), hang_rate=1.0, hang_delay=2.0,
                             faulty_workers={0})
        sup = SupervisorConfig(task_timeout=0.3, poll_interval=0.02)
        result = fake_mpi(prob, 4, 150, seed=5, supervisor=sup)
        assert result.nfe == 150
        assert result.failures_detected == 1
        assert result.tasks_redispatched == 1
        assert result.worker_evaluations[0] == 0

    @staticmethod
    def _instant_run(monkeypatch, ranks: int, max_nfe: int):
        prob = DTLZ2(nobjs=2)
        comm = _InstantComm(ranks, prob)
        MPI = types.SimpleNamespace(
            COMM_WORLD=comm, Status=_FakeStatus, DOUBLE="d",
            ANY_SOURCE=ANY, ANY_TAG=ANY,
        )
        monkeypatch.setitem(sys.modules, "mpi4py", types.SimpleNamespace(MPI=MPI))
        start = time.perf_counter()
        result = run_mpi_master_slave(prob, max_nfe, seed=1)
        assert result.nfe == max_nfe
        return comm, time.perf_counter() - start

    def test_next_task_goes_to_replying_rank(self, monkeypatch):
        """As in the paper's C master, once every rank holds a task each
        reply's rank gets the next one."""
        comm, _ = self._instant_run(monkeypatch, 256, 1000)
        assert comm.log[:255] == [("send", r) for r in range(1, 256)]
        steady = comm.log[255:]
        sends = [i for i, (op, _) in enumerate(steady) if op == "send"]
        assert len(sends) == 1000 - 255
        for i in sends:
            assert steady[i - 1] == ("recv", steady[i][1])

    def test_master_cost_flat_in_rank_count(self, monkeypatch):
        """The master's time per result at 512 ranks stays within a small
        factor of 8 ranks; a per-dispatch scan over every rank's tasks
        (quadratic in the rank count) is over ten times slower."""
        _, small = self._instant_run(monkeypatch, 8, 1500)
        _, large = self._instant_run(monkeypatch, 512, 1500)
        assert large < 3.0 * small

    def test_corrupt_reply_quarantined(self, fake_mpi):
        prob = FaultyProblem(DTLZ2(nobjs=2), corrupt_rate=0.2, seed=6)
        result = fake_mpi(prob, 3, 150, seed=1)
        assert result.nfe == 150
        assert result.results_quarantined > 0
        assert np.isfinite(result.borg.objectives).all()
