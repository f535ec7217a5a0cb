"""Fault-tolerance tests: chaos injection + worker supervision.

Deterministic chaos: :class:`FaultyProblem` fault streams are a pure
function of (seed, worker id, respawn generation), so every scenario
here replays exactly.  The acceptance bar (ISSUE: PR 3) is that a
process-backend run with a 10% crash rate completes to ``max_nfe``
without hanging, with exact NFE accounting.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import BorgEngine, Solution
from repro.models import (
    ChaosSummary,
    simulate_async_with_failures,
    summarize_run,
    throughput_degradation,
)
from repro.parallel import (
    NoLiveWorkersError,
    SupervisorConfig,
    optimize,
    run_process_master_slave,
    run_threaded_master_slave,
)
from repro.parallel import processes
from repro.parallel.supervision import TaskTable, validate_reply
from repro.problems import DTLZ2, ChaosError, FaultyProblem, TimedProblem
from repro.stats import constant_timing

FAST = SupervisorConfig(poll_interval=0.02)


# ---------------------------------------------------------------------------
# FaultyProblem determinism
# ---------------------------------------------------------------------------


class TestFaultyProblem:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultyProblem(DTLZ2(nobjs=2), crash_rate=0.8, hang_rate=0.5)
        with pytest.raises(ValueError):
            FaultyProblem(DTLZ2(nobjs=2), crash_rate=-0.1)
        with pytest.raises(ValueError):
            FaultyProblem(DTLZ2(nobjs=2), crash_mode="segfault")

    def test_deterministic_streams(self):
        """Same (seed, wid, generation) => same fault sequence."""

        def faults(seed, wid, gen, n=200):
            p = FaultyProblem(DTLZ2(nobjs=2), crash_rate=0.1,
                              crash_mode="raise", seed=seed)
            p.reseed_worker(wid, gen)
            out = []
            x = np.full(p.nvars, 0.5)
            for _ in range(n):
                try:
                    p.evaluate(Solution(x))
                    out.append(0)
                except ChaosError:
                    out.append(1)
            return out

        assert faults(7, 0, 0) == faults(7, 0, 0)
        assert faults(7, 0, 0) != faults(7, 1, 0)
        assert faults(7, 0, 0) != faults(7, 0, 1)  # respawn => fresh stream
        assert faults(7, 0, 0) != faults(8, 0, 0)

    def test_corruption_injects_nan(self):
        p = FaultyProblem(DTLZ2(nobjs=2), corrupt_rate=1.0, seed=3)
        p.reseed_worker(0)
        F, _ = p._evaluate_batch(np.full((2, p.nvars), 0.5))
        assert np.isnan(F).any()
        assert p.injected["corrupt"] >= 1

    def test_faulty_workers_gate(self):
        p = FaultyProblem(DTLZ2(nobjs=2), crash_rate=1.0, crash_mode="raise",
                          seed=3, faulty_workers={1})
        p.reseed_worker(0)
        p.evaluate(Solution(np.full(p.nvars, 0.5)))  # worker 0 is healthy
        p.reseed_worker(1)
        with pytest.raises(ChaosError):
            p.evaluate(Solution(np.full(p.nvars, 0.5)))

    def test_delegates_to_inner(self):
        inner = DTLZ2(nobjs=2)
        p = FaultyProblem(inner, seed=0)
        assert p.nobjs == inner.nobjs
        assert np.array_equal(p.default_epsilons(), inner.default_epsilons())

    def test_pickle_roundtrip(self):
        import pickle

        p = FaultyProblem(DTLZ2(nobjs=2), crash_rate=0.2, seed=5)
        q = pickle.loads(pickle.dumps(p))
        assert q.crash_rate == 0.2
        q.reseed_worker(0)
        q.evaluate(Solution(np.full(q.nvars, 0.5)))


# ---------------------------------------------------------------------------
# Supervision primitives
# ---------------------------------------------------------------------------


class TestSupervisionPrimitives:
    def test_validate_reply(self):
        ok = np.zeros((2, 3))
        assert validate_reply(ok, None, 2, 3, 0) is None
        assert validate_reply(None, None, 2, 3, 0) is not None
        assert validate_reply(np.zeros((2, 2)), None, 2, 3, 0) is not None
        bad = ok.copy()
        bad[0, 0] = np.nan
        assert validate_reply(bad, None, 2, 3, 0) is not None
        bad[0, 0] = np.inf
        assert validate_reply(bad, None, 2, 3, 0) is not None
        assert validate_reply(ok, None, 2, 3, 1) is not None  # missing C
        assert validate_reply(ok, np.zeros((2, 1)), 2, 3, 1) is None

    def test_task_table_dedup(self):
        table = TaskTable()
        rec = table.new(["a", "b"])
        assert table.get(rec.task_id) is rec
        assert table.candidates_in_flight() == 2
        assert table.pop(rec.task_id) is rec
        assert table.pop(rec.task_id) is None  # duplicate reply
        assert table.get(rec.task_id) is None
        assert not table

    def test_supervisor_backoff_caps(self):
        sup = SupervisorConfig(backoff_base=0.1, backoff_max=0.5)
        assert sup.backoff(0) == pytest.approx(0.1)
        assert sup.backoff(1) == pytest.approx(0.2)
        assert sup.backoff(10) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            SupervisorConfig(poll_interval=0.0)


# ---------------------------------------------------------------------------
# Process backend under chaos (the acceptance scenario)
# ---------------------------------------------------------------------------


class TestProcessChaos:
    def test_crash_recovery_reaches_max_nfe(self, small_config):
        """ISSUE acceptance: 10% crash rate, exact NFE, observable faults."""
        prob = FaultyProblem(DTLZ2(nobjs=2), crash_rate=0.10, seed=42)
        res = run_process_master_slave(
            prob, 5, 300, config=small_config, seed=3, supervisor=FAST
        )
        assert res.nfe == 300
        assert res.borg.nfe == 300
        assert int(res.worker_evaluations.sum()) == 300
        assert res.failures_detected > 0
        assert res.tasks_redispatched > 0
        assert res.faults.workers_respawned > 0

    def test_pool_extinction_raises(self, small_config):
        prob = FaultyProblem(DTLZ2(nobjs=2), crash_rate=1.0, seed=9)
        sup = SupervisorConfig(poll_interval=0.02, respawn=False)
        with pytest.raises(NoLiveWorkersError):
            run_process_master_slave(
                prob, 3, 100, config=small_config, seed=1, supervisor=sup
            )

    def test_shrinking_pool_degrades_gracefully(self, small_config):
        """One doomed worker + respawn off: the survivor finishes alone."""
        prob = FaultyProblem(DTLZ2(nobjs=2), crash_rate=1.0, seed=11,
                             faulty_workers={0})
        sup = SupervisorConfig(poll_interval=0.02, respawn=False)
        res = run_process_master_slave(
            prob, 3, 120, config=small_config, seed=2, supervisor=sup
        )
        assert res.nfe == 120
        assert res.failures_detected >= 1
        assert res.worker_evaluations[0] == 0
        assert res.worker_evaluations[1] == 120

    def test_hang_detection_kills_and_recovers(self, small_config):
        prob = FaultyProblem(DTLZ2(nobjs=2), hang_rate=1.0, hang_delay=60.0,
                             seed=13, faulty_workers={0})
        sup = SupervisorConfig(poll_interval=0.02, task_timeout=0.4)
        res = run_process_master_slave(
            prob, 3, 120, config=small_config, seed=1, supervisor=sup
        )
        assert res.nfe == 120
        assert res.failures_detected >= 1
        assert res.tasks_redispatched >= 1

    def test_corrupt_results_quarantined(self, small_config):
        prob = FaultyProblem(DTLZ2(nobjs=2), corrupt_rate=0.2, seed=17)
        res = run_process_master_slave(
            prob, 4, 200, config=small_config, seed=2, supervisor=FAST
        )
        assert res.nfe == 200
        assert res.results_quarantined > 0
        # No NaN survived into the archive.
        objs = np.array([s.objectives for s in res.borg.archive])
        assert np.isfinite(objs).all()

    def test_healthy_run_reports_zero_faults(self, small_config):
        res = run_process_master_slave(
            DTLZ2(nobjs=2), 3, 150, config=small_config, seed=4,
            supervisor=FAST,
        )
        assert res.nfe == 150
        assert res.failures_detected == 0
        assert res.tasks_redispatched == 0
        assert res.results_quarantined == 0


# ---------------------------------------------------------------------------
# Private-pipe process transport
# ---------------------------------------------------------------------------


@pytest.fixture
def ingested(monkeypatch):
    """Uids of every solution the master ingests, in order."""
    uids = []
    ingest = BorgEngine.ingest

    def logged(engine, solution):
        uids.append(solution.uid)
        return ingest(engine, solution)

    monkeypatch.setattr(BorgEngine, "ingest", logged)
    return uids


def _once(tmp_path) -> bool:
    """True for the first process (of all forked workers) to ask."""
    try:
        os.close(os.open(str(tmp_path / "signalled"), os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def _once_after_reply(monkeypatch, tmp_path, sig):
    """The first worker to write a reply then sends itself ``sig``
    (forked workers inherit the patch; the marker file makes it once)."""
    put = processes._ReplyWriter.put

    def put_then_signal(writer, reply, *args, **kwargs):
        put(writer, reply, *args, **kwargs)
        if _once(tmp_path):
            os.kill(os.getpid(), sig)

    monkeypatch.setattr(processes._ReplyWriter, "put", put_then_signal)


class TestDirectTransport:
    """Each run ends with exact NFE and no candidate ingested twice."""

    def test_stopped_worker_with_oversized_task_is_killed(
        self, small_config, monkeypatch, tmp_path, ingested
    ):
        problem, batch = DTLZ2(nobjs=2, nvars=50), 200
        assert batch * problem.nvars * 8 > 64 * 1024  # more than a pipe holds
        _once_after_reply(monkeypatch, tmp_path, signal.SIGSTOP)
        partial = []
        submit = processes._ProcessPool.submit

        def logged_submit(pool, wid, task_id, X):
            submit(pool, wid, task_id, X)
            partial.append(bool(pool.slots[wid].unsent))

        monkeypatch.setattr(processes._ProcessPool, "submit", logged_submit)
        sup = SupervisorConfig(poll_interval=0.02, task_timeout=1.0)
        started = time.monotonic()
        res = run_process_master_slave(
            problem, 3, 1_200, config=small_config, seed=5,
            batch_size=batch, supervisor=sup,
        )
        assert time.monotonic() - started < 60
        assert any(partial)  # the stopped worker's task did not fit
        assert res.nfe == 1_200 == len(ingested) == len(set(ingested))
        assert res.failures_detected >= 1
        assert res.tasks_redispatched >= 1

    def test_worker_killed_between_reply_and_next_task(
        self, small_config, monkeypatch, tmp_path, ingested
    ):
        _once_after_reply(monkeypatch, tmp_path, signal.SIGKILL)
        res = run_process_master_slave(
            DTLZ2(nobjs=2), 3, 300, config=small_config, seed=6, supervisor=FAST
        )
        assert res.nfe == 300 == len(ingested) == len(set(ingested))
        assert int(res.worker_evaluations.sum()) == 300
        assert res.failures_detected == 1
        assert res.tasks_redispatched >= 1

    def test_close_poisons_past_a_killed_worker(self):
        pool = processes._ProcessPool(DTLZ2(nobjs=2), 2, "fork", SupervisorConfig())
        pool.start()
        dead, survivor = pool.slots[0].proc, pool.slots[1].proc
        os.kill(dead.pid, signal.SIGKILL)
        dead.join(timeout=5.0)
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 5.0
        assert dead.exitcode == -signal.SIGKILL
        assert survivor.exitcode == 0  # read EOF on its closed task pipe

    def test_no_feeder_threads_in_master(self, small_config, monkeypatch):
        seen = set()
        receive = processes._ProcessPool.receive

        def logged_receive(pool, timeout):
            seen.update(t.name for t in threading.enumerate())
            return receive(pool, timeout)

        monkeypatch.setattr(processes._ProcessPool, "receive", logged_receive)
        res = run_process_master_slave(
            DTLZ2(nobjs=2), 3, 150, config=small_config, seed=4,
            supervisor=FAST, batch_size=2,
        )
        assert res.nfe == 150
        assert "MainThread" in seen
        assert not any("QueueFeederThread" in name for name in seen)

    def test_torn_reply_frame_is_dropped_with_its_worker(
        self, small_config, monkeypatch, tmp_path, ingested
    ):
        """A worker dies halfway through writing a reply.  With respawn
        off the run can only finish on the other worker's replies, which
        share no pipe or lock with the torn frame."""
        put = processes._ReplyWriter.put

        def torn_put(writer, reply, seconds=0.0):
            if not _once(tmp_path):
                return put(writer, reply, seconds)
            frame = processes._reply_frame(reply, seconds)
            os.write(writer.conn.fileno(), frame[: len(frame) // 2])
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(processes._ReplyWriter, "put", torn_put)
        sup = SupervisorConfig(poll_interval=0.02, respawn=False)
        res = run_process_master_slave(
            DTLZ2(nobjs=2), 3, 300, config=small_config, seed=7, supervisor=sup
        )
        assert res.nfe == 300 == len(ingested) == len(set(ingested))
        assert res.failures_detected == 1
        assert res.results_quarantined == 0
        assert sorted(res.worker_evaluations) == [0, 300]

    def test_death_seen_as_hang_up_without_deadline(
        self, small_config, monkeypatch, ingested
    ):
        """With no task deadline and ``Process.is_alive`` blinded, only
        the worker's hang-up on its reply pipe can return its lost task
        to the run."""
        monkeypatch.setattr(mp.process.BaseProcess, "is_alive", lambda self: True)
        prob = FaultyProblem(DTLZ2(nobjs=2), crash_rate=1.0, seed=3,
                             faulty_workers={0})
        sup = SupervisorConfig(poll_interval=0.02, task_timeout=None,
                               respawn=False)
        started = time.monotonic()
        res = run_process_master_slave(
            prob, 3, 200, config=small_config, seed=8, supervisor=sup
        )
        assert time.monotonic() - started < 30
        assert res.nfe == 200 == len(ingested) == len(set(ingested))
        assert res.failures_detected == 1
        assert res.tasks_redispatched >= 1
        assert list(res.worker_evaluations) == [0, 200]

    def test_spawn_start_method(self, small_config):
        res = run_process_master_slave(
            DTLZ2(nobjs=2), 3, 300, config=small_config, seed=9,
            supervisor=FAST, start_method="spawn",
        )
        assert res.nfe == 300
        assert int(res.worker_evaluations.sum()) == 300
        assert res.failures_detected == 0

    def test_reply_without_a_row_per_candidate_is_a_worker_error(
        self, small_config
    ):
        """A reply frame carries 2-D blocks only; anything else comes
        back as an error reply and is never ingested."""
        sup = SupervisorConfig(poll_interval=0.02, max_dispatches_per_task=2)
        with pytest.raises(NoLiveWorkersError, match="not one row per candidate"):
            run_process_master_slave(
                _FlatObjectives(nobjs=2), 3, 50, config=small_config,
                seed=1, supervisor=sup,
            )

    def test_worker_measured_tf(self, small_config, monkeypatch):
        """One TF sample per reply, measured by the worker: it holds the
        2 ms sleep, and it is shorter than the master's submit-to-reply
        time for the same task, which adds transit and waiting."""
        sent, round_trips = {}, []
        submit, receive = processes._ProcessPool.submit, processes._ProcessPool.receive

        def stamped_submit(pool, wid, task_id, X):
            sent[task_id] = time.perf_counter()
            submit(pool, wid, task_id, X)

        def stamped_receive(pool, timeout):
            reply = receive(pool, timeout)
            if reply is not None:
                round_trips.append(time.perf_counter() - sent[reply[2]])
            return reply

        monkeypatch.setattr(processes._ProcessPool, "submit", stamped_submit)
        monkeypatch.setattr(processes._ProcessPool, "receive", stamped_receive)
        prob = TimedProblem(DTLZ2(nobjs=5), 0.002, real_delay=True)
        res = run_process_master_slave(
            prob, 3, 300, config=small_config, seed=1, supervisor=FAST
        )
        tf = res.observed["tf"]
        assert res.nfe == 300 == tf.count == len(round_trips)
        assert 0.0019 <= tf.mean < np.mean(round_trips)

    def test_workers_exit_when_master_is_killed(self, tmp_path):
        """Workers of a SIGKILLed master read EOF on their task pipes."""
        script = tmp_path / "solve.py"
        script.write_text(textwrap.dedent(f"""
            import os
            from repro.parallel import run_process_master_slave
            from repro.problems import DTLZ2, TimedProblem

            class Announced(TimedProblem):
                def reseed_worker(self, wid, generation=0):
                    path = os.path.join({str(tmp_path)!r}, f"worker-{{os.getpid()}}")
                    open(path, "w").close()

            run_process_master_slave(
                Announced(DTLZ2(nobjs=2), 0.002, real_delay=True), 3, 10**7
            )
        """))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        master = subprocess.Popen([sys.executable, str(script)], env=env)
        try:
            deadline = time.monotonic() + 60
            while len(_worker_pids(tmp_path)) < 2:
                assert time.monotonic() < deadline, "workers never started"
                assert master.poll() is None, "master exited early"
                time.sleep(0.05)
        finally:
            master.kill()
            master.wait()
        workers = _worker_pids(tmp_path)
        deadline = time.monotonic() + 5.0
        while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)]


class _FlatObjectives(DTLZ2):
    """DTLZ2 whose kernel returns its objectives as one flat vector."""

    def _evaluate_batch(self, X):
        F, C = super()._evaluate_batch(X)
        return F.ravel(), C


SRC = Path(__file__).resolve().parents[1] / "src"


def _worker_pids(directory) -> list[int]:
    return [int(p.name.split("-")[1]) for p in Path(directory).glob("worker-*")]


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (a zombie
    waiting for its new parent to reap it counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


# ---------------------------------------------------------------------------
# Thread backend under chaos
# ---------------------------------------------------------------------------


class TestThreadChaos:
    def test_worker_errors_redispatched(self, small_config):
        prob = FaultyProblem(DTLZ2(nobjs=2), crash_rate=0.2,
                             crash_mode="raise", seed=5)
        res = run_threaded_master_slave(
            prob, 4, 200, config=small_config, seed=2, supervisor=FAST
        )
        assert res.nfe == 200
        assert res.faults.worker_errors > 0
        assert res.tasks_redispatched > 0

    def test_corrupt_results_quarantined(self, small_config):
        prob = FaultyProblem(DTLZ2(nobjs=2), corrupt_rate=0.15, seed=1)
        res = run_threaded_master_slave(
            prob, 4, 200, config=small_config, seed=2, supervisor=FAST
        )
        assert res.nfe == 200
        assert res.results_quarantined > 0

    def test_hung_thread_deadline_redispatch(self, small_config):
        prob = FaultyProblem(DTLZ2(nobjs=2), hang_rate=1.0, hang_delay=30.0,
                             seed=17, faulty_workers={0})
        sup = SupervisorConfig(poll_interval=0.02, task_timeout=0.4)
        res = run_threaded_master_slave(
            prob, 4, 150, config=small_config, seed=1, supervisor=sup
        )
        assert res.nfe == 150
        assert res.failures_detected >= 1

    def test_deadline_enforced_while_replies_flow(self, small_config):
        """The deadline sweep runs on every loop iteration, so healthy
        workers' replies cannot postpone it; the clock stops and the run
        returns without waiting for the hung thread."""
        events = []

        class Recorder:
            def emit(self, kind, **data):
                events.append((time.monotonic(), kind))

        inner = TimedProblem(DTLZ2(nobjs=2), 0.01, real_delay=True)
        prob = FaultyProblem(inner, hang_rate=1.0, hang_delay=3.0,
                             faulty_workers={0})
        sup = SupervisorConfig(task_timeout=0.2, poll_interval=0.05)
        start = time.monotonic()
        res = run_threaded_master_slave(
            prob, 4, 300, config=small_config, seed=1, supervisor=sup,
            publisher=Recorder(),
        )
        wall = time.monotonic() - start
        assert res.nfe == 300
        first = min(t for t, kind in events if kind == "redispatch")
        assert first - start < 1.0
        assert res.elapsed <= wall < 3.0


# ---------------------------------------------------------------------------
# Facade + measured-vs-modeled summary schema
# ---------------------------------------------------------------------------


class TestChaosReporting:
    def test_optimize_rejects_supervisor_on_serial(self):
        with pytest.raises(ValueError):
            optimize(DTLZ2(nobjs=2), 100, backend="serial",
                     supervisor=SupervisorConfig())

    def test_optimize_rejects_checkpoint_on_virtual(self):
        with pytest.raises(ValueError):
            optimize(DTLZ2(nobjs=2), 100, backend="virtual-async",
                     checkpoint="x.pkl")

    def test_summarize_run_and_outcome_share_schema(self, small_config):
        prob = FaultyProblem(DTLZ2(nobjs=2), crash_rate=0.2, seed=6)
        res = run_process_master_slave(
            prob, 3, 100, config=small_config, seed=1, supervisor=FAST
        )
        measured = summarize_run(res)
        assert isinstance(measured, ChaosSummary)
        assert measured.nfe == 100
        assert measured.failures == res.failures_detected

        timing = constant_timing(tf=1e-3, tc=0.0, ta=0.0)
        sim = simulate_async_with_failures(
            4, 500, timing, mtbf=0.05, repair=0.01, seed=0
        ).summary()
        assert isinstance(sim, ChaosSummary)
        assert sim.source == "simulated"
        assert len(measured.as_row()) == len(sim.as_row())

    def test_throughput_degradation(self):
        a = ChaosSummary("base", 1.0, 100, 4, 0, 0, 0)
        b = ChaosSummary("bad", 2.0, 100, 4, 5, 5, 5)
        assert throughput_degradation(a, b) == pytest.approx(0.5)
        zero = ChaosSummary("zero", 0.0, 0, 4, 0, 0, 0)
        assert np.isnan(throughput_degradation(zero, b))
