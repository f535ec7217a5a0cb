"""Storage-backed service: worker fleet, leases, failover, kill soak.

Acceptance for docs/RESILIENCE.md §6: independent OS processes co-drive
one durable study; SIGKILL of workers (master included) and injected
torn writes never lose or double-count an evaluation — the study always
finishes with exactly ``max_nfe`` completed trials, and a cold journal
replay is byte-identical to a live process's folded view.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import BorgConfig
from repro.parallel.service import (
    ServiceConfig,
    StorageBackedRunner,
    final_front,
    run_study_worker,
)
from repro.problems import DTLZ2
from repro.storage import (
    FaultyStorage,
    JournalStorage,
    RetryPolicy,
    Study,
    open_storage,
)

# SIGKILL + fork tests are POSIX-only (the production/CI target).
pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="requires POSIX signals"
)

mp = multiprocessing.get_context("fork")


@pytest.fixture
def service_config():
    """Tight timings so lease expiry and failover resolve in seconds."""
    return ServiceConfig(
        lease_ttl=1.0,
        master_lease_ttl=1.0,
        poll_interval=0.005,
        lookahead=8,
        retry=RetryPolicy(budget=50, backoff_base=0.01, backoff_max=0.1),
        snapshot_interval=25,
    )


def _small_problem():
    return DTLZ2(nobjs=2, nvars=11)


def _make_study(path, max_nfe, seed=7):
    storage = open_storage(path)
    Study.create(
        storage, "s", meta={"problem": "dtlz2", "max_nfe": max_nfe, "seed": seed}
    )
    return storage


class SlowProblem(DTLZ2):
    """Blocks in evaluate() so a worker can be SIGKILLed mid-claim."""

    def __init__(self):
        super().__init__(nobjs=2, nvars=11)

    def evaluate(self, solution):
        time.sleep(60.0)
        return super().evaluate(solution)  # pragma: no cover


class PacedProblem(DTLZ2):
    """Adds a real per-evaluation delay so runs span enough wall-clock
    for mid-run interruption (failover, chaos-monkey kills)."""

    def __init__(self, delay=0.02):
        super().__init__(nobjs=2, nvars=11)
        self.delay = delay

    def evaluate(self, solution):
        time.sleep(self.delay)
        return super().evaluate(solution)


class FlakyProblem(DTLZ2):
    """Raises on every ``period``-th evaluation call (counting calls,
    not trials, so a re-claimed trial normally succeeds on retry)."""

    def __init__(self, period=5):
        super().__init__(nobjs=2, nvars=11)
        self.period = period
        self.calls = 0

    def evaluate(self, solution):
        self.calls += 1
        if self.calls % self.period == 0:
            raise RuntimeError("flaky evaluation")
        return super().evaluate(solution)


class TestSingleProcess:
    def test_exact_nfe_and_final_front(self, tmp_path, service_config,
                                       small_config):
        storage = _make_study(tmp_path / "s.journal", 80)
        study = Study.load(storage, "s")
        runner = StorageBackedRunner(
            _small_problem(), study, config=small_config,
            service=service_config,
        )
        result = runner.run()
        assert result.finished and result.was_master
        assert result.counts == {
            "pending": 0, "running": 0, "complete": 80, "failed": 0,
        }
        assert result.borg is not None and result.borg.nfe == 80
        rebuilt = final_front(_small_problem(), study)
        assert rebuilt.nfe == 80
        np.testing.assert_array_equal(
            np.sort(rebuilt.objectives, axis=0),
            np.sort(result.borg.objectives, axis=0),
        )
        storage.close()

    def test_flaky_evaluations_still_reach_exact_nfe(
        self, tmp_path, service_config, small_config
    ):
        storage = _make_study(tmp_path / "s.journal", 60)
        study = Study.load(storage, "s")
        runner = StorageBackedRunner(
            FlakyProblem(period=5), study, config=small_config,
            service=service_config,
        )
        result = runner.run(max_seconds=60.0)
        assert result.counts["complete"] == 60
        # Every flake was re-queued and eventually completed.
        assert study.state.reclaims > 0
        assert result.counts["failed"] == 0
        storage.close()

    def test_master_failover_resumes_from_snapshot(
        self, tmp_path, service_config, small_config
    ):
        """Master 'dies' mid-run (stops cleanly without releasing its
        lease); a second worker takes over after lease expiry, restores
        the engine from the snapshot, and finishes with exact NFE."""
        storage = _make_study(tmp_path / "s.journal", 90)
        study = Study.load(storage, "s")
        first = StorageBackedRunner(
            PacedProblem(0.02), study, config=small_config,
            service=service_config, worker_id="first",
        )
        res1 = first.run(max_seconds=0.8)
        assert not res1.finished
        assert 0 < study.state.completed < 90
        assert study.state.snapshot is not None

        second_storage = open_storage(tmp_path / "s.journal")
        second = StorageBackedRunner(
            _small_problem(), Study.load(second_storage, "s"),
            service=service_config, worker_id="second",
        )
        res2 = second.run(max_seconds=60.0)
        assert res2.finished and res2.was_master
        assert res2.counts["complete"] == 90
        assert res2.borg is not None and res2.borg.nfe == 90
        storage.close()
        second_storage.close()

    def test_run_study_worker_builds_problem_from_meta(self, tmp_path):
        path = tmp_path / "s.journal"
        storage = _make_study(path, 40)
        storage.close()
        result = run_study_worker(
            path, "s",
            service=ServiceConfig(
                lease_ttl=1.0, master_lease_ttl=1.0, poll_interval=0.005
            ),
            max_seconds=60.0,
        )
        assert result.finished and result.counts["complete"] == 40


def _blocked_worker(path):
    """Child: claim a trial with a never-finishing evaluation."""
    storage = open_storage(path)
    study = Study.load(storage, "s")
    runner = StorageBackedRunner(
        SlowProblem(), study,
        service=ServiceConfig(lease_ttl=1.0, master_lease_ttl=1.0,
                              poll_interval=0.005),
        worker_id="victim",
    )
    runner.run(max_seconds=120.0)  # pragma: no cover - killed first


def _soak_worker(path, wid, torn_rate):
    """Child: co-drive the study through fault-injected storage."""
    inner = JournalStorage(path)
    chaos = FaultyStorage(inner, torn_write_rate=torn_rate, seed=1000 + wid)
    study = Study.load(chaos, "s")
    runner = StorageBackedRunner(
        PacedProblem(0.02), study,
        service=ServiceConfig(
            lease_ttl=1.0, master_lease_ttl=1.0, poll_interval=0.005,
            retry=RetryPolicy(budget=50, backoff_base=0.01, backoff_max=0.1),
            snapshot_interval=25,
        ),
        worker_id=f"soak{wid}",
    )
    runner.run(max_seconds=120.0)


class TestSigkill:
    def test_sigkill_mid_claim_redispatches_same_trial(
        self, tmp_path, service_config, small_config
    ):
        """Kill -9 a worker holding a claim: the reclaimer re-queues the
        *same trial id*, another worker completes it, and the finished
        study counts it exactly once."""
        path = tmp_path / "s.journal"
        storage = _make_study(path, 50)
        study = Study.load(storage, "s")

        victim = mp.Process(target=_blocked_worker, args=(path,))
        victim.start()
        deadline = time.monotonic() + 30.0
        claimed = None
        while time.monotonic() < deadline:
            study.refresh()
            running = [
                t for t in study.state.trials.values()
                if t.state == "running" and t.worker == "victim"
            ]
            if running:
                claimed = running[0].trial_id
                break
            time.sleep(0.02)
        assert claimed is not None, "victim never claimed a trial"
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10.0)

        rescuer = StorageBackedRunner(
            _small_problem(), study, config=small_config,
            service=service_config, worker_id="rescuer",
        )
        result = rescuer.run(max_seconds=60.0)
        assert result.finished
        assert result.counts["complete"] == 50
        assert result.counts["failed"] == 0
        # The victim's trial was re-dispatched under the same id ...
        record = study.state.trials[claimed]
        assert record.state == "complete"
        assert record.attempts >= 2
        assert record.completed_by == "rescuer"
        assert study.state.reclaims >= 1
        # ... and counted once: completed == max_nfe exactly.
        assert study.state.completed == 50
        storage.close()

    def test_kill_soak_with_torn_writes(self, tmp_path, small_config):
        """The acceptance soak: 3 subprocess workers under FaultyStorage
        torn-write injection, periodically SIGKILLed and respawned,
        plus one in-process runner. The study must finish with exact
        NFE and a cold replay byte-identical to the live view."""
        path = tmp_path / "s.journal"
        max_nfe = 80
        storage = _make_study(path, max_nfe)
        study = Study.load(storage, "s")

        workers: dict[int, multiprocessing.Process] = {}
        next_wid = [0]

        def spawn():
            wid = next_wid[0]
            next_wid[0] += 1
            proc = mp.Process(target=_soak_worker, args=(path, wid, 0.05))
            proc.start()
            workers[wid] = proc

        stop = threading.Event()
        kills = [0]

        def chaos_monkey():
            rng = np.random.default_rng(13)
            while not stop.is_set():
                time.sleep(0.25)
                live = [w for w, p in workers.items() if p.is_alive()]
                if not live:
                    continue
                victim = workers[int(rng.choice(live))]
                os.kill(victim.pid, signal.SIGKILL)
                kills[0] += 1
                spawn()

        for _ in range(3):
            spawn()
        monkey = threading.Thread(target=chaos_monkey, daemon=True)
        monkey.start()
        try:
            survivor = StorageBackedRunner(
                PacedProblem(0.02), study, config=small_config,
                service=ServiceConfig(
                    lease_ttl=1.0, master_lease_ttl=1.0, poll_interval=0.005,
                    retry=RetryPolicy(budget=50, backoff_base=0.01,
                                      backoff_max=0.1),
                    snapshot_interval=25,
                ),
                worker_id="survivor",
            )
            result = survivor.run(max_seconds=120.0)
        finally:
            stop.set()
            monkey.join(5.0)
            for proc in workers.values():
                if proc.is_alive():
                    proc.terminate()
                proc.join(10.0)

        assert result.finished, "soak did not converge within budget"
        assert kills[0] > 0, "chaos monkey never fired"
        # Exact NFE despite kills and torn writes; no dead-letters.
        assert result.counts["complete"] == max_nfe
        assert result.counts["failed"] == 0
        assert study.state.completed == max_nfe

        # Cold journal replay is byte-identical to the live view, even
        # with a possibly-torn tail from a worker killed mid-append.
        cold = Study.load(JournalStorage(path), "s")
        assert cold.dump_state() == study.dump_state()
        storage.close()


def _tell_then_hang_worker(path, told, pending):
    """Child: a fleet worker that stops dead after its 10th ``tell`` is
    written, before the step barrier that would fsync it."""
    from repro.parallel.service import FleetRunner

    tell_many = Study.tell_many
    tells = [0]

    def hang_after_tell(self, results, worker):
        won = tell_many(self, results, worker)
        tells[0] += 1
        if tells[0] == 10:
            pending.value = getattr(self.storage._lazy, "target", 0)
            told.set()
            time.sleep(60.0)
        return won

    Study.tell_many = hang_after_tell
    FleetRunner(
        JournalStorage(path),
        service=ServiceConfig(lease_ttl=1.0, master_lease_ttl=1.0,
                              poll_interval=0.005),
        worker_id="victim",
    ).run(max_seconds=120.0)  # pragma: no cover - killed first


class TestSigkillBeforeBarrier:
    def test_kill_between_tell_and_barrier(self, tmp_path, small_config):
        """kill -9 a fleet worker whose last ``tell`` is written but not
        yet fsynced: the survivor finishes every study with exact NFE,
        and its live fold equals a cold replay."""
        from repro.parallel.service import FleetRunner

        path = tmp_path / "f.journal"
        names = ("a", "b")
        storage = JournalStorage(path)
        for i, name in enumerate(names):
            Study.create(
                storage, name,
                meta={"problem": "dtlz2", "max_nfe": 40, "seed": i,
                      "config": small_config},
            )
        told = mp.Event()
        pending = mp.Value("q", 0)
        victim = mp.Process(
            target=_tell_then_hang_worker, args=(path, told, pending)
        )
        victim.start()
        try:
            assert told.wait(30.0), "victim never told 10 trials"
            os.kill(victim.pid, signal.SIGKILL)
        finally:
            victim.join(10.0)
        # The kill landed inside the window: the tell had unsynced bytes.
        assert pending.value > 0

        fleet = FleetRunner(
            storage,
            service=ServiceConfig(lease_ttl=1.0, master_lease_ttl=1.0,
                                  poll_interval=0.005),
            worker_id="survivor",
        )
        result = fleet.run(max_seconds=60.0)
        assert result.finished == 2
        cold_storage = JournalStorage(path)
        victim_told = 0
        for name in names:
            live = Study(storage, name, cache=fleet.cache)
            live.refresh()
            cold = Study.load(cold_storage, name)
            assert cold.state.completed == 40, name
            assert cold.state.failed == 0
            assert live.dump_state() == cold.dump_state(), name
            victim_told += sum(
                t.completed_by == "victim" for t in cold.state.trials.values()
            )
        # The written-but-unsynced tell counts like every other.
        assert victim_told == 10
        cold_storage.close()
        storage.close()


class TestLegacySnapshot:
    """Journals written before the completion cursor carry the sorted
    ingested trial ids in each snapshot op.  They must restore to the
    same engine as the cursor op, and a list that is not a prefix of
    the completion order must fail loudly, never double-ingest."""

    def _run_ops(self, tmp_path, service_config, small_config):
        """Ops of a finished study, cut just before its final snapshot,
        so the latest snapshot predates some completions; plus the
        study's completion order."""
        storage = _make_study(tmp_path / "run.journal", 90)
        study = Study.load(storage, "s")
        runner = StorageBackedRunner(
            _small_problem(), study, config=small_config,
            service=service_config,
        )
        assert runner.run().finished
        ops = [op for _, op in storage.read(0)]
        storage.close()
        last = max(i for i, op in enumerate(ops) if op["op"] == "snapshot")
        return ops[:last], list(study.state.completion_order)

    @staticmethod
    def _legacy(ops, order, shift=0):
        """The same ops with each snapshot's cursor written the old way:
        the sorted ids of the trials its engine had ingested."""
        out = []
        for op in ops:
            if op["op"] == "snapshot":
                op = dict(op)
                cursor = op.pop("cursor")
                op["ingested"] = sorted(order[shift:cursor + shift])
            out.append(op)
        return out

    @staticmethod
    def _load(path, ops):
        storage = open_storage(path)
        storage.append(ops)
        return storage, Study.load(storage, "s")

    def test_legacy_ingested_list_restores_identically(
        self, tmp_path, service_config, small_config
    ):
        ops, order = self._run_ops(tmp_path, service_config, small_config)
        fronts = {}
        for name, variant in (
            ("cursor", ops), ("legacy", self._legacy(ops, order))
        ):
            storage, study = self._load(tmp_path / f"{name}.journal", variant)
            state = study.state
            assert ("ingested" in state.snapshot) == (name == "legacy")
            assert 0 < state.snapshot_cursor() < state.completed
            front = final_front(_small_problem(), study)
            heir = StorageBackedRunner(
                _small_problem(), study, service=service_config,
                worker_id="heir",
            )
            heir._restore_engine(state)  # failover: restore + catch-up
            assert heir._cursor == state.completed == front.nfe
            failover = np.asarray(heir.engine.result().objectives)
            assert failover.tobytes() == np.asarray(front.objectives).tobytes()
            fronts[name] = failover.tobytes()
            storage.close()
        assert fronts["legacy"] == fronts["cursor"]

    def test_non_prefix_ingested_list_raises(
        self, tmp_path, service_config, small_config
    ):
        from repro.storage import StudyError

        ops, order = self._run_ops(tmp_path, service_config, small_config)
        storage, study = self._load(
            tmp_path / "bad.journal", self._legacy(ops, order, shift=1)
        )
        with pytest.raises(StudyError):
            study.state.snapshot_cursor()
        with pytest.raises(StudyError):
            final_front(_small_problem(), study)
        # A would-be failover master stops loudly instead of guessing.
        heir = StorageBackedRunner(
            _small_problem(), study, service=service_config,
            worker_id="heir",
        )
        with pytest.raises(StudyError):
            heir.run(max_seconds=30.0)
        assert heir.engine is None
        storage.close()


class TestBatchedIngest:
    def test_claim_batch_reaches_exact_nfe(
        self, tmp_path, service_config, small_config
    ):
        """claim_batch > 1: trials claimed/told in compound ops, NFE
        still exact, replay parity intact."""
        path = tmp_path / "s.journal"
        storage = _make_study(path, 70)
        study = Study.load(storage, "s")
        service = ServiceConfig(
            lease_ttl=1.0, master_lease_ttl=1.0, poll_interval=0.005,
            lookahead=12, claim_batch=4,
            retry=RetryPolicy(budget=50, backoff_base=0.01,
                              backoff_max=0.1),
            snapshot_interval=25,
        )
        runner = StorageBackedRunner(
            _small_problem(), study, config=small_config, service=service,
        )
        result = runner.run(max_seconds=60.0)
        assert result.finished
        assert result.counts["complete"] == 70
        cold = Study.load(open_storage(path), "s")
        assert cold.dump_state() == study.dump_state()
        storage.close()

    def test_batch_lease_renewal_single_op(self, tmp_path):
        """A worker holding a batch renews every lease with one
        ``heartbeats`` record (not one op per trial)."""
        storage = _make_study(tmp_path / "s.journal", 40)
        study = Study.load(storage, "s")
        study.enqueue_many([np.zeros(11)] * 6)
        records = study.claim_many("w", ttl=10.0, limit=6, now=0.0)
        last_seq = storage.read(0)[-1][0]
        study.heartbeat_many(
            [r.trial_id for r in records], "w", ttl=10.0, now=5.0
        )
        tail = storage.read(last_seq + 1)
        assert [op["op"] for _, op in tail] == ["heartbeats"]
        assert sorted(tail[0][1]["trials"]) == [
            r.trial_id for r in records
        ]
        storage.close()


def _make_fleet_studies(path, n_studies, max_nfe, config):
    storage = open_storage(path, group_commit=True, flush_interval=0.0002)
    from repro.storage import StudyCache

    cache = StudyCache(storage)
    for i in range(n_studies):
        Study.create(
            storage,
            f"s{i:03d}",
            meta={
                "problem": "dtlz2",
                "max_nfe": max_nfe,
                "seed": i,
                "config": config,
            },
            cache=cache,
        )
    storage.close()


def _fleet_soak_worker(path, wid):
    from repro.parallel.service import run_fleet_worker

    run_fleet_worker(
        str(path),
        service=ServiceConfig(
            lease_ttl=3.0, master_lease_ttl=3.0, poll_interval=0.002,
            lookahead=8, claim_batch=2,
            retry=RetryPolicy(budget=50, backoff_base=0.01,
                              backoff_max=0.1),
            snapshot_interval=50,
        ),
        worker_id=f"fleet{wid}",
        max_seconds=180.0,
        storage_kwargs={"group_commit": True, "flush_interval": 0.0002},
    )


class TestFleet:
    def test_fleet_serves_many_studies_exactly(
        self, tmp_path, small_config
    ):
        """One in-process fleet multiplexes 12 studies to exact NFE,
        with the shared cache absorbing nearly every read."""
        from repro.parallel.service import FleetRunner

        path = tmp_path / "fleet.journal"
        _make_fleet_studies(path, 12, 6, small_config)
        storage = open_storage(
            path, group_commit=True, flush_interval=0.0002
        )
        fleet = FleetRunner(
            storage,
            service=ServiceConfig(
                lease_ttl=3.0, master_lease_ttl=3.0, poll_interval=0.002,
                lookahead=8, claim_batch=2,
                snapshot_interval=50,
            ),
            worker_id="solo",
        )
        result = fleet.run(max_seconds=120.0)
        assert result.studies == 12 and result.finished == 12
        assert result.evaluated == 12 * 6
        for i in range(12):
            info = result.per_study[f"s{i:03d}"]
            assert info["finished"] is True
        assert result.cache["hit_rate"] > 0.5
        # The whole 12-study run re-read the backend at most a handful
        # of times (cold fold + non-contiguity fallbacks).
        assert result.cache["backend_reads"] <= 5
        # Exact NFE per study, verified against a cold replay.
        cold_storage = open_storage(path)
        for i in range(12):
            cold = Study.load(cold_storage, f"s{i:03d}")
            assert cold.state.completed == 6, f"study s{i:03d}"
            assert cold.state.finished
        cold_storage.close()
        storage.close()

    def test_multi_tenant_soak_4_processes_100_studies(self, tmp_path):
        """The acceptance soak: 4 fleet worker processes drive 100
        concurrent studies (group commit + shared cache) to completion
        with exact NFE each."""
        path = tmp_path / "fleet.journal"
        n_studies, max_nfe = 100, 4
        config = BorgConfig(
            initial_population_size=16,
            adaptation_interval=50,
            restart_check_interval=50,
            snapshot_interval=50,
            min_population_size=8,
        )
        _make_fleet_studies(path, n_studies, max_nfe, config)
        procs = [
            mp.Process(target=_fleet_soak_worker, args=(path, wid))
            for wid in range(4)
        ]
        for p in procs:
            p.start()
        try:
            for p in procs:
                p.join(240.0)
                assert p.exitcode == 0
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(10.0)
        storage = open_storage(path)
        for i in range(n_studies):
            study = Study.load(storage, f"s{i:03d}")
            assert study.state.finished, f"s{i:03d} unfinished"
            assert study.state.completed == max_nfe, (
                f"s{i:03d}: {study.state.completed} != {max_nfe}"
            )
            assert study.state.counts()["failed"] == 0
        storage.close()


def _group_commit_worker(path):
    """Child: drive the study through group-commit storage + cache
    (flushes constantly in flight, so SIGKILL lands mid-flush)."""
    from repro.storage import StudyCache

    storage = JournalStorage(
        path, group_commit=True, flush_interval=0.0005
    )
    cache = StudyCache(storage)
    study = Study.load(storage, "s", cache=cache)
    runner = StorageBackedRunner(
        PacedProblem(0.005), study,
        service=ServiceConfig(
            lease_ttl=1.0, master_lease_ttl=1.0, poll_interval=0.002,
            lookahead=12, claim_batch=3,
            retry=RetryPolicy(budget=50, backoff_base=0.01,
                              backoff_max=0.1),
            snapshot_interval=25,
        ),
        worker_id="victim",
    )
    runner.run(max_seconds=120.0)  # pragma: no cover - killed first


class TestWorkerCLI:
    """``repro study worker`` flag handling per storage backend."""

    def _create(self, storage, names, nfe=60):
        from repro.cli import main

        for i, name in enumerate(names):
            assert main(["study", "create", "--storage", storage,
                         "--name", name, "--problem", "dtlz2",
                         "--nfe", str(nfe), "--seed", str(i)]) == 0

    def test_group_commit_on_memory_exits_with_journal_message(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["study", "worker", "--storage", "memory://", "--all",
                  "--group-commit"])
        # A string exit code: printed to stderr, process status 1.
        assert isinstance(exc.value.code, str)
        assert "--group-commit applies to journal storage" in exc.value.code
        assert "\n" not in exc.value.code

    def test_single_study_worker_honours_group_commit(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.storage
        from repro.cli import main

        path = str(tmp_path / "one.journal")
        self._create(path, ["s0"])
        opened = []

        def recording_open(spec, **kwargs):
            opened.append(open_storage(spec, **kwargs))
            return opened[-1]

        monkeypatch.setattr(repro.storage, "open_storage", recording_open)
        assert main(["study", "worker", "--storage", path, "--name", "s0",
                     "--group-commit", "--max-seconds", "120"]) == 0
        assert opened[-1].group_commit
        assert opened[-1].flush_stats()["commits"] > 0
        storage = open_storage(path)
        assert Study.load(storage, "s0").counts()["complete"] == 60
        storage.close()


class TestSigkillGroupCommit:
    def test_sigkill_mid_flush_replays_to_intact_prefix(
        self, tmp_path, service_config, small_config
    ):
        """kill -9 while group-commit flushes are in flight: the
        journal replays to the longest intact prefix, a cache-backed
        live fold matches the cold replay byte-for-byte, and a rescuer
        still finishes with exact NFE."""
        from repro.storage import StudyCache

        path = tmp_path / "s.journal"
        storage = _make_study(path, 60)
        storage.close()

        victim = mp.Process(target=_group_commit_worker, args=(path,))
        victim.start()
        deadline = time.monotonic() + 30.0
        probe = JournalStorage(path)
        watched = Study.load(probe, "s")
        while time.monotonic() < deadline:
            watched.refresh()
            if watched.state.completed >= 10:
                break
            time.sleep(0.01)
        assert watched.state.completed >= 10, "victim made no progress"
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10.0)
        probe.close()

        # Post-mortem: whatever the kill left (torn tail included) is
        # replayable, and the cache-backed fold equals the cold fold.
        recovering = JournalStorage(path)
        intact, torn = recovering.recover()
        assert intact > 0
        cached_storage = JournalStorage(path)
        cached_view = Study.load(
            cached_storage, "s", cache=StudyCache(cached_storage)
        )
        cold_view = Study.load(JournalStorage(path), "s")
        assert cached_view.dump_state() == cold_view.dump_state()
        recovering.close()

        # A rescuer (same knobs) drives it home with exact NFE.
        rescue_storage = JournalStorage(
            path, group_commit=True, flush_interval=0.0005
        )
        rescue_cache = StudyCache(rescue_storage)
        rescuer = StorageBackedRunner(
            _small_problem(),
            Study.load(rescue_storage, "s", cache=rescue_cache),
            config=small_config, service=service_config,
            worker_id="rescuer",
        )
        result = rescuer.run(max_seconds=60.0)
        assert result.finished
        assert result.counts["complete"] == 60
        final_cold = Study.load(JournalStorage(path), "s")
        assert final_cold.state.completed == 60
        assert (
            final_cold.dump_state()
            == Study.load(
                rescue_storage, "s", cache=rescue_cache
            ).dump_state()
        )
        rescue_storage.close()
        cached_storage.close()
