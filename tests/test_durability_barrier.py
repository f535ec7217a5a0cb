"""One durability barrier per service step, and where it must stand.

A :class:`StorageBackedRunner` step writes every op it needs (lease
renewal, reclaim, snapshot, enqueue, finish, claim) before a single
fsync, and its ``tell`` rides the next step's fsync.  These tests pin
down what that may not change:

* the fsync count per NFE (one, not three);
* no evaluation, runner event or return from ``run()`` while the
  runner has written bytes that are not yet fsynced;
* every public ``Study`` method and ``JournalStorage.append`` fsyncs
  before it returns;
* the records themselves: a seeded run writes the same ops in the same
  order and ends with the same archive as before the barrier moved.
"""

from __future__ import annotations

import hashlib
import os
import threading

import numpy as np
import pytest

from repro.parallel.service import (
    FleetRunner,
    ServiceConfig,
    StorageBackedRunner,
)
from repro.problems import DTLZ2
from repro.problems.delays import TimedProblem
from repro.storage import JournalStorage, Study, StudyCache

#: Leases long enough that no renewal or reclaim op depends on timing.
STEADY = ServiceConfig(lease_ttl=600.0, master_lease_ttl=600.0)

#: Digests of the seeded 800-NFE run below, taken when each of
#: ``enqueue_many``, ``claim_many`` and ``tell_many`` still ended in its
#: own fsync: the ``(op, trial, key)`` sequence of the journal and the
#: final archive's variables and objectives.
OPS_SHA256 = "08c912d1a5ce88e16ab87ee61b5e761819067088aa479c30d888b6091ddedf3c"
ARCHIVE_SHA256 = (
    "cf365ae7c6f773c3532107efb331d416f32b1c4edaf521aa756a6fb377586cf9"
)


class SyncWatch:
    """Spy on ``os.fsync``: count the fsyncs of one journal and record
    how many of its bytes the latest one made durable."""

    def __init__(self, path, monkeypatch) -> None:
        self.path = str(path)
        self.fsyncs = 0
        self.synced = os.path.getsize(self.path)
        real = os.fsync

        def fsync(fd):
            real(fd)
            st = os.fstat(fd)
            if os.path.samestat(st, os.stat(self.path)):
                self.fsyncs += 1
                self.synced = st.st_size

        monkeypatch.setattr(os, "fsync", fsync)

    def unsynced(self) -> int:
        """Bytes in the journal that no fsync has covered yet."""
        return os.path.getsize(self.path) - self.synced


class CheckedProblem(DTLZ2):
    """DTLZ2 that records the journal's unsynced bytes at every
    evaluation."""

    def __init__(self, watch: SyncWatch) -> None:
        super().__init__(nobjs=2, nvars=11)
        self.watch = watch
        self.seen: list[int] = []

    def evaluate(self, solution):
        self.seen.append(self.watch.unsynced())
        return super().evaluate(solution)


class CheckedPublisher:
    """Event sink that records the journal's unsynced bytes at every
    event it receives."""

    def __init__(self, watch: SyncWatch) -> None:
        self.watch = watch
        self.kinds: list[str] = []
        self.seen: list[int] = []

    def emit(self, kind, **data):
        self.kinds.append(kind)
        self.seen.append(self.watch.unsynced())


def _create(path, names, max_nfe, **journal):
    storage = JournalStorage(path, **journal)
    for i, name in enumerate(names):
        Study.create(
            storage, name, meta={"max_nfe": max_nfe, "seed": i}
        )
    return storage


def _runner(storage, watch, publisher=None, name="s"):
    return StorageBackedRunner(
        CheckedProblem(watch), Study.load(storage, name),
        service=STEADY, worker_id="w", publisher=publisher,
    )


class TestSeededRun:
    """The 800-NFE single-process journal run the benchmark's
    ``service-journal`` workload is shaped after."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("seeded") / "s.journal"
        storage = JournalStorage(path)
        study = Study.create(
            storage, "s",
            meta={"problem": "dtlz2", "max_nfe": 800, "seed": 0},
        )
        mp = pytest.MonkeyPatch()
        watch = SyncWatch(path, mp)
        try:
            runner = StorageBackedRunner(
                TimedProblem(DTLZ2(5), 0.01, real_delay=False), study,
                service=STEADY,
            )
            result = runner.run(max_nfe=800)
        finally:
            mp.undo()
        yield storage, result, watch
        storage.close()

    def test_one_fsync_per_nfe(self, run):
        _, result, watch = run
        assert result.finished and result.borg.nfe == 800
        # Three per NFE (enqueue, claim, tell) before the barrier moved.
        assert watch.fsyncs <= 1.01 * 800
        assert watch.unsynced() == 0

    def test_same_ops_same_archive(self, run):
        storage, result, _ = run
        ops = [
            (op["op"], op.get("trial"), op.get("key"))
            for _, op in storage.read(0)
        ]
        digest = hashlib.sha256(repr(ops).encode()).hexdigest()
        assert digest == OPS_SHA256
        archive = result.borg.archive
        X = np.array([s.variables for s in archive])
        F = np.asarray(result.borg.objectives)
        digest = hashlib.sha256(X.tobytes() + F.tobytes()).hexdigest()
        assert digest == ARCHIVE_SHA256


class TestNothingUnsyncedIsObserved:
    """Evaluations, runner events and returns see only durable bytes."""

    def test_runner_evaluations_events_and_return(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "s.journal"
        storage = _create(path, ["s"], 120)
        watch = SyncWatch(path, monkeypatch)
        publisher = CheckedPublisher(watch)
        runner = _runner(storage, watch, publisher)
        result = runner.run()
        assert result.finished and result.counts["complete"] == 120
        assert len(runner.problem.seen) == 120
        assert set(runner.problem.seen) == {0}
        assert publisher.kinds.count("eval-finished") == 120
        assert {"eval-started", "eval-enqueued", "snapshot",
                "study-finished"} <= set(publisher.kinds)
        assert set(publisher.seen) == {0}
        assert watch.unsynced() == 0
        storage.close()

    def test_max_seconds_exit(self, tmp_path, monkeypatch):
        path = tmp_path / "s.journal"
        storage = _create(path, ["s"], 10**6)
        watch = SyncWatch(path, monkeypatch)
        runner = _runner(storage, watch)
        result = runner.run(max_seconds=0.3)
        assert not result.finished and result.evaluated > 0
        assert watch.unsynced() == 0
        assert set(runner.problem.seen) == {0}
        storage.close()

    def test_exception_exit(self, tmp_path, monkeypatch):
        """An exception thrown inside a step, with that step's claim and
        the previous step's tell still unsynced, leaves run() only after
        the barrier."""
        path = tmp_path / "s.journal"
        storage = _create(path, ["s"], 500)
        watch = SyncWatch(path, monkeypatch)
        runner = _runner(storage, watch)
        study = runner.study
        claim_many = study.claim_many
        pending: list[int] = []

        def failing_claim(*args, **kwargs):
            claimed = claim_many(*args, **kwargs)
            if len(runner.problem.seen) == 20:
                pending.append(watch.unsynced())
                raise RuntimeError("boom")
            return claimed

        monkeypatch.setattr(study, "claim_many", failing_claim)
        with pytest.raises(RuntimeError, match="boom"):
            runner.run()
        assert pending and pending[0] > 0  # the window was really open
        assert watch.unsynced() == 0
        storage.close()

    @pytest.mark.parametrize("max_seconds", [None, 0.3])
    def test_fleet(self, tmp_path, monkeypatch, max_seconds):
        path = tmp_path / "f.journal"
        names = ["a", "b", "c"]
        max_nfe = 40 if max_seconds is None else 10**6
        storage = _create(path, names, max_nfe)
        watch = SyncWatch(path, monkeypatch)
        publisher = CheckedPublisher(watch)
        problems = {name: CheckedProblem(watch) for name in names}
        fleet = FleetRunner(
            storage, problems=problems, service=STEADY, worker_id="w",
            publisher=publisher,
        )
        result = fleet.run(max_seconds=max_seconds)
        assert watch.unsynced() == 0
        seen = [x for p in problems.values() for x in p.seen]
        assert seen and set(seen) == {0}
        assert set(publisher.seen) == {0}
        assert publisher.kinds.count("eval-finished") == result.evaluated
        if max_seconds is None:
            assert result.finished == 3 and result.evaluated == 120
        storage.close()


class TestPublicCallsAreDurable:
    """Every public write of the Study API and of the journal fsyncs
    before it returns."""

    def test_each_call_fsyncs_before_return(self, tmp_path, monkeypatch):
        path = tmp_path / "s.journal"
        storage = JournalStorage(path)
        watch = SyncWatch(path, monkeypatch)
        study = Study.create(storage, "s", meta={})
        assert (watch.fsyncs, watch.unsynced()) == (1, 0)
        x = np.zeros(3)
        f = np.ones(2)
        calls = [
            ("enqueue", lambda: study.enqueue(x)),
            ("enqueue_many", lambda: study.enqueue_many([x, x, x])),
            ("claim", lambda: study.claim("w", 60.0)),
            ("claim_many", lambda: study.claim_many("w", 60.0, limit=2)),
            ("heartbeat", lambda: study.heartbeat(0, "w", 60.0)),
            ("heartbeat_many",
             lambda: study.heartbeat_many([1, 2], "w", 60.0)),
            ("tell", lambda: study.tell(0, "w", f)),
            ("tell_many", lambda: study.tell_many([(1, f, None)], "w")),
            ("fail", lambda: study.fail(2, "w", "boom")),
            ("claim(expired)", lambda: study.claim("w", 1.0, now=0.0)),
            ("reclaim_stale", lambda: study.reclaim_stale()),
            ("acquire_lease",
             lambda: study.acquire_lease("master", "w", 60.0)),
            ("release_lease", lambda: study.release_lease("master", "w")),
            ("save_snapshot",
             lambda: study.save_snapshot({"k": 1}, cursor=2, nfe=2)),
            ("finish", lambda: study.finish()),
            ("renew_leases",
             lambda: StudyCache(storage).renew_leases(
                 [("s", "master", "w")], 60.0)),
            ("append", lambda: storage.append([{"op": "note"}])),
        ]
        for name, call in calls:
            before = (watch.fsyncs, os.path.getsize(path))
            call()
            assert os.path.getsize(path) > before[1], f"{name} wrote nothing"
            assert watch.fsyncs == before[0] + 1, name
            assert watch.unsynced() == 0, name
        assert study.state.reclaims == 2  # fail, then the expired claim
        storage.close()

    def test_scope_defers_to_one_barrier_on_its_thread_only(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "s.journal"
        storage = JournalStorage(path)
        watch = SyncWatch(path, monkeypatch)
        study = Study.create(storage, "s", meta={})
        x = np.zeros(3)
        base = watch.fsyncs
        with study._deferred():
            study.enqueue_many([x, x])
            study.claim_many("w", 60.0, limit=2)
            assert watch.fsyncs == base and watch.unsynced() > 0
            # Another thread's public call is durable on return, and its
            # fsync covers this thread's pending bytes too.
            other = threading.Thread(
                target=study.tell, args=(0, "w", np.ones(2))
            )
            other.start()
            other.join()
            assert watch.fsyncs == base + 1 and watch.unsynced() == 0
            study.tell(1, "w", np.ones(2))
            assert watch.unsynced() > 0
        # The scope's exit is this thread's one barrier.
        assert watch.fsyncs == base + 2 and watch.unsynced() == 0
        storage.close()


@pytest.mark.parametrize(
    "journal",
    [{"group_commit": True}, {"fsync": False}],
    ids=["group-commit", "no-fsync"],
)
def test_other_journal_modes_stay_exact(tmp_path, monkeypatch, journal):
    path = tmp_path / "s.journal"
    storage = _create(path, ["s"], 150, **journal)
    watch = SyncWatch(path, monkeypatch)
    runner = _runner(storage, watch)
    result = runner.run()
    assert result.finished and result.counts["complete"] == 150
    cold_storage = JournalStorage(path)
    assert (
        Study.load(cold_storage, "s").dump_state()
        == runner.study.dump_state()
    )
    cold_storage.close()
    if journal.get("fsync", True):
        assert watch.unsynced() == 0
        assert set(runner.problem.seen) == {0}
        assert storage.flush_stats()["flushes"] <= 1.01 * 150 + 1
    else:
        assert watch.fsyncs == 0
    storage.close()
