"""Durable storage layer: backends, journal recovery, study protocol.

The crash-safety contract under test (docs/RESILIENCE.md §6):

* replay of a journal with a torn or bit-flipped tail yields exactly
  the prefix of intact records (fuzzed over randomized record
  boundaries);
* the live folded study state and a cold replay are byte-identical
  (``Study.dump_state``);
* ``tell`` is exactly-once per trial; expired leases are re-queued with
  capped-exponential backoff and dead-lettered past the retry budget.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import (
    CorruptRecord,
    FaultyStorage,
    InMemoryStorage,
    JournalStorage,
    RetryPolicy,
    StorageError,
    StorageLockTimeout,
    Study,
    StudyError,
    list_studies,
    open_storage,
)
from repro.storage.journal import RECORD_MAGIC, encode_record, scan_all
from repro.telemetry import JournalTailer

BACKENDS = ("memory", "journal")


def make_storage(kind: str, tmp_path):
    if kind == "memory":
        return InMemoryStorage()
    return JournalStorage(tmp_path / "log.journal")


@pytest.fixture(params=BACKENDS)
def storage(request, tmp_path):
    backend = make_storage(request.param, tmp_path)
    yield backend
    backend.close()


class TestBackendContract:
    def test_append_read_roundtrip(self, storage):
        ops = [{"op": "x", "i": i, "v": list(range(i))} for i in range(7)]
        last = storage.append(ops)
        assert last == 6
        got = storage.read(0)
        assert [seq for seq, _ in got] == list(range(7))
        assert [op for _, op in got] == ops

    def test_read_from_offset(self, storage):
        storage.append([{"op": "a", "i": i} for i in range(5)])
        got = storage.read(3)
        assert [seq for seq, _ in got] == [3, 4]
        assert [op["i"] for _, op in got] == [3, 4]

    def test_empty_append_is_noop(self, storage):
        assert storage.append([]) == -1
        storage.append([{"op": "a"}])
        assert storage.append([]) == 0
        assert len(storage.read(0)) == 1

    def test_lock_is_reentrant(self, storage):
        with storage.lock():
            with storage.lock():
                storage.append([{"op": "nested"}])
        assert storage.read(0)[0][1]["op"] == "nested"

    def test_payloads_are_isolated(self, storage):
        op = {"op": "a", "arr": [1, 2, 3]}
        storage.append([op])
        op["arr"].append(99)  # caller mutates after append
        assert storage.read(0)[0][1]["arr"] == [1, 2, 3]

    def test_second_consumer_sees_everything(self, storage, tmp_path):
        storage.append([{"op": "a", "i": i} for i in range(4)])
        if isinstance(storage, InMemoryStorage):
            pytest.skip("in-memory storage is single-process by design")
        fresh = type(storage)(storage.path)
        try:
            assert [op["i"] for _, op in fresh.read(0)] == [0, 1, 2, 3]
        finally:
            fresh.close()


class TestOpenStorage:
    def test_spec_dispatch(self, tmp_path):
        mem = open_storage("memory://")
        journal = open_storage(tmp_path / "a.journal")
        db = open_storage(tmp_path / "a.db")  # every path is a journal
        try:
            assert isinstance(mem, InMemoryStorage)
            assert isinstance(journal, JournalStorage)
            assert isinstance(db, JournalStorage)
        finally:
            for backend in (mem, journal, db):
                backend.close()


def _write_sqlite_db(path):
    import sqlite3

    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    conn.executemany(
        "INSERT INTO t VALUES (?, ?)", [(i, "row") for i in range(50)]
    )
    conn.commit()
    conn.close()


def _write_csv(path):
    path.write_text("run,hv\n" + "".join(f"{i},0.{i:04d}\n" for i in range(80)))


_FOREIGN = pytest.mark.parametrize(
    "name, write",
    [("foreign.db", _write_sqlite_db), ("foreign.csv", _write_csv)],
    ids=["sqlite", "text"],
)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestForeignFile:
    """A file that is not a journal is refused before anything is
    created next to it, and its bytes are left alone; a journal torn
    inside its first record still heals."""

    @_FOREIGN
    def test_open_refuses_and_creates_nothing(self, name, write, tmp_path):
        path = tmp_path / name
        write(path)
        digest = _sha256(path)
        with pytest.raises(CorruptRecord, match="not a journal"):
            open_storage(path)
        with pytest.raises(CorruptRecord, match="not a journal"):
            JournalTailer(JournalStorage(path))
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert _sha256(path) == digest

    def test_status_command_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "r.csv"
        _write_csv(path)
        digest = _sha256(path)
        assert main(["study", "status", "--storage", str(path)]) == 1
        captured = capsys.readouterr()
        assert "not a journal" in captured.err
        assert "no studies" not in captured.out
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
        assert _sha256(path) == digest

    @_FOREIGN
    def test_create_and_recover_refuse_and_keep_bytes(
        self, name, write, tmp_path
    ):
        """A file that turns foreign after a journal opened it fails
        every reader and writer of that journal."""
        path = tmp_path / name
        storage = JournalStorage(path)
        tailer = JournalTailer(storage)
        try:
            write(path)
            digest = _sha256(path)
            with pytest.raises(CorruptRecord, match="not a journal"):
                Study.create(storage, "s")
            with pytest.raises(CorruptRecord, match="not a journal"):
                storage.recover()
            with pytest.raises(CorruptRecord, match="not a journal"):
                tailer.poll()
        finally:
            storage.close()
        assert _sha256(path) == digest

    @pytest.mark.parametrize(
        "torn",
        [encode_record({"op": "first"})[:1], b"\0" * 512],
        ids=["first-byte", "nul-fill"],
    )
    def test_torn_first_record_recovers_empty(self, torn, tmp_path):
        path = tmp_path / "torn.journal"
        path.write_bytes(torn)
        storage = JournalStorage(path)
        try:
            assert storage.recover() == (0, len(torn))
            assert path.stat().st_size == 0
            Study.create(storage, "s")
            assert list_studies(storage) == ["s"]
        finally:
            storage.close()


class TestMissingJournal:
    """Only ``study create`` may create a journal: the verbs that read
    one refuse a missing path and leave nothing behind."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["study", "status"],
            ["study", "export", "--name", "s", "--csv", "out.csv"],
            ["study", "worker", "--name", "s", "--max-seconds", "1"],
            ["study", "worker", "--all", "--max-seconds", "1"],
            ["serve", "--report", "r.html"],
            ["serve", "--port", "0"],
        ],
        ids=["status", "export", "worker", "worker-all", "report", "live"],
    )
    def test_read_verbs_refuse_and_create_nothing(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        import repro.telemetry.server
        from repro.cli import main

        def serve(*args, **kwargs):
            raise AssertionError("the dashboard started")

        monkeypatch.setattr(repro.telemetry.server, "serve", serve)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "missing.journal"
        assert main([*argv, "--storage", str(path)]) == 1
        captured = capsys.readouterr()
        assert "no such journal" in captured.err
        assert "no studies" not in captured.out
        assert list(tmp_path.iterdir()) == []

    def test_memory_storage_is_not_missing(self, capsys):
        from repro.cli import main

        assert main(["study", "status", "--storage", "memory://"]) == 0
        assert "no studies" in capsys.readouterr().out

    def test_create_still_creates(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "new.journal"
        assert main(["study", "create", "--storage", str(path), "--name",
                     "s", "--problem", "dtlz2", "--nfe", "10"]) == 0
        assert main(["study", "status", "--storage", str(path)]) == 0


def _frame(payload: bytes) -> bytes:
    """Frame raw payload bytes as a record with a valid checksum."""
    header = struct.pack("<2sII", RECORD_MAGIC, len(payload), zlib.crc32(payload))
    return header + payload


#: A pickle of a class from a module that does not exist.
_UNDECODABLE = b"cno_such_module_for_journal_tests\nThing\n)\x81."


class TestUndecodableRecord:
    """A record whose checksum matches but whose payload does not
    decode is what a writer wrote, not a torn tail: readers and writers
    raise, and neither it nor the intact records after it are lost."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "undecodable.journal"
        path.write_bytes(
            encode_record({"op": "a"})
            + _frame(_UNDECODABLE)
            + encode_record({"op": "c"})
        )
        return path

    def test_scan_raises_at_the_record(self, path):
        with pytest.raises(CorruptRecord) as info:
            scan_all(path.read_bytes())
        assert info.value.offset == len(encode_record({"op": "a"}))

    def test_readers_and_writers_raise_and_truncate_nothing(self, path):
        raw = path.read_bytes()
        storage = JournalStorage(path)
        try:
            calls = [
                lambda: storage.read(0),
                lambda: storage.append([{"op": "d"}]),
                storage.recover,
                lambda: Study.create(storage, "s"),
                lambda: JournalTailer(storage).poll(),
            ]
            for call in calls:
                with pytest.raises(CorruptRecord, match="does not decode"):
                    call()
        finally:
            storage.close()
        assert path.read_bytes() == raw

    def test_service_step_stops(self, tmp_path):
        from repro.parallel.service import StorageBackedRunner
        from repro.problems import DTLZ2

        path = tmp_path / "s.journal"
        storage = JournalStorage(path)
        try:
            Study.create(storage, "s", meta={"max_nfe": 10})
            runner = StorageBackedRunner(
                DTLZ2(nobjs=2, nvars=11), Study.load(storage, "s")
            )
            with open(path, "ab") as fh:
                fh.write(_frame(_UNDECODABLE))
            raw = path.read_bytes()
            with pytest.raises(CorruptRecord):
                runner.step(10)
        finally:
            storage.close()
        assert path.read_bytes() == raw


class TestJournalRecovery:
    """Fuzzed torn/corrupt tails must replay to the intact prefix."""

    @staticmethod
    def _ops(n):
        return [{"op": "w", "i": i, "blob": "x" * (17 * (i + 1))} for i in range(n)]

    def test_truncation_fuzz_over_record_boundaries(self, tmp_path):
        """Cut the file at every interesting byte offset: replay must
        yield exactly the records that fit whole before the cut."""
        rng = np.random.default_rng(7)
        ops = self._ops(6)
        records = [encode_record(op) for op in ops]
        ends = np.cumsum([len(r) for r in records])
        blob = b"".join(records)
        # Every boundary, plus random mid-record cuts.
        cuts = set(ends.tolist()) | {0} | {
            int(c) for c in rng.integers(1, len(blob), size=60)
        }
        for cut in sorted(cuts):
            path = tmp_path / "fuzz.journal"
            path.write_bytes(blob[:cut])
            intact = int(np.searchsorted(ends, cut, side="right"))
            journal = JournalStorage(path)
            try:
                got = journal.read(0)
                assert [op for _, op in got] == ops[:intact], f"cut={cut}"
            finally:
                journal.close()

    def test_bitflip_fuzz_yields_intact_prefix(self, tmp_path):
        """Flip one byte anywhere: replay stops at (or before) the record
        containing the flip and every surviving record is genuine."""
        rng = np.random.default_rng(11)
        ops = self._ops(6)
        records = [encode_record(op) for op in ops]
        ends = np.cumsum([len(r) for r in records])
        blob = b"".join(records)
        for pos in rng.integers(0, len(blob), size=80):
            pos = int(pos)
            corrupted = bytearray(blob)
            corrupted[pos] ^= 0xFF
            path = tmp_path / "flip.journal"
            path.write_bytes(bytes(corrupted))
            hit = int(np.searchsorted(ends, pos, side="right"))
            journal = JournalStorage(path)
            try:
                got = [op for _, op in journal.read(0)]
            finally:
                journal.close()
            # Never longer than the prefix before the flipped record,
            # and what is returned must be the true prefix.
            assert len(got) <= hit, f"pos={pos}"
            assert got == ops[: len(got)], f"pos={pos}"

    def test_recover_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "heal.journal"
        journal = JournalStorage(path)
        journal.append(self._ops(4))
        size_before = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(encode_record({"op": "torn"})[:9])  # partial record
        intact, torn = journal.recover()
        assert (intact, torn) == (4, 9)
        assert path.stat().st_size == size_before
        journal.close()

    def test_append_over_torn_tail_heals(self, tmp_path):
        path = tmp_path / "heal2.journal"
        journal = JournalStorage(path)
        journal.append(self._ops(3))
        with pytest.raises(StorageError):
            journal.torn_append({"op": "crash"}, fraction=0.5)
        journal.append([{"op": "next"}])
        ops = [op["op"] for _, op in journal.read(0)]
        assert ops == ["w", "w", "w", "next"]
        # And the healed file is byte-clean: a raw scan finds no garbage.
        _, clean_end = scan_all(path.read_bytes())
        assert clean_end == path.stat().st_size
        journal.close()

    def test_reader_never_truncates(self, tmp_path):
        """A torn tail may be a peer's in-flight append: pure reads must
        leave the bytes alone (only a lock-holding writer heals)."""
        path = tmp_path / "peer.journal"
        journal = JournalStorage(path)
        journal.append(self._ops(2))
        with open(path, "ab") as fh:
            fh.write(encode_record({"op": "inflight"})[:11])
        size = path.stat().st_size
        assert len(journal.read(0)) == 2
        assert len(journal) == 2
        assert path.stat().st_size == size

    def test_oversize_length_field_is_corruption(self, tmp_path):
        path = tmp_path / "big.journal"
        journal = JournalStorage(path)
        journal.append(self._ops(2))
        import struct
        import zlib

        payload = pickle.dumps({"op": "evil"})
        with open(path, "ab") as fh:  # 1 GiB claimed length
            fh.write(
                struct.pack(
                    "<2sII", b"RJ", 1 << 30, zlib.crc32(payload)
                ) + payload
            )
        assert len(journal.read(0)) == 2
        journal.close()


class TestJournalLocking:
    def test_lock_timeout_raises(self, tmp_path):
        a = JournalStorage(tmp_path / "l.journal")
        b = JournalStorage(tmp_path / "l.journal", lock_timeout=0.05)
        with a.lock():
            with pytest.raises(StorageLockTimeout):
                with b.lock():
                    pass  # pragma: no cover
        a.close()
        b.close()

    def test_threaded_contention_regression(self, tmp_path):
        """6 threads x 30 claim/tell compound ops on one journal handle
        finish quickly and exactly: no lost, doubled or stalled op."""
        import time as _time

        storage = JournalStorage(tmp_path / "s.journal")
        study = Study.create(storage, "s")
        study.enqueue_many([np.zeros(2)] * 180)
        errors: list[Exception] = []

        def work(i):
            try:
                for _ in range(30):
                    r = study.claim(f"w{i}", ttl=60.0)
                    if r is not None:
                        study.tell(
                            r.trial_id, f"w{i}",
                            np.array([float(r.trial_id), 1.0]),
                        )
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        t0 = _time.monotonic()
        ts = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        elapsed = _time.monotonic() - t0
        assert not errors
        assert study.state.completed == 180
        # Generous wall-clock bound: contention stalls blow way past it.
        assert elapsed < 30.0
        storage.close()


@pytest.fixture(params=BACKENDS)
def study(request, tmp_path):
    backend = make_storage(request.param, tmp_path)
    yield Study.create(backend, "s", meta={"seed": 1})
    backend.close()


class TestStudyLifecycle:
    def test_create_load_and_duplicates(self, storage):
        Study.create(storage, "a", meta={"k": 1})
        with pytest.raises(StudyError):
            Study.create(storage, "a")
        again = Study.create(storage, "a", exist_ok=True)
        assert again.state.meta == {"k": 1}
        with pytest.raises(StudyError):
            Study.load(storage, "missing")
        assert list_studies(storage) == ["a"]

    def test_claim_tell_exactly_once(self, study):
        tid = study.enqueue(np.array([0.1, 0.2]))
        record = study.claim("w0", ttl=60.0, now=100.0)
        assert record.trial_id == tid and record.state == "running"
        assert study.claim("w1", ttl=60.0, now=100.0) is None
        assert study.tell(tid, "w0", np.array([1.0, 2.0])) is True
        # A late duplicate (reclaimed worker finishing anyway) loses.
        assert study.tell(tid, "w1", np.array([9.0, 9.0])) is False
        assert study.state.completed == 1
        done = study.completed_trials()
        assert len(done) == 1 and done[0].completed_by == "w0"
        np.testing.assert_array_equal(done[0].objectives, [1.0, 2.0])

    def test_heartbeat_extends_lease(self, study):
        tid = study.enqueue(np.zeros(2))
        study.claim("w0", ttl=10.0, now=0.0)
        assert study.heartbeat(tid, "w0", ttl=10.0, now=8.0) is True
        # Lease now runs to t=18: not stale at t=12.
        assert study.reclaim_stale(now=12.0) == []
        assert study.heartbeat(tid, "w1", ttl=10.0, now=8.0) is False

    def test_reclaim_requeues_same_trial_with_backoff(self, study):
        retry = RetryPolicy(budget=5, backoff_base=0.5, backoff_max=16.0)
        tid = study.enqueue(np.zeros(2))
        study.claim("w0", ttl=10.0, now=0.0)
        actions = study.reclaim_stale(retry, now=11.0)
        assert actions == [(tid, "pending")]
        record = study.state.trials[tid]
        assert record.not_before == pytest.approx(11.0 + 0.5)  # 1 attempt
        # Backoff gates the next claim.
        assert study.claim("w1", ttl=10.0, now=11.2) is None
        reclaimed = study.claim("w1", ttl=10.0, now=11.6)
        assert reclaimed is not None and reclaimed.trial_id == tid
        assert study.state.reclaims == 1

    def test_retry_budget_dead_letters(self, study):
        retry = RetryPolicy(budget=2, backoff_base=0.0)
        tid = study.enqueue(np.zeros(2))
        now = 0.0
        for _ in range(retry.budget):
            assert study.claim("w0", ttl=1.0, now=now) is not None
            now += 2.0
            study.reclaim_stale(retry, now=now)
        assert study.state.trials[tid].state == "failed"
        assert study.state.failed == 1
        assert study.claim("w0", ttl=1.0, now=now + 1) is None

    def test_fail_requeues_then_dead_letters(self, study):
        retry = RetryPolicy(budget=2, backoff_base=0.0)
        tid = study.enqueue(np.zeros(2))
        study.claim("w0", ttl=60.0, now=0.0)
        assert study.fail(tid, "w0", "boom", retry, now=1.0) == "pending"
        study.claim("w0", ttl=60.0, now=2.0)
        assert study.fail(tid, "w0", "boom", retry, now=3.0) == "failed"
        assert "budget" in study.state.trials[tid].error

    def test_backoff_is_capped_exponential(self):
        retry = RetryPolicy(budget=99, backoff_base=0.1, backoff_max=1.0)
        delays = [retry.backoff(a) for a in range(1, 8)]
        assert delays[:4] == pytest.approx([0.1, 0.2, 0.4, 0.8])
        assert delays[4:] == pytest.approx([1.0, 1.0, 1.0])

    def test_named_lease_election(self, study):
        assert study.acquire_lease("master", "w0", ttl=10.0, now=0.0)
        assert study.lease_holder("master", now=5.0) == "w0"
        assert not study.acquire_lease("master", "w1", ttl=10.0, now=5.0)
        # Holder renews; takeover only after expiry.
        assert study.acquire_lease("master", "w0", ttl=10.0, now=9.0)
        assert study.acquire_lease("master", "w1", ttl=10.0, now=20.0)
        assert study.lease_holder("master", now=21.0) == "w1"
        study.release_lease("master", "w1")
        assert study.lease_holder("master", now=21.0) is None

    def test_snapshot_roundtrip(self, study):
        for tid in study.enqueue_many([np.zeros(2)] * 3):
            study.claim("w0", ttl=60.0, now=0.0)
            study.tell(tid, "w0", np.zeros(2))
        study.save_snapshot({"nfe": 3}, cursor=3, nfe=3)
        snap = study.state.snapshot
        assert snap["nfe"] == 3 and snap["cursor"] == 3
        assert study.state.snapshot_cursor() == 3
        # A cursor past the completed trials is no frontier.
        with pytest.raises(StudyError):
            study.save_snapshot({"nfe": 4}, cursor=4, nfe=4)

    def test_finish_is_idempotent(self, study):
        study.finish()
        seq_after = len(study.storage.read(0))
        study.finish()
        assert len(study.storage.read(0)) == seq_after
        assert study.state.finished


class TestReplayParity:
    """Live folded view == cold replay, byte for byte."""

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_full_lifecycle_replays_bit_identically(self, kind, tmp_path):
        backend = make_storage(kind, tmp_path)
        study = Study.create(backend, "s", meta={"seed": 3})
        retry = RetryPolicy(budget=3, backoff_base=0.0)
        rng = np.random.default_rng(5)
        for i in range(6):
            study.enqueue(rng.random(4), operator="sbx")
        study.claim("w0", ttl=1.0, now=0.0)
        study.claim("w1", ttl=60.0, now=0.0)
        study.reclaim_stale(retry, now=5.0)       # w0's lease expired
        study.claim("w2", ttl=60.0, now=6.0)      # re-dispatch
        study.tell(1, "w1", rng.random(2))
        study.tell(0, "w2", rng.random(2))
        # Late duplicate: suppressed with no log traffic, so it cannot
        # perturb parity.
        assert study.tell(0, "w0", rng.random(2)) is False
        study.fail(2, "w1", "boom", retry, now=7.0)
        study.acquire_lease("master", "w1", ttl=60.0, now=7.0)
        study.save_snapshot({"x": 1}, cursor=2, nfe=2)
        study.finish()

        replayed = Study.load(backend, "s")
        assert replayed.dump_state() == study.dump_state()
        # The fold's derived indexes stay out of the canonical bytes:
        # this lifecycle renders exactly as it did before they existed.
        assert hashlib.sha256(study.dump_state()).hexdigest() == (
            "549695310d6442a73227a6bc6ac03adc62e50c8fe037f243d8006daaef2228aa"
        )
        backend.close()

    def test_journal_cold_process_parity(self, tmp_path):
        """A journal re-opened from disk (new instance, cold cache, torn
        tail included) folds to the same bytes as the live view."""
        path = tmp_path / "p.journal"
        backend = JournalStorage(path)
        study = Study.create(backend, "s", meta={})
        study.enqueue(np.array([0.5]))
        study.claim("w0", ttl=60.0, now=0.0)
        study.tell(0, "w0", np.array([1.0, 2.0]))
        with open(path, "ab") as fh:  # torn in-flight append from a peer
            fh.write(encode_record({"op": "enqueue", "study": "s"})[:7])
        cold = Study.load(JournalStorage(path), "s")
        assert cold.dump_state() == study.dump_state()
        backend.close()


def _assert_fold_indexes(state) -> None:
    """The fold's derived indexes equal full scans of the trials."""
    scan = dict.fromkeys(("pending", "running", "complete", "failed"), 0)
    for record in state.trials.values():
        scan[record.state] += 1
    assert state.counts() == scan
    assert state.pending == {
        tid for tid, r in state.trials.items() if r.state == "pending"
    }
    done = sorted(
        (r for r in state.trials.values() if r.state == "complete"),
        key=lambda r: r.completed_seq,
    )
    assert state.completion_order == [r.trial_id for r in done]


def _lifecycle_steps(study, rng):
    """The replay-parity lifecycle plus heartbeats, a duplicate tell, a
    requeue of a still-PENDING trial and a dead-letter, one callable
    per compound op."""
    retry = RetryPolicy(budget=3, backoff_base=0.0)
    strict = RetryPolicy(budget=1, backoff_base=0.0)
    return [
        lambda: study.enqueue_many(
            [rng.random(4) for _ in range(6)], operator="sbx"
        ),
        lambda: study.claim("w0", ttl=1.0, now=0.0),
        lambda: study.claim_many("w1", ttl=60.0, limit=2, now=0.0),
        lambda: study.heartbeat(1, "w1", ttl=60.0, now=0.5),
        lambda: study.heartbeat_many([1, 2], "w1", ttl=60.0, now=0.6),
        lambda: study.reclaim_stale(retry, now=5.0),
        lambda: study.claim("w2", ttl=60.0, now=6.0),
        lambda: study.tell(1, "w1", rng.random(2)),
        lambda: study.tell(0, "w2", rng.random(2)),
        lambda: study.tell(0, "w0", rng.random(2)),  # duplicate
        lambda: study.fail(3, "w1", "never claimed", retry, now=6.5),
        lambda: study.fail(2, "w1", "boom", strict, now=7.0),
        lambda: study.tell(5, "w3", rng.random(2)),  # unclaimed win
        lambda: study.acquire_lease("master", "w1", ttl=60.0, now=7.0),
        lambda: study.save_snapshot({"x": 1}, cursor=3, nfe=3),
        lambda: study.finish(),
    ]


class TestFoldIndexes:
    """The incremental counts, pending set and completion order agree
    with full scans after every op, live and on cold replay."""

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_indexes_match_scans_after_every_op(self, kind, tmp_path):
        backend = make_storage(kind, tmp_path)
        study = Study.create(backend, "s", meta={"seed": 3})
        for step in _lifecycle_steps(study, np.random.default_rng(5)):
            step()
            _assert_fold_indexes(study.state)
            cold = Study.load(backend, "s")
            _assert_fold_indexes(cold.state)
            assert cold.state.completion_order == study.state.completion_order
            assert cold.dump_state() == study.dump_state()
        assert study.state.completion_order == [1, 0, 5]
        assert study.state.counts()["failed"] == 1
        backend.close()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["enqueue", "claim", "heartbeat", "tell", "fail",
                     "reclaim"]
                ),
                st.integers(0, 63),
                st.integers(1, 3),
            ),
            max_size=40,
        )
    )
    def test_random_op_sequences(self, script):
        backend = InMemoryStorage()
        study = Study.create(backend, "s")
        retry = RetryPolicy(budget=2, backoff_base=0.5)
        now = 0.0
        for kind, pick, k in script:
            now += 0.4
            tids = sorted(study.state.trials)
            tid = tids[pick % len(tids)] if tids else None
            if kind == "enqueue" or tid is None:
                study.enqueue_many([np.full(2, pick)] * k)
            elif kind == "claim":
                study.claim_many(f"w{k}", ttl=float(k), limit=k, now=now)
            elif kind == "heartbeat":
                study.heartbeat_many(
                    tids[pick % len(tids):][:k], f"w{k}", ttl=2.0, now=now
                )
            elif kind == "tell":  # duplicates included: terminal trials
                study.tell(tid, f"w{k}", np.array([now, float(pick)]))
            elif kind == "fail":
                study.fail(tid, f"w{k}", "boom", retry, now=now)
            else:
                study.reclaim_stale(retry, now=now)
            _assert_fold_indexes(study.state)
        cold = Study.load(backend, "s")
        _assert_fold_indexes(cold.state)
        assert cold.state.completion_order == study.state.completion_order
        assert cold.dump_state() == study.dump_state()


class TestFaultyStorage:
    def test_injection_is_deterministic(self, tmp_path):
        def run():
            inner = InMemoryStorage()
            chaos = FaultyStorage(
                inner, torn_write_rate=0.3, lock_timeout_rate=0.3, seed=9
            )
            outcomes = []
            for i in range(30):
                try:
                    chaos.append([{"op": "x", "i": i}])
                    outcomes.append("ok")
                except StorageError:
                    outcomes.append("fault")
            return outcomes, dict(chaos.injected)

        first, second = run(), run()
        assert first == second
        assert first[1]["torn_write"] > 0

    def test_torn_write_rate_tears_journal_for_real(self, tmp_path):
        inner = JournalStorage(tmp_path / "c.journal")
        chaos = FaultyStorage(inner, torn_write_rate=1.0, seed=0)
        inner.append([{"op": "good"}])
        with pytest.raises(StorageError):
            chaos.append([{"op": "doomed"}])
        # Torn bytes really on disk, invisible to replay, healed on append.
        assert (tmp_path / "c.journal").stat().st_size > 0
        assert [op["op"] for _, op in chaos.read(0)] == ["good"]
        intact, torn = inner.recover()
        assert intact == 1 and torn > 0
        inner.close()

    def test_lock_timeout_injection(self):
        chaos = FaultyStorage(InMemoryStorage(), lock_timeout_rate=1.0, seed=1)
        with pytest.raises(StorageLockTimeout):
            with chaos.lock():
                pass  # pragma: no cover
        assert chaos.injected["lock_timeout"] == 1

    def test_corrupt_tail_flips_a_byte(self, tmp_path):
        inner = JournalStorage(tmp_path / "c.journal")
        chaos = FaultyStorage(inner)
        inner.append([{"op": "a", "pad": "y" * 64}, {"op": "b"}])
        assert chaos.corrupt_tail(byte_from_end=3)
        # The corrupted record vanishes from replay; the prefix survives.
        ops = [op["op"] for _, op in JournalStorage(tmp_path / "c.journal").read(0)]
        assert ops == ["a"]
        inner.close()


class TestNewsProbe:
    """news() staleness probe: False must guarantee nothing new."""

    def test_false_means_nothing_new(self, storage):
        storage.append([{"op": "a"}])
        storage.read(0)
        assert storage.news() is False

    def test_own_appends_are_already_seen(self, storage):
        # The probe tracks this *instance's* cursor: its own appends
        # advance it (the cache folds them via write-through, never by
        # re-reading), so they are not "news".
        storage.append([{"op": "a"}])
        storage.read(0)
        storage.append([{"op": "b"}])
        assert storage.news() is False
        assert [op["op"] for _, op in storage.read(1)] == ["b"]

    @pytest.mark.parametrize("kind", ["journal"])
    def test_external_writer_detected(self, kind, tmp_path):
        ours = make_storage(kind, tmp_path)
        ours.append([{"op": "a"}])
        ours.read(0)
        theirs = make_storage(kind, tmp_path)
        theirs.append([{"op": "b"}])
        assert ours.news() is True
        theirs.close()
        ours.close()

    def test_probe_counts(self, storage):
        storage.append([{"op": "a"}])
        before = storage.probe_calls
        storage.news()
        storage.news()
        assert storage.probe_calls == before + 2


class TestQuietRead:
    """A read with nothing new answers from the scan cursor without
    opening the journal."""

    def test_nothing_new_skips_the_file(self, tmp_path, monkeypatch):
        ours = JournalStorage(tmp_path / "q.journal")
        ours.append([{"op": "a"}])
        assert [op["op"] for _, op in ours.read(0)] == ["a"]
        opened = []
        read_from = ours._read_from
        monkeypatch.setattr(
            ours, "_read_from",
            lambda offset: opened.append(offset) or read_from(offset),
        )
        assert ours.read(1) == []
        assert len(ours) == 1
        assert opened == []
        theirs = JournalStorage(tmp_path / "q.journal")
        theirs.append([{"op": "b"}])
        assert [(seq, op["op"]) for seq, op in ours.read(1)] == [(1, "b")]
        assert opened  # the new record came from the file
        theirs.close()
        ours.close()


class TestGroupCommit:
    """Group-commit batching: shared durability barriers, bounded
    latency, and the same torn-tail crash contract as per-op fsync."""

    def make_group(self, kind, tmp_path, **kwargs):
        """A group-committing journal."""
        return JournalStorage(
            tmp_path / "g.journal", group_commit=True, **kwargs
        )

    @pytest.mark.parametrize("kind", ["journal"])
    def test_concurrent_appends_coalesce(self, kind, tmp_path):
        import threading

        storage = self.make_group(kind, tmp_path, flush_interval=0.0005)
        per_thread, threads = 40, 6

        def work(i):
            for j in range(per_thread):
                storage.append([{"op": "w", "t": i, "j": j}])

        ts = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        got = storage.read(0)
        assert len(got) == per_thread * threads
        assert [seq for seq, _ in got] == list(range(len(got)))
        # Every (t, j) pair present exactly once.
        seen = {(op["t"], op["j"]) for _, op in got}
        assert len(seen) == per_thread * threads
        stats = storage.flush_stats()
        assert stats["commits"] >= per_thread * threads
        # The batching win: fewer barriers than commits.
        assert stats["flushes"] < stats["commits"]
        assert stats["mean_batch"] > 1.0
        storage.close()

    @pytest.mark.parametrize("kind", ["journal"])
    def test_durable_across_reopen(self, kind, tmp_path):
        storage = self.make_group(kind, tmp_path)
        storage.append([{"op": "a", "i": i} for i in range(5)])
        storage.close()
        again = JournalStorage(tmp_path / "g.journal")
        assert [op["i"] for _, op in again.read(0)] == list(range(5))
        again.close()

    def test_append_lazy_sync_contract(self, tmp_path):
        storage = JournalStorage(tmp_path / "g.journal", group_commit=True)
        last = storage.append_lazy([{"op": "a"}, {"op": "b"}])
        assert last == 1
        storage.sync()  # durability barrier
        cold = JournalStorage(tmp_path / "g.journal")
        assert [op["op"] for _, op in cold.read(0)] == ["a", "b"]
        cold.close()
        storage.close()

    def test_sync_without_lazy_append_is_noop(self, tmp_path):
        storage = JournalStorage(tmp_path / "g.journal", group_commit=True)
        storage.sync()
        flushes = storage.flush_stats()["flushes"]
        storage.sync()
        assert storage.flush_stats()["flushes"] == flushes
        storage.close()

    def test_torn_tail_mid_flush_replays_intact_prefix(self, tmp_path):
        """Crash between the buffered write and the group fsync: the
        journal replays to the longest intact prefix -- records are
        framed individually, so a torn multi-record flush loses at
        most the torn record and everything after it in that flush."""
        storage = JournalStorage(tmp_path / "g.journal", group_commit=True)
        storage.append([{"op": "keep", "i": i} for i in range(3)])
        with pytest.raises(StorageError):
            storage.torn_append({"op": "gone"}, fraction=0.4)
        cold = JournalStorage(tmp_path / "g.journal")
        assert [op["op"] for _, op in cold.read(0)] == ["keep"] * 3
        intact, torn = cold.recover()
        assert intact == 3 and torn > 0
        # Healed: appends after recovery land on the intact prefix.
        cold.append([{"op": "after"}])
        assert [op["op"] for _, op in cold.read(0)] == ["keep"] * 3 + ["after"]
        cold.close()
        storage.close()

    def test_group_commit_study_replay_parity(self, tmp_path):
        """The whole batched-op surface (enqueue_many / claim_many /
        heartbeat_many / tell_many) under group commit folds to the
        same bytes live (cache on) and cold."""
        from repro.storage import StudyCache

        storage = JournalStorage(
            tmp_path / "g.journal", group_commit=True, flush_interval=0.0002
        )
        cache = StudyCache(storage)
        study = Study.create(storage, "s", cache=cache)
        study.enqueue_many(
            [np.full(3, i) for i in range(10)],
            operators=[f"op{i % 2}" for i in range(10)],
        )
        records = study.claim_many("w", ttl=60.0, limit=6)
        assert len(records) == 6
        study.heartbeat_many(
            [r.trial_id for r in records], "w", ttl=120.0
        )
        told = study.tell_many(
            [(r.trial_id, np.array([float(r.trial_id), 2.0]), None)
             for r in records[:4]],
            "w",
        )
        assert told == [True] * 4
        # Duplicate results in one batch: first wins, second suppressed.
        r = records[4]
        dup = study.tell_many(
            [
                (r.trial_id, np.array([1.0, 1.0]), None),
                (r.trial_id, np.array([9.0, 9.0]), None),
            ],
            "w",
        )
        assert dup == [True, False]
        cold = Study.load(JournalStorage(tmp_path / "g.journal"), "s")
        assert cold.dump_state() == study.dump_state()
        np.testing.assert_array_equal(
            cold.state.trials[r.trial_id].objectives, [1.0, 1.0]
        )
        storage.close()

    def test_heartbeat_many_is_single_op(self, tmp_path):
        storage = JournalStorage(tmp_path / "g.journal")
        study = Study.create(storage, "s")
        study.enqueue_many([np.zeros(2)] * 5)
        records = study.claim_many("w", ttl=10.0, limit=5, now=0.0)
        seq_before = storage.read(0)[-1][0]
        ok = study.heartbeat_many(
            [r.trial_id for r in records], "w", ttl=10.0, now=5.0
        )
        assert ok == [True] * 5
        tail = storage.read(seq_before + 1)
        assert len(tail) == 1 and tail[0][1]["op"] == "heartbeats"
        # All five leases extended to 15.0: nothing stale at t=12.
        assert study.reclaim_stale(now=12.0) == []
        assert len(study.reclaim_stale(now=16.0)) == 5
        storage.close()


class TestReclaimHeap:
    """reclaim_stale scans expired leases via the expiry heap, not the
    whole trial table."""

    def test_reclaims_only_expired_and_stops_early(self, study):
        for i in range(10):
            study.enqueue(np.zeros(2))
        # Stagger expiries: trial i leased at t=0 with ttl 10 + i.
        for i in range(10):
            study.claim("w", ttl=10.0 + i, now=0.0)
        actions = study.reclaim_stale(now=13.5)
        assert sorted(t for t, _ in actions) == [0, 1, 2, 3]
        # Heap retains the future entries; nothing double-reclaimed.
        assert study.reclaim_stale(now=13.5) == []
        actions = study.reclaim_stale(now=25.0)
        assert sorted(t for t, _ in actions) == [4, 5, 6, 7, 8, 9]

    def test_heartbeat_tombstones_old_heap_entry(self, study):
        tid = study.enqueue(np.zeros(2))
        study.claim("w", ttl=10.0, now=0.0)
        study.heartbeat(tid, "w", ttl=10.0, now=8.0)  # lease to 18.0
        # The stale heap entry (expiry 10.0) must not reclaim at t=11.
        assert study.reclaim_stale(now=11.0) == []
        assert study.reclaim_stale(now=19.0) == [(tid, "pending")]

    def test_completed_trial_not_reclaimed_via_stale_entry(self, study):
        tid = study.enqueue(np.zeros(2))
        study.claim("w", ttl=10.0, now=0.0)
        study.tell(tid, "w", np.array([1.0, 2.0]))
        assert study.reclaim_stale(now=11.0) == []
        assert study.state.trials[tid].state == "complete"

    def test_heap_survives_cold_replay(self, tmp_path):
        storage = JournalStorage(tmp_path / "h.journal")
        study = Study.create(storage, "s")
        study.enqueue(np.zeros(2))
        study.claim("w", ttl=10.0, now=0.0)
        cold = Study.load(JournalStorage(tmp_path / "h.journal"), "s")
        assert cold.reclaim_stale(now=11.0) == [(0, "pending")]
        storage.close()
