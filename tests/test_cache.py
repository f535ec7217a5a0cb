"""Write-through study cache: zero-op reads, read-your-writes,
exact invalidation, and thread safety.

The traffic-layer contract (docs/PERFORMANCE.md "Service at scale"):

* a warm read path (status, fronts, trial lookups) costs **zero**
  backend read ops -- at most a throttled ``news()`` staleness probe;
* a writer routed through the cache observes its own writes without
  re-reading the log, and replay parity (``Study.dump_state``) holds
  with the cache on;
* invalidation is exact: another handle's appends are picked up on
  the next probing refresh, never missed, never double-folded;
* one shared cache serves concurrent reader and writer threads.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.storage import (
    InMemoryStorage,
    JournalStorage,
    Study,
    StudyCache,
)

BACKENDS = ("memory", "journal")


def make_storage(kind: str, tmp_path):
    if kind == "memory":
        return InMemoryStorage()
    return JournalStorage(tmp_path / "log.journal")


@pytest.fixture(params=BACKENDS)
def cached(request, tmp_path):
    storage = make_storage(request.param, tmp_path)
    cache = StudyCache(storage)
    study = Study.create(storage, "s", meta={"seed": 1}, cache=cache)
    yield storage, cache, study
    storage.close()


class TestZeroOpReads:
    def test_warm_reads_cost_zero_backend_reads(self, cached):
        storage, cache, study = cached
        study.enqueue_many([np.zeros(2)] * 4)
        record = study.claim("w", ttl=60.0)
        study.tell(record.trial_id, "w", np.array([1.0, 2.0]))
        cache.refresh()  # warm
        reads_before = storage.read_calls
        for _ in range(100):
            cache.status("s")
            cache.front("s")
            cache.trial("s", record.trial_id)
            cache.studies()
        assert storage.read_calls == reads_before
        # Probes are allowed (and with max_staleness=0, expected).
        assert storage.probe_calls > 0

    def test_max_staleness_throttles_probes(self, tmp_path):
        storage = JournalStorage(tmp_path / "log.journal")
        cache = StudyCache(storage, max_staleness=30.0)
        Study.create(storage, "s", cache=cache)
        cache.refresh()
        probes_before = storage.probe_calls
        for _ in range(50):
            cache.status("s")
        assert storage.probe_calls == probes_before
        storage.close()

    def test_front_memoized_on_completed_count(self, cached):
        storage, cache, study = cached
        study.enqueue_many([np.zeros(2)] * 3)
        r = study.claim("w", ttl=60.0)
        study.tell(r.trial_id, "w", np.array([1.0, 2.0]))
        f1 = cache.front("s")
        f2 = cache.front("s")
        assert f1 is f2  # same array object: memo hit, no recompute
        r2 = study.claim("w", ttl=60.0)
        study.tell(r2.trial_id, "w", np.array([0.5, 3.0]))
        f3 = cache.front("s")
        assert f3 is not f2
        assert f3.shape == (2, 2)  # mutually nondominated


class TestWriteThrough:
    def test_read_your_writes_without_backend_reads(self, cached):
        storage, cache, study = cached
        cache.refresh()  # warm the cursor
        reads_before = storage.read_calls
        tids = study.enqueue_many([np.zeros(2)] * 5)
        records = study.claim_many("w", ttl=60.0, limit=5)
        study.tell_many(
            [(r.trial_id, np.array([1.0, float(r.trial_id)]), None)
             for r in records],
            "w",
        )
        # Every mutation validated against cached state + wrote through:
        # zero backend read ops for the whole burst.
        assert storage.read_calls == reads_before
        assert cache.status("s")["completed"] == 5
        assert [r.trial_id for r in records] == tids

    def test_replay_parity_with_cache_on(self, tmp_path):
        storage = JournalStorage(tmp_path / "log.journal")
        cache = StudyCache(storage)
        study = Study.create(storage, "s", cache=cache)
        study.enqueue_many([np.full(2, i) for i in range(6)])
        records = study.claim_many("w", ttl=60.0, limit=4)
        study.tell_many(
            [(r.trial_id, np.array([float(r.trial_id), 1.0]), None)
             for r in records[:3]],
            "w",
        )
        study.fail(records[3].trial_id, "w", "boom")
        study.heartbeat_many(
            [r.trial_id for r in records[:3]], "w", ttl=120.0
        )
        cold = Study.load(JournalStorage(tmp_path / "log.journal"), "s")
        assert cold.dump_state() == study.dump_state()
        storage.close()


class TestInvalidation:
    @pytest.mark.parametrize("kind", ["journal"])
    def test_external_appends_picked_up_exactly(self, kind, tmp_path):
        ours = make_storage(kind, tmp_path)
        cache = StudyCache(ours)
        study = Study.create(ours, "s", cache=cache)
        cache.refresh()
        # Another handle (same file, separate instance) appends.
        theirs = make_storage(kind, tmp_path)
        other = Study.load(theirs, "s")
        other.enqueue_many([np.zeros(2)] * 3)
        assert cache.status("s")["counts"]["pending"] == 3
        # Exactly once: a second refresh folds nothing new.
        seq = cache.applied_seq
        cache.refresh()
        assert cache.applied_seq == seq
        assert cache.status("s")["counts"]["pending"] == 3
        theirs.close()
        ours.close()

    def test_quiet_backend_is_all_hits(self, cached):
        storage, cache, study = cached
        cache.refresh()
        misses_before = cache.misses
        for _ in range(20):
            cache.refresh()
        assert cache.misses == misses_before
        assert cache.hits >= 20


class TestRenewLeases:
    def test_cross_study_renewal_is_one_append(self, cached):
        storage, cache, _ = cached
        studies = [
            Study.create(storage, f"t{i}", cache=cache) for i in range(4)
        ]
        for i, s in enumerate(studies):
            assert s.acquire_lease("master", f"w{i}", ttl=5.0, now=0.0)
        appends_before = storage.append_calls
        renewed = cache.renew_leases(
            [(f"t{i}", "master", f"w{i}") for i in range(4)],
            ttl=60.0,
            now=1.0,
        )
        assert storage.append_calls == appends_before + 1
        assert renewed == [(f"t{i}", "master") for i in range(4)]
        for i, s in enumerate(studies):
            s.refresh()
            assert s.lease_holder("master", now=30.0) == f"w{i}"

    def test_live_foreign_holder_blocks_renewal(self, cached):
        storage, cache, _ = cached
        s = Study.create(storage, "t", cache=cache)
        assert s.acquire_lease("master", "owner", ttl=60.0, now=0.0)
        renewed = cache.renew_leases(
            [("t", "master", "thief")], ttl=60.0, now=1.0
        )
        assert renewed == []
        assert s.lease_holder("master", now=2.0) == "owner"
        # Expired leases are up for grabs, exactly like acquire_lease.
        renewed = cache.renew_leases(
            [("t", "master", "thief")], ttl=60.0, now=100.0
        )
        assert renewed == [("t", "master")]


class TestThreadSafety:
    def test_concurrent_readers_and_writers_fold_exactly_once(
        self, tmp_path
    ):
        storage = JournalStorage(
            tmp_path / "log.journal",
            group_commit=True,
            flush_interval=0.0002,
        )
        cache = StudyCache(storage)
        study = Study.create(storage, "s", cache=cache)
        study.enqueue_many([np.ones(2)] * 48)
        records = study.claim_many("w", ttl=600.0, limit=48)
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                cache.status("s")
                cache.front("s")

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for t in readers:
            t.start()

        def teller(lo: int) -> None:
            for r in records[lo : lo + 12]:
                study.tell(
                    r.trial_id, "w", np.array([float(r.trial_id), 1.0])
                )

        tellers = [
            threading.Thread(target=teller, args=(i * 12,))
            for i in range(4)
        ]
        for t in tellers:
            t.start()
        for t in tellers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert cache.status("s")["completed"] == 48
        cold = Study.load(JournalStorage(tmp_path / "log.journal"), "s")
        assert cold.dump_state() == study.dump_state()
        storage.close()

    def test_stats_shape(self, cached):
        storage, cache, _ = cached
        stats = cache.stats()
        assert {"hits", "misses", "hit_rate", "backend_reads"} <= set(stats)
