"""Telemetry subsystem: event bus, journal tailer, metrics registry.

Acceptance for the observability PR (docs/OBSERVABILITY.md): a
``StorageBackedRunner`` study driven in a separate process while a
``JournalTailer`` client in this process observes it live -- asserting
monotone NFE progress, final-front agreement with ``final_front``, and
at least one fault counter under chaos injection.
"""

from __future__ import annotations

import multiprocessing
import signal
import time

import numpy as np
import pytest

from repro.core import BorgConfig
from repro.parallel import optimize
from repro.parallel.service import (
    ServiceConfig,
    StorageBackedRunner,
    final_front,
    run_study_worker,
)
from repro.problems import DTLZ2
from repro.storage import RetryPolicy, Study, open_storage
from repro.telemetry import (
    EVENT_KINDS,
    Event,
    EventBus,
    JournalTailer,
    MetricsRegistry,
)
from repro.telemetry import events as ev

mp = multiprocessing.get_context("fork")

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="requires POSIX fork/signals"
)


def _small_problem():
    return DTLZ2(nobjs=2, nvars=11)


def _make_study(path, max_nfe, seed=7):
    storage = open_storage(path)
    Study.create(
        storage, "s",
        meta={"problem": "dtlz2", "max_nfe": max_nfe, "seed": seed},
    )
    return storage


class FlakyProblem(DTLZ2):
    """Raises on every ``period``-th evaluation call."""

    def __init__(self, period=7):
        super().__init__(nobjs=2, nvars=11)
        self.period = period
        self.calls = 0

    def evaluate(self, solution):
        self.calls += 1
        if self.calls % self.period == 0:
            raise RuntimeError("flaky evaluation")
        return super().evaluate(solution)


# ---------------------------------------------------------------------------
# EventBus
# ---------------------------------------------------------------------------
class TestEventBus:
    def test_callback_fanout_and_unsubscribe(self):
        bus = EventBus()
        seen = []
        callback = seen.append
        bus.subscribe(callback)
        event = bus.emit(ev.RESTART, nfe=100, restarts=1)
        assert seen == [event]
        assert event.kind == "restart" and event.data["nfe"] == 100
        bus.unsubscribe(callback)
        bus.emit(ev.RESTART, nfe=200)
        assert len(seen) == 1 and bus.published == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            EventBus().emit("not-a-kind")

    def test_subscriber_exception_swallowed_and_counted(self):
        bus = EventBus()

        def bad(_):
            raise RuntimeError("boom")

        got = []
        bus.subscribe(bad)
        bus.subscribe(got.append)
        bus.emit(ev.SNAPSHOT, nfe=1)
        assert len(got) == 1  # later subscribers still run
        assert bus.callback_errors == 1

    def test_stream_drop_oldest(self):
        bus = EventBus()
        with bus.stream(maxsize=3) as sub:
            for i in range(5):
                bus.emit(ev.EVAL_FINISHED, trial=i)
            events = sub.drain()
            assert [e.data["trial"] for e in events] == [2, 3, 4]
            assert sub.dropped == 2
            assert len(bus) == 1
        assert len(bus) == 0  # context exit unsubscribed

    def test_event_as_dict_round_trips_json(self):
        import json

        event = Event(
            kind=ev.EVAL_FINISHED, time=1.0, study="s", seq=3,
            data={"objectives": [0.1, 0.2]},
        )
        decoded = json.loads(json.dumps(event.as_dict()))
        assert decoded["kind"] == "eval-finished"
        assert decoded["seq"] == 3
        assert decoded["data"]["objectives"] == [0.1, 0.2]

    def test_vocabulary_closed(self):
        assert ev.EVAL_FINISHED in EVENT_KINDS
        assert len(EVENT_KINDS) == 20


# ---------------------------------------------------------------------------
# In-process emission hooks
# ---------------------------------------------------------------------------
class TestEngineEmission:
    def test_serial_run_publishes_engine_events(self, small_config):
        bus = EventBus()
        registry = MetricsRegistry()
        bus.subscribe(registry.observe)
        result = optimize(
            _small_problem(), max_nfe=2000, backend="serial", seed=3,
            config=small_config, publisher=bus,
        )
        c = registry.counters
        assert c["archive_inserts"] > 0
        assert c["epsilon_improvements"] == result.archive.improvements
        assert c["restarts"] == result.restarts
        assert c["operator_updates"] > 0
        assert registry.operator_probabilities == pytest.approx(
            result.operator_probabilities
        )

    def test_no_publisher_run_unchanged(self, small_config):
        # The publisher default must not perturb trajectories: same
        # seed with and without a bus gives identical fronts.
        a = optimize(
            _small_problem(), max_nfe=600, backend="serial", seed=11,
            config=small_config,
        )
        b = optimize(
            _small_problem(), max_nfe=600, backend="serial", seed=11,
            config=small_config, publisher=EventBus(),
        )
        np.testing.assert_array_equal(a.objectives, b.objectives)

    def test_threads_backend_accepts_publisher(self, small_config):
        bus = EventBus()
        result = optimize(
            _small_problem(), max_nfe=400, backend="threads",
            processors=3, seed=5, config=small_config, publisher=bus,
        )
        assert result.nfe == 400
        assert bus.published > 0  # engine events flowed through


# ---------------------------------------------------------------------------
# JournalTailer
# ---------------------------------------------------------------------------
class TestJournalTailer:
    def _finished_study(self, tmp_path, max_nfe=60):
        storage = _make_study(tmp_path / "s.journal", max_nfe)
        study = Study.load(storage, "s")
        runner = StorageBackedRunner(
            _small_problem(), study,
            config=BorgConfig(
                initial_population_size=16, adaptation_interval=20,
                restart_check_interval=20, snapshot_interval=20,
                min_population_size=8,
            ),
            service=ServiceConfig(
                lease_ttl=2.0, master_lease_ttl=2.0,
                poll_interval=0.005, snapshot_interval=20,
            ),
        )
        result = runner.run()
        assert result.finished
        return storage, study

    def test_cold_replay_matches_study_fold(self, tmp_path):
        storage, study = self._finished_study(tmp_path)
        tailer = JournalTailer(storage, study="s")
        events = tailer.poll()
        assert events, "cold journal produced no events"
        # The tailer's folded state is the worker's view, by construction.
        study.refresh()
        assert tailer.state("s").counts() == study.state.counts()
        assert tailer.state("s").finished
        kinds = {e.kind for e in events}
        assert ev.STUDY_CREATED in kinds
        assert ev.STUDY_FINISHED in kinds
        assert ev.EVAL_FINISHED in kinds
        assert ev.SNAPSHOT in kinds
        # Engine-internal deltas recovered from snapshot blobs.
        assert ev.OPERATOR_UPDATE in kinds

    def test_eval_finished_nfe_monotone(self, tmp_path):
        storage, _ = self._finished_study(tmp_path)
        events = JournalTailer(storage, study="s").poll()
        nfes = [
            e.data["nfe"] for e in events if e.kind == ev.EVAL_FINISHED
        ]
        assert nfes == list(range(1, len(nfes) + 1))

    def test_from_seq_resume(self, tmp_path):
        storage, _ = self._finished_study(tmp_path)
        full = JournalTailer(storage, study="s").poll()
        mid = full[len(full) // 2].seq
        resumed = JournalTailer(storage, study="s", from_seq=mid).poll()
        assert resumed[0].seq == mid
        # Event multiplicity per op can differ (snapshot ops emit deltas
        # against the tailer's own history), but op coverage must match:
        # exactly the ops at seq >= mid, in order.
        assert {e.seq for e in resumed} == {
            e.seq for e in full if e.seq >= mid
        }
        assert [e.seq for e in resumed] == sorted(e.seq for e in resumed)

    def test_survives_torn_tail(self, tmp_path):
        from repro.storage import StorageError

        storage, _ = self._finished_study(tmp_path, max_nfe=30)
        reader = open_storage(tmp_path / "s.journal")
        tailer = JournalTailer(reader, study="s")
        before = len(tailer.poll())
        assert before > 0
        # A power cut mid-append leaves a torn record; readers must see
        # only the intact prefix and keep following after the writer
        # recovers.
        with pytest.raises(StorageError):
            storage.torn_append({"op": "heartbeat", "study": "s", "trial": 0,
                                 "worker": "w", "now": 0.0})
        assert tailer.poll() == []
        seq = storage.append(
            [{"op": "lease", "study": "s", "key": "x", "worker": "w",
              "expires": 1.0}]
        )
        after = tailer.poll()
        assert [e.seq for e in after] == [seq]
        reader.close()

    def test_bus_forwarding(self, tmp_path):
        storage, _ = self._finished_study(tmp_path, max_nfe=30)
        bus = EventBus()
        got = []
        bus.subscribe(got.append)
        tailer = JournalTailer(storage, study="s", bus=bus)
        events = tailer.poll()
        assert got == events


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def _event(self, kind, t, **data):
        return Event(kind=kind, time=t, study="s", data=data)

    def test_throughput_window(self):
        reg = MetricsRegistry(throughput_window=10.0)
        for i in range(11):
            reg.observe(
                self._event(ev.EVAL_FINISHED, float(i), trial=i, nfe=i + 1)
            )
        # 10 completions over 10 seconds of window span.
        assert reg.throughput() == pytest.approx(1.0)
        assert reg.nfe == 11

    def test_latency_quantiles_from_claim_to_complete(self):
        reg = MetricsRegistry()
        for i, dt in enumerate((0.1, 0.2, 0.3, 0.4)):
            reg.observe(self._event(ev.EVAL_STARTED, 10.0 * i, trial=i))
            reg.observe(
                self._event(ev.EVAL_FINISHED, 10.0 * i + dt, trial=i,
                            nfe=i + 1)
            )
        q = reg.latency_quantiles()
        assert q["p50"] == pytest.approx(0.25)
        assert q["p99"] == pytest.approx(0.4, abs=0.01)
        assert reg.latency.count == 4
        assert reg.latency.mean == pytest.approx(0.25)

    def test_fault_counters_and_inflight_roll(self):
        reg = MetricsRegistry()
        reg.observe(self._event(ev.EVAL_ENQUEUED, 0.0, trial=0))
        reg.observe(self._event(ev.EVAL_STARTED, 1.0, trial=0))
        reg.observe(self._event(ev.LEASE_RECLAIM, 2.0, trial=0))
        assert reg.counters["reclaims"] == 1
        assert reg.counters["worker_faults"] == 1
        snap = reg.snapshot(now=3.0)
        assert snap["pending"] == 1 and snap["running"] == 0
        reg.observe(self._event(ev.EVAL_FAILED, 3.0, trial=0))
        assert reg.counters["evals_failed"] == 1
        reg.observe(self._event(ev.DUPLICATE_TELL, 4.0, trial=0))
        assert reg.counters["duplicate_tells"] == 1

    def test_online_front_is_nondominated(self):
        reg = MetricsRegistry()
        points = [[1.0, 2.0], [2.0, 1.0], [1.5, 1.5], [3.0, 3.0],
                  [0.5, 2.5], [1.0, 2.0]]
        for i, objs in enumerate(points):
            reg.observe(
                self._event(ev.EVAL_FINISHED, float(i), trial=i,
                            nfe=i + 1, objectives=objs)
            )
        front = reg._front
        assert sorted(front.tolist()) == [
            [0.5, 2.5], [1.0, 2.0], [1.5, 1.5], [2.0, 1.0]
        ]
        assert reg.hypervolume() > 0.0

    def test_snapshot_is_json_and_trajectory_bounded(self):
        import json

        reg = MetricsRegistry(trajectory_points=4)
        for i in range(10):
            reg.observe(
                self._event(ev.EVAL_FINISHED, float(i), trial=i,
                            nfe=i + 1, objectives=[float(i), 1.0])
            )
            reg.snapshot(now=float(i))
        snap = reg.snapshot(now=11.0)
        json.dumps(snap)
        assert len(snap["trajectory"]) <= 4
        assert snap["nfe"] == 10


# ---------------------------------------------------------------------------
# Acceptance: live observation of a separate-process study under chaos
# ---------------------------------------------------------------------------
class TestLiveObservation:
    def test_tailer_observes_remote_worker_with_faults(self, tmp_path):
        """The ISSUE's acceptance criterion, end to end."""
        path = tmp_path / "live.journal"
        max_nfe = 60
        storage = _make_study(path, max_nfe)
        service = ServiceConfig(
            lease_ttl=1.0, master_lease_ttl=1.0, poll_interval=0.005,
            retry=RetryPolicy(budget=50, backoff_base=0.01,
                              backoff_max=0.05),
            snapshot_interval=20,
        )
        config = BorgConfig(
            initial_population_size=16, adaptation_interval=20,
            restart_check_interval=20, snapshot_interval=20,
            min_population_size=8,
        )
        proc = mp.Process(
            target=run_study_worker,
            args=(str(path), "s"),
            kwargs={
                "problem": FlakyProblem(period=7),
                "config": config,
                "service": service,
                "worker_id": "remote",
                "max_seconds": 60.0,
            },
            daemon=True,
        )
        proc.start()

        reader = open_storage(path)
        tailer = JournalTailer(reader, study="s")
        registry = MetricsRegistry()
        observed_nfe = []
        deadline = time.monotonic() + 90.0
        try:
            while time.monotonic() < deadline:
                for event in tailer.poll():
                    registry.observe(event)
                    if event.kind == ev.EVAL_FINISHED:
                        observed_nfe.append(event.data["nfe"])
                if tailer.state("s").finished:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("study did not finish within the deadline")
        finally:
            proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover - cleanup
                proc.terminate()

        # Monotone NFE progress, one event per completed evaluation.
        assert observed_nfe == list(range(1, max_nfe + 1))
        assert registry.nfe == max_nfe
        # Chaos injection surfaced in the fault counters.
        assert registry.counters["evals_failed"] >= 1
        assert registry.counters["worker_faults"] >= 1
        # Final-front agreement: every archive member the service
        # reconstructs was observed by the tailer as a completed
        # evaluation's objectives.
        study = Study.load(open_storage(path), "s")
        result = final_front(_small_problem(), study)
        observed = {
            tuple(np.round(e.data["objectives"], 9))
            for e in JournalTailer(open_storage(path), study="s").poll()
            if e.kind == ev.EVAL_FINISHED
        }
        for row in result.objectives:
            assert tuple(np.round(row, 9)) in observed
        # And the tailer's fold agrees with the study's own.
        study.refresh()
        assert tailer.state("s").counts() == study.state.counts()
        reader.close()


# ---------------------------------------------------------------------------
# Overhead guard: the no-subscriber path must stay near-free
# ---------------------------------------------------------------------------
class TestOverhead:
    def test_null_publisher_overhead_under_budget(
        self, small_config, monkeypatch
    ):
        """A serial solve without a publisher pays nothing for
        telemetry: it constructs no ``Event`` and makes no ``emit``
        call.  Counted, not timed -- the same solve with a bus proves
        the counters see every emission path."""
        calls = {"event": 0, "emit": 0}
        event_init = ev.Event.__init__
        emit = EventBus.emit

        def counting_init(self, *args, **kwargs):
            calls["event"] += 1
            event_init(self, *args, **kwargs)

        def counting_emit(self, *args, **kwargs):
            calls["emit"] += 1
            return emit(self, *args, **kwargs)

        monkeypatch.setattr(ev.Event, "__init__", counting_init)
        monkeypatch.setattr(EventBus, "emit", counting_emit)

        def run(publisher):
            calls.update(event=0, emit=0)
            optimize(
                _small_problem(), max_nfe=1000, backend="serial", seed=2,
                config=small_config, publisher=publisher,
            )
            return dict(calls)

        assert run(None) == {"event": 0, "emit": 0}
        traced = run(EventBus())
        assert traced["emit"] > 0
        assert traced["event"] == traced["emit"]


# ---------------------------------------------------------------------------
# Traffic-layer satellites: bus under concurrent publishers, tailer
# across group-committed flush boundaries
# ---------------------------------------------------------------------------
class TestEventBusConcurrentPublishers:
    def test_stream_drop_oldest_under_concurrent_publishers(self):
        """Many publisher threads against one bounded stream: no event
        is lost silently -- everything is either drained or counted in
        ``dropped`` -- and the queue never exceeds its bound."""
        import threading

        bus = EventBus()
        n_threads, per_thread = 4, 200
        barrier = threading.Barrier(n_threads)

        def publisher(tid: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                bus.emit(ev.EVAL_FINISHED, trial=tid * per_thread + i)

        with bus.stream(maxsize=8) as sub:
            threads = [
                threading.Thread(target=publisher, args=(t,))
                for t in range(n_threads)
            ]
            drained = []
            for t in threads:
                t.start()
            # Drain concurrently with the publishers, then once more
            # after they finish to empty the queue.
            while any(t.is_alive() for t in threads):
                drained.extend(sub.drain())
            for t in threads:
                t.join()
            drained.extend(sub.drain())

            total = n_threads * per_thread
            assert bus.published == total
            # Conservation: every published event was either delivered
            # or explicitly dropped (drop-oldest), never both or neither.
            assert len(drained) + sub.dropped == total
            assert sub.dropped > 0  # the bound actually bit
            trials = [e.data["trial"] for e in drained]
            assert len(set(trials)) == len(trials)  # no duplicates
            # Drop-oldest within each publisher: the survivors of any
            # one thread's events arrive in publish order.
            for tid in range(n_threads):
                mine = [
                    x for x in trials
                    if tid * per_thread <= x < (tid + 1) * per_thread
                ]
                assert mine == sorted(mine)


class TestTailerGroupCommitResume:
    def test_from_seq_resume_across_group_committed_flush(self, tmp_path):
        """Resume a tailer from a seq that lands *inside* a flush that
        group-committed several records in one write + fsync."""
        import threading

        from repro.storage import JournalStorage

        path = tmp_path / "s.journal"
        storage = JournalStorage(
            path, group_commit=True, flush_interval=0.002, max_batch=64
        )
        Study.create(storage, "s", meta={"seed": 1})
        study = Study.load(storage, "s")
        study.enqueue_many([np.zeros(11)] * 4)
        records = study.claim_many("w", ttl=600.0, limit=4)

        # Concurrent tells coalesce into shared flushes; the long
        # linger (2ms) makes multi-record flushes all but certain.
        barrier = threading.Barrier(4)

        def teller(record):
            barrier.wait()
            study.tell(
                record.trial_id, "w",
                np.array([float(record.trial_id), 1.0]),
            )

        threads = [
            threading.Thread(target=teller, args=(r,)) for r in records
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = storage.flush_stats()
        assert stats["flushes"] < stats["commits"], (
            "tells did not coalesce; flush boundary not exercised"
        )

        reader = JournalStorage(path)
        full = JournalTailer(reader, study="s").poll()
        tell_seqs = sorted(
            e.seq for e in full if e.kind == ev.EVAL_FINISHED
        )
        assert len(tell_seqs) == 4
        # Resume from the second tell: inside the group-committed
        # region, after at least one record of the same flush window.
        mid = tell_seqs[1]
        resumed = JournalTailer(
            JournalStorage(path), study="s", from_seq=mid
        ).poll()
        assert resumed[0].seq == mid
        assert {e.seq for e in resumed} == {
            e.seq for e in full if e.seq >= mid
        }
        assert [e.seq for e in resumed] == sorted(
            e.seq for e in resumed
        )
        # The resumed fold still sees the tells at/after the boundary.
        finished = [
            e for e in resumed if e.kind == ev.EVAL_FINISHED
        ]
        assert len(finished) == 3
        reader.close()
        storage.close()
