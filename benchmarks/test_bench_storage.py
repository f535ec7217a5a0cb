"""Benchmark: durable-study storage backends and the service protocol.

Three measurements, recorded in ``BENCH_storage.json`` at the repo root:

* **append throughput** -- raw op-log appends/second for each backend
  (journal with and without fsync, in-memory), the floor
  under every compound study operation;
* **trial round-trips** -- full enqueue → claim → tell cycles/second
  through the :class:`~repro.storage.Study` layer per backend, i.e. the
  storage-side ceiling on fleet evaluation throughput (the paper's
  master-saturation bound, one layer up the stack);
* **replay rate** -- ops/second folded when a cold process reattaches
  to a journal, which bounds worker startup latency on long studies;
* **service scaling** -- one :class:`~repro.parallel.StorageBackedRunner`
  on an fsync journal (DTLZ2-5, no evaluation delay) at growing NFE:
  journal bytes per NFE, snapshot count, cold ``Study.load`` +
  ``final_front`` seconds and master microseconds per step.  Snapshots
  come at a size-bounded cadence and the fold keeps O(1) indexes, so
  bytes per NFE must stay flat as the run grows.

Quick mode (CI smoke): ``BENCH_STORAGE_QUICK=1`` shrinks the op counts
so the module runs in a few seconds.

    BENCH_STORAGE_QUICK=1 pytest benchmarks/test_bench_storage.py -q
"""

import os
import time

import numpy as np

from repro.parallel import ServiceConfig, StorageBackedRunner, final_front
from repro.problems import DTLZ2
from repro.storage import InMemoryStorage, JournalStorage, Study

from .conftest import BenchRecorder

_record = BenchRecorder("storage")
QUICK = _record.quick

N_APPENDS = 300 if QUICK else 2_000
N_TRIALS = 100 if QUICK else 500
N_REPLAY = 1_000 if QUICK else 10_000
SERVICE_NFES = (300, 1_200) if QUICK else (500, 2_000, 4_000)


def _backends(tmp_path):
    return {
        "memory": InMemoryStorage(),
        "journal-fsync": JournalStorage(tmp_path / "fsync.journal"),
        "journal-nofsync": JournalStorage(
            tmp_path / "nofsync.journal", fsync=False
        ),
    }


def test_append_throughput(tmp_path):
    op = {"op": "bench", "variables": list(range(12))}
    rates = {}
    for name, backend in _backends(tmp_path).items():
        t0 = time.perf_counter()
        for _ in range(N_APPENDS):
            backend.append([op])
        elapsed = time.perf_counter() - t0
        rates[name] = N_APPENDS / elapsed
        assert len(backend.read(0)) == N_APPENDS
        backend.close()
    _record(
        "append_throughput",
        {"ops": N_APPENDS, "appends_per_sec": {
            k: round(v, 1) for k, v in rates.items()
        }},
    )
    # Skipping the fsync must never be slower than paying for it.
    assert rates["journal-nofsync"] >= 0.5 * rates["journal-fsync"]
    assert all(v > 0 for v in rates.values())


def test_trial_roundtrip_throughput(tmp_path):
    rng = np.random.default_rng(3)
    variables = rng.random(11)
    objectives = rng.random(2)
    rates = {}
    for name, backend in _backends(tmp_path).items():
        study = Study.create(backend, "bench", meta={})
        t0 = time.perf_counter()
        for _ in range(N_TRIALS):
            tid = study.enqueue(variables)
            study.claim("w0", ttl=60.0)
            study.tell(tid, "w0", objectives)
        elapsed = time.perf_counter() - t0
        rates[name] = N_TRIALS / elapsed
        assert study.state.completed == N_TRIALS
        backend.close()
    _record(
        "trial_roundtrips",
        {"trials": N_TRIALS, "roundtrips_per_sec": {
            k: round(v, 1) for k, v in rates.items()
        }},
    )
    assert all(v > 0 for v in rates.values())


def test_journal_replay_rate(tmp_path):
    path = tmp_path / "replay.journal"
    writer = JournalStorage(path, fsync=False)
    op = {"op": "bench", "i": 0, "variables": list(range(12))}
    writer.append([dict(op, i=i) for i in range(N_REPLAY)])
    writer.close()

    t0 = time.perf_counter()
    cold = JournalStorage(path)
    ops = cold.read(0)
    elapsed = time.perf_counter() - t0
    cold.close()
    assert len(ops) == N_REPLAY
    rate = N_REPLAY / elapsed
    _record(
        "journal_replay",
        {"ops": N_REPLAY, "replay_ops_per_sec": round(rate, 1),
         "bytes": os.path.getsize(path)},
    )
    # Replay must not bound worker startup: well above any realistic
    # study size per second.
    assert rate > 5_000


class _TimedRunner(StorageBackedRunner):
    """Accumulates the wall time of the master's per-step duties."""

    master_s = 0.0
    master_steps = 0

    def _master_duties(self, max_nfe, now):
        t0 = time.perf_counter()
        try:
            return super()._master_duties(max_nfe, now)
        finally:
            self.master_s += time.perf_counter() - t0
            self.master_steps += 1


def test_service_scaling(tmp_path):
    rows = {}
    for nfe in SERVICE_NFES:
        path = tmp_path / f"service-{nfe}.journal"
        storage = JournalStorage(path)
        study = Study.create(
            storage, "bench",
            meta={"problem": "dtlz2", "max_nfe": nfe, "seed": 1},
        )
        runner = _TimedRunner(
            DTLZ2(nobjs=5), study, service=ServiceConfig(),
            worker_id="bench",
        )
        result = runner.run(max_nfe=nfe)
        assert result.finished and result.borg.nfe == nfe
        storage.close()

        t0 = time.perf_counter()
        cold_storage = JournalStorage(path)
        cold = Study.load(cold_storage, "bench")
        front = final_front(DTLZ2(nobjs=5), cold)
        reopen_s = time.perf_counter() - t0
        snapshots = sum(
            op["op"] == "snapshot" for _, op in cold_storage.read(0)
        )
        cold_storage.close()
        assert front.nfe == nfe
        np.testing.assert_array_equal(front.objectives, result.borg.objectives)
        rows[nfe] = {
            "bytes_per_nfe": round(os.path.getsize(path) / nfe, 1),
            "snapshots": snapshots,
            "reopen_s": round(reopen_s, 3),
            "master_us_per_step": round(
                1e6 * runner.master_s / runner.master_steps, 1
            ),
        }
    _record(
        "service_scaling",
        {"problem": "DTLZ2-5", "storage": "journal-fsync",
         "by_nfe": {str(n): row for n, row in rows.items()}},
    )
    # Storage per evaluation must not grow with the run.
    per_nfe = [row["bytes_per_nfe"] for row in rows.values()]
    assert max(per_nfe) <= 1.5 * min(per_nfe), rows
