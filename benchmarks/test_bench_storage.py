"""Benchmark: durable-study storage backends and the service protocol.

Three measurements, recorded in ``BENCH_storage.json`` at the repo root:

* **append throughput** -- raw op-log appends/second for each backend
  (journal with and without fsync, SQLite WAL, in-memory), the floor
  under every compound study operation;
* **trial round-trips** -- full enqueue → claim → tell cycles/second
  through the :class:`~repro.storage.Study` layer per backend, i.e. the
  storage-side ceiling on fleet evaluation throughput (the paper's
  master-saturation bound, one layer up the stack);
* **replay rate** -- ops/second folded when a cold process reattaches
  to a journal, which bounds worker startup latency on long studies.

Quick mode (CI smoke): ``BENCH_STORAGE_QUICK=1`` shrinks the op counts
so the module runs in a few seconds.

    BENCH_STORAGE_QUICK=1 pytest benchmarks/test_bench_storage.py -q
"""

import os
import time

import numpy as np

from repro.storage import (
    InMemoryStorage,
    JournalStorage,
    SQLiteStorage,
    Study,
)

from .conftest import BenchRecorder

_record = BenchRecorder("storage")
QUICK = _record.quick

N_APPENDS = 300 if QUICK else 2_000
N_TRIALS = 100 if QUICK else 500
N_REPLAY = 1_000 if QUICK else 10_000


def _backends(tmp_path):
    return {
        "memory": InMemoryStorage(),
        "journal-fsync": JournalStorage(tmp_path / "fsync.journal"),
        "journal-nofsync": JournalStorage(
            tmp_path / "nofsync.journal", fsync=False
        ),
        "sqlite": SQLiteStorage(tmp_path / "log.db"),
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
