"""Benchmark: the traffic-scale service layer end to end.

Drives the load harness (``repro.experiments.traffic``) and records
the result in ``BENCH_service.json`` at the repo root:

* **baseline** -- the PR 6 shape: per-op fsync, no cache, one tell
  per storage round-trip;
* **optimized** -- this PR's ingest path: group-commit batching +
  write-through cache + ``tell_many`` in claim-batch chunks.  The
  acceptance gate is **>= 5x** sustained tell throughput over the
  baseline;
* **read path** -- status/front served from the cache with **zero**
  backend read ops;
* **model** -- the closed-loop batch-server prediction
  (:mod:`repro.models.service`) validated against both measured
  regimes: the relative batching speedup must agree tightly, the
  absolute figures within the GIL-dispatch band documented in
  docs/PERFORMANCE.md.

Quick mode (CI smoke): ``BENCH_SERVICE_QUICK=1`` shrinks the run to a
few seconds and skips the 5x assertion (tiny runs are
barrier-dominated); the structural invariants -- zero-op reads, model
consistency -- still hold.

    BENCH_SERVICE_QUICK=1 pytest benchmarks/test_bench_service.py -q
"""


from repro.experiments.traffic import TrafficConfig, run_traffic

from .conftest import BenchRecorder

_record = BenchRecorder("service")
QUICK = _record.quick

CONFIG = (
    TrafficConfig(
        threads=4, tells_per_thread=40, claim_batch=8,
        mix_users=4, mix_duration=0.4, max_batch=32, seed=0,
    )
    if QUICK
    else TrafficConfig(
        threads=8, tells_per_thread=150, claim_batch=8,
        mix_users=8, mix_duration=1.5, max_batch=64, seed=0,
    )
)

# Tolerances (documented in docs/PERFORMANCE.md "Service at scale"):
# the queueing model's *relative* batching speedup must match the
# measured ratio closely; absolute throughput and p99 sit inside a 3x
# band because the model does not price per-request GIL dispatch.
SPEEDUP_GATE = 5.0
RELATIVE_TOL = 1.5
ABSOLUTE_BAND = 3.0


def test_traffic_service(tmp_path):
    report = run_traffic(CONFIG, workdir=tmp_path)

    _record("calibration", report["calibration"])
    _record("baseline", report["baseline"])
    _record("optimized_per_op", report["optimized_per_op"])
    _record("optimized", report["optimized"])
    _record("read_path", report["read_path"])
    _record("mix", report["mix"])
    _record("model", report["model"])
    _record(
        "summary",
        {
            "speedup": report["speedup"],
            "speedup_per_op": report["speedup_per_op"],
            "speedup_gate": SPEEDUP_GATE,
            "relative_tolerance": RELATIVE_TOL,
            "absolute_band": ABSOLUTE_BAND,
            "threads": CONFIG.threads,
            "tells_per_thread": CONFIG.tells_per_thread,
            "claim_batch": CONFIG.claim_batch,
            "max_batch": CONFIG.max_batch,
        },
    )

    # Zero-op read path: every cached status/front answered without a
    # single backend read. Holds at any scale.
    assert report["read_path"]["backend_reads"] == 0
    assert report["read_path"]["accesses"] > 0

    # Group commit actually coalesced (flushes < commits).
    flush = report["optimized"]["flush_stats"]
    assert flush["flushes"] < flush["commits"]
    assert flush["mean_batch"] > 1.0

    # Model consistency: predicted batching speedup within tolerance
    # of the measured per-op ratio; absolutes inside the GIL band.
    model = report["model"]
    ratio = model["speedup_ratio"]
    assert 1.0 / RELATIVE_TOL <= ratio <= RELATIVE_TOL, model
    for value in (
        model["throughput_ratio"],
        model["baseline"]["throughput_ratio"],
    ):
        assert 1.0 / ABSOLUTE_BAND <= value <= ABSOLUTE_BAND, model

    if not QUICK:
        # The acceptance gate: >= 5x sustained tell throughput with
        # group commit + cache + batched ingest over per-op fsync.
        assert report["speedup"] >= SPEEDUP_GATE, report["speedup"]
