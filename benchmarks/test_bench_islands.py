"""Benchmark: the multi-master islands kernel -- latency, validity, win.

Three experiments, recorded in ``BENCH_islands.json`` at the repository
root:

* **Prediction latency** -- the fastsim multi-master kernel predicts
  the makespan of sharded allocations of P in {1e4, 1e5, 1e6} total
  processors; each prediction must land in under 100 ms (group-sampled
  extreme-value estimation keeps the cost independent of M).
* **Virtual-clock validation** -- at P <= 1024 the kernel is compared
  against the simkit discrete-event reference (``tests/reference``) on
  a shared seed across every topology; the makespans must agree bit-for-bit (the contract is
  exactness, far inside any relative-error tolerance).
* **Sharded speedup** -- at a paper-regime operating point where the
  allocation exceeds the single-master bound P_UB = TF/(2 TC + TA)
  (Eq. 3), the fully-simulated sharded configuration must beat the
  fully-simulated single-master configuration by a healthy multiple.

Quick mode (CI smoke): ``BENCH_ISLANDS_QUICK=1`` shrinks the NFE
budgets so the whole module runs in a few seconds.

    BENCH_ISLANDS_QUICK=1 pytest benchmarks/test_bench_islands.py -q
"""

import time

from repro.models import (
    multi_master_upper_bound,
    predict_islands_time,
    processor_upper_bound,
    simulate_islands_fast,
)
from repro.models.fastsim import (
    default_migration_interval,
    migration_degrees,
    simulate_async_fast,
)
from repro.stats.timing import RANGER_TC_SECONDS, ranger_timing, ta_mean_for
from tests.reference.simmodel import simulate_islands_reference

from .conftest import BenchRecorder

_record = BenchRecorder("islands")
QUICK = _record.quick

#: Acceptance ceiling from the issue: every fastsim multi-master
#: prediction for P in {1e4, 1e5, 1e6} must finish in under 100 ms.
MAX_PREDICTION_SECONDS = 0.100
#: Speedup floor for M = 16 islands at the paper-regime point
#: (TF = 0.001 on UF11, where P_UB ~ 11 workers so a 1024-processor
#: allocation is deeply saturated; the analytic ceiling is ~16x and the
#: experiment table measures ~15.7x).
MIN_SHARDED_SPEEDUP = 8.0

#: (label, islands, processors_per_island) -- total processors is the
#: product; each cell sharded so processors_per_island stays near the
#: Ranger sweet spot rather than scaling M alone.
_PREDICTION_CELLS = [
    ("P=1e4", 16, 625),
    ("P=1e5", 128, 781),
    ("P=1e6", 1024, 977),
]

#: Validation grid: M x topology at P <= 1024 total processors.
_VALIDATION_CELLS = [
    (m, topo) for m in (2, 4, 8) for topo in ("ring", "full", "hier")
]


def _timing(tf: float = 0.1):
    """The calibrated Ranger/UF11 timing model used throughout."""
    return ranger_timing("UF11", 1024, tf)


def test_bench_prediction_latency():
    """P in {1e4, 1e5, 1e6}: each sharded-makespan prediction < 100 ms."""
    timing = _timing()
    print()
    for label, islands, ppi in _PREDICTION_CELLS:
        nfe_per_island = 1_000_000 // islands
        best = float("inf")
        predicted = None
        for _ in range(2 if QUICK else 3):
            t0 = time.perf_counter()
            predicted = predict_islands_time(
                islands,
                ppi,
                nfe_per_island,
                timing,
                seed=7,
                sim_nfe=2000,
                max_sim_islands=8,
            )
            best = min(best, time.perf_counter() - t0)
        payload = {
            "islands": islands,
            "processors_per_island": ppi,
            "total_processors": islands * ppi,
            "nfe_per_island": nfe_per_island,
            "predicted_makespan_s": predicted,
            "prediction_latency_s": best,
            "budget_s": MAX_PREDICTION_SECONDS,
        }
        _record(f"predict_{label}", payload)
        print(
            f"{label}: M={islands:>4} x {ppi} procs -> "
            f"T={predicted:10.2f}s predicted in {1e3 * best:6.1f} ms"
        )
        assert predicted > 0
        assert best < MAX_PREDICTION_SECONDS


def test_bench_virtual_clock_validation():
    """Kernel vs simkit reference at P <= 1024: bit-identical makespan."""
    timing = _timing()
    nfe = 200 if QUICK else 600
    ppi = 32
    print()
    worst = 0.0
    for m, topo in _VALIDATION_CELLS:
        assert m * ppi <= 1024
        fast = simulate_islands_fast(
            m, ppi, nfe, timing, topology=topo, seed=42
        )
        ref = simulate_islands_reference(
            m, ppi, nfe, timing, topology=topo, seed=42
        )
        rel_err = abs(fast.elapsed - ref.elapsed) / ref.elapsed
        worst = max(worst, rel_err)
        # The contract is exactness, not closeness: the kernel replays
        # the reference's draw order stream-for-stream.
        assert fast.elapsed == ref.elapsed
        assert [o.elapsed for o in fast.per_island] == [
            o.elapsed for o in ref.per_island
        ]
        assert fast.migration_services == ref.migration_services
    payload = {
        "cells": [f"M={m}:{topo}" for m, topo in _VALIDATION_CELLS],
        "processors_per_island": ppi,
        "nfe_per_island": nfe,
        "worst_relative_makespan_error": worst,
        "bit_identical": True,
    }
    _record("virtual_clock_validation", payload)
    print(
        f"validated {len(_VALIDATION_CELLS)} cells at P <= 1024: "
        f"worst relative makespan error = {worst:.3e}"
    )


def test_bench_sharded_speedup():
    """Paper regime (TF = 0.001, UF11): P = 1024 >> P_UB, so sharding
    across M = 16 masters must recover most of the throughput a single
    saturated master forfeits.  Both configurations are fully simulated
    (no truncation/extrapolation)."""
    tf = 0.001
    islands = 16
    total = 1024
    ppi = total // islands
    nfe_total = 20_000 if QUICK else 100_000
    timing = _timing(tf)
    ta = ta_mean_for("UF11", total)
    p_ub = processor_upper_bound(tf, RANGER_TC_SECONDS, ta)
    assert total - 1 > p_ub, "operating point must sit beyond Eq. 3"

    single = simulate_async_fast(total, nfe_total, timing, seed=11)
    sharded = simulate_islands_fast(
        islands, ppi, nfe_total // islands, timing, topology="ring", seed=11
    )
    speedup = single.elapsed / sharded.elapsed

    interval = default_migration_interval(
        ppi, nfe_total // islands, timing
    )
    in_deg, out_deg = migration_degrees("ring", islands)
    sharded_bound = multi_master_upper_bound(
        tf,
        RANGER_TC_SECONDS,
        ta,
        islands,
        migration_interval=interval,
        in_degree=int(in_deg[0]),
        out_degree=int(out_deg[0]),
    )
    payload = {
        "problem": "UF11",
        "tf": tf,
        "total_processors": total,
        "islands": islands,
        "processors_per_island": ppi,
        "nfe_total": nfe_total,
        "single_master_bound_P_UB": p_ub,
        "sharded_bound_P_UB_M": sharded_bound,
        "single_master_makespan_s": single.elapsed,
        "sharded_makespan_s": sharded.elapsed,
        "speedup": speedup,
    }
    _record("sharded_speedup", payload)
    print()
    print(
        f"P={total} (P_UB={p_ub:.1f}): single {single.elapsed:.2f}s, "
        f"M={islands} sharded {sharded.elapsed:.2f}s -> {speedup:.2f}x"
    )
    assert speedup >= MIN_SHARDED_SPEEDUP
