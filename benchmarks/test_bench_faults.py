"""Benchmark: the worker-churn model (extension; see DESIGN.md §7).

Times the event-heap :func:`repro.models.simulate_async_with_failures`
against the simkit churn model frozen in ``tests/reference/faults.py``
-- failure-free at P = 16 / 1024 / 4096 and over the MTBF sweep --
asserts equal outcomes and a speedup floor, and records the
measurements in ``BENCH_faults.json`` at the repository root.  The
sweep's churn table is printed as well.

Quick mode (CI smoke): ``BENCH_FAULTS_QUICK=1`` shrinks the NFE
budgets so the whole module runs in a few seconds.

    BENCH_FAULTS_QUICK=1 pytest benchmarks/test_bench_faults.py -q
"""

import time

from repro.experiments.reporting import format_table
from repro.models import simulate_async, simulate_async_with_failures
from repro.stats import constant_timing
from tests.reference.faults import simulate_async_with_failures as oracle

from .conftest import BenchRecorder

_record = BenchRecorder("faults")
QUICK = _record.quick

#: Floor on oracle time / heap time, on every measured workload.
MIN_SPEEDUP = 2.0

TIMING = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
#: (processors, NFE) of the failure-free runs.
NO_FAILURE_CELLS = (
    ((16, 2_000), (1024, 4_000), (4096, 10_000))
    if QUICK
    else ((16, 20_000), (1024, 20_000), (4096, 50_000))
)
SWEEP_P, SWEEP_NFE = 16, 2_000
SWEEP_MTBF = (2.0, 0.5, 0.1)
SWEEP_REPAIR = 0.25


def _best_of(fn, repeats):
    """Best-of-N wall time (seconds) of ``fn()`` and its last result."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _compare(key, run):
    """Time ``run(model)`` for the heap and the oracle, record both."""
    repeats = 1 if QUICK else 3
    t_heap, got = _best_of(lambda: run(simulate_async_with_failures), repeats)
    t_ref, want = _best_of(lambda: run(oracle), 1)
    assert got == want
    payload = {
        "heap_ms": t_heap * 1e3,
        "reference_ms": t_ref * 1e3,
        "speedup": t_ref / t_heap,
    }
    _record(key, payload)
    print(
        f"\n{key}: heap {payload['heap_ms']:.0f} ms, reference "
        f"{payload['reference_ms']:.0f} ms ({payload['speedup']:.1f}x)"
    )
    assert payload["speedup"] >= MIN_SPEEDUP
    return got


def test_bench_no_failures():
    """At ``mtbf=1e12`` the churn model is the plain async model."""
    for processors, nfe in NO_FAILURE_CELLS:
        out = _compare(
            f"no_failures_p{processors}",
            lambda model: model(processors, nfe, TIMING, mtbf=1e12, seed=1),
        )
        base = simulate_async(processors, nfe, TIMING, seed=1)
        assert (out.elapsed, out.nfe) == (base.elapsed, base.nfe)


def test_bench_mtbf_sweep():
    """The churn sweep below, timed on both models."""
    _compare(
        "mtbf_sweep",
        lambda model: [
            model(
                SWEEP_P, SWEEP_NFE, TIMING, mtbf=m, repair=SWEEP_REPAIR, seed=1
            )
            for m in SWEEP_MTBF
        ],
    )


def test_bench_failure_sweep(benchmark):
    """Throughput degradation vs worker MTBF; prints the churn table."""

    def sweep():
        base = simulate_async(SWEEP_P, SWEEP_NFE, TIMING, seed=1)
        rows = [("inf", round(base.elapsed, 3), 0, 0, float(SWEEP_P - 1))]
        for mtbf in SWEEP_MTBF:
            out = simulate_async_with_failures(
                SWEEP_P, SWEEP_NFE, TIMING, mtbf=mtbf, repair=SWEEP_REPAIR,
                seed=1,
            )
            rows.append(
                (
                    mtbf,
                    round(out.elapsed, 3),
                    out.failures,
                    out.recoveries,
                    round(out.mean_live_workers, 2),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print()
    print(
        format_table(
            ("MTBF (s)", "elapsed (s)", "failures", "recoveries", "mean live"),
            rows,
            title="Asynchronous master-slave under worker churn "
            f"(P={SWEEP_P}, TF=0.01s, repair={SWEEP_REPAIR}s)",
        )
    )
    # Graceful degradation: more churn -> slower, but the run completes.
    elapsed = [r[1] for r in rows]
    assert elapsed == sorted(elapsed)
