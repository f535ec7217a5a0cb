"""Benchmark: the box-grid indexed epsilon-archive vs the full scan.

Sweeps archive sizes |A| in {1e2, 1e3, 1e4} crossed with M in {2, 3, 5}
objectives and reports ns/insert for the full-scan oracle (``tests/reference``) and
indexed (production) add paths on a mixed offer stream --
deeply dominated rejects, near-front contests, and improving points
that evict.  A second experiment drives a million-insert stream into a
growing archive and checks that per-insert cost grows sublinearly in
|A|.  Results are recorded in ``BENCH_archive.json`` at the repository
root so regressions are visible in CI artifacts.

Quick mode (CI smoke): ``BENCH_ARCHIVE_QUICK=1`` shrinks the sweep and
the stream so the whole module runs in tens of seconds.

    BENCH_ARCHIVE_QUICK=1 pytest benchmarks/test_bench_archive.py -q
"""

import copy
import time

import numpy as np

from repro.core import EpsilonBoxArchive, Solution
from tests.reference import as_full_scan

from .conftest import BenchRecorder

_record = BenchRecorder("archive")
QUICK = _record.quick

#: Acceptance floor from the issue: >= 10x insert throughput at
#: |A| ~ 1e4 (measured on the mixed stream, M = 5).
MIN_SPEEDUP_LARGE = 10.0
#: Per-size floors for the other cells.  At |A| ~ 100 the index's
#: fixed per-add overhead roughly cancels its pruning (the crossover
#: sits between 1e2 and 1e3 members), so the floor there only guards
#: against a real regression.
MIN_SPEEDUP = {100: 0.4, 1_000: 1.0, 10_000: 3.0}
#: Sublinearity: fitted exponent of per-insert cost vs |A| on the
#: growth stream.  The reference full scan is Theta(|A|) (exponent
#: 1.0); the indexed path's accept work keeps a linear tail (victim
#: scan, order-preserving storage shifts), so the exponent is bounded
#: away from 1 but not from 0.
MAX_GROWTH_EXPONENT = 0.8 if not QUICK else 0.95

#: Epsilon values pre-calibrated so a front-surface stream fills the
#: archive to roughly the nominal size (the payload records the size
#: actually reached).
_EPS = {
    (2, 100): 0.0058,
    (2, 1_000): 0.000583,
    (2, 10_000): 5.742e-05,
    (3, 100): 0.0648,
    (3, 1_000): 0.0185,
    (3, 10_000): 0.005619,
    (5, 100): 0.18554,
    (5, 1_000): 0.10510,
    (5, 10_000): 0.05173,
}

_CELLS_FULL = [(m, size) for m in (2, 3, 5) for size in (100, 1_000, 10_000)]
_CELLS_QUICK = [(2, 100), (3, 100), (5, 100), (5, 1_000)]


def _front_points(rng, n, m, scale=1.0):
    """Points on (or scaled inside) the unit-sphere front."""
    V = np.abs(rng.normal(size=(n, m)))
    return scale * V / np.linalg.norm(V, axis=1, keepdims=True)


def _build_archive(m: int, size: int) -> EpsilonBoxArchive:
    """Fill an archive to roughly ``size`` members from a front stream."""
    eps = _EPS[(m, size)]
    rng = np.random.default_rng(1)
    archive = EpsilonBoxArchive(eps)
    n_build = min(12 * size, 60_000)
    for p in _front_points(rng, n_build, m):
        archive.add(Solution(np.zeros(2), objectives=p))
    return archive


def _probe_stream(rng, n: int, m: int) -> np.ndarray:
    """The mixed offer stream: 60% deeply dominated (cheap rejects),
    30% near-front (contests), 10% slightly improving (evictions)."""
    n_deep = int(0.6 * n)
    n_near = int(0.3 * n)
    n_imp = n - n_deep - n_near
    mix = np.concatenate(
        [
            1.05 + rng.random((n_deep, m)),
            _front_points(rng, n_near, m),
            _front_points(rng, n_imp, m, scale=0.9995),
        ]
    )
    rng.shuffle(mix)
    return mix


def _time_inserts(base: EpsilonBoxArchive, points, indexed: bool, repeats: int):
    """Best-of-N ns/insert for offering ``points`` to a copy of ``base``."""
    best = float("inf")
    final = None
    for _ in range(repeats):
        archive = copy.deepcopy(base)
        if not indexed:
            as_full_scan(archive)
        solutions = [Solution(np.zeros(2), objectives=p) for p in points]
        t0 = time.perf_counter()
        for s in solutions:
            archive.add(s)
        best = min(best, time.perf_counter() - t0)
        final = archive
    return best / len(points) * 1e9, final


def _insert_case(m: int, size: int) -> dict:
    base = _build_archive(m, size)
    rng = np.random.default_rng(20130520)
    n_probe = 400 if QUICK else 1_200
    points = _probe_stream(rng, n_probe, m)
    ns_idx, a_idx = _time_inserts(base, points, indexed=True, repeats=2)
    ns_ref, a_ref = _time_inserts(
        base, points, indexed=False, repeats=1 if QUICK else 2
    )
    # The timed passes double as a parity check: both paths must leave
    # bit-identical archives.
    np.testing.assert_array_equal(
        np.asarray(a_idx.objectives), np.asarray(a_ref.objectives)
    )
    return {
        "m": m,
        "archive_size": len(base),
        "nominal_size": size,
        "probes": n_probe,
        "indexed_ns_per_insert": ns_idx,
        "reference_ns_per_insert": ns_ref,
        "speedup": ns_ref / ns_idx,
    }


def test_bench_insert_sweep():
    cells = _CELLS_QUICK if QUICK else _CELLS_FULL
    print()
    headline = None
    for m, size in cells:
        payload = _insert_case(m, size)
        _record(f"insert_m{m}_A{size}", payload)
        print(
            f"M={m} |A|={payload['archive_size']:>5}: "
            f"idx {payload['indexed_ns_per_insert']:>9.0f} ns/insert, "
            f"ref {payload['reference_ns_per_insert']:>9.0f} ns/insert "
            f"({payload['speedup']:.1f}x)"
        )
        assert payload["speedup"] >= MIN_SPEEDUP[size]
        if (m, size) == (5, 10_000):
            headline = payload["speedup"]
    if not QUICK:
        assert headline is not None and headline >= MIN_SPEEDUP_LARGE


def test_bench_growth_is_sublinear():
    """A long front stream into a high-resolution archive: per-insert
    cost must grow sublinearly in |A| (the full scan is Theta(|A|))."""
    n_total = 120_000 if QUICK else 1_000_000
    chunk = 5_000 if QUICK else 20_000
    m = 5
    # Resolution high enough that |A| keeps growing through the stream.
    eps = 0.0285
    rng = np.random.default_rng(3)
    archive = EpsilonBoxArchive(eps)
    samples = []
    for start in range(0, n_total, chunk):
        points = _front_points(rng, chunk, m)
        solutions = [Solution(np.zeros(2), objectives=p) for p in points]
        t0 = time.perf_counter()
        for s in solutions:
            archive.add(s)
        dt = time.perf_counter() - t0
        samples.append(
            {
                "inserts": start + chunk,
                "archive_size": len(archive),
                "ns_per_insert": dt / chunk * 1e9,
            }
        )

    # Skip the tiny-archive warmup, then fit cost ~ |A|^alpha.
    early, late = samples[2], samples[-1]
    size_ratio = late["archive_size"] / early["archive_size"]
    cost_ratio = late["ns_per_insert"] / early["ns_per_insert"]
    alpha = np.log(cost_ratio) / np.log(size_ratio)
    payload = {
        "m": m,
        "epsilon": eps,
        "total_inserts": n_total,
        "final_archive_size": samples[-1]["archive_size"],
        "size_ratio": size_ratio,
        "cost_ratio": cost_ratio,
        "growth_exponent": alpha,
        "chunks": samples,
    }
    _record("growth_stream", payload)
    print(
        f"\n{n_total} inserts, |A| {early['archive_size']} -> "
        f"{late['archive_size']} ({size_ratio:.1f}x), cost "
        f"{early['ns_per_insert']:.0f} -> {late['ns_per_insert']:.0f} "
        f"ns/insert ({cost_ratio:.2f}x): exponent {alpha:.2f}"
    )
    assert size_ratio >= 2.0  # the stream must actually grow the archive
    assert alpha <= MAX_GROWTH_EXPONENT
