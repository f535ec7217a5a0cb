"""Benchmark: the vectorized hot paths vs their scalar references.

Times the fast paths -- batched problem evaluation, the block-broadcast
``nondominated_mask``, the cached hypervolume engine on a Fig. 5-style
trajectory, and the buffered population's ``add`` and ``tournament`` --
against the reference implementations frozen as test oracles in
``tests/reference``, asserts the speedup floors, and records the
measurements in ``BENCH_hotpaths.json`` at the repository root so
regressions are visible in CI artifacts.  It also records the process
backend's dispatch latency (:mod:`benchmarks.dispatch_probe`).

Quick mode (CI smoke): ``BENCH_HOTPATHS_QUICK=1`` shrinks the workloads
so the whole module runs in a few seconds.

    BENCH_HOTPATHS_QUICK=1 pytest benchmarks/test_bench_hotpaths.py -q
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

import pytest

from repro.core import BorgConfig, BorgMOEA, Population, Solution
from repro.core.dominance import nondominated_mask
from repro.indicators import Hypervolume, hypervolume_trajectory
from repro.problems import DTLZ2, UF11
from tests.reference import (
    ReferencePopulation,
    evaluate_batch_fallback,
    nondominated_mask_reference,
    use_reference_paths,
)

from .conftest import ROOT, BenchRecorder

_record = BenchRecorder("hotpaths")
QUICK = _record.quick

#: Acceptance floors from the issue; measured headroom is much larger.
MIN_BATCH_SPEEDUP = 5.0
MIN_MASK_SPEEDUP = 3.0
MIN_TRAJECTORY_SPEEDUP = 2.0
#: Floor for population add and tournament from N = 400 up.
MIN_POPULATION_SPEEDUP = 2.0


def _best_of(fn, repeats=3):
    """Best-of-N wall time (seconds) of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _batch_eval_case(problem, n):
    rng = np.random.default_rng(20130520)
    X = problem.lower + rng.random((n, problem.nvars)) * (
        problem.upper - problem.lower
    )
    t_batch = _best_of(lambda: problem._evaluate_batch(X))
    t_scalar = _best_of(
        lambda: evaluate_batch_fallback(problem, X),
        repeats=1 if QUICK else 2,
    )
    F_fast, _ = problem._evaluate_batch(X)
    F_slow, _ = evaluate_batch_fallback(problem, X)
    np.testing.assert_array_equal(F_fast, F_slow)
    return {
        "points": n,
        "batch_seconds": t_batch,
        "scalar_seconds": t_scalar,
        "speedup": t_scalar / t_batch,
    }


def test_bench_batch_eval_dtlz2():
    n = 2_000 if QUICK else 10_000
    payload = _batch_eval_case(DTLZ2(nobjs=5), n)
    _record("batch_eval_dtlz2_m5", payload)
    print(f"\nDTLZ2 batch eval of {n} points: {payload['speedup']:.1f}x")
    assert payload["speedup"] >= MIN_BATCH_SPEEDUP


def test_bench_batch_eval_uf11():
    n = 2_000 if QUICK else 10_000
    payload = _batch_eval_case(UF11(), n)
    _record("batch_eval_uf11_m5", payload)
    print(f"\nUF11 batch eval of {n} points: {payload['speedup']:.1f}x")
    assert payload["speedup"] >= MIN_BATCH_SPEEDUP


def test_bench_nondominated_mask():
    n, m = (800, 5) if QUICK else (2_000, 5)
    F = np.random.default_rng(7).random((n, m))
    t_fast = _best_of(lambda: nondominated_mask(F))
    t_ref = _best_of(lambda: nondominated_mask_reference(F))
    np.testing.assert_array_equal(
        nondominated_mask(F), nondominated_mask_reference(F)
    )
    payload = {
        "n": n,
        "m": m,
        "fast_seconds": t_fast,
        "reference_seconds": t_ref,
        "speedup": t_ref / t_fast,
    }
    _record("nondominated_mask", payload)
    print(f"\nnondominated_mask n={n} m={m}: {payload['speedup']:.1f}x")
    assert payload["speedup"] >= MIN_MASK_SPEEDUP


def test_bench_hypervolume_trajectory():
    """Fig. 5-style workload: hypervolume along every archive snapshot
    of a seeded serial Borg run -- cached engine vs seed recursion."""
    nfe = 1_500 if QUICK else 4_000
    result = BorgMOEA(
        DTLZ2(nobjs=3),
        BorgConfig(initial_population_size=50, snapshot_interval=25),
        seed=13,
    ).run(max_nfe=nfe)
    history = result.history

    def fast_pass():
        metric = Hypervolume(2.0, method="exact")
        return hypervolume_trajectory(history, metric, use_nfe=True)

    def reference_pass():
        # The recursive WFG oracle, uncached.
        with pytest.MonkeyPatch.context() as patch:
            use_reference_paths(patch)
            metric = Hypervolume(2.0, method="exact", cache_size=0)
            return hypervolume_trajectory(history, metric, use_nfe=True)

    t_fast = _best_of(fast_pass)
    t_ref = _best_of(reference_pass, repeats=1 if QUICK else 2)
    _, v_fast = fast_pass()
    _, v_ref = reference_pass()
    np.testing.assert_allclose(v_fast, v_ref, rtol=1e-9)
    payload = {
        "snapshots": len(history.snapshots),
        "max_nfe": nfe,
        "engine_seconds": t_fast,
        "reference_seconds": t_ref,
        "speedup": t_ref / t_fast,
    }
    _record("hypervolume_trajectory", payload)
    print(
        f"\nHV trajectory over {payload['snapshots']} snapshots: "
        f"{payload['speedup']:.1f}x"
    )
    assert payload["speedup"] >= MIN_TRAJECTORY_SPEEDUP


def _front_members(rng, n, m=5):
    """Mutually nondominated points on the positive unit sphere, like a
    converged Borg population."""
    F = rng.random((n, m))
    F /= np.linalg.norm(F, axis=1, keepdims=True)
    return [Solution(np.zeros(2), objectives=f) for f in F]


def _population_pass(cls, members, offspring, size):
    """Per-call microseconds of ``add`` and ``tournament``, with the
    results so the two classes can be checked against each other."""
    pop, rng = cls(members), np.random.default_rng(3)
    pop.tournament(size, rng)  # builds the matrices
    t0 = time.perf_counter()
    added = [pop.add(child, rng) for child in offspring]
    t_add = (time.perf_counter() - t0) / len(offspring)
    t0 = time.perf_counter()
    winners = [pop.tournament(size, rng).uid for _ in offspring]
    t_tournament = (time.perf_counter() - t0) / len(offspring)
    return t_add * 1e6, t_tournament * 1e6, added, winners


@pytest.mark.parametrize("n", [100, 400, 1_400, 5_000])
def test_bench_population(n):
    """Steady-state add and Borg-sized tournament (2% of N, at least 2)
    on a nondominated 5-objective population, production vs oracle."""
    rng = np.random.default_rng(n)
    members = _front_members(rng, n)
    offspring = _front_members(rng, 60 if QUICK else 300)
    size = max(2, int(0.02 * n))
    fast = _population_pass(Population, members, offspring, size)
    slow = _population_pass(ReferencePopulation, members, offspring, size)
    assert fast[2:] == slow[2:]
    payload = {
        "n": n,
        "tournament_size": size,
        "add_us": fast[0],
        "reference_add_us": slow[0],
        "add_speedup": slow[0] / fast[0],
        "tournament_us": fast[1],
        "reference_tournament_us": slow[1],
        "tournament_speedup": slow[1] / fast[1],
    }
    _record(f"population_n{n}", payload)
    print(
        f"\npopulation N={n}: add {fast[0]:.0f} vs {slow[0]:.0f} us, "
        f"tournament(k={size}) {fast[1]:.0f} vs {slow[1]:.0f} us"
    )
    if n >= 400:
        assert payload["add_speedup"] >= MIN_POPULATION_SPEEDUP
        assert payload["tournament_speedup"] >= MIN_POPULATION_SPEEDUP


def test_bench_dispatch_latency():
    """Process-backend submit-to-receipt latency, 2 workers, 2 ms TF.
    The probe runs in a fresh interpreter, so the objects this module
    leaves behind do not put collector passes into the master's path."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    nfe = 600 if QUICK else 3_000
    out = subprocess.run(
        [sys.executable, "-m", "benchmarks.dispatch_probe", "--nfe", str(nfe)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        timeout=300,
    )
    payload = json.loads(out.stdout)
    _record("dispatch_latency", payload)
    print(
        f"\ndispatch latency: mean {payload['mean_ms']:.3f} ms, "
        f"p90 {payload['p90_ms']:.3f} ms over {payload['samples']} tasks"
    )
    assert payload["samples"] == payload["nfe"] == nfe
