"""Parity of the production hot paths with the frozen reference oracles.

Four families of property tests (oracles in ``tests/reference``):

* ``evaluate_batch`` and ``evaluate`` are bit-for-bit identical to the
  scalar ``_evaluate``/``_evaluate_constraints`` kernels on every
  registered problem (seeded random decision matrices), and
  ``TimedProblem`` draws its delays in the same order either way;
* the shape-dispatched ``nondominated_mask`` returns exactly the mask
  of the row-at-a-time reference;
* the hypervolume engine (3-D sweep, iterative WFG, cache) matches the
  reference recursion on seeded 2-5 objective fronts, and the iterative
  WFG is bitwise identical to the recursion;
* a seeded serial Borg run produces an identical archive on the
  production paths and with every oracle patched in (no behavioural
  drift).
"""

import numpy as np
import pytest

from reference import (
    evaluate_batch_fallback,
    hypervolume_reference,
    nondominated_mask_reference,
    scalar_evaluate,
    use_reference_paths,
    wfg,
)
from repro.core import BorgConfig, BorgMOEA, Solution
from repro.core.dominance import nondominated_mask
from repro.indicators.hypervolume import (
    Hypervolume,
    _clean_front,
    _wfg_iterative,
    hypervolume,
)
from repro.problems import (
    DTLZ1,
    DTLZ2,
    DTLZ3,
    DTLZ4,
    UF1,
    UF2,
    UF3,
    UF4,
    UF5,
    UF6,
    UF7,
    UF8,
    UF9,
    UF10,
    UF11,
    UF12,
    UF13,
    WFG1,
    WFG2,
    WFG3,
    WFG4,
    WFG5,
    WFG6,
    WFG7,
    WFG8,
    WFG9,
    ZDT1,
    ZDT2,
    ZDT3,
    ZDT4,
    ZDT6,
    AircraftDesign,
    LakeProblem,
    TimedProblem,
)

# Every registered problem class, with representative configurations
# (the paper's benchmarks DTLZ2 / UF11 at five objectives included).
PROBLEM_FACTORIES = [
    lambda: DTLZ1(nobjs=3),
    lambda: DTLZ2(nobjs=3),
    lambda: DTLZ2(nobjs=5),
    lambda: DTLZ3(nobjs=3),
    lambda: DTLZ4(nobjs=3),
    ZDT1,
    ZDT2,
    ZDT3,
    ZDT4,
    ZDT6,
    UF1,
    UF2,
    UF3,
    UF4,
    UF5,
    UF6,
    UF7,
    UF8,
    UF9,
    UF10,
    UF11,
    UF12,
    UF13,
    lambda: WFG1(nobjs=2),
    lambda: WFG1(nobjs=3),
    lambda: WFG2(nobjs=3),
    lambda: WFG3(nobjs=3),
    lambda: WFG4(nobjs=3),
    lambda: WFG5(nobjs=3),
    lambda: WFG6(nobjs=3),
    lambda: WFG7(nobjs=3),
    lambda: WFG8(nobjs=3),
    lambda: WFG9(nobjs=3),
    AircraftDesign,
    LakeProblem,
    lambda: TimedProblem(DTLZ2(nobjs=3), delay=0.01, seed=5),
]


def _random_matrix(problem, n, seed):
    rng = np.random.default_rng(seed)
    span = problem.upper - problem.lower
    return problem.lower + rng.random((n, problem.nvars)) * span


@pytest.mark.parametrize(
    "factory", PROBLEM_FACTORIES, ids=lambda f: repr(f()).strip("<>")
)
def test_evaluate_batch_matches_scalar_bitwise(factory):
    """Both entry points -- ``evaluate_batch`` over the whole matrix and
    ``evaluate`` (the serial engine's, a one-row block) -- match the
    scalar oracle row by row."""
    problem = factory()
    X = _random_matrix(problem, 64, seed=hash(problem.name) % 2**32)
    F_batch, C_batch = problem.evaluate_batch(X)
    for i in range(X.shape[0]):
        f, c = scalar_evaluate(problem, X[i])
        single = problem.evaluate(Solution(X[i].copy()))
        for got, entry in ((F_batch[i], "batch"), (single.objectives, "single")):
            np.testing.assert_array_equal(
                got,
                np.asarray(f, dtype=float),
                err_msg=f"{problem.name} row {i} {entry} objectives",
            )
        if c is None:
            assert C_batch is None
            assert single.constraints.size == 0
        else:
            for got, entry in ((C_batch[i], "batch"), (single.constraints, "single")):
                np.testing.assert_array_equal(
                    got,
                    np.asarray(c, dtype=float),
                    err_msg=f"{problem.name} row {i} {entry} constraints",
                )
    assert problem.evaluations == 2 * X.shape[0]


def test_timed_evaluate_keeps_delay_sample_order():
    """n ``evaluate`` calls draw the same delay stream, and accumulate
    the same total, as one n-row ``evaluate_batch``."""
    single = TimedProblem(DTLZ2(nobjs=3), delay=0.01, seed=5)
    batched = TimedProblem(DTLZ2(nobjs=3), delay=0.01, seed=5)
    X = _random_matrix(single, 40, seed=3)
    for x in X:
        single.evaluate(Solution(x.copy()))
    batched.evaluate_batch(X)
    assert single.total_evaluation_time == batched.total_evaluation_time
    assert single.last_evaluation_time == batched.last_evaluation_time
    assert single.evaluations == batched.evaluations == X.shape[0]


@pytest.mark.parametrize(
    "factory", PROBLEM_FACTORIES, ids=lambda f: repr(f()).strip("<>")
)
def test_evaluate_batch_matches_fallback_bitwise(factory):
    """The vectorized kernels agree with the scalar fallback loop
    exactly, so no numerical result depends on the block size."""
    problem = factory()
    X = _random_matrix(problem, 32, seed=7)
    F_fast, C_fast = problem.evaluate_batch(X)
    F_slow, C_slow = evaluate_batch_fallback(problem, X)
    np.testing.assert_array_equal(F_fast, F_slow)
    if C_fast is None:
        assert C_slow is None
    else:
        np.testing.assert_array_equal(C_fast, C_slow)


@pytest.mark.parametrize("cls", [DTLZ1, DTLZ2, DTLZ3, DTLZ4])
@pytest.mark.parametrize("nobjs", [2, 3, 5, 8, 10])
@pytest.mark.parametrize("rows", [1, 7, 100])
def test_dtlz_front_products_match_scalar_oracle(cls, nobjs, rows):
    """The running-product DTLZ kernels equal the per-objective scalar
    products exactly, one row or many, at every front dimension."""
    problem = cls(nobjs=nobjs)
    for seed in range(10):
        X = _random_matrix(problem, rows, seed=seed)
        F, C = problem._evaluate_batch(X)
        assert C is None
        oracle = np.array([scalar_evaluate(problem, x)[0] for x in X])
        assert np.array_equal(F, oracle), (cls.__name__, nobjs, rows, seed)


def test_evaluate_batch_counts_evaluations():
    problem = DTLZ2(nobjs=3)
    X = _random_matrix(problem, 17, seed=0)
    problem.evaluate_batch(X)
    assert problem.evaluations == 17


@pytest.mark.parametrize("seed", range(8))
def test_nondominated_mask_matches_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        n = int(rng.integers(1, 200))
        m = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            F = rng.random((n, m))
        else:
            # Discretised objectives: duplicates and ties galore.
            F = rng.integers(0, 4, size=(n, m)).astype(float)
        np.testing.assert_array_equal(
            nondominated_mask(F), nondominated_mask_reference(F)
        )


@pytest.mark.parametrize("seed", range(6))
def test_hypervolume_engine_matches_reference(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(15):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 30 if m >= 4 else 80))
        F = rng.random((n, m))
        ref = 1.0 + rng.random(m)
        fast = hypervolume(F, ref)
        slow = hypervolume_reference(F, ref)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)


def test_wfg_iterative_bitwise_equals_recursion():
    rng = np.random.default_rng(42)
    for _ in range(25):
        m = int(rng.integers(4, 6))
        F = rng.random((int(rng.integers(2, 30)), m))
        ref = np.full(m, 1.1)
        Fc = _clean_front(F, ref)
        if Fc.shape[0] == 0:
            continue
        assert _wfg_iterative(Fc, ref) == wfg(Fc, ref)


def test_hypervolume_cache_returns_identical_values():
    rng = np.random.default_rng(9)
    hv = Hypervolume(1.1, method="exact")
    F = rng.random((40, 4))
    first = hv(F)
    second = hv(F)
    assert first == second
    assert hv.cache_hits == 1 and hv.cache_misses == 1
    # A different front must not hit the cache.
    other = hv(rng.random((40, 4)))
    assert hv.cache_misses == 2
    assert other != first


def test_hypervolume_cache_disabled_matches_enabled():
    rng = np.random.default_rng(10)
    F = rng.random((50, 3))
    assert Hypervolume(1.1, cache_size=0)(F) == Hypervolume(1.1)(F)


def _run_serial_borg(seed=71, nfe=2500):
    result = BorgMOEA(
        DTLZ2(nobjs=3),
        BorgConfig(initial_population_size=50),
        seed=seed,
    ).run(max_nfe=nfe)
    return result


def test_serial_borg_archive_identical_on_reference_paths(monkeypatch):
    fast = _run_serial_borg()
    with monkeypatch.context() as patch:
        use_reference_paths(patch)
        slow = _run_serial_borg()
    assert fast.nfe == slow.nfe
    assert fast.restarts == slow.restarts
    assert len(fast.archive) == len(slow.archive)
    np.testing.assert_array_equal(fast.objectives, slow.objectives)
    fast_vars = np.stack([s.variables for s in fast.archive])
    slow_vars = np.stack([s.variables for s in slow.archive])
    np.testing.assert_array_equal(fast_vars, slow_vars)
