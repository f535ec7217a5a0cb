"""Micro-benchmarks of the hot substrates.

These time the per-call costs that the scalability study's wall-clock
depends on: archive updates (the real TA!), operator applications,
serial Borg steps, hypervolume evaluation, and simulation-model event
throughput.
"""

import numpy as np
import pytest

from repro.core import BorgConfig, BorgEngine, BorgMOEA, EpsilonBoxArchive, Solution
from repro.core.operators import SBX, PCX, UniformMutation
from repro.indicators import hypervolume, monte_carlo_hypervolume, sphere_reference_set
from repro.models import simulate_async
from repro.problems import DTLZ2, UF11
from repro.stats import ranger_timing


@pytest.fixture(scope="module")
def archive_with_members():
    rng = np.random.default_rng(0)
    archive = EpsilonBoxArchive(np.full(5, 0.06))
    pts = sphere_reference_set(5, divisions=8)
    for p in pts[rng.choice(len(pts), 200, replace=False)]:
        archive.add(Solution(np.zeros(5), objectives=p))
    return archive, rng


def test_bench_archive_add(benchmark, archive_with_members):
    """One epsilon-archive update -- the dominant component of TA."""
    archive, rng = archive_with_members

    def add_one():
        objs = np.abs(rng.standard_normal(5))
        objs /= np.linalg.norm(objs)
        archive.add(Solution(np.zeros(5), objectives=objs * (1 + 0.1 * rng.random())))

    benchmark(add_one)


def test_bench_sbx(benchmark):
    lb, ub = np.zeros(30), np.ones(30)
    sbx = SBX(lb, ub)
    rng = np.random.default_rng(1)
    parents = rng.random((2, 30))
    benchmark(sbx.evolve, parents, rng)


def test_bench_pcx(benchmark):
    lb, ub = np.zeros(30), np.ones(30)
    pcx = PCX(lb, ub, nparents=10)
    rng = np.random.default_rng(1)
    parents = rng.random((10, 30))
    benchmark(pcx.evolve, parents, rng)


def test_bench_serial_borg_step_dtlz2(benchmark):
    """One full steady-state iteration on the paper's easy problem."""
    moea = BorgMOEA(DTLZ2(nobjs=5), BorgConfig(initial_population_size=100), seed=1)
    for _ in range(300):  # get past initialisation
        moea.step()
    benchmark(moea.step)


def test_bench_serial_borg_step_uf11(benchmark):
    """One steady-state iteration on the hard (rotated) problem."""
    moea = BorgMOEA(UF11(), BorgConfig(initial_population_size=100), seed=1)
    for _ in range(300):
        moea.step()
    benchmark(moea.step)


def test_bench_engine_candidate_generation(benchmark):
    problem = DTLZ2(nobjs=5)
    engine = BorgEngine(problem, BorgConfig(initial_population_size=100),
                        rng=np.random.default_rng(2))
    for _ in range(200):
        c = engine.next_candidate()
        problem.evaluate(c)
        engine.ingest(c)

    def generate_and_ingest():
        c = engine.next_candidate()
        problem.evaluate(c)
        engine.ingest(c)

    benchmark(generate_and_ingest)


def test_bench_exact_hypervolume_5d(benchmark):
    front = sphere_reference_set(5, divisions=4)[:30]
    result = benchmark(hypervolume, front, 1.1)
    assert result > 0


def test_bench_monte_carlo_hypervolume_5d(benchmark):
    front = sphere_reference_set(5, divisions=8)
    result = benchmark(
        monte_carlo_hypervolume, front, 1.1, 20_000, 1
    )
    assert result > 0


def test_bench_simulation_model_throughput(benchmark):
    """Events/second of the timing-only simulation model (P = 64)."""
    timing = ranger_timing("DTLZ2", 64, 0.01)
    out = benchmark.pedantic(
        simulate_async,
        args=(64, 2000, timing),
        kwargs={"seed": 1},
        iterations=1,
        rounds=3,
    )
    assert out.nfe == 2000


def test_bench_uf11_evaluation(benchmark):
    problem = UF11()
    x = np.random.default_rng(0).random(30)
    benchmark(problem.evaluate, Solution(x))


def test_bench_queueing_model(benchmark):
    """O(P) machine-repairman closed form across the full Table II grid."""
    from repro.models import QueueingModel

    def full_grid():
        out = 0.0
        for p in (16, 32, 64, 128, 256, 512, 1024):
            qm = QueueingModel(tf=0.01, tc=6e-6, ta=29e-6)
            out += qm.parallel_time(100_000, p)
        return out

    assert benchmark(full_grid) > 0


def test_bench_wfg9_evaluation(benchmark):
    """The most transformation-heavy WFG problem."""
    from repro.problems import WFG9

    problem = WFG9(nobjs=5)
    z = problem.lower + np.random.default_rng(0).random(problem.nvars) * (
        problem.upper - problem.lower
    )
    benchmark(problem.evaluate, Solution(z))


def test_bench_nsga2_generation(benchmark):
    """One NSGA-II generation (sort + variation + selection)."""
    from repro.core import NSGAII
    from repro.problems import DTLZ2

    algo = NSGAII(DTLZ2(nobjs=3, nvars=12), population_size=100, seed=1)
    algo.run(200)  # prime the population

    def one_generation():
        offspring = [algo._evaluate(s) for s in algo._make_offspring()]
        algo.population = algo._environmental_selection(
            algo.population + offspring
        )
        algo._rank_population()

    benchmark.pedantic(one_generation, iterations=1, rounds=10)
