"""Unit tests for the steady-state population."""

import numpy as np
import pytest

from reference import ReferencePopulation, use_reference_paths

from repro.core import BorgMOEA, Population, Solution
from repro.problems import DTLZ2


def sol(*objs, cons=None):
    return Solution(np.zeros(2), objectives=np.asarray(objs, float), constraints=cons)


class TestPopulationBasics:
    def test_empty(self):
        pop = Population()
        assert len(pop) == 0

    def test_append_and_iterate(self):
        pop = Population()
        a, b = sol(1, 2), sol(2, 1)
        pop.append(a)
        pop.append(b)
        assert list(pop) == [a, b]
        assert pop[1] is b

    def test_clear(self):
        pop = Population([sol(1, 1)])
        pop.clear()
        assert len(pop) == 0

    def test_constructor_accepts_solutions(self):
        pop = Population([sol(1, 2), sol(2, 1)])
        assert len(pop) == 2


class TestSteadyStateAdd:
    def test_add_to_empty_appends(self):
        pop = Population()
        assert pop.add(sol(1, 1), np.random.default_rng(0))
        assert len(pop) == 1

    def test_unevaluated_rejected(self):
        pop = Population([sol(1, 1)])
        with pytest.raises(ValueError):
            pop.add(Solution(np.zeros(2)), np.random.default_rng(0))

    def test_dominating_offspring_replaces_dominated_member(self):
        pop = Population([sol(5, 5), sol(0.1, 9)])
        rng = np.random.default_rng(0)
        assert pop.add(sol(1, 1), rng)
        objs = [tuple(s.objectives) for s in pop]
        assert (1.0, 1.0) in objs
        assert (5.0, 5.0) not in objs        # the dominated one went
        assert (0.1, 9.0) in objs            # the nondominated one stayed
        assert len(pop) == 2

    def test_dominated_offspring_rejected(self):
        pop = Population([sol(1, 1)])
        rng = np.random.default_rng(0)
        assert not pop.add(sol(5, 5), rng)
        assert len(pop) == 1

    def test_nondominated_offspring_replaces_random_member(self):
        pop = Population([sol(1, 5), sol(5, 1)])
        rng = np.random.default_rng(0)
        assert pop.add(sol(2, 2), rng)
        assert len(pop) == 2
        objs = [tuple(s.objectives) for s in pop]
        assert (2.0, 2.0) in objs

    def test_size_never_grows_during_steady_state(self):
        rng = np.random.default_rng(1)
        pop = Population([sol(*rng.random(2)) for _ in range(10)])
        for _ in range(100):
            pop.add(sol(*rng.random(2)), rng)
            assert len(pop) == 10

    def test_constrained_offspring_vs_feasible_population(self):
        pop = Population([sol(5, 5)])
        rng = np.random.default_rng(0)
        # Infeasible offspring is dominated by any feasible member.
        assert not pop.add(sol(0, 0, cons=np.array([1.0])), rng)

    def test_feasible_offspring_replaces_infeasible(self):
        pop = Population([sol(0, 0, cons=np.array([2.0]))])
        rng = np.random.default_rng(0)
        assert pop.add(sol(9, 9), rng)
        assert pop[0].feasible


class TestTournament:
    def test_empty_population_raises(self):
        with pytest.raises(IndexError):
            Population().tournament(2, np.random.default_rng(0))

    def test_tournament_prefers_dominators(self):
        best = sol(0, 0)
        rest = [sol(5 + i, 5 + i) for i in range(9)]
        pop = Population([best] + rest)
        rng = np.random.default_rng(0)
        wins = sum(pop.tournament(10, rng) is best for _ in range(200))
        # The dominator wins whenever drawn: with 10 draws w/ replacement
        # from 10 members, p = 1 - 0.9^10 ~ 0.651.  Uniform selection
        # would win only ~10%, so a 50% floor cleanly separates them.
        assert wins >= 100

    def test_tournament_size_one_is_uniform_draw(self):
        pop = Population([sol(0, 0), sol(9, 9)])
        rng = np.random.default_rng(0)
        picks = {id(pop.tournament(1, rng)) for _ in range(100)}
        assert len(picks) == 2  # the dominated one is drawable too

    def test_winner_is_member(self):
        rng = np.random.default_rng(2)
        pop = Population([sol(*rng.random(2)) for _ in range(5)])
        for _ in range(20):
            assert pop.tournament(3, rng) in pop.solutions


class TestSampleAndTruncate:
    def test_sample_uniform(self):
        rng = np.random.default_rng(0)
        pop = Population([sol(i, i) for i in range(4)])
        seen = {id(pop.sample(rng)) for _ in range(200)}
        assert len(seen) == 4


# ---------------------------------------------------------------------------
# Parity with the frozen list-rebuilding population
# ---------------------------------------------------------------------------


def _random_member(rng, m, infeasible_share):
    """Coarse grid objectives (ties and dominance are common) and one of
    a few violation levels (equal and unequal violations both occur).
    A few members carry a NaN objective or violation, which the
    comparisons must treat exactly as the oracle does."""
    objectives = rng.integers(0, 6, size=m).astype(float)
    if rng.random() < 0.02:
        objectives[int(rng.integers(m))] = np.nan
    cons = None
    if rng.random() < infeasible_share:
        cons = np.array([(0.5, 1.0, 2.0, np.nan)[int(rng.choice(4, p=[0.3, 0.3, 0.3, 0.1]))]])
    return Solution(np.zeros(2), objectives=objectives, constraints=cons)


class TestReferenceParity:
    """Every call leaves production and oracle with the same result, the
    same members in the same slots (so the same victim) and the same
    generator state."""

    @staticmethod
    def _paired(members, seed):
        return (
            (Population(members), np.random.default_rng(seed)),
            (ReferencePopulation(members), np.random.default_rng(seed)),
        )

    @staticmethod
    def _check(pair):
        (pop, rng), (ref, ref_rng) = pair
        assert len(pop) == len(ref)
        assert all(a is b for a, b in zip(pop, ref))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def _fuzz(self, pair, ops, m, infeasible_share, gen):
        (pop, rng), (ref, ref_rng) = pair
        for _ in range(ops):
            roll = gen.random()
            if roll < 0.45:
                child = _random_member(gen, m, infeasible_share)
                assert pop.add(child, rng) == ref.add(child, ref_rng)
            elif roll < 0.9 and len(pop):
                size = int(gen.integers(1, len(pop) + 3))
                assert pop.tournament(size, rng) is ref.tournament(size, ref_rng)
            elif roll < 0.99:
                child = _random_member(gen, m, infeasible_share)
                pop.append(child)
                ref.append(child)
            else:
                pop.clear()
                ref.clear()
            self._check(pair)

    @pytest.mark.parametrize("infeasible_share", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_small_populations(self, seed, infeasible_share):
        gen = np.random.default_rng(1_000 + seed)
        m = int(gen.integers(1, 6))
        n = int(gen.integers(1, 40))
        members = [_random_member(gen, m, infeasible_share) for _ in range(n)]
        pair = self._paired(members, seed)
        self._fuzz(pair, 400, m, infeasible_share, gen)

    @pytest.mark.parametrize("n", [1, 100, 1_400, 5_000])
    def test_fuzz_large_populations(self, n):
        gen = np.random.default_rng(n)
        members = [_random_member(gen, 5, 0.2) for _ in range(n)]
        pair = self._paired(members, n)
        self._fuzz(pair, 60, 5, 0.2, gen)

    def test_continuous_objectives_and_wide_tournaments(self):
        gen = np.random.default_rng(5)
        members = [
            Solution(np.zeros(2), objectives=gen.random(3)) for _ in range(300)
        ]
        (pop, rng), (ref, ref_rng) = pair = self._paired(members, 5)
        for size in range(1, 320, 7):
            child = Solution(np.zeros(2), objectives=gen.random(3))
            assert pop.add(child, rng) == ref.add(child, ref_rng)
            assert pop.tournament(size, rng) is ref.tournament(size, ref_rng)
            self._check(pair)

    def test_whole_run_matches_oracle(self, monkeypatch):
        def run():
            result = BorgMOEA(DTLZ2(nobjs=3), seed=11).run(max_nfe=3_000)
            return result.archive.objectives.copy(), result.restarts

        objectives, restarts = run()
        use_reference_paths(monkeypatch)
        ref_objectives, ref_restarts = run()
        np.testing.assert_array_equal(objectives, ref_objectives)
        assert restarts == ref_restarts > 0


class TestVectorDrawParity:
    """``tournament`` relies on one ``rng.integers(n, size=k)`` call
    consuming the generator exactly as ``k`` scalar draws, and ``add`` on
    ``a[rng.integers(len(a))]`` drawing as ``rng.choice(a)`` does; a
    NumPy upgrade that changes either must fail here, not drift
    trajectories."""

    @pytest.mark.parametrize("seed", range(50))
    def test_vector_draw_equals_scalar_draws(self, seed):
        plan = np.random.default_rng(seed)
        vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(40):
            n = int(plan.choice([1, 2, 3, 17, 1_400, 5_000, 2**31, 2**40]))
            k = int(plan.integers(1, 30))
            drawn = vector.integers(n, size=k).tolist()
            assert drawn == [int(scalar.integers(n)) for _ in range(k)]
            assert vector.bit_generator.state == scalar.bit_generator.state
            # Interleave a float draw so buffered state is exercised too.
            assert vector.random() == scalar.random()

    @pytest.mark.parametrize("seed", range(50))
    def test_indexed_draw_equals_choice(self, seed):
        plan = np.random.default_rng(seed)
        indexed, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(40):
            a = np.flatnonzero(plan.random(int(plan.integers(1, 3_000))) < 0.5)
            if not a.size:
                continue
            assert a[indexed.integers(a.size)] == chosen.choice(a)
            assert indexed.bit_generator.state == chosen.bit_generator.state
