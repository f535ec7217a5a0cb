"""Unit tests for the steady-state population."""

import numpy as np
import pytest

from repro.core import Population, Solution


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
