"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import EpsilonBoxArchive, Population, Solution, pareto_compare
from repro.core.dominance import nondominated_mask
from repro.core.operators import (
    PCX,
    SBX,
    SPX,
    UNDX,
    DifferentialEvolution,
    PolynomialMutation,
    UniformMutation,
)
from repro.indicators import hypervolume, monte_carlo_hypervolume
from reference.simkit import Environment, Resource
from repro.stats import Gamma, LogNormal, TruncatedNormal

# -- strategies -----------------------------------------------------------

objective_vectors = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=4),
    elements=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


def objective_matrix(max_rows=20, dims=3):
    return hnp.arrays(
        np.float64,
        st.tuples(
            st.integers(min_value=1, max_value=max_rows),
            st.just(dims),
        ),
        elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )


decision_vectors = hnp.arrays(
    np.float64,
    st.just(6),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


# -- dominance properties ---------------------------------------------------


class TestDominanceProperties:
    @given(a=objective_vectors)
    def test_irreflexive(self, a):
        assert pareto_compare(a, a.copy()) == 0

    @given(data=st.data())
    def test_antisymmetric(self, data):
        a = data.draw(objective_vectors)
        b = data.draw(
            hnp.arrays(
                np.float64,
                st.just(a.shape[0]),
                elements=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            )
        )
        assert pareto_compare(a, b) == -pareto_compare(b, a)

    @given(F=objective_matrix())
    def test_nondominated_mask_keeps_at_least_one(self, F):
        assert nondominated_mask(F).sum() >= 1

    @given(F=objective_matrix())
    def test_surviving_rows_mutually_nondominated(self, F):
        kept = F[nondominated_mask(F)]
        for i in range(len(kept)):
            for j in range(len(kept)):
                if i != j and not np.array_equal(kept[i], kept[j]):
                    assert pareto_compare(kept[i], kept[j]) >= 0 or True
                    # stronger: no strict dominance either way
                    assert not (
                        np.all(kept[i] <= kept[j]) and np.any(kept[i] < kept[j])
                    )


# -- archive properties ----------------------------------------------------


class TestArchiveProperties:
    @settings(max_examples=30, deadline=None)
    @given(F=objective_matrix(max_rows=40))
    def test_no_two_members_share_a_box(self, F):
        archive = EpsilonBoxArchive(0.1)
        for row in F:
            archive.add(Solution(np.zeros(3), objectives=row))
        boxes = np.floor(archive.objectives / 0.1)
        seen = {tuple(b) for b in boxes}
        assert len(seen) == len(archive)

    @settings(max_examples=30, deadline=None)
    @given(F=objective_matrix(max_rows=40))
    def test_archive_dominates_every_rejected_point(self, F):
        """Anything the archive rejected must be epsilon-covered: some
        member's box weakly dominates its box, or it lost a same-box
        duel (then boxes are equal)."""
        archive = EpsilonBoxArchive(0.1)
        rejected = []
        for row in F:
            result = archive.add(Solution(np.zeros(3), objectives=row))
            if not result.accepted:
                rejected.append(row)
        boxes = np.floor(archive.objectives / 0.1)
        for row in rejected:
            b = np.floor(row / 0.1)
            assert any(np.all(box <= b) for box in boxes)

    @settings(max_examples=30, deadline=None)
    @given(F=objective_matrix(max_rows=30))
    def test_insertion_order_does_not_change_box_count_much(self, F):
        """The box set is *nearly* order-independent (same-box winners
        may differ, but occupied-or-dominating structure is canonical
        for the nondominated input subset)."""
        a1 = EpsilonBoxArchive(0.1)
        a2 = EpsilonBoxArchive(0.1)
        for row in F:
            a1.add(Solution(np.zeros(3), objectives=row))
        for row in F[::-1]:
            a2.add(Solution(np.zeros(3), objectives=row))
        assert abs(len(a1) - len(a2)) <= max(2, len(a1) // 2)


# -- population properties ----------------------------------------------------


class TestPopulationProperties:
    @settings(max_examples=25, deadline=None)
    @given(F=objective_matrix(max_rows=25), seed=st.integers(0, 2**31 - 1))
    def test_size_invariant_under_steady_state(self, F, seed):
        rng = np.random.default_rng(seed)
        pop = Population(
            [Solution(np.zeros(3), objectives=f) for f in F[: max(3, len(F) // 2)]]
        )
        size = len(pop)
        for f in F:
            pop.add(Solution(np.zeros(3), objectives=f.copy()), rng)
            assert len(pop) == size

    @settings(max_examples=25, deadline=None)
    @given(F=objective_matrix(max_rows=25), seed=st.integers(0, 2**31 - 1))
    def test_tournament_winner_is_member(self, F, seed):
        rng = np.random.default_rng(seed)
        pop = Population([Solution(np.zeros(3), objectives=f) for f in F])
        winner = pop.tournament(4, rng)
        assert any(winner is s for s in pop.solutions)


# -- operator properties --------------------------------------------------------


class TestOperatorProperties:
    LB = np.zeros(6)
    UB = np.ones(6)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), seed=st.integers(0, 2**31 - 1))
    def test_all_operators_respect_bounds(self, data, seed):
        rng = np.random.default_rng(seed)
        ops = [
            SBX(self.LB, self.UB),
            DifferentialEvolution(self.LB, self.UB),
            PCX(self.LB, self.UB, nparents=4),
            SPX(self.LB, self.UB, nparents=4),
            UNDX(self.LB, self.UB, nparents=4),
            UniformMutation(self.LB, self.UB, rate=0.5),
            PolynomialMutation(self.LB, self.UB, rate=0.5),
        ]
        for op in ops:
            parents = np.vstack(
                [data.draw(decision_vectors) for _ in range(op.arity)]
            )
            children = op.evolve(parents, rng)
            assert np.all(children >= self.LB)
            assert np.all(children <= self.UB)
            assert np.all(np.isfinite(children))

    @settings(max_examples=30, deadline=None)
    @given(x=decision_vectors, seed=st.integers(0, 2**31 - 1))
    def test_mutation_of_identical_is_identity_at_rate_zero(self, x, seed):
        rng = np.random.default_rng(seed)
        um = UniformMutation(self.LB, self.UB, rate=0.0)
        pm = PolynomialMutation(self.LB, self.UB, rate=0.0)
        assert np.array_equal(um.evolve(x[None, :], rng)[0], x)
        assert np.array_equal(pm.evolve(x[None, :], rng)[0], x)


# -- hypervolume properties --------------------------------------------------------


class TestHypervolumeProperties:
    @settings(max_examples=30, deadline=None)
    @given(F=objective_matrix(max_rows=10))
    def test_bounded_by_reference_box(self, F):
        hv = hypervolume(F, 1.1)
        assert 0.0 <= hv <= 1.1**3 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(F=objective_matrix(max_rows=8), data=st.data())
    def test_monotone_under_union(self, F, data):
        extra = data.draw(objective_matrix(max_rows=3))
        hv_base = hypervolume(F, 1.1)
        hv_more = hypervolume(np.vstack([F, extra]), 1.1)
        assert hv_more >= hv_base - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(F=objective_matrix(max_rows=8), shift=st.floats(0.01, 0.2))
    def test_translation_toward_ideal_improves(self, F, shift):
        better = np.clip(F - shift, 0.0, None)
        assert hypervolume(better, 1.1) >= hypervolume(F, 1.1) - 1e-12

    @settings(max_examples=10, deadline=None)
    @given(F=objective_matrix(max_rows=6), seed=st.integers(0, 1000))
    def test_monte_carlo_close_to_exact(self, F, seed):
        exact = hypervolume(F, 1.1)
        est = monte_carlo_hypervolume(F, 1.1, samples=40_000, seed=seed)
        assert est == pytest.approx(exact, abs=0.08)


# -- distribution properties -----------------------------------------------------


class TestDistributionProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        mean=st.floats(1e-6, 10.0),
        cv=st.floats(0.01, 1.5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_gamma_mean_cv_roundtrip(self, mean, cv, seed):
        d = Gamma.from_mean_cv(mean, cv)
        assert d.mean == pytest.approx(mean, rel=1e-9)
        assert d.cv == pytest.approx(cv, rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(mean=st.floats(1e-6, 10.0), cv=st.floats(0.01, 1.5))
    def test_lognormal_mean_cv_roundtrip(self, mean, cv):
        d = LogNormal.from_mean_cv(mean, cv)
        assert d.mean == pytest.approx(mean, rel=1e-9)
        assert d.cv == pytest.approx(cv, rel=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(
        mean=st.floats(1e-4, 10.0),
        cv=st.floats(0.01, 0.3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_truncated_normal_nonnegative_samples(self, mean, cv, seed):
        d = TruncatedNormal.from_mean_cv(mean, cv)
        rng = np.random.default_rng(seed)
        assert np.all(d.sample(rng, size=200) >= 0.0)


# -- simkit properties ---------------------------------------------------------


class TestSimkitProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20)
    )
    def test_clock_is_monotone(self, delays):
        env = Environment()
        times = []

        def proc(env, d):
            yield env.timeout(d)
            times.append(env.now)

        for d in delays:
            env.process(proc(env, d))
        env.run()
        assert times == sorted(times)
        assert env.now == pytest.approx(max(delays))

    @settings(max_examples=25, deadline=None)
    @given(
        durations=st.lists(st.floats(0.1, 5.0), min_size=2, max_size=12),
        capacity=st.integers(1, 3),
    )
    def test_resource_conservation(self, durations, capacity):
        """Total busy time equals the sum of holds, no matter the
        contention pattern, and utilisation never exceeds 1."""
        env = Environment()
        res = Resource(env, capacity=capacity)

        def user(env, d):
            with res.request() as req:
                yield req
                yield env.timeout(d)

        for d in durations:
            env.process(user(env, d))
        env.run()
        assert res.busy_time == pytest.approx(sum(durations))
        assert res.utilization() <= 1.0 + 1e-9
        assert res.granted_count == len(durations)


class TestWFGProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        z_norm=hnp.arrays(
            np.float64,
            st.just(10),
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
    )
    def test_all_wfg_objectives_bounded(self, z_norm):
        from repro.problems import WFG1, WFG3, WFG4, WFG6, WFG9

        for cls in (WFG1, WFG3, WFG4, WFG6, WFG9):
            p = cls(nobjs=3, k=4, l=6)
            z = z_norm * p.upper
            f = p.evaluate(Solution(z)).objectives
            assert np.all(np.isfinite(f))
            # x_M in [0,1], shapes in [0,1], S_m = 2m.
            assert np.all(f >= -1e-9)
            assert np.all(f <= 1.0 + 2.0 * np.arange(1, 4) + 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        pos=hnp.arrays(
            np.float64,
            st.just(4),
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
    )
    def test_wfg4_front_membership_for_any_position(self, pos):
        from repro.problems import WFG4

        p = WFG4(nobjs=3, k=4, l=6)
        f = p.evaluate(Solution(p.optimal_solution(pos))).objectives
        S = 2.0 * np.arange(1, 4)
        assert np.sum((f / S) ** 2) == pytest.approx(1.0, abs=1e-9)


class TestQueueingProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        workers=st.integers(1, 512),
        think=st.floats(1e-6, 10.0),
        service=st.floats(1e-9, 1.0),
    )
    def test_repairman_physical_bounds(self, workers, think, service):
        from repro.models import solve_repairman

        sol = solve_repairman(workers, think, service)
        # Throughput can exceed neither the service rate nor the
        # zero-contention rate.
        assert sol.throughput <= 1.0 / service + 1e-9
        assert sol.throughput <= workers / (think + service) + 1e-9
        assert 0.0 <= sol.utilization <= 1.0 + 1e-12
        assert sol.residence >= service - 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        think=st.floats(1e-4, 1.0),
        service=st.floats(1e-6, 1e-2),
    )
    def test_repairman_throughput_monotone(self, think, service):
        from repro.models import solve_repairman

        xs = [
            solve_repairman(n, think, service).throughput
            for n in (1, 2, 8, 64)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(xs, xs[1:]))
