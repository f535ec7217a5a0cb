"""Tests for the failure-injection simulation (worker churn)."""

import pytest

from repro.models import simulate_async, simulate_async_with_failures
from repro.stats import constant_timing


@pytest.fixture
def timing():
    return constant_timing(tf=0.01, tc=6e-6, ta=29e-6)


class TestFailureInjection:
    def test_no_failure_limit_matches_baseline(self, timing):
        base = simulate_async(16, 2000, timing, seed=1)
        faulty = simulate_async_with_failures(
            16, 2000, timing, mtbf=1e12, repair=None, seed=1
        )
        assert faulty.failures == 0
        assert faulty.nfe == 2000
        # Same per-component timing streams: without failures the run
        # is the baseline model, to the last bit.
        assert faulty.elapsed == base.elapsed
        assert faulty.mean_live_workers == pytest.approx(15.0)

    def test_churn_slows_the_run(self, timing):
        base = simulate_async(16, 2000, timing, seed=1)
        faulty = simulate_async_with_failures(
            16, 2000, timing, mtbf=0.5, repair=0.2, seed=1
        )
        assert faulty.failures > 0
        assert faulty.recoveries > 0
        assert faulty.nfe == 2000           # still completes
        assert faulty.elapsed > base.elapsed
        assert faulty.mean_live_workers < 15.0

    def test_graceful_degradation_scales_with_live_fraction(self, timing):
        """Throughput under churn ~ live-worker fraction (the async
        model's graceful-degradation property)."""
        base = simulate_async(32, 3000, timing, seed=2)
        faulty = simulate_async_with_failures(
            32, 3000, timing, mtbf=1.0, repair=1.0, seed=2
        )
        live_fraction = faulty.mean_live_workers / 31.0
        slowdown = base.elapsed / faulty.elapsed
        assert slowdown == pytest.approx(live_fraction, abs=0.15)

    def test_permanent_failures_end_run_early(self, timing):
        out = simulate_async_with_failures(
            4, 10**6, timing, mtbf=0.3, repair=None, seed=3
        )
        assert out.nfe < 10**6
        assert out.failures == 3            # every worker died once
        assert out.recoveries == 0
        assert out.elapsed > 0

    def test_lost_evaluations_counted(self, timing):
        out = simulate_async_with_failures(
            8, 1000, timing, mtbf=0.2, repair=0.1, seed=4
        )
        assert out.lost_evaluations == out.failures

    def test_seeded_determinism(self, timing):
        a = simulate_async_with_failures(8, 500, timing, mtbf=0.3, repair=0.1, seed=7)
        b = simulate_async_with_failures(8, 500, timing, mtbf=0.3, repair=0.1, seed=7)
        assert a.elapsed == b.elapsed
        assert a.failures == b.failures

    def test_validation(self, timing):
        with pytest.raises(ValueError):
            simulate_async_with_failures(1, 100, timing, mtbf=1.0)
        with pytest.raises(ValueError):
            simulate_async_with_failures(4, 0, timing, mtbf=1.0)
        with pytest.raises(ValueError):
            simulate_async_with_failures(4, 100, timing, mtbf=0.0)
        with pytest.raises(ValueError):
            simulate_async_with_failures(4, 100, timing, mtbf=1.0, repair=-1.0)

    def test_efficiency_helper(self, timing):
        out = simulate_async_with_failures(
            16, 1000, timing, mtbf=1e12, seed=1
        )
        ts = 1000 * (0.01 + 29e-6)
        assert 0.8 < out.efficiency(ts) <= 1.0
