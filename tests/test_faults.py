"""Tests for the failure-injection simulation (worker churn)."""

import itertools
import math

import pytest

from repro.models import simulate_async, simulate_async_with_failures
from repro.stats import constant_timing, ranger_timing

from reference.faults import simulate_async_with_failures as oracle


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
        with pytest.raises(ValueError):
            simulate_async_with_failures(4, 100, timing, mtbf=-1.0)
        with pytest.raises(ValueError):
            simulate_async_with_failures(4, 100, timing, mtbf=math.nan)
        with pytest.raises(ValueError):
            simulate_async_with_failures(
                4, 100, timing, mtbf=1.0, repair=math.nan
            )
        # Infinite means stay valid: no failures, permanent failures.
        assert simulate_async_with_failures(
            4, 100, timing, mtbf=math.inf
        ).failures == 0
        assert simulate_async_with_failures(
            4, 100, timing, mtbf=1.0, repair=math.inf, seed=1
        ).recoveries == 0
        # A zero mean repair is an instant rejoin.
        out = simulate_async_with_failures(
            4, 100, timing, mtbf=0.05, repair=0.0, seed=1
        )
        assert out.nfe == 100 and out.recoveries == out.failures > 0

    def test_infinite_repair_is_permanent(self, timing):
        """``repair=math.inf`` returns, and runs exactly as ``None``."""
        for seed in (3, 4):
            inf = simulate_async_with_failures(
                4, 10**6, timing, mtbf=0.3, repair=math.inf, seed=seed
            )
            none = simulate_async_with_failures(
                4, 10**6, timing, mtbf=0.3, repair=None, seed=seed
            )
            assert inf == none

    def test_dead_pool_elapsed_ends_at_last_death(self, timing):
        """A pool that dies before the budget reports ``elapsed`` at the
        last death, so each worker counts as live until it died and the
        time-averaged live count is at least one."""
        for processors, seed in itertools.product((2, 4), (3, 4, 5)):
            out = simulate_async_with_failures(
                processors, 10**6, timing, mtbf=0.3, repair=None, seed=seed
            )
            assert out.nfe < 10**6
            assert out.failures == processors - 1
            assert out.mean_live_workers >= 1.0

    def test_efficiency_helper(self, timing):
        out = simulate_async_with_failures(
            16, 1000, timing, mtbf=1e12, seed=1
        )
        ts = 1000 * (0.01 + 29e-6)
        assert 0.8 < out.efficiency(ts) <= 1.0


class TestOracleParity:
    """The event heap against the frozen simkit churn model."""

    @pytest.mark.parametrize("processors", [2, 4, 16, 64])
    @pytest.mark.parametrize("model", ["constant", "ranger"])
    def test_matches_oracle(self, timing, model, processors):
        if model == "ranger":
            timing = ranger_timing("DTLZ2", processors, 0.01)
        nfe, survived, dead = 300, 0, 0
        for mtbf, repair, seed in itertools.product(
            (0.05, 0.3, 2.0), (None, 0.0, 0.05, 0.5), (1, 2, 3, 4)
        ):
            got = simulate_async_with_failures(
                processors, nfe, timing, mtbf=mtbf, repair=repair, seed=seed
            )
            want = oracle(
                processors, nfe, timing, mtbf=mtbf, repair=repair, seed=seed
            )
            case = (mtbf, repair, seed)
            if want.nfe == nfe:
                survived += 1
                assert got == want, case
                continue
            # The whole pool died: the same run up to the last death,
            # which the oracle's clock overshoots.
            dead += 1
            assert (got.nfe, got.failures, got.recoveries) == (
                want.nfe, want.failures, want.recoveries
            ), case
            assert got.lost_evaluations == want.lost_evaluations, case
            assert got.mean_live_workers * got.elapsed == pytest.approx(
                want.mean_live_workers * want.elapsed, rel=1e-9
            ), case
            assert got.elapsed <= want.elapsed, case
        assert survived > 0

    @pytest.mark.parametrize("processors", [16, 1024])
    def test_no_failures_is_the_kernel(self, timing, processors):
        base = simulate_async(processors, 4000, timing, seed=5)
        out = simulate_async_with_failures(
            processors, 4000, timing, mtbf=1e12, seed=5
        )
        assert (out.elapsed, out.nfe) == (base.elapsed, base.nfe)
        assert out.failures == 0
