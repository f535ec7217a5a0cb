"""Parity tests: the vectorized fast kernel vs. the simkit reference
(``tests/reference/simmodel.py``).

The contract (docs/PERFORMANCE.md, "Simulation model at scale"): on a
shared seed, both paths produce the same ``SimulationOutcome`` --
elapsed and master_busy to float tolerance, nfe / max_queue /
checkpoint NFEs exactly.  The tests span the three TF regimes of the
paper (TF far below the master service time, comparable to it, and far
above) and processor counts from the minimum to paper scale.
"""

import numpy as np
import pytest

from repro.models import simmodel
from repro.models.fastsim import simulate_async_fast, simulate_sync_fast
from repro.models.simmodel import (
    SimulationOutcome,
    _extrapolate,
    predict_async_time,
    simulate_async,
    simulate_sync,
)
from repro.stats.timing import TimingSampler, constant_timing, ranger_timing

from reference.simmodel import simulate_async_reference, simulate_sync_reference

#: (tf_mean, tag): master service time is ~40-60 us at these anchors, so
#: 1 us is deep saturation, 30 us is comparable, 100 ms is worker-bound.
TF_REGIMES = [(1e-6, "below"), (3e-5, "comparable"), (1e-1, "above")]
P_GRID = [2, 64, 1024]

REL = 1e-9


def _assert_parity(ref: SimulationOutcome, fast: SimulationOutcome) -> None:
    assert fast.elapsed == pytest.approx(ref.elapsed, rel=REL)
    assert fast.master_busy == pytest.approx(ref.master_busy, rel=REL)
    assert fast.master_mean_wait == pytest.approx(
        ref.master_mean_wait, rel=REL, abs=1e-15
    )
    assert fast.master_max_queue == ref.master_max_queue
    assert fast.nfe == ref.nfe
    assert fast.processors == ref.processors
    assert [c[0] for c in fast.checkpoints] == [c[0] for c in ref.checkpoints]
    for (_, t_fast), (_, t_ref) in zip(fast.checkpoints, ref.checkpoints):
        assert t_fast == pytest.approx(t_ref, rel=REL)


class TestAsyncParity:
    @pytest.mark.parametrize("tf_mean,regime", TF_REGIMES)
    @pytest.mark.parametrize("processors", P_GRID)
    def test_matches_reference(self, tf_mean, regime, processors):
        timing = ranger_timing("DTLZ2", max(processors, 16), tf_mean)
        max_nfe = max(200, 4 * (processors - 1))
        ref = simulate_async_reference(processors, max_nfe, timing, seed=42)
        fast = simulate_async_fast(processors, max_nfe, timing, seed=42)
        _assert_parity(ref, fast)

    def test_deterministic(self, dtlz2_timing):
        a = simulate_async_fast(64, 500, dtlz2_timing, seed=9)
        b = simulate_async_fast(64, 500, dtlz2_timing, seed=9)
        assert a == b

    def test_seed_sequence_accepted(self, dtlz2_timing):
        ss = np.random.SeedSequence(123)
        a = simulate_async_fast(16, 200, dtlz2_timing, seed=ss)
        b = simulate_async_fast(
            16, 200, dtlz2_timing, seed=np.random.SeedSequence(123)
        )
        assert a == b

    def test_validation(self, dtlz2_timing):
        with pytest.raises(ValueError):
            simulate_async_fast(1, 100, dtlz2_timing)
        with pytest.raises(ValueError):
            simulate_async_fast(4, 0, dtlz2_timing)

    def test_saturated_and_loop_paths_agree(self):
        # TF ~ service time sits near the saturation boundary: run both
        # a clearly-saturated and a clearly-unsaturated point and check
        # each against the reference (the saturated shortcut and the
        # sequential loop must be indistinguishable from outside).
        for tf_mean in (1e-6, 1e-1):
            timing = ranger_timing("DTLZ2", 64, tf_mean)
            ref = simulate_async_reference(32, 600, timing, seed=5)
            fast = simulate_async_fast(32, 600, timing, seed=5)
            _assert_parity(ref, fast)


class TestSyncParity:
    @pytest.mark.parametrize("tf_mean,regime", TF_REGIMES)
    @pytest.mark.parametrize("processors", P_GRID)
    def test_matches_reference(self, tf_mean, regime, processors):
        timing = ranger_timing("DTLZ2", max(processors, 16), tf_mean)
        # A few generations, with a ragged final one (nfe % P != 0).
        max_nfe = 2 * processors + 3
        ref = simulate_sync_reference(processors, max_nfe, timing, seed=7)
        fast = simulate_sync_fast(processors, max_nfe, timing, seed=7)
        _assert_parity(ref, fast)

    def test_deterministic(self, dtlz2_timing):
        a = simulate_sync_fast(16, 100, dtlz2_timing, seed=3)
        b = simulate_sync_fast(16, 100, dtlz2_timing, seed=3)
        assert a == b

    def test_validation(self, dtlz2_timing):
        with pytest.raises(ValueError):
            simulate_sync_fast(1, 100, dtlz2_timing)
        with pytest.raises(ValueError):
            simulate_sync_fast(4, -1, dtlz2_timing)


class TestDispatch:
    """simulate_async/simulate_sync run the kernel, which reproduces
    the simkit reference."""

    def test_async_dispatch_uses_kernel(self, dtlz2_timing):
        ref = simulate_async_reference(8, 300, dtlz2_timing, seed=11)
        fast = simulate_async(8, 300, dtlz2_timing, seed=11)
        _assert_parity(ref, fast)

    def test_sync_dispatch(self, dtlz2_timing):
        ref = simulate_sync_reference(8, 40, dtlz2_timing, seed=11)
        fast = simulate_sync(8, 40, dtlz2_timing, seed=11)
        _assert_parity(ref, fast)

    def test_predict_parity_across_paths(self, dtlz2_timing, monkeypatch):
        fast = predict_async_time(64, 50_000, dtlz2_timing, seed=2)
        monkeypatch.setattr(
            simmodel, "simulate_async", simulate_async_reference
        )
        ref = predict_async_time(64, 50_000, dtlz2_timing, seed=2)
        assert fast == pytest.approx(ref, rel=REL)


class TestTimingSampler:
    """Per-component streams are interleaving-invariant."""

    def test_scalar_matches_array(self, dtlz2_timing):
        a = TimingSampler(dtlz2_timing, seed=17)
        b = TimingSampler(dtlz2_timing, seed=17)
        scalars = [a.ta() for _ in range(100)]
        assert scalars == pytest.approx(b.ta_array(100).tolist(), rel=0, abs=0)

    def test_components_independent_of_interleaving(self, dtlz2_timing):
        a = TimingSampler(dtlz2_timing, seed=5)
        b = TimingSampler(dtlz2_timing, seed=5)
        # Path A: strict alternation; path B: blocked -- TA draws agree.
        ta_a = []
        for _ in range(50):
            a.tf()
            ta_a.append(a.ta())
            a.tc()
        b.tf_array(50)
        ta_b = b.ta_array(50)
        b.tc_array(50)
        assert ta_a == pytest.approx(ta_b.tolist(), rel=0, abs=0)

    def test_refill_crosses_block_boundary(self, dtlz2_timing):
        small = TimingSampler(dtlz2_timing, seed=23, block=8)
        big = TimingSampler(dtlz2_timing, seed=23, block=4096)
        assert small.tf_array(30).tolist() == pytest.approx(
            big.tf_array(30).tolist(), rel=0, abs=0
        )


class TestExtrapolateGuards:
    """Regression: degenerate checkpoint sets must not crash."""

    def _outcome(self, nfe, elapsed, checkpoints):
        return SimulationOutcome(
            elapsed=elapsed,
            nfe=nfe,
            processors=4,
            master_busy=0.0,
            master_mean_wait=0.0,
            master_max_queue=0,
            checkpoints=checkpoints,
        )

    def test_no_checkpoints_falls_back_to_proportional(self):
        out = self._outcome(10, 5.0, ())
        assert _extrapolate(out, 100) == pytest.approx(50.0)

    def test_single_checkpoint_falls_back(self):
        out = self._outcome(10, 5.0, ((10, 5.0),))
        assert _extrapolate(out, 100) == pytest.approx(50.0)

    def test_zero_nfe_progress_between_checkpoints(self):
        # Duplicate NFE marks would divide by zero in the rate estimate.
        out = self._outcome(10, 5.0, ((10, 4.0), (10, 5.0)))
        assert _extrapolate(out, 100) == pytest.approx(50.0)

    def test_zero_completed_nfe_raises(self):
        out = self._outcome(0, 5.0, ())
        with pytest.raises(ValueError):
            _extrapolate(out, 100)

    def test_target_already_reached_returns_elapsed(self):
        out = self._outcome(100, 5.0, ((25, 1.0), (100, 4.0)))
        assert _extrapolate(out, 50) == 5.0

    def test_invalid_target(self):
        out = self._outcome(10, 5.0, ())
        with pytest.raises(ValueError):
            _extrapolate(out, 0)

    def test_steady_rate_used_when_checkpoints_good(self):
        out = self._outcome(100, 11.0, ((50, 5.0), (100, 10.0)))
        # rate = 0.1 s/NFE beyond the last checkpoint at (100, 10.0).
        assert _extrapolate(out, 200) == pytest.approx(20.0)


class TestConstantTiming:
    """The all-constant model (analytical world) still matches on the
    time-valued fields; pervasive ties make max_queue the only field
    allowed to differ (documented caveat)."""

    def test_elapsed_and_busy_match(self):
        timing = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        ref = simulate_async_reference(16, 400, timing, seed=1)
        fast = simulate_async_fast(16, 400, timing, seed=1)
        assert fast.elapsed == pytest.approx(ref.elapsed, rel=REL)
        assert fast.master_busy == pytest.approx(ref.master_busy, rel=REL)
        assert fast.nfe == ref.nfe
