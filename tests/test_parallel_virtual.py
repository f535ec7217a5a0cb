"""Tests for the virtual-clock master-slave runners (the experiment core)."""

import math

import numpy as np
import pytest

from repro.core import BorgConfig, BorgMOEA
from repro.models import async_parallel_time, serial_time
from repro.models.fastsim import (
    island_seed_streams,
    simulate_async_fast,
    simulate_sync_fast,
)
from repro.parallel import (
    run_async_master_slave,
    run_sharded_islands,
    run_sync_master_slave,
)
from repro.problems import DTLZ2
from repro.stats import constant_timing, ranger_timing


def small_problem():
    return DTLZ2(nobjs=2, nvars=11)


class TestAsyncVirtual:
    def test_completes_exact_nfe(self, small_config, fast_timing):
        result = run_async_master_slave(
            small_problem(), 8, 500, fast_timing, config=small_config, seed=1
        )
        assert result.nfe == 500
        assert result.borg.nfe == 500

    def test_elapsed_matches_analytical_when_unsaturated(self, small_config):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        result = run_async_master_slave(
            small_problem(), 16, 2000, tm, config=small_config, seed=1
        )
        expected = async_parallel_time(2000, 16, 0.01, 6e-6, 29e-6)
        assert result.elapsed == pytest.approx(expected, rel=0.02)

    def test_workers_share_load_evenly(self, small_config, fast_timing):
        result = run_async_master_slave(
            small_problem(), 9, 800, fast_timing, config=small_config, seed=1
        )
        assert result.worker_evaluations.sum() == 800
        assert result.worker_evaluations.min() >= 800 // 8 - 10
        assert result.evaluations_per_worker == 100.0

    def test_archive_quality_comparable_to_serial(self, small_config):
        """Parallelisation changes dynamics (staleness), not correctness:
        the parallel archive must still approach the front."""
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        result = run_async_master_slave(
            small_problem(),
            8,
            4000,
            tm,
            config=BorgConfig(initial_population_size=50, epsilons=[0.01, 0.01]),
            seed=11,
        )
        F = result.borg.objectives
        radius_error = np.abs(np.linalg.norm(F, axis=1) - 1.0)
        assert radius_error.mean() < 0.1

    def test_same_seed_same_search_different_timing(self, small_config):
        """The algorithm stream is decoupled from the timing stream: a
        constant-time run and a noisy-time run at P=2 (no reordering is
        possible with one worker) visit identical solutions."""
        tm_const = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        tm_noisy = ranger_timing("DTLZ2", 16, 0.01)
        r1 = run_async_master_slave(
            small_problem(), 2, 300, tm_const, config=small_config, seed=5
        )
        r2 = run_async_master_slave(
            small_problem(), 2, 300, tm_noisy, config=small_config, seed=5
        )
        assert np.array_equal(r1.borg.objectives, r2.borg.objectives)
        assert r1.elapsed != r2.elapsed

    def test_deterministic_given_seed(self, small_config, dtlz2_timing):
        r1 = run_async_master_slave(
            small_problem(), 16, 600, dtlz2_timing, config=small_config, seed=3
        )
        r2 = run_async_master_slave(
            small_problem(), 16, 600, dtlz2_timing, config=small_config, seed=3
        )
        assert r1.elapsed == r2.elapsed
        assert np.array_equal(r1.borg.objectives, r2.borg.objectives)

    def test_history_times_are_monotone_virtual_times(self, small_config, fast_timing):
        result = run_async_master_slave(
            small_problem(), 8, 500, fast_timing, config=small_config,
            seed=1, snapshot_interval=100,
        )
        times = result.history.times()
        assert len(times) >= 5
        assert np.all(np.diff(times) >= 0)
        assert times[-1] == pytest.approx(result.elapsed)

    def test_observed_samples_match_distributions(self, small_config):
        tm = ranger_timing("DTLZ2", 16, 0.01)
        result = run_async_master_slave(
            small_problem(), 16, 2000, tm, config=small_config, seed=1
        )
        assert result.observed["tf"].mean == pytest.approx(0.01, rel=0.02)
        assert result.observed["tc"].mean == pytest.approx(6e-6, rel=1e-6)
        assert result.observed["ta"].mean == pytest.approx(23e-6, rel=0.15)

    def test_master_utilization_regimes(self, small_config):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        low = run_async_master_slave(
            small_problem(), 8, 500, tm, config=small_config, seed=1
        )
        high = run_async_master_slave(
            small_problem(), 512, 2000, tm, config=small_config, seed=1
        )
        assert low.master_utilization < 0.1
        assert high.master_utilization > 0.9
        assert high.master_max_queue > low.master_max_queue

    def test_efficiency_and_speedup_helpers(self, small_config):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        result = run_async_master_slave(
            small_problem(), 16, 1000, tm, config=small_config, seed=1
        )
        ts = serial_time(1000, 0.01, 29e-6)
        assert result.speedup(ts) == pytest.approx(
            result.efficiency(ts) * 16
        )
        assert 0.8 < result.efficiency(ts) <= 1.0

    def test_trace_collection(self, small_config, fast_timing):
        result = run_async_master_slave(
            small_problem(), 4, 30, fast_timing, config=small_config,
            seed=1, collect_trace=True,
        )
        trace = result.trace
        assert trace is not None
        assert "master" in trace.actors
        assert trace.total("master", "ta") > 0
        assert trace.total("worker 1", "tf") > 0

    def test_validation(self, small_config, fast_timing):
        with pytest.raises(ValueError):
            run_async_master_slave(
                small_problem(), 1, 100, fast_timing, config=small_config
            )
        with pytest.raises(ValueError):
            run_async_master_slave(
                small_problem(), 4, 0, fast_timing, config=small_config
            )

    def test_machine_validation(self, small_config, fast_timing):
        from repro.cluster import laptop

        with pytest.raises(ValueError):
            run_async_master_slave(
                small_problem(), 64, 100, fast_timing,
                config=small_config, machine=laptop(cores=8),
            )


class TestSyncVirtual:
    def test_completes_at_least_nfe(self, small_config, fast_timing):
        result = run_sync_master_slave(
            small_problem(), 8, 500, fast_timing, config=small_config, seed=1
        )
        assert result.nfe >= 500

    def test_slower_than_async_at_scale(self, small_config):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        kwargs = dict(config=small_config, seed=1)
        sync = run_sync_master_slave(small_problem(), 128, 2000, tm, **kwargs)
        async_ = run_async_master_slave(small_problem(), 128, 2000, tm, **kwargs)
        assert sync.elapsed > async_.elapsed

    def test_sync_trace_shows_generations(self, small_config, fast_timing):
        result = run_sync_master_slave(
            small_problem(), 4, 16, fast_timing, config=small_config,
            seed=1, collect_trace=True,
        )
        # The master evaluates one offspring per generation in Fig. 1.
        assert result.trace.total("master", "tf") > 0

    def test_deterministic_given_seed(self, small_config, dtlz2_timing):
        r1 = run_sync_master_slave(
            small_problem(), 8, 300, dtlz2_timing, config=small_config, seed=3
        )
        r2 = run_sync_master_slave(
            small_problem(), 8, 300, dtlz2_timing, config=small_config, seed=3
        )
        assert r1.elapsed == r2.elapsed

    def test_archive_progresses(self, small_config):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        result = run_sync_master_slave(
            small_problem(), 8, 2000, tm,
            config=BorgConfig(initial_population_size=50, epsilons=[0.01, 0.01]),
            seed=2,
        )
        assert len(result.borg.archive) > 10


class TestStalenessEffect:
    def test_inflight_candidates_bounded_by_workers(self, small_config, fast_timing):
        """The engine never has more than P-1 candidates outstanding."""
        problem = small_problem()
        result = run_async_master_slave(
            problem, 8, 300, fast_timing, config=small_config, seed=1
        )
        # issued = ingested + in flight at shutdown
        issued = result.borg.archive  # archive only; use engine counters
        # Instead verify via evaluations: the problem saw every issued
        # candidate at most once and within bounds.
        assert problem.evaluations <= 300 + 7
        assert problem.evaluations >= 300


class TestHeterogeneousWorkers:
    def test_async_load_balances_by_speed(self, small_config):
        """Async workers pull work at their own pace: evaluation counts
        are inversely proportional to their slowdown factors."""
        from repro.stats import constant_timing

        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        speeds = np.array([1.0, 1.0, 2.0, 4.0])
        result = run_async_master_slave(
            small_problem(), 5, 2000, tm,
            config=small_config, seed=1, worker_speeds=speeds,
        )
        counts = result.worker_evaluations
        assert counts.sum() == 2000
        # 1:1:2:4 slowdowns -> ~4:4:2:1 shares.
        assert counts[0] == pytest.approx(counts[1], rel=0.1)
        assert counts[0] == pytest.approx(2 * counts[2], rel=0.15)
        assert counts[0] == pytest.approx(4 * counts[3], rel=0.2)

    def test_heterogeneity_costs_async_little(self, small_config):
        """Same total capacity, heterogeneous split: the async runtime
        moves only mildly (no barrier to stall on the slow node)."""
        from repro.stats import constant_timing

        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        uniform = run_async_master_slave(
            small_problem(), 5, 2000, tm, config=small_config, seed=1,
        )
        # Two nodes 25% faster, two 25% slower: harmonic capacity ~0.94x.
        hetero = run_async_master_slave(
            small_problem(), 5, 2000, tm, config=small_config, seed=1,
            worker_speeds=np.array([0.75, 0.75, 1.25, 1.25]),
        )
        assert hetero.elapsed < uniform.elapsed * 1.1

    def test_speed_validation(self, small_config, fast_timing):
        with pytest.raises(ValueError):
            run_async_master_slave(
                small_problem(), 5, 100, fast_timing, config=small_config,
                worker_speeds=np.array([1.0, 1.0]),
            )
        with pytest.raises(ValueError):
            run_async_master_slave(
                small_problem(), 3, 100, fast_timing, config=small_config,
                worker_speeds=np.array([1.0, -1.0]),
            )


class TestKernelParity:
    """The virtual runners step the vectorized kernels' clock: on the
    shared timing stream (island 0 of ``island_seed_streams(seed, 1)``)
    they reproduce the kernels' timings, with the real engine inside."""

    #: One unsaturated and one saturated operating point (P_UB ~ 200).
    POINTS = [pytest.param(16, 600, id="P16"), pytest.param(512, 1500, id="P512")]

    @staticmethod
    def _assert_matches(run, sim):
        assert run.elapsed == sim.elapsed
        assert run.nfe == sim.nfe
        assert run.master_max_queue == sim.master_max_queue
        assert run.master_busy == pytest.approx(sim.master_busy, rel=1e-12)
        assert run.master_mean_wait == pytest.approx(
            sim.master_mean_wait, rel=1e-9, abs=1e-15
        )

    @pytest.mark.parametrize("processors, nfe", POINTS)
    def test_async_matches_kernel(self, small_config, processors, nfe):
        tm = ranger_timing("DTLZ2", processors, 0.01)
        run = run_async_master_slave(
            small_problem(), processors, nfe, tm, config=small_config, seed=3
        )
        sim = simulate_async_fast(
            processors, nfe, tm, seed=island_seed_streams(3, 1)[0][0]
        )
        self._assert_matches(run, sim)
        if processors == 512:
            assert run.master_utilization > 0.99

    @pytest.mark.parametrize("processors, nfe", POINTS)
    def test_sync_matches_kernel(self, small_config, processors, nfe):
        tm = ranger_timing("DTLZ2", processors, 0.01)
        run = run_sync_master_slave(
            small_problem(), processors, nfe, tm, config=small_config, seed=3
        )
        sim = simulate_sync_fast(
            processors, nfe, tm, seed=island_seed_streams(3, 1)[0][0]
        )
        self._assert_matches(run, sim)

    def test_async_is_the_one_island_runtime(self, small_config):
        tm = ranger_timing("DTLZ2", 16, 0.01)
        run = run_async_master_slave(
            small_problem(), 16, 500, tm, config=small_config, seed=7
        )
        islands = run_sharded_islands(
            small_problem, 1, 16, 500, tm, config=small_config, seed=7,
            migration_interval=math.inf,
        )
        assert run.elapsed == islands.elapsed
        np.testing.assert_array_equal(
            run.borg.objectives, islands.shards[0].result.objectives
        )
