"""Tests for the real-parallelism backends (threads, processes, facade)."""

import sys

import numpy as np
import pytest

from repro.core import BorgConfig, BorgResult
from repro.parallel import (
    BACKENDS,
    ParallelRunResult,
    optimize,
    run_process_master_slave,
    run_threaded_master_slave,
)
from repro.problems import DTLZ2, TimedProblem
from repro.stats import Constant


def small_problem():
    return DTLZ2(nobjs=2, nvars=11)


class TestThreadsBackend:
    def test_async_completes(self, small_config):
        result = run_threaded_master_slave(
            small_problem(), 5, 400, config=small_config, seed=1
        )
        assert result.nfe == 400
        assert result.worker_evaluations.sum() >= 400
        assert len(result.borg.archive) > 0

    def test_all_workers_participate(self, small_config):
        result = run_threaded_master_slave(
            small_problem(), 5, 400, config=small_config, seed=1
        )
        assert np.all(result.worker_evaluations > 0)

    def test_quality_comparable_to_serial(self):
        config = BorgConfig(initial_population_size=50, epsilons=[0.01, 0.01])
        result = run_threaded_master_slave(
            small_problem(), 5, 3000, config=config, seed=7
        )
        F = result.borg.objectives
        radius_error = np.abs(np.linalg.norm(F, axis=1) - 1.0)
        assert radius_error.mean() < 0.1

    def test_real_delay_overlaps(self, small_config):
        """With 4 workers and a 10 ms sleep per evaluation, 40 sleeps
        must take well under the serial 0.4 s."""
        timed = TimedProblem(
            small_problem(), delay=Constant(0.010), real_delay=True
        )
        result = run_threaded_master_slave(
            timed, 5, 40, config=small_config, seed=1
        )
        assert result.nfe == 40
        assert result.elapsed < 0.35

    def test_validation(self, small_config):
        with pytest.raises(ValueError):
            run_threaded_master_slave(small_problem(), 1, 10, config=small_config)
        with pytest.raises(ValueError):
            run_threaded_master_slave(small_problem(), 4, 0, config=small_config)

    def test_observed_tf_recorded(self, small_config):
        result = run_threaded_master_slave(
            small_problem(), 3, 100, config=small_config, seed=1
        )
        assert result.observed["tf"].count >= 100

    def test_batched_dispatch_completes(self, small_config):
        result = run_threaded_master_slave(
            small_problem(), 3, 130, config=small_config, seed=1,
            batch_size=8,
        )
        assert result.nfe == 130
        assert result.worker_evaluations.sum() == 130
        assert len(result.borg.archive) > 0

    def test_batch_size_validation(self, small_config):
        with pytest.raises(ValueError):
            run_threaded_master_slave(
                small_problem(), 3, 10, config=small_config, batch_size=0
            )


@pytest.mark.skipif(sys.platform == "win32", reason="fork start method")
class TestProcessBackend:
    def test_async_completes(self, small_config):
        result = run_process_master_slave(
            small_problem(), 3, 150, config=small_config, seed=1
        )
        assert result.nfe == 150
        assert len(result.borg.archive) > 0
        assert result.worker_evaluations.sum() >= 150

    def test_batched_dispatch_completes(self, small_config):
        result = run_process_master_slave(
            small_problem(), 3, 130, config=small_config, seed=1, batch_size=8
        )
        assert result.nfe == 130
        assert result.worker_evaluations.sum() == 130

    def test_validation(self, small_config):
        with pytest.raises(ValueError):
            run_process_master_slave(small_problem(), 1, 10, config=small_config)
        with pytest.raises(ValueError):
            run_process_master_slave(
                small_problem(), 3, 10, config=small_config, batch_size=0
            )


class TestOptimizeFacade:
    def test_serial_returns_borg_result(self, small_config):
        result = optimize(
            small_problem(), 200, backend="serial", config=small_config, seed=1
        )
        assert isinstance(result, BorgResult)
        assert result.nfe == 200

    def test_virtual_async_returns_parallel_result(self, small_config, fast_timing):
        result = optimize(
            small_problem(), 200, backend="virtual-async", processors=8,
            timing=fast_timing, config=small_config, seed=1,
        )
        assert isinstance(result, ParallelRunResult)
        assert result.processors == 8

    def test_virtual_sync(self, small_config, fast_timing):
        result = optimize(
            small_problem(), 200, backend="virtual-sync", processors=8,
            timing=fast_timing, config=small_config, seed=1,
        )
        assert result.nfe >= 200

    def test_virtual_default_timing(self, small_config):
        result = optimize(
            small_problem(), 100, backend="virtual-async", processors=4,
            config=small_config, seed=1,
        )
        assert result.elapsed > 0

    def test_threads_backend(self, small_config):
        result = optimize(
            small_problem(), 150, backend="threads", processors=3,
            config=small_config, seed=1,
        )
        assert result.nfe == 150

    def test_unknown_backend_rejected(self, small_config):
        with pytest.raises(ValueError, match="unknown backend"):
            optimize(small_problem(), 100, backend="quantum")

    def test_backends_constant_is_complete(self):
        # Every real backend runs the one asynchronous master loop; the
        # synchronous model runs on the virtual clock only.
        assert BACKENDS == (
            "serial", "virtual-async", "virtual-sync", "threads", "processes",
        )
