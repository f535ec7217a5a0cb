"""Tests for topology planning, and for running a plan as independent
instances (``migration_interval=math.inf``) or as a ring island model
on the sharded runtime."""

import math

import numpy as np
import pytest

from repro.core import BorgConfig, EpsilonBoxArchive
from repro.parallel import (
    TopologyPlan,
    default_partition_candidates,
    run_sharded_islands,
    suggest_partition,
)
from repro.problems import DTLZ2
from repro.stats import constant_timing


def factory():
    return DTLZ2(nobjs=2, nvars=11)


@pytest.fixture
def config():
    return BorgConfig(
        initial_population_size=24,
        epsilons=[0.02, 0.02],
        min_population_size=8,
    )


class TestDefaultPartitionCandidates:
    def test_scales_with_allocation(self):
        # The grid must follow the available P instead of stopping at a
        # hard-coded ceiling.
        assert default_partition_candidates(1024)[-1] == 1024
        assert default_partition_candidates(4096)[-1] == 4096
        assert default_partition_candidates(5000)[-1] == 4096

    def test_powers_of_two_from_four(self):
        assert default_partition_candidates(64) == (4, 8, 16, 32, 64)

    def test_tiny_allocation_falls_back_to_everything(self):
        assert default_partition_candidates(3) == (3,)
        assert default_partition_candidates(2) == (2,)

    def test_too_few_processors_rejected(self):
        with pytest.raises(ValueError):
            default_partition_candidates(1)

    def test_suggest_partition_uses_derived_grid(self):
        # With no explicit candidates a 2048-processor allocation must
        # be able to pick a 2048-wide instance when TF is huge.
        tm = constant_timing(tf=30.0, tc=6e-6, ta=29e-6)
        plan = suggest_partition(2048, tm, nfe=2000)
        assert plan.processors_per_instance > 1024


class TestSuggestPartition:
    def test_small_tf_prefers_small_instances(self):
        # TF = 1 ms saturates a master quickly: the planner must not
        # pick instances anywhere near 1024 processors.
        tm = constant_timing(tf=0.001, tc=6e-6, ta=29e-6)
        plan = suggest_partition(1024, tm, nfe=3000)
        assert plan.processors_per_instance <= 64
        assert plan.instances >= 16

    def test_large_tf_prefers_large_instances(self):
        tm = constant_timing(tf=1.0, tc=6e-6, ta=29e-6)
        plan = suggest_partition(1024, tm, nfe=2000)
        assert plan.processors_per_instance >= 256

    def test_plan_accounting(self):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        plan = suggest_partition(100, tm, nfe=2000, candidates=(16, 32, 64))
        assert (
            plan.instances * plan.processors_per_instance + plan.leftover
            == 100
        )

    def test_no_fitting_candidate_raises(self):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        with pytest.raises(ValueError):
            suggest_partition(8, tm, candidates=(16, 32))

    def test_too_few_processors_rejected(self):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        with pytest.raises(ValueError):
            suggest_partition(1, tm)

    def test_str_smoke(self):
        plan = TopologyPlan(64, 4, 16, 0.93, 0)
        assert "4 instance(s)" in str(plan)


def run_plan(plan, nfe, timing, config, seed=0):
    """Run a plan's instances independently: no migration epochs."""
    return run_sharded_islands(
        factory, plan.instances, plan.processors_per_instance, nfe, timing,
        config=config, seed=seed, migration_interval=math.inf,
    )


class TestMultiMaster:
    def test_merged_archive_combines_instances(self, config):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        plan = TopologyPlan(32, 2, 16, 0.9, 0)
        result = run_plan(plan, 600, tm, config, seed=1)
        assert len(result.shards) == 2
        assert result.total_nfe == 1200
        assert result.epochs == 0 and result.migrations == 0
        assert len(result.merged_archive) > 0
        assert result.merged_objectives.shape[1] == 2

    def test_elapsed_is_slowest_instance(self, config):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        plan = TopologyPlan(32, 2, 16, 0.9, 0)
        result = run_plan(plan, 400, tm, config, seed=2)
        assert result.elapsed == pytest.approx(
            max(s.elapsed for s in result.shards)
        )

    def test_merged_archive_nondominated(self, config):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        plan = TopologyPlan(48, 3, 16, 0.9, 0)
        result = run_plan(plan, 500, tm, config, seed=3)
        F = result.merged_objectives
        boxes = np.floor(F / 0.02)
        for i in range(len(F)):
            for j in range(len(F)):
                if i != j:
                    assert not (
                        np.all(boxes[i] <= boxes[j])
                        and np.any(boxes[i] < boxes[j])
                    )

    def test_bulk_merge_matches_sequential_offer_loop(self, config):
        # The merge uses EpsilonBoxArchive.add_all; the result must be
        # identical to the old per-solution offer loop.
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        plan = TopologyPlan(48, 3, 16, 0.9, 0)
        result = run_plan(plan, 500, tm, config, seed=9)
        sequential = EpsilonBoxArchive(result.merged_archive.epsilons)
        for shard in result.shards:
            for solution in shard.result.archive:
                sequential.add(solution)
        F_bulk = np.asarray(result.merged_objectives, dtype=float)
        F_seq = np.asarray(sequential.objectives, dtype=float)
        np.testing.assert_array_equal(
            F_bulk[np.lexsort(F_bulk.T[::-1])],
            F_seq[np.lexsort(F_seq.T[::-1])],
        )

    def test_empty_plan_rejected(self, config):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        plan = TopologyPlan(8, 0, 16, 0.9, 8)
        with pytest.raises(ValueError):
            run_plan(plan, 100, tm, config)


class TestIslandModel:
    def test_runs_all_islands_to_budget(self, config):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        result = run_sharded_islands(
            factory, islands=2, processors_per_island=4,
            max_nfe_per_island=300, timing=tm, config=config, seed=4,
            topology="ring",
        )
        assert [s.nfe for s in result.shards] == [300, 300]
        assert result.total_nfe == 600
        assert result.elapsed > 0

    def test_migrations_happen(self, config):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        result = run_sharded_islands(
            factory, islands=3, processors_per_island=4,
            max_nfe_per_island=400, timing=tm, config=config, seed=5,
            topology="ring",
        )
        assert result.migrations > 0
        assert len(result.merged_archive) > 0

    def test_single_island_no_migration(self, config):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        result = run_sharded_islands(
            factory, islands=1, processors_per_island=4,
            max_nfe_per_island=200, timing=tm, config=config, seed=6,
            topology="ring",
        )
        assert result.migrations == 0

    def test_reproducible_per_island_streams(self, config):
        # Per-island SeedSequence children make the run a pure function
        # of (seed, island count).
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        kwargs = dict(
            islands=3, processors_per_island=4, max_nfe_per_island=300,
            timing=tm, config=config, seed=8, topology="ring",
        )
        a = run_sharded_islands(factory, **kwargs)
        b = run_sharded_islands(factory, **kwargs)
        assert a.elapsed == b.elapsed
        assert a.migrations == b.migrations
        Fa = np.asarray(a.merged_objectives, dtype=float)
        Fb = np.asarray(b.merged_objectives, dtype=float)
        np.testing.assert_array_equal(Fa, Fb)

    def test_validation(self, config):
        tm = constant_timing(tf=0.01, tc=6e-6, ta=29e-6)
        with pytest.raises(ValueError):
            run_sharded_islands(factory, islands=0, processors_per_island=4,
                                max_nfe_per_island=10, timing=tm,
                                config=config)
        with pytest.raises(ValueError):
            run_sharded_islands(factory, islands=2, processors_per_island=1,
                                max_nfe_per_island=10, timing=tm,
                                config=config)
