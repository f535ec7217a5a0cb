"""Sharded multi-master island runtime: merge equivalence, timing
parity with the fastsim kernel, and bit-identical checkpoint/resume.

The merge contract: the global front produced by M shards plus
migration must be *set-equal* (order-independent) to a single reference
archive fed the union of all shard archives -- fuzz-tested across
M in {2, 4, 8} crossed with all three topologies.
"""

import math

import numpy as np
import pytest

from repro.core import BorgConfig, CheckpointError, EpsilonBoxArchive
from repro.models.fastsim import simulate_islands_fast
from repro.parallel import NoLiveWorkersError, run_sharded_islands
from repro.problems import DTLZ2
from repro.stats import ranger_timing

#: Abs tolerance for master busy (ulp-level accumulation difference).
BUSY_ABS = 1e-12


def factory():
    return DTLZ2(nobjs=2, nvars=11)


@pytest.fixture
def config():
    return BorgConfig(
        initial_population_size=24,
        epsilons=[0.02, 0.02],
        min_population_size=8,
    )


@pytest.fixture
def timing():
    return ranger_timing("UF11", 256, 0.1)


def _sorted_objectives(archive) -> np.ndarray:
    F = np.asarray(archive.objectives, dtype=float)
    if len(F) == 0:
        return F
    return F[np.lexsort(F.T[::-1])]


class TestMergeEquivalence:
    @pytest.mark.parametrize("topology", ["ring", "full", "hier"])
    @pytest.mark.parametrize("islands", [2, 4, 8])
    def test_merged_front_matches_union_stream(
        self, config, timing, topology, islands
    ):
        result = run_sharded_islands(
            factory,
            islands,
            4,
            200,
            timing,
            config=config,
            seed=17 + islands,
            topology=topology,
        )
        reference = EpsilonBoxArchive(result.merged_archive.epsilons)
        for shard in result.shards:
            for solution in shard.result.archive:
                reference.add(solution)
        np.testing.assert_array_equal(
            _sorted_objectives(result.merged_archive),
            _sorted_objectives(reference),
        )

    def test_front_history_tracks_epochs(self, config, timing):
        result = run_sharded_islands(
            factory, 3, 4, 250, timing, config=config, seed=2
        )
        assert len(result.front_history) == result.epochs
        assert result.migrations > 0
        sizes = [size for _, size in result.front_history]
        assert all(s >= 0 for s in sizes)


class TestKernelTimingParity:
    """The runtime's clockwork replays the fastsim kernel exactly."""

    @pytest.mark.parametrize(
        "topology, interval",
        [
            pytest.param("ring", None, id="ring"),
            pytest.param("full", None, id="full"),
            pytest.param("hier", None, id="hier"),
            # No migration: independent instances merged at the end.
            pytest.param("ring", math.inf, id="ring-inf"),
        ],
    )
    def test_timing_matches_kernel(self, config, timing, topology, interval):
        islands, ppi, nfe = 3, 4, 200
        run = run_sharded_islands(
            factory,
            islands,
            ppi,
            nfe,
            timing,
            config=config,
            seed=31,
            migration_interval=interval,
            topology=topology,
        )
        sim = simulate_islands_fast(
            islands, ppi, nfe, timing, migration_interval=interval,
            topology=topology, seed=31,
        )
        if interval == math.inf:
            assert run.epochs == 0 and run.migrations == 0
            assert sim.migration_services == (0,) * islands
        assert run.elapsed == sim.elapsed
        assert run.total_nfe == sim.nfe
        for shard, island in zip(run.shards, sim.per_island):
            assert shard.elapsed == island.elapsed
            assert shard.nfe == island.nfe
            assert shard.checkpoints == island.checkpoints
            assert shard.master_busy == pytest.approx(
                island.master_busy, abs=BUSY_ABS
            )
        assert tuple(
            s.migration_services for s in run.shards
        ) == sim.migration_services


class TestCheckpointResume:
    def test_bit_identical_resume_mid_epoch(self, config, timing, tmp_path):
        path = tmp_path / "islands.ckpt"
        kwargs = dict(
            islands=3,
            processors_per_island=4,
            max_nfe_per_island=300,
            timing=timing,
            config=config,
            seed=5,
            topology="ring",
        )
        full = run_sharded_islands(factory, **kwargs)

        partial = run_sharded_islands(
            factory, checkpoint=path, stop_after_epochs=3, **kwargs
        )
        assert not partial.completed
        assert path.exists()

        resumed = run_sharded_islands(factory, resume=path, **kwargs)
        assert resumed.completed
        assert resumed.elapsed == full.elapsed
        assert resumed.total_nfe == full.total_nfe
        assert resumed.migrations == full.migrations
        for a, b in zip(resumed.shards, full.shards):
            assert a.elapsed == b.elapsed
            assert a.nfe == b.nfe
            assert a.checkpoints == b.checkpoints
            assert a.master_busy == pytest.approx(b.master_busy, abs=BUSY_ABS)
            np.testing.assert_array_equal(
                _sorted_objectives(a.result.archive),
                _sorted_objectives(b.result.archive),
            )
        np.testing.assert_array_equal(
            _sorted_objectives(resumed.merged_archive),
            _sorted_objectives(full.merged_archive),
        )

    def test_geometry_mismatch_refused(self, config, timing, tmp_path):
        path = tmp_path / "islands.ckpt"
        run_sharded_islands(
            factory, 2, 4, 200, timing, config=config, seed=1,
            checkpoint=path, stop_after_epochs=1,
        )
        with pytest.raises(CheckpointError):
            run_sharded_islands(
                factory, 3, 4, 200, timing, config=config, seed=1,
                resume=path,
            )


class TestEdgesAndValidation:
    def test_single_island_no_migration(self, config, timing):
        result = run_sharded_islands(
            factory, 1, 4, 200, timing, config=config, seed=3
        )
        assert result.completed
        assert result.migrations == 0
        assert result.epochs == 0
        assert result.total_nfe == 200
        assert len(result.merged_archive) > 0

    def test_totals_and_properties(self, config, timing):
        result = run_sharded_islands(
            factory, 2, 4, 150, timing, config=config, seed=4
        )
        assert result.processors == 8
        assert result.total_nfe == 300
        assert result.merged_objectives.shape[1] == 2

    def test_validation(self, config, timing, tmp_path):
        with pytest.raises(ValueError):
            run_sharded_islands(factory, 0, 4, 100, timing, config=config)
        with pytest.raises(ValueError):
            run_sharded_islands(factory, 2, 1, 100, timing, config=config)
        with pytest.raises(ValueError):
            run_sharded_islands(factory, 2, 4, 0, timing, config=config)
        with pytest.raises(ValueError):
            run_sharded_islands(
                factory, 2, 4, 100, timing, config=config, migrants=0
            )
        with pytest.raises(ValueError):
            run_sharded_islands(
                factory, 2, 4, 100, timing, config=config, topology="star"
            )
        with pytest.raises(ValueError):
            run_sharded_islands(
                factory, 2, 4, 100, timing, config=config,
                migration_interval=-1.0,
            )
        with pytest.raises(ValueError):
            # A NaN epoch never arrives; the stop keeps a missing check
            # from looping forever.
            run_sharded_islands(
                factory, 2, 4, 100, timing, config=config,
                migration_interval=math.nan, stop_after_epochs=1,
            )
        with pytest.raises(ValueError):
            run_sharded_islands(
                factory, 3, 4, 100, [timing, timing], config=config
            )
        # Checkpoints and early stops act at migration epochs; a run
        # without any (no migration, or a single island) refuses them
        # instead of reporting a completed run with no file written.
        path = tmp_path / "islands.ckpt"
        with pytest.raises(ValueError):
            run_sharded_islands(
                factory, 3, 4, 300, timing, config=config,
                migration_interval=math.inf, checkpoint=path,
                stop_after_epochs=1,
            )
        with pytest.raises(ValueError):
            run_sharded_islands(
                factory, 1, 4, 300, timing, config=config, checkpoint=path
            )
        with pytest.raises(ValueError):
            run_sharded_islands(
                factory, 1, 4, 300, timing, config=config, stop_after_epochs=1
            )
        assert not path.exists()


class DyingPoolProblem(DTLZ2):
    """Raises NoLiveWorkersError once its evaluation budget is spent --
    the signature of an island whose whole worker pool died."""

    def __init__(self, die_after: int):
        super().__init__(nobjs=2, nvars=11)
        self.die_after = die_after

    def evaluate(self, solution):
        if self.evaluations >= self.die_after:
            raise NoLiveWorkersError("island worker pool extinct")
        return super().evaluate(solution)


class TestGracefulDegradation:
    """An island whose worker pool dies is retired, not fatal: the
    survivors finish their budgets and the dead island's partial
    archive shard stays in the global merge."""

    def _factory_with_casualty(self, casualty: int, die_after: int):
        calls = [0]

        def make():
            index = calls[0]
            calls[0] += 1
            if index == casualty:
                return DyingPoolProblem(die_after)
            return DTLZ2(nobjs=2, nvars=11)

        return make

    @pytest.mark.parametrize("topology", ["ring", "full"])
    def test_dead_island_is_retired_shard_kept(self, config, timing,
                                               topology):
        result = run_sharded_islands(
            self._factory_with_casualty(casualty=1, die_after=40),
            islands=3, processors_per_island=4, max_nfe_per_island=200,
            timing=timing, config=config, seed=11, topology=topology,
        )
        assert result.faults.islands_retired == 1
        dead = result.shards[1]
        assert dead.nfe == 40                     # partial progress kept
        assert len(dead.result.archive) > 0       # shard survives ...
        survivors = [result.shards[0], result.shards[2]]
        assert all(s.nfe == 200 for s in survivors)
        # ... and is present in the global merge: every dead-shard point
        # is dominated-or-member of the merged front.
        merged = _sorted_objectives(result.merged_archive)
        assert len(merged) > 0
        assert result.total_nfe == 200 + 40 + 200

    def test_all_islands_dead_still_returns(self, config, timing):
        calls = [0]

        def make():
            calls[0] += 1
            return DyingPoolProblem(30)

        result = run_sharded_islands(
            make, islands=2, processors_per_island=4,
            max_nfe_per_island=100, timing=timing, config=config, seed=5,
        )
        assert result.faults.islands_retired == 2
        assert result.total_nfe == 60
        assert all(s.nfe == 30 for s in result.shards)

    def test_healthy_run_reports_zero_retirements(self, config, timing):
        result = run_sharded_islands(
            factory, 2, 4, 150, timing, config=config, seed=4
        )
        assert result.faults.islands_retired == 0
        assert result.faults.as_dict()["islands_retired"] == 0
