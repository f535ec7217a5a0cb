"""Multi-master islands model: kernel parity, seeds, bounds, prediction.

The contract (docs/PERFORMANCE.md, "Beyond P_UB"): on a shared seed the
multi-master fastsim kernel and the simkit reference produce identical
timing -- global and per-island makespans, checkpoint trajectories and
migration service counts exactly; master busy time to float tolerance
(the simkit :class:`Resource` accumulates busy as ``now - busy_since``
deltas, so the two paths differ by at most a few ulp).
"""

import math

import numpy as np
import pytest

from repro.models.analytical import (
    multi_master_upper_bound,
    processor_upper_bound,
)
from repro.models.fastsim import (
    MIGRATION_TOPOLOGIES,
    default_migration_interval,
    island_seed_streams,
    migration_degrees,
    migration_links,
    simulate_islands_fast,
)
from repro.models.simmodel import predict_islands_time, simulate_islands
from repro.stats.timing import ranger_timing

from reference.simmodel import simulate_islands_reference

#: Abs tolerance for master busy (ulp-level accumulation difference).
BUSY_ABS = 1e-12


@pytest.fixture
def timing():
    """Calibrated Ranger timing at a paper-regime operating point."""
    return ranger_timing("UF11", 256, 0.1)


def _assert_islands_parity(ref, fast):
    assert fast.elapsed == ref.elapsed
    assert fast.nfe == ref.nfe
    assert fast.islands == ref.islands
    assert fast.island_ids == ref.island_ids
    assert not fast.estimated and not ref.estimated
    assert fast.migration_services == ref.migration_services
    for f, r in zip(fast.per_island, ref.per_island):
        assert f.elapsed == r.elapsed
        assert f.nfe == r.nfe
        assert f.checkpoints == r.checkpoints
        assert f.master_busy == pytest.approx(r.master_busy, abs=BUSY_ABS)


class TestKernelParity:
    """Kernel vs simkit reference: bit-identical on shared seeds."""

    @pytest.mark.parametrize(
        "islands, topology, interval",
        [
            pytest.param(m, t, None, id=f"{m}-{t}")
            for m in (2, 4, 8)
            for t in MIGRATION_TOPOLOGIES
        ]
        # No migration: independent instances merged at the end.
        + [pytest.param(4, "ring", math.inf, id="4-ring-inf")],
    )
    def test_matches_reference(self, timing, topology, islands, interval):
        fast = simulate_islands_fast(
            islands, 8, 150, timing, migration_interval=interval,
            topology=topology, seed=9,
        )
        ref = simulate_islands_reference(
            islands, 8, 150, timing, migration_interval=interval,
            topology=topology, seed=9,
        )
        _assert_islands_parity(ref, fast)
        if interval == math.inf:
            assert fast.migration_services == (0,) * islands

    def test_single_island_matches_reference(self, timing):
        fast = simulate_islands_fast(1, 8, 200, timing, seed=3)
        ref = simulate_islands_reference(1, 8, 200, timing, seed=3)
        _assert_islands_parity(ref, fast)
        assert fast.migration_services == (0,)

    def test_explicit_interval_and_migrants(self, timing):
        fast = simulate_islands_fast(
            4, 6, 120, timing, migration_interval=0.5,
            topology="full", migrants=3, seed=5,
        )
        ref = simulate_islands_reference(
            4, 6, 120, timing, migration_interval=0.5,
            topology="full", migrants=3, seed=5,
        )
        _assert_islands_parity(ref, fast)

    def test_deterministic(self, timing):
        a = simulate_islands_fast(4, 8, 150, timing, seed=7)
        b = simulate_islands_fast(4, 8, 150, timing, seed=7)
        assert a.elapsed == b.elapsed
        assert a.migration_services == b.migration_services

    def test_interleaving_invariance(self, timing):
        """Island 0's trajectory is a pure function of (seed, 0): with
        identical degrees and epoch length it does not depend on how
        many other islands share the clock."""
        interval = 0.25
        small = simulate_islands_fast(
            2, 8, 150, timing, migration_interval=interval, seed=13
        )
        large = simulate_islands_fast(
            8, 8, 150, timing, migration_interval=interval, seed=13
        )
        assert small.per_island[0].elapsed == large.per_island[0].elapsed
        assert small.per_island[0].checkpoints == large.per_island[0].checkpoints

    def test_validation(self, timing):
        with pytest.raises(ValueError):
            simulate_islands_fast(0, 8, 100, timing)
        with pytest.raises(ValueError):
            simulate_islands_fast(2, 1, 100, timing)
        with pytest.raises(ValueError):
            simulate_islands_fast(2, 8, 0, timing)
        with pytest.raises(ValueError):
            simulate_islands_fast(2, 8, 100, timing, migrants=0)
        with pytest.raises(ValueError):
            simulate_islands_fast(2, 8, 100, timing, migration_interval=0.0)
        with pytest.raises(ValueError):
            simulate_islands_fast(
                2, 8, 100, timing, migration_interval=math.nan
            )
        with pytest.raises(ValueError):
            simulate_islands_reference(
                2, 8, 100, timing, migration_interval=math.nan
            )
        with pytest.raises(ValueError):
            simulate_islands_fast(2, 8, 100, timing, topology="torus")
        with pytest.raises(ValueError):
            simulate_islands_fast(3, 8, 100, [timing, timing])


class TestDispatch:
    """simulate_islands runs the kernel, which reproduces the simkit
    reference."""

    def test_dispatch_parity(self, timing):
        fast = simulate_islands(4, 8, 150, timing, seed=21)
        ref = simulate_islands_reference(4, 8, 150, timing, seed=21)
        assert not fast.estimated and not ref.estimated
        _assert_islands_parity(ref, fast)

    def test_reference_path_ignores_cap(self, timing):
        # The reference has no island cap: it always simulates every
        # island, where the kernel may estimate capped-off ones.
        capped = simulate_islands(
            4, 8, 120, timing, seed=2, max_sim_islands=2
        )
        ref = simulate_islands_reference(4, 8, 120, timing, seed=2)
        assert len(ref.per_island) == 4
        assert not ref.estimated
        assert capped.estimated


class TestTopologyWiring:
    def test_ring_links(self):
        assert migration_links("ring", 3) == ((0, 1), (1, 2), (2, 0))

    def test_full_links(self):
        links = migration_links("full", 3)
        assert len(links) == 6
        assert (0, 0) not in links

    def test_hier_links(self):
        links = set(migration_links("hier", 4))
        assert links == {(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)}

    def test_single_island_no_links(self):
        for topo in MIGRATION_TOPOLOGIES:
            assert migration_links(topo, 1) == ()

    def test_degrees_match_links(self):
        for topo in MIGRATION_TOPOLOGIES:
            for m in (1, 2, 5):
                links = migration_links(topo, m)
                in_deg, out_deg = migration_degrees(topo, m)
                for i in range(m):
                    assert in_deg[i] == sum(1 for _, d in links if d == i)
                    assert out_deg[i] == sum(1 for s, _ in links if s == i)

    def test_hub_is_binding_island(self):
        in_deg, out_deg = migration_degrees("hier", 8)
        assert in_deg[0] == 7 and out_deg[0] == 7
        assert all(in_deg[i] == 1 for i in range(1, 8))


class TestSeedStreams:
    def test_spawn_layout(self):
        """Per-island children come from SeedSequence(seed).spawn(M),
        each split into (timing, migration, engine) streams."""
        streams = island_seed_streams(42, 3)
        assert len(streams) == 3
        children = np.random.SeedSequence(42).spawn(3)
        for triple, child in zip(streams, children):
            assert len(triple) == 3
            expected = child.spawn(3)
            for got, want in zip(triple, expected):
                assert got.entropy == want.entropy
                assert got.spawn_key == want.spawn_key

    def test_prefix_stability(self):
        """Island i's streams do not depend on the island count."""
        a = island_seed_streams(7, 2)
        b = island_seed_streams(7, 8)
        for x, y in zip(a[0], b[0]):
            assert x.spawn_key == y.spawn_key

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(99)
        streams = island_seed_streams(ss, 2)
        assert len(streams) == 2


class TestEstimation:
    """The group-sampled extreme-value path (max_sim_islands < M)."""

    def test_full_simulation_not_estimated(self, timing):
        out = simulate_islands_fast(4, 8, 120, timing, seed=1)
        assert not out.estimated
        assert out.elapsed == max(o.elapsed for o in out.per_island)

    def test_capped_ring_is_estimated(self, timing):
        out = simulate_islands_fast(
            16, 8, 120, timing, seed=1, max_sim_islands=4
        )
        assert out.estimated
        assert len(out.per_island) == 4
        # EV max estimate over 16 iid islands >= plain max of the 4
        # simulated ones.
        assert out.elapsed >= max(o.elapsed for o in out.per_island)

    def test_every_group_gets_a_representative(self, timing):
        # hier has two exchangeability classes (hub, leaf); even a cap
        # of 1 must simulate one of each.
        out = simulate_islands_fast(
            8, 8, 120, timing, topology="hier", seed=1, max_sim_islands=1
        )
        groups = set(out.group_of)
        assert len(groups) == 2

    def test_cap_at_or_above_m_is_exact(self, timing):
        capped = simulate_islands_fast(
            4, 8, 120, timing, seed=6, max_sim_islands=4
        )
        full = simulate_islands_fast(4, 8, 120, timing, seed=6)
        assert capped.elapsed == full.elapsed
        assert not capped.estimated


class TestMultiMasterBound:
    TC = 6.3e-6
    TA = 2.9e-5

    def test_reduces_to_eq3_for_one_island(self):
        assert multi_master_upper_bound(
            0.1, self.TC, self.TA, 1
        ) == processor_upper_bound(0.1, self.TC, self.TA)

    def test_no_migration_scales_linearly(self):
        single = processor_upper_bound(0.01, self.TC, self.TA)
        assert multi_master_upper_bound(
            0.01, self.TC, self.TA, 8, migration_interval=math.inf
        ) == pytest.approx(8 * single)

    def test_migration_erodes_bound(self):
        free = multi_master_upper_bound(
            0.01, self.TC, self.TA, 8, migration_interval=math.inf
        )
        loaded = multi_master_upper_bound(
            0.01, self.TC, self.TA, 8,
            migration_interval=1e-3, in_degree=1, out_degree=1,
        )
        assert 0 < loaded < free

    def test_saturating_overhead_zeroes_bound(self):
        # Epoch shorter than the exchange service itself: the master
        # spends its whole capacity on migration.
        assert multi_master_upper_bound(
            0.01, self.TC, self.TA, 4,
            migration_interval=1e-9, in_degree=2, out_degree=2,
        ) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            multi_master_upper_bound(0.1, self.TC, self.TA, 0)
        with pytest.raises(ValueError):
            multi_master_upper_bound(
                0.1, self.TC, self.TA, 2,
                migration_interval=-1.0, in_degree=1, out_degree=1,
            )
        for degree in (0, 1):
            with pytest.raises(ValueError):
                multi_master_upper_bound(
                    0.1, self.TC, self.TA, 2, migration_interval=math.nan,
                    in_degree=degree, out_degree=degree,
                )


class TestPrediction:
    def test_extrapolates_to_full_budget(self, timing):
        short = predict_islands_time(4, 8, 2_000, timing, seed=1, sim_nfe=500)
        long = predict_islands_time(4, 8, 20_000, timing, seed=1, sim_nfe=500)
        assert 0 < short < long

    def test_capped_prediction_close_to_full(self, timing):
        full = predict_islands_time(16, 8, 5_000, timing, seed=4, sim_nfe=500)
        capped = predict_islands_time(
            16, 8, 5_000, timing, seed=4, sim_nfe=500, max_sim_islands=4
        )
        assert capped == pytest.approx(full, rel=0.15)

    def test_default_interval_matches_heuristic(self, timing):
        ppi, nfe = 16, 4_000
        horizon = (
            nfe / (ppi - 1)
            * (timing.mean_tf + 2 * timing.mean_tc + timing.mean_ta)
        )
        assert default_migration_interval(ppi, nfe, timing) == pytest.approx(
            horizon / 8.0
        )
