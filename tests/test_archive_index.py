"""Parity and unit tests for the indexed archive hot path.

The box-grid index behind ``EpsilonBoxArchive.add`` must be
*decision-identical* to the full-scan oracle (``tests/reference``):
same accept/reject, same epsilon-progress, same eviction sets in the
same order, same final membership -- bit for bit, including across
constraint-violation tier flushes, index drops (what a checkpoint
restore does), and checkpoint/resume.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference import FullScanArchive, use_reference_paths
from repro.core import (
    BorgConfig,
    BorgMOEA,
    EpsilonBoxArchive,
    IncrementalFront,
    Solution,
)
from repro.core.dominance import nondominated_mask
from repro.problems import DTLZ2


def sol(objs, cons=None, operator="sbx"):
    return Solution(
        np.zeros(2),
        objectives=np.asarray(objs, float),
        constraints=cons,
        operator=operator,
    )


def paired_add(ref, idx, objs, cons=None, operator="sbx"):
    """Offer the same point to the full-scan and indexed archives and
    assert the two decisions match exactly."""
    r_ref = ref.add(sol(objs, cons, operator))
    r_idx = idx.add(sol(objs, cons, operator))
    assert r_ref.accepted == r_idx.accepted
    assert r_ref.improvement == r_idx.improvement
    assert len(r_ref.removed) == len(r_idx.removed)
    for a, b in zip(r_ref.removed, r_idx.removed):
        assert np.array_equal(a.objectives, b.objectives)
    return r_ref, r_idx


def assert_archives_identical(ref, idx):
    assert len(ref) == len(idx)
    assert ref.improvements == idx.improvements
    assert ref._best_violation == idx._best_violation
    assert np.array_equal(np.asarray(ref.objectives), np.asarray(idx.objectives))
    assert np.array_equal(ref._boxes, idx._boxes)
    assert +ref.operator_counts == +idx.operator_counts


class TestIndexedArchiveParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("eps", [0.03, 0.15])
    def test_random_stream_parity(self, seed, eps):
        rng = np.random.default_rng(seed)
        ref, idx = FullScanArchive(eps), EpsilonBoxArchive(eps)
        ops = ["sbx", "de", "pcx"]
        for _ in range(1500):
            m = 3
            if rng.random() < 0.4:
                # Front-surface samples force same-box contests and
                # evictions rather than easy dominated rejections.
                v = np.abs(rng.normal(size=m))
                objs = v / np.linalg.norm(v)
            else:
                objs = rng.random(m)
            cons = np.array([rng.random()]) if rng.random() < 0.05 else None
            paired_add(ref, idx, objs, cons, ops[int(rng.integers(3))])
            assert_archives_identical(ref, idx)

    def test_tier_flush_parity(self):
        ref, idx = FullScanArchive(0.1), EpsilonBoxArchive(0.1)
        paired_add(ref, idx, [0.5, 0.5], cons=np.array([3.0]))
        paired_add(ref, idx, [0.2, 0.8], cons=np.array([3.0]))
        # Better violation tier flushes the whole archive.
        r, _ = paired_add(ref, idx, [0.9, 0.9], cons=np.array([1.0]))
        assert r.accepted and len(r.removed) == 2
        # Feasible flushes the infeasible tier.
        paired_add(ref, idx, [0.7, 0.7])
        # Worse tier rejected outright.
        r, _ = paired_add(ref, idx, [0.0, 0.0], cons=np.array([9.0]))
        assert not r.accepted
        assert_archives_identical(ref, idx)

    def test_duplicate_and_boundary_points_parity(self):
        ref, idx = FullScanArchive(0.25), EpsilonBoxArchive(0.25)
        pts = [
            [0.5, 0.5],
            [0.5, 0.5],          # exact duplicate: same-box, equal corner distance
            [0.0, 1.0],          # box boundary exactly on a multiple of eps
            [-0.0, 1.0],         # negative zero must hash to the same box
            [0.25, 0.75],
            [1e-9, 0.999999],
            [0.2500000001, 0.75],
        ]
        for p in pts:
            paired_add(ref, idx, p)
            assert_archives_identical(ref, idx)

    def test_membership_order_parity_after_evictions(self):
        # Eviction compaction and same-box replacement both reorder the
        # solutions list; the orders must match exactly.
        rng = np.random.default_rng(123)
        ref, idx = FullScanArchive(0.02), EpsilonBoxArchive(0.02)
        for _ in range(800):
            scale = rng.choice([1.0, 0.8, 0.6])   # improving waves evict
            v = np.abs(rng.normal(size=3))
            paired_add(ref, idx, scale * v / np.linalg.norm(v))
        for a, b in zip(ref.solutions, idx.solutions):
            assert np.array_equal(a.objectives, b.objectives)

    def test_index_drops_keep_single_archive_consistent(self):
        # One archive whose index is dropped every few adds (what a
        # checkpoint restore leaves behind) must track the full-scan
        # oracle exactly: the index is rebuilt from the members on the
        # next add, never trusted stale.
        rng = np.random.default_rng(7)
        mixed, pure = EpsilonBoxArchive(0.05), FullScanArchive(0.05)
        for i in range(600):
            objs = rng.random(3)
            if i % 7 == 0:
                mixed._index = None
            r1 = mixed.add(sol(objs))
            r2 = pure.add(sol(objs))
            assert r1.accepted == r2.accepted
            assert r1.improvement == r2.improvement
        assert_archives_identical(pure, mixed)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        F=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 60), st.integers(2, 4)),
            elements=st.floats(0.0, 4.0, allow_nan=False),
        ),
        eps=st.floats(0.05, 1.5),
    )
    def test_property_parity(self, F, eps):
        ref, idx = FullScanArchive(eps), EpsilonBoxArchive(eps)
        for row in F:
            paired_add(ref, idx, row)
        assert_archives_identical(ref, idx)

    def test_index_is_built_and_dropped_with_toggle(self, monkeypatch):
        archive = EpsilonBoxArchive(0.1)
        archive.add(sol([0.1, 0.9]))
        archive.add(sol([0.9, 0.1]))
        assert archive._index is not None
        assert len(archive._index.front) == 2
        with monkeypatch.context() as patch:
            use_reference_paths(patch)
            archive.add(sol([0.5, 0.5]))
        assert archive._index is None  # full-scan adds invalidate it
        archive.add(sol([0.4, 0.4]))
        assert len(archive._index.front) == len(archive)


class TestCheckpointResumeParity:
    def test_resume_matches_in_both_modes(self, tmp_path):
        problem = DTLZ2(nvars=7, nobjs=2)
        config = BorgConfig(initial_population_size=24, snapshot_interval=50)
        path = tmp_path / "run.ckpt"
        BorgMOEA(problem, config, seed=11).run(max_nfe=400, checkpoint=path)

        finals = {}
        for mode in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if not mode:
                    use_reference_paths(patch)
                resumed = BorgMOEA.from_checkpoint(
                    DTLZ2(nvars=7, nobjs=2), path, config=config
                )
                result = resumed.run(max_nfe=800)
            finals[mode] = (
                np.asarray(result.objectives).copy(),
                result.archive.improvements,
                result.nfe,
            )
        F_fast, imp_fast, nfe_fast = finals[True]
        F_ref, imp_ref, nfe_ref = finals[False]
        assert nfe_fast == nfe_ref
        assert imp_fast == imp_ref
        assert np.array_equal(F_fast, F_ref)

    def test_scalar_epsilon_survives_checkpoint_roundtrip(self, tmp_path):
        # Scalar epsilon broadcasts on first use; a checkpoint written
        # after that must restore to an archive that accepts the same
        # dimensionality and rejects others (idempotent broadcasting).
        problem = DTLZ2(nvars=7, nobjs=3)
        config = BorgConfig(epsilons=0.05, initial_population_size=16)
        path = tmp_path / "scalar.ckpt"
        BorgMOEA(problem, config, seed=3).run(max_nfe=100, checkpoint=path)
        resumed = BorgMOEA.from_checkpoint(DTLZ2(nvars=7, nobjs=3), path)
        archive = resumed.engine.archive
        assert archive.epsilons.shape == (3,)
        archive.add(sol([0.3, 0.3, 0.3]))
        with pytest.raises(ValueError):
            archive.add(sol([0.3, 0.3]))


class TestIncrementalFront:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_nondominated_mask(self, seed):
        rng = np.random.default_rng(seed)
        F = np.round(rng.random((400, 3)), 2)  # rounding forces duplicates
        front = IncrementalFront.from_matrix(F)
        # Offering the rows in order must leave exactly the nondominated
        # subset of the *final* survivors; cross-check by re-filtering.
        got = front.values
        assert np.all(nondominated_mask(got))
        # Every input row is either in the front or dominated by it.
        for row in F:
            assert front.dominated(row) or any(
                np.array_equal(row, g) for g in got
            )

    def test_duplicates_coexist(self):
        front = IncrementalFront(2)
        assert front.offer(np.array([1.0, 2.0]))
        assert front.offer(np.array([1.0, 2.0]))
        assert len(front) == 2

    def test_dominated_offer_rejected(self):
        front = IncrementalFront(2)
        front.offer(np.array([1.0, 1.0]))
        assert not front.offer(np.array([2.0, 1.0]))
        assert not front.offer(np.array([1.0, 1.5]))
        assert front.offer(np.array([0.5, 2.0]))
        assert len(front) == 2

    def test_victims_evicted(self):
        front = IncrementalFront(2)
        front.offer(np.array([3.0, 1.0]))
        front.offer(np.array([1.0, 3.0]))
        front.offer(np.array([2.0, 2.0]))
        assert front.offer(np.array([0.5, 0.5]))
        assert len(front) == 1
        assert np.array_equal(front.values, [[0.5, 0.5]])

    def test_extreme_values(self):
        # Huge magnitudes where float sums saturate: pruning must stay
        # conservative (strictness is re-checked explicitly).
        front = IncrementalFront(2)
        big = np.finfo(float).max / 2
        front.offer(np.array([big, -big]))
        front.offer(np.array([-big, big]))
        assert not front.offer(np.array([big, big]))
        assert front.offer(np.array([-big, -big]))
        assert len(front) == 1

    def test_compaction_preserves_front_and_remaps(self):
        rng = np.random.default_rng(5)
        front = IncrementalFront(3)
        # Waves of improving shells create heavy eviction churn, forcing
        # several compactions.
        for scale in [1.0, 0.5, 0.25, 0.125, 0.0625]:
            for _ in range(300):
                v = np.abs(rng.normal(size=3))
                front.offer(scale * v / np.linalg.norm(v))
        got = front.values
        assert len(front) == got.shape[0]
        assert np.all(nondominated_mask(got))
        assert front._n_slots - len(front) <= max(64, len(front))

    def test_remove_and_remap_slots(self):
        front = IncrementalFront(2)
        slots = [front.insert(np.array([float(i), float(-i)])) for i in range(10)]
        front.remove(np.array(slots[:5]))
        assert len(front) == 5
        kept = front.values
        assert kept.shape == (5, 2)
        remap = front.compact_if_needed()
        if remap is not None:
            assert np.array_equal(front.values, kept)

    def test_shape_validation(self):
        front = IncrementalFront(3)
        with pytest.raises(ValueError):
            front.offer(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            IncrementalFront(0)
