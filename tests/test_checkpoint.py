"""Checkpoint/resume tests: serialized engine state restores exactly.

The contract (docs/RESILIENCE.md §4): resuming a checkpointed run and
letting it finish produces *bit-identical* algorithm state to the run
that was never interrupted -- archive, operator probabilities, restart
count and RNG stream all survive the round trip.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle

import numpy as np
import pytest

from repro.core import (
    CHECKPOINT_VERSION,
    BorgMOEA,
    CheckpointError,
    load_checkpoint,
    restore_engine,
    save_checkpoint,
)
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT,
    ISLANDS_CHECKPOINT_FORMAT,
    ISLANDS_CHECKPOINT_VERSION,
    load_islands_checkpoint,
    save_islands_checkpoint,
)
from repro.parallel import SupervisorConfig, optimize, run_process_master_slave
from repro.problems import DTLZ2


def _sorted_objectives(archive):
    return np.sort(np.array([s.objectives for s in archive]), axis=0)


def _assert_same_archive(a, b):
    A, B = _sorted_objectives(a), _sorted_objectives(b)
    assert A.shape == B.shape
    np.testing.assert_array_equal(A, B)


class TestSerialCheckpoint:
    def test_resume_is_bit_identical(self, dtlz2_2d, small_config, tmp_path):
        ck = str(tmp_path / "ck.pkl")
        full = BorgMOEA(DTLZ2(nobjs=2, nvars=11), config=small_config,
                        seed=7).run(600)
        BorgMOEA(dtlz2_2d, config=small_config, seed=7).run(
            300, checkpoint=ck
        )
        resumed = BorgMOEA.from_checkpoint(
            DTLZ2(nobjs=2, nvars=11), ck
        ).run(600)
        assert resumed.nfe == full.nfe == 600
        assert resumed.restarts == full.restarts
        _assert_same_archive(full.archive, resumed.archive)
        assert resumed.operator_probabilities == full.operator_probabilities

    def test_periodic_checkpoints_written(self, dtlz2_2d, small_config,
                                          tmp_path):
        ck = tmp_path / "ck.pkl"
        BorgMOEA(dtlz2_2d, config=small_config, seed=1).run(
            400, checkpoint=str(ck), checkpoint_interval=100
        )
        assert ck.exists()
        data = load_checkpoint(str(ck))
        assert data["version"] == CHECKPOINT_VERSION
        assert data["state"]["nfe"] == 400
        assert data["meta"]["backend"] == "serial"

    def test_optimize_facade_roundtrip(self, small_config, tmp_path):
        ck = str(tmp_path / "ck.pkl")
        full = optimize(DTLZ2(nobjs=2, nvars=11), 500, backend="serial",
                        seed=11, config=small_config)
        optimize(DTLZ2(nobjs=2, nvars=11), 250, backend="serial", seed=11,
                 config=small_config, checkpoint=ck)
        resumed = optimize(DTLZ2(nobjs=2, nvars=11), 500, backend="serial",
                           resume=ck)
        _assert_same_archive(full.archive, resumed.archive)

    def test_restored_engine_matches_saved_state(self, dtlz2_2d,
                                                 small_config, tmp_path):
        ck = str(tmp_path / "ck.pkl")
        moea = BorgMOEA(dtlz2_2d, config=small_config, seed=3)
        moea.run(300, checkpoint=ck)
        engine = restore_engine(DTLZ2(nobjs=2, nvars=11), ck)
        assert engine.nfe == moea.engine.nfe
        assert engine.restarts == moea.engine.restarts
        assert len(engine.archive) == len(moea.engine.archive)
        assert (engine.rng.bit_generator.state
                == moea.engine.rng.bit_generator.state)
        np.testing.assert_array_equal(
            engine.selector.probabilities, moea.engine.selector.probabilities
        )


class TestParallelCheckpoint:
    def test_kill_and_resume_single_worker(self, small_config, tmp_path):
        """A 1-worker process run is sequential, so resume replays the
        uninterrupted run exactly -- the parallel analogue of the serial
        bit-identity test (simulating a mid-run kill + restart)."""
        ck = str(tmp_path / "ck.pkl")
        full = run_process_master_slave(
            DTLZ2(nobjs=2, nvars=11), 2, 300, config=small_config, seed=11
        )
        run_process_master_slave(
            DTLZ2(nobjs=2, nvars=11), 2, 150, config=small_config, seed=11,
            checkpoint=ck, checkpoint_interval=150,
        )
        resumed = run_process_master_slave(
            DTLZ2(nobjs=2, nvars=11), 2, 300, config=small_config, resume=ck
        )
        assert resumed.nfe == full.nfe == 300
        _assert_same_archive(full.borg.archive, resumed.borg.archive)
        assert (resumed.borg.operator_probabilities
                == full.borg.operator_probabilities)

    def test_multiworker_resume_completes_exactly(self, small_config,
                                                  tmp_path):
        """With real concurrency the interleaving differs, but resume
        must still complete to the exact budget with a valid archive."""
        ck = str(tmp_path / "ck.pkl")
        run_process_master_slave(
            DTLZ2(nobjs=2, nvars=11), 4, 200, config=small_config, seed=5,
            checkpoint=ck, checkpoint_interval=50,
            supervisor=SupervisorConfig(poll_interval=0.02),
        )
        data = load_checkpoint(ck)
        assert data["state"]["nfe"] == 200
        resumed = run_process_master_slave(
            DTLZ2(nobjs=2, nvars=11), 4, 350, config=small_config, resume=ck,
            supervisor=SupervisorConfig(poll_interval=0.02),
        )
        assert resumed.nfe == 350
        objs = np.array([s.objectives for s in resumed.borg.archive])
        assert np.isfinite(objs).all()

    def test_checkpoint_counter_reported(self, small_config, tmp_path):
        ck = str(tmp_path / "ck.pkl")
        res = run_process_master_slave(
            DTLZ2(nobjs=2, nvars=11), 3, 200, config=small_config, seed=2,
            checkpoint=ck, checkpoint_interval=50,
        )
        assert res.checkpoints_written >= 2


#: (loader, format tag, supported version) for each checkpoint kind.
LOADERS = {
    "borg": (load_checkpoint, CHECKPOINT_FORMAT, CHECKPOINT_VERSION),
    "islands": (
        load_islands_checkpoint,
        ISLANDS_CHECKPOINT_FORMAT,
        ISLANDS_CHECKPOINT_VERSION,
    ),
}


class TestCheckpointFormat:
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_rejects_wrong_format(self, tmp_path, kind):
        load, _, version = LOADERS[kind]
        path = tmp_path / "bad.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"format": "something-else", "version": version}, fh)
        with pytest.raises(CheckpointError):
            load(str(path))

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_rejects_wrong_version(self, tmp_path, kind):
        load, fmt, version = LOADERS[kind]
        path = tmp_path / "future.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"format": fmt, "version": version + 1, "state": {}}, fh)
        with pytest.raises(CheckpointError):
            load(str(path))

    def test_each_loader_rejects_the_other_format(
        self, dtlz2_2d, small_config, tmp_path
    ):
        borg_ck = tmp_path / "borg.pkl"
        islands_ck = tmp_path / "islands.pkl"
        moea = BorgMOEA(dtlz2_2d, config=small_config, seed=1)
        moea.run(50)
        save_checkpoint(moea.engine, borg_ck)
        save_islands_checkpoint({"islands": []}, islands_ck)
        assert load_checkpoint(borg_ck)["format"] == CHECKPOINT_FORMAT
        assert load_islands_checkpoint(islands_ck)["state"] == {"islands": []}
        with pytest.raises(CheckpointError, match="islands checkpoint"):
            load_islands_checkpoint(borg_ck)
        with pytest.raises(CheckpointError, match="Borg checkpoint"):
            load_checkpoint(islands_ck)

    def test_rejects_operator_mismatch(self, dtlz2_2d, small_config,
                                       tmp_path):
        from repro.core.operators import default_operators

        ck = str(tmp_path / "ck.pkl")
        BorgMOEA(dtlz2_2d, config=small_config, seed=1).run(
            150, checkpoint=ck
        )
        problem = DTLZ2(nobjs=2, nvars=11)
        subset = default_operators(problem.lower, problem.upper)[:2]
        with pytest.raises(CheckpointError):
            restore_engine(problem, ck, operators=subset)

    def test_atomic_write_leaves_no_temp_files(self, dtlz2_2d, small_config,
                                               tmp_path):
        ck = str(tmp_path / "ck.pkl")
        moea = BorgMOEA(dtlz2_2d, config=small_config, seed=1)
        moea.run(150, checkpoint=ck)
        save_checkpoint(moea.engine, ck)  # overwrite in place
        leftovers = [p for p in tmp_path.iterdir() if p.name != "ck.pkl"]
        assert leftovers == []

    def test_atomic_write_is_durable(self, tmp_path, monkeypatch):
        """The temp file must be fsynced *before* the rename (else a
        power cut can promote an empty file over the good checkpoint)
        and the directory fsynced *after* (else the rename itself may
        not survive)."""
        import os
        import stat

        from repro.core.checkpoint import _atomic_pickle

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            kind = (
                "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            )
            events.append(("fsync", kind))
            real_fsync(fd)

        def spy_replace(src, dst):
            events.append(("replace", None))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        _atomic_pickle({"payload": 1}, tmp_path / "durable.pkl")
        assert events == [
            ("fsync", "file"),   # data on disk before it can be promoted
            ("replace", None),
            ("fsync", "dir"),    # the promotion itself on disk
        ]
        with open(tmp_path / "durable.pkl", "rb") as fh:
            assert pickle.load(fh) == {"payload": 1}


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _archive_digest(solutions) -> str:
    """SHA-256 over each member's float64 variables then objectives (the
    digest ``tests/data/make_legacy_checkpoint.py`` records)."""
    h = hashlib.sha256()
    for s in solutions:
        h.update(np.asarray(s.variables, dtype=np.float64).tobytes())
        h.update(np.asarray(s.objectives, dtype=np.float64).tobytes())
    return h.hexdigest()


class TestLegacyCheckpoint:
    """A committed checkpoint written by an older tree keeps restoring.

    Its pickled config still has the retired
    ``frequency_bias_correction`` attribute (set) and its state an
    ``arrival_counts`` map; both are ignored on restore."""

    @pytest.fixture
    def legacy(self, tmp_path):
        path = tmp_path / "legacy_borg.ckpt"
        with open(os.path.join(DATA, "legacy_borg.ckpt"), "rb") as src:
            path.write_bytes(src.read())
        with open(os.path.join(DATA, "legacy_borg.json")) as fh:
            return str(path), json.load(fh)

    def test_fixture_is_legacy(self, legacy):
        path, _ = legacy
        state = load_checkpoint(path)["state"]
        assert state["config"].__dict__["frequency_bias_correction"] is True
        assert sum(state["arrival_counts"].values()) > 0

    def test_restores_recorded_nfe_and_archive(self, legacy):
        path, expected = legacy
        moea = BorgMOEA.from_checkpoint(DTLZ2(nobjs=2, nvars=11), path)
        assert moea.engine.nfe == expected["nfe"]
        assert len(moea.engine.archive) == expected["archive_size"]
        assert (_archive_digest(moea.engine.archive.solutions)
                == expected["archive_sha256"])

    def test_runs_on_deterministically(self, legacy):
        path, expected = legacy
        runs = [
            BorgMOEA.from_checkpoint(DTLZ2(nobjs=2, nvars=11), path).run(
                expected["nfe"] + 300
            )
            for _ in range(2)
        ]
        assert runs[0].nfe == runs[1].nfe == expected["nfe"] + 300
        assert len(runs[0].archive) > 0
        assert (_archive_digest(runs[0].archive.solutions)
                == _archive_digest(runs[1].archive.solutions))
