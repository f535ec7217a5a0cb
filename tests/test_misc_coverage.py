"""Edge-case coverage for results containers, config parsing and reprs."""

import numpy as np
import pytest

from repro.core import BorgResult, EpsilonBoxArchive, RunHistory
from repro.experiments.config import SCALES, scale_from_args
from repro.parallel.results import ParallelRunResult


def make_result(elapsed=2.0, nfe=100, processors=5):
    archive = EpsilonBoxArchive(0.1)
    borg = BorgResult(archive=archive, history=RunHistory(), nfe=nfe, restarts=0)
    return ParallelRunResult(
        elapsed=elapsed,
        nfe=nfe,
        processors=processors,
        borg=borg,
        history=RunHistory(),
        worker_evaluations=np.full(processors - 1, nfe // (processors - 1)),
    )


class TestParallelRunResultHelpers:
    def test_workers_property(self):
        assert make_result(processors=5).workers == 4

    def test_evaluations_per_worker(self):
        assert make_result(nfe=100, processors=5).evaluations_per_worker == 25.0

    def test_efficiency_speedup_relationship(self):
        r = make_result(elapsed=2.0, processors=5)
        ts = 8.0
        assert r.speedup(ts) == pytest.approx(4.0)
        assert r.efficiency(ts) == pytest.approx(0.8)

    def test_degenerate_elapsed(self):
        r = make_result(elapsed=0.0)
        assert np.isnan(r.efficiency(1.0))
        assert np.isnan(r.speedup(1.0))
        assert r.master_utilization == 0.0

    def test_repr_mentions_processors(self):
        assert "P=5" in repr(make_result())


class TestScaleFromArgs:
    def test_default_scale(self):
        scale, args = scale_from_args([])
        assert scale.name == "ci"
        assert args.problem == "all"

    def test_scale_selection(self):
        scale, _ = scale_from_args(["--scale", "smoke"])
        assert scale.name == "smoke"

    def test_problem_restriction(self):
        scale, _ = scale_from_args(["--problem", "UF11"])
        assert scale.problems == ("UF11",)

    def test_seed_and_csv_flags(self):
        _, args = scale_from_args(["--seed", "7", "--csv", "out.csv"])
        assert args.seed == 7
        assert args.csv == "out.csv"

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            scale_from_args(["--scale", "galactic"])


class TestRunHistoryEdges:
    def test_final_objectives_empty_history(self):
        assert RunHistory().final_objectives.size == 0

    def test_maybe_record_respects_interval(self):
        h = RunHistory(snapshot_interval=10)
        assert h.maybe_record(5, 0.0, np.zeros((1, 2)), 0) is None
        assert h.maybe_record(10, 0.0, np.zeros((1, 2)), 0) is not None
        assert h.maybe_record(15, 0.0, np.zeros((1, 2)), 0, force=True) is not None
        assert len(h.snapshots) == 2

    def test_snapshot_copies_objectives(self):
        h = RunHistory(snapshot_interval=1)
        objs = np.ones((2, 2))
        snap = h.maybe_record(1, 0.0, objs, 0)
        objs[0, 0] = 99.0
        assert snap.objectives[0, 0] == 1.0


class TestReprSmoke:
    """Reprs must never raise (they appear in logs and debuggers)."""

    def test_various_reprs(self, dtlz2_2d, fast_timing):
        from repro.cluster import ConstantLatency, Timeline, ranger
        from repro.core import Population, Solution
        from reference.simkit import Environment, Resource
        from repro.stats import Gamma

        objects = [
            EpsilonBoxArchive(0.1),
            Population(),
            Solution(np.zeros(2)),
            Environment(),
            Resource(Environment()),
            ranger(),
            ConstantLatency(6e-6),
            Gamma.from_mean_cv(1.0, 0.5),
            fast_timing,
            dtlz2_2d,
        ]
        for obj in objects:
            assert isinstance(repr(obj) or str(obj), str)


class TestCLIExtendedProblems:
    def test_solve_uf13(self, capsys):
        from repro.cli import main

        assert main(["solve", "--problem", "uf13", "--nfe", "300",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "UF13" in out

    def test_solve_wfg4_reports_hypervolume(self, capsys):
        from repro.cli import main

        assert main(["solve", "--problem", "wfg4", "--nfe", "300",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Normalised hypervolume" in out
