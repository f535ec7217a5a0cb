"""Tests for diagnostics, the dynamics experiment, batching, and the CLI."""

import numpy as np
import pytest

from repro.core import BorgConfig, BorgEngine, BorgMOEA
from repro.core.diagnostics import DiagnosticCollector
from repro.problems import DTLZ2


def run_with_collector(nfe=600, interval=50, seed=3):
    problem = DTLZ2(nobjs=2, nvars=11)
    config = BorgConfig(
        initial_population_size=32,
        restart_check_interval=50,
        adaptation_interval=50,
        epsilons=[0.01, 0.01],
        min_population_size=8,
    )
    engine = BorgEngine(problem, config, rng=np.random.default_rng(seed))
    collector = DiagnosticCollector(interval=interval).attach(engine)
    for _ in range(nfe):
        c = engine.next_candidate()
        problem.evaluate(c)
        engine.ingest(c)
    return engine, collector


class TestDiagnosticCollector:
    def test_trajectories_recorded(self):
        _, collector = run_with_collector()
        assert len(collector.probability_trajectory) >= 10
        assert len(collector.archive_trajectory) == len(
            collector.probability_trajectory
        )
        nfes = [nfe for nfe, _ in collector.probability_trajectory]
        assert nfes == sorted(nfes)

    def test_improvements_counted(self):
        _, collector = run_with_collector()
        assert collector.improvements > 0

    def test_restart_records_complete(self):
        engine, collector = run_with_collector(nfe=1500)
        assert engine.restarts == len(collector.restarts)
        for record in collector.restarts:
            assert record.reason in ("stagnation", "ratio")
            assert record.new_population_size >= record.archive_size

    def test_dominant_operator_valid(self):
        _, collector = run_with_collector()
        assert collector.dominant_operator() in {
            "sbx", "de", "pcx", "spx", "undx", "um",
        }

    def test_probability_series_shape(self):
        _, collector = run_with_collector()
        series = collector.probability_series("sbx")
        assert series.shape == (len(collector.probability_trajectory),)
        assert np.all(series >= 0.0) and np.all(series <= 1.0)

    def test_restart_rate_units(self):
        engine, collector = run_with_collector(nfe=1000)
        assert collector.restart_rate() == pytest.approx(
            1000.0 * len(collector.restarts) / engine.nfe
        )

    def test_report_contains_sections(self):
        _, collector = run_with_collector()
        report = collector.report()
        assert "improvements" in report
        assert "operator probabilities" in report

    def test_existing_hooks_preserved(self):
        problem = DTLZ2(nobjs=2, nvars=11)
        engine = BorgEngine(
            problem, BorgConfig(initial_population_size=16),
            rng=np.random.default_rng(0),
        )
        calls = {"ingest": 0}
        engine.on_ingest = lambda s: calls.__setitem__(
            "ingest", calls["ingest"] + 1
        )
        DiagnosticCollector(interval=10).attach(engine)
        for _ in range(20):
            c = engine.next_candidate()
            problem.evaluate(c)
            engine.ingest(c)
        assert calls["ingest"] == 20

    def test_invalid_interval(self):
        engine = BorgEngine(
            DTLZ2(nobjs=2, nvars=11), BorgConfig(initial_population_size=16),
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError):
            DiagnosticCollector(interval=0).attach(engine)


class TestEngineInjection:
    def test_runner_uses_supplied_engine(self, fast_timing):
        from repro.parallel import run_async_master_slave

        problem = DTLZ2(nobjs=2, nvars=11)
        engine = BorgEngine(
            problem, BorgConfig(initial_population_size=16),
            rng=np.random.default_rng(1),
        )
        result = run_async_master_slave(
            problem, 4, 200, fast_timing, engine=engine
        )
        assert result.borg.archive is engine.archive
        assert engine.nfe == 200


class TestBatchDispatch:
    def test_batching_completes_exact_nfe(self, fast_timing, small_config):
        from repro.parallel import run_async_master_slave

        result = run_async_master_slave(
            DTLZ2(nobjs=2, nvars=11), 8, 500, fast_timing,
            config=small_config, seed=1, batch_size=4,
        )
        assert result.nfe == 500

    def test_batching_amortises_communication(self, small_config):
        """With TC comparable to TF, batching must shorten the run."""
        from repro.parallel import run_async_master_slave
        from repro.stats import constant_timing

        tm = constant_timing(tf=0.005, tc=5e-4, ta=1e-5)
        times = {}
        for b in (1, 8):
            result = run_async_master_slave(
                DTLZ2(nobjs=2, nvars=11), 8, 1000, tm,
                config=small_config, seed=1, batch_size=b,
            )
            times[b] = result.elapsed
        assert times[8] < times[1]

    def test_batched_eq2_generalisation(self):
        from repro.models import async_parallel_time

        t1 = async_parallel_time(1000, 9, 0.01, 1e-4, 1e-5, batch=1)
        t8 = async_parallel_time(1000, 9, 0.01, 1e-4, 1e-5, batch=8)
        assert t8 < t1
        # batch -> inf limit: TF + TA only.
        tinf = async_parallel_time(1000, 9, 0.01, 1e-4, 1e-5, batch=10**9)
        assert tinf == pytest.approx(1000 / 8 * (0.01 + 1e-5), rel=1e-6)

    def test_batched_upper_bound(self):
        from repro.models import processor_upper_bound

        p1 = processor_upper_bound(0.01, 1e-4, 1e-6, batch=1)
        p8 = processor_upper_bound(0.01, 1e-4, 1e-6, batch=8)
        assert p8 > p1  # latency-dominated: batching raises the bound

    def test_invalid_batch(self, fast_timing, small_config):
        from repro.parallel import run_async_master_slave
        from repro.models import async_parallel_time

        with pytest.raises(ValueError):
            run_async_master_slave(
                DTLZ2(nobjs=2, nvars=11), 4, 10, fast_timing,
                config=small_config, batch_size=0,
            )
        with pytest.raises(ValueError):
            async_parallel_time(100, 4, 0.01, 0.0, 0.0, batch=0)


class TestDynamicsExperiment:
    def test_rows_and_shape(self):
        from repro.experiments import dynamics
        from repro.experiments.config import ExperimentScale

        scale = ExperimentScale(
            name="tiny", nfe=600, replicates=1, processors=(4, 32),
            tf_values=(0.01,), problems=("DTLZ2",),
            snapshot_interval=100, hv_samples=2_000,
        )
        rows = dynamics.generate(scale, "DTLZ2", seed=1, verbose=False)
        assert len(rows) == 2
        for row in rows:
            assert row.improvements > 0
            assert 0.0 <= row.final_hv <= 1.0
            assert row.dominant_operator != "-"


class TestCLI:
    def test_solve_serial(self, capsys):
        from repro.cli import main

        assert main(["solve", "--problem", "zdt1", "--nfe", "300",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Archive:" in out
        assert "Operator probabilities" in out

    def test_solve_virtual(self, capsys):
        from repro.cli import main

        assert main([
            "solve", "--problem", "dtlz2", "--nfe", "300",
            "--backend", "virtual-async", "--processors", "8",
            "--tf", "0.01", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "virtual s" in out
        assert "Normalised hypervolume" in out

    def test_solve_backend_choices_are_the_backends(self):
        import argparse

        from repro.cli import build_parser
        from repro.parallel import BACKENDS

        parser = build_parser()
        commands = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        backend = next(
            a for a in commands.choices["solve"]._actions
            if a.dest == "backend"
        )
        assert tuple(backend.choices) == BACKENDS

    def test_bounds_command(self, capsys):
        from repro.cli import main

        assert main(["bounds", "--tf", "0.01", "--ta", "29e-6"]) == 0
        out = capsys.readouterr().out
        assert "243.9" in out

    def test_fit_command(self, tmp_path, capsys):
        from repro.cli import main

        rng = np.random.default_rng(0)
        path = tmp_path / "timings.txt"
        np.savetxt(path, rng.gamma(9.0, 1e-3, 500))
        assert main(["fit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Best fit by log-likelihood" in out

    def test_experiment_dispatch(self, capsys):
        from repro.cli import main

        assert main(["experiment", "bounds"]) == 0
        out = capsys.readouterr().out
        assert "Eq" in out or "bounds" in out.lower()

    def test_unknown_command_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])
