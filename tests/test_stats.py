"""Tests for the statistics substrate (distributions, timing, summaries)."""

import math

import numpy as np
import pytest

from repro.stats import (
    RANGER_TC_SECONDS,
    TABLE2_TA_MEANS,
    Constant,
    Exponential,
    Gamma,
    LogNormal,
    Normal,
    TruncatedNormal,
    Uniform,
    Weibull,
    confidence_interval,
    constant_timing,
    fit_best,
    ranger_timing,
    relative_error,
    summarize,
    ta_mean_for,
)
from repro.stats.timing import TimingSampler


class TestDistributionMoments:
    """Sampled moments must match analytic mean/variance."""

    CASES = [
        (Constant(0.5), 0.5, 0.0),
        (Uniform(1.0, 3.0), 2.0, 4.0 / 12.0),
        (Normal(5.0, 2.0), 5.0, 4.0),
        (LogNormal.from_mean_cv(0.01, 0.5), 0.01, (0.01 * 0.5) ** 2),
        (Gamma.from_mean_cv(2.0, 0.3), 2.0, (2.0 * 0.3) ** 2),
        (Exponential(0.25), 0.25, 0.0625),
        (Weibull(2.0, 1.0), math.sqrt(math.pi) / 2.0, 1.0 - math.pi / 4.0),
    ]

    @pytest.mark.parametrize("dist,mean,var", CASES,
                             ids=[c[0].name for c in CASES])
    def test_analytic_moments(self, dist, mean, var):
        assert dist.mean == pytest.approx(mean, rel=1e-9)
        assert dist.variance == pytest.approx(var, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("dist,mean,var", CASES,
                             ids=[c[0].name for c in CASES])
    def test_sampled_moments(self, dist, mean, var):
        rng = np.random.default_rng(0)
        x = np.asarray(dist.sample(rng, size=60_000), dtype=float)
        assert x.mean() == pytest.approx(mean, rel=0.03, abs=1e-6)
        if var > 0:
            assert x.var() == pytest.approx(var, rel=0.08)

    def test_scalar_sample(self):
        rng = np.random.default_rng(0)
        value = Gamma.from_mean_cv(1.0, 0.1).sample(rng)
        assert np.isscalar(value) or np.ndim(value) == 0


class TestTruncatedNormal:
    def test_mild_truncation_preserves_mean_cv(self):
        d = TruncatedNormal.from_mean_cv(0.01, 0.1)
        assert d.mean == pytest.approx(0.01, rel=1e-6)
        assert d.cv == pytest.approx(0.1, rel=1e-3)

    def test_samples_nonnegative_even_when_heavily_truncated(self):
        d = TruncatedNormal(0.001, 0.01)  # mean well within a sigma of 0
        rng = np.random.default_rng(1)
        x = d.sample(rng, size=5000)
        assert np.all(x >= 0.0)

    def test_invalid_mean_rejected(self):
        with pytest.raises(ValueError):
            TruncatedNormal.from_mean_cv(0.0, 0.1)


class TestValidation:
    def test_uniform_requires_order(self):
        with pytest.raises(ValueError):
            Uniform(2.0, 1.0)

    def test_positive_params_required(self):
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)
        with pytest.raises(ValueError):
            Gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Weibull(1.0, 0.0)
        with pytest.raises(ValueError):
            LogNormal(0.0, 0.0)


class TestFitting:
    def test_lognormal_recovered(self):
        rng = np.random.default_rng(2)
        true = LogNormal.from_mean_cv(3e-5, 0.4)
        data = true.sample(rng, size=4000)
        results = fit_best(data)
        assert results[0].name == "lognormal"
        assert results[0].distribution.mean == pytest.approx(3e-5, rel=0.05)

    def test_normal_data_fits_normal_family_best(self):
        rng = np.random.default_rng(3)
        data = rng.normal(10.0, 0.5, size=4000)
        results = fit_best(data)
        # Normal-shaped data: gamma/weibull with large shape mimic a
        # normal, so just require the normal fit to be near the top and
        # its parameters right.
        names = [r.name for r in results[:3]]
        assert "normal" in names
        best_normal = next(r for r in results if r.name == "normal")
        assert best_normal.distribution.mean == pytest.approx(10.0, rel=0.01)

    def test_exponential_recovered(self):
        rng = np.random.default_rng(4)
        data = rng.exponential(2.0, size=5000)
        results = fit_best(data)
        assert results[0].name in ("exponential", "gamma", "weibull")
        assert results[0].distribution.mean == pytest.approx(2.0, rel=0.1)

    def test_results_sorted_by_loglik(self):
        rng = np.random.default_rng(5)
        data = rng.gamma(4.0, 0.5, size=1000)
        results = fit_best(data)
        logliks = [r.loglik for r in results]
        assert logliks == sorted(logliks, reverse=True)

    def test_aic_penalises_parameters(self):
        rng = np.random.default_rng(6)
        data = rng.exponential(1.0, size=500)
        results = fit_best(data)
        for r in results:
            assert r.aic == pytest.approx(
                2 * r.distribution.nparams - 2 * r.loglik
            )

    def test_negative_data_skips_positive_families(self):
        rng = np.random.default_rng(7)
        data = rng.normal(0.0, 1.0, size=500)
        results = fit_best(data)
        assert all(r.name in ("normal", "uniform") for r in results)

    def test_too_few_observations_rejected(self):
        with pytest.raises(ValueError):
            fit_best([1.0])


class TestTimingModels:
    def test_table2_anchors_exact(self):
        assert ta_mean_for("DTLZ2", 16) == pytest.approx(23e-6)
        assert ta_mean_for("DTLZ2", 1024) == pytest.approx(45e-6)
        assert ta_mean_for("UF11", 128) == pytest.approx(61e-6)

    def test_interpolation_between_anchors(self):
        mid = ta_mean_for("DTLZ2", 96)
        assert 27e-6 < mid < 29e-6

    def test_clamping_outside_range(self):
        assert ta_mean_for("DTLZ2", 4096) == pytest.approx(45e-6)
        assert ta_mean_for("DTLZ2", 4) == pytest.approx(23e-6)

    def test_case_insensitive_problem_names(self):
        assert ta_mean_for("dtlz2", 16) == ta_mean_for("DTLZ2", 16)

    def test_unknown_problem_rejected(self):
        with pytest.raises(KeyError):
            ta_mean_for("ZDT1", 16)

    def test_uf11_slower_than_dtlz2(self):
        for p in TABLE2_TA_MEANS["DTLZ2"]:
            assert ta_mean_for("UF11", p) > ta_mean_for("DTLZ2", p)

    def test_ranger_timing_composition(self):
        tm = ranger_timing("DTLZ2", 64, 0.01)
        assert tm.mean_tf == pytest.approx(0.01, rel=1e-3)
        assert tm.mean_tc == pytest.approx(RANGER_TC_SECONDS)
        assert tm.mean_ta == pytest.approx(27e-6, rel=0.01)
        assert tm.t_f.cv == pytest.approx(0.1, rel=0.01)

    def test_ranger_timing_validation(self):
        with pytest.raises(ValueError):
            ranger_timing("DTLZ2", 64, 0.0)
        with pytest.raises(ValueError):
            ranger_timing("DTLZ2", 1, 0.01)

    def test_as_constant_collapses_variance(self):
        tm = ranger_timing("DTLZ2", 64, 0.01).as_constant()
        sampler = TimingSampler(tm, 0)
        assert sampler.tf() == sampler.tf() == tm.mean_tf
        assert tm.t_f.variance == 0.0

    def test_sampling_helpers(self):
        tm = constant_timing(tf=1.0, tc=2.0, ta=3.0)
        sampler = TimingSampler(tm, 0)
        assert sampler.tf() == 1.0
        assert sampler.tc() == 2.0
        assert sampler.ta() == 3.0
        assert sampler.ta_array(2).tolist() == [3.0, 3.0]


class TestDescriptive:
    def test_summary_fields(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == 2.5
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert s.median == 2.5

    def test_ci_contains_mean(self):
        lo, hi = confidence_interval([1.0, 2.0, 3.0])
        assert lo <= 2.0 <= hi

    def test_ci_shrinks_with_samples(self):
        rng = np.random.default_rng(0)
        small = rng.normal(size=10)
        large = rng.normal(size=1000)
        lo_s, hi_s = confidence_interval(small)
        lo_l, hi_l = confidence_interval(large)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_single_observation_degenerate_ci(self):
        assert confidence_interval([5.0]) == (5.0, 5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_relative_error_eq5(self):
        assert relative_error(10.0, 8.0) == pytest.approx(0.2)
        assert relative_error(10.0, 12.0) == pytest.approx(0.2)
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(0.0, 1.0) == math.inf


class TestTaScale:
    def test_ta_scale_multiplies_mean(self):
        base = ranger_timing("DTLZ2", 64, 0.01)
        scaled = ranger_timing("DTLZ2", 64, 0.01, ta_scale=1.6)
        assert scaled.mean_ta == pytest.approx(1.6 * base.mean_ta, rel=1e-6)

    def test_ta_scale_validation(self):
        with pytest.raises(ValueError):
            ranger_timing("DTLZ2", 64, 0.01, ta_scale=0.0)


class TestCalibrateTiming:
    def test_end_to_end_workflow(self):
        """The §IV-B pipeline: measured samples -> fitted TimingModel."""
        from repro.stats import calibrate_timing

        rng = np.random.default_rng(0)
        tf_samples = TruncatedNormal.from_mean_cv(0.01, 0.1).sample(rng, 3000)
        ta_samples = LogNormal.from_mean_cv(29e-6, 0.4).sample(rng, 3000)
        tm = calibrate_timing(tf_samples, ta_samples)
        assert tm.mean_tf == pytest.approx(0.01, rel=0.02)
        assert tm.mean_ta == pytest.approx(29e-6, rel=0.05)
        assert tm.mean_tc == pytest.approx(RANGER_TC_SECONDS)

    def test_tc_samples_fitted_when_given(self):
        from repro.stats import calibrate_timing

        rng = np.random.default_rng(1)
        tf = rng.normal(0.01, 0.001, 500)
        ta = rng.lognormal(np.log(3e-5), 0.3, 500)
        tc = rng.gamma(16.0, 4e-7, 500)
        tm = calibrate_timing(tf, ta, tc_samples=tc)
        assert tm.mean_tc == pytest.approx(6.4e-6, rel=0.1)


class TestComparisons:
    def test_identical_samples_tie(self):
        from repro.stats import compare_samples

        rng = np.random.default_rng(0)
        a = rng.normal(size=30)
        result = compare_samples(a, a.copy())
        assert result.winner == "tie"
        assert result.a12 == pytest.approx(0.5)

    def test_clear_separation_detected(self):
        from repro.stats import compare_samples

        rng = np.random.default_rng(1)
        good = rng.normal(1.0, 0.1, 30)
        bad = rng.normal(0.0, 0.1, 30)
        result = compare_samples(good, bad)
        assert result.significant
        assert result.winner == "a"
        assert result.a12 > 0.9

    def test_a12_symmetry(self):
        from repro.stats import a12_effect_size

        rng = np.random.default_rng(2)
        a = rng.normal(size=20)
        b = rng.normal(0.5, 1.0, 25)
        assert a12_effect_size(a, b) == pytest.approx(
            1.0 - a12_effect_size(b, a)
        )

    def test_validation(self):
        from repro.stats import compare_samples, mann_whitney

        with pytest.raises(ValueError):
            mann_whitney([1.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            compare_samples([1.0, 2.0, 3.0], [1.0, 2.0, 4.0], alpha=1.5)

    def test_str_mentions_winner(self):
        from repro.stats import compare_samples

        rng = np.random.default_rng(3)
        s = str(compare_samples(rng.normal(size=10), rng.normal(size=10)))
        assert "A12" in s


class TestImportCost:
    """SciPy loads only when something fits or tests: importing the
    package, or a timed solve, must not pay its ~1 s import."""

    @staticmethod
    def _scipy_free(code: str) -> None:
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        probe = (
            code
            + "\nimport sys\n"
            + "loaded = sorted(m for m in sys.modules"
            + " if m.split('.')[0] == 'scipy')\n"
            + "assert not loaded, loaded[:5]\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_package_import_leaves_scipy_unloaded(self):
        self._scipy_free("import repro, repro.parallel")

    def test_timed_solve_leaves_scipy_unloaded(self):
        self._scipy_free(
            "from repro.core import BorgMOEA\n"
            "from repro.problems import DTLZ2\n"
            "from repro.problems.delays import TimedProblem\n"
            "problem = TimedProblem(DTLZ2(nobjs=3), 0.001, cv=0.1,"
            " real_delay=False, seed=1)\n"
            "result = BorgMOEA(problem, seed=1).run(max_nfe=300)\n"
            "assert result.nfe == 300\n"
        )

    def test_truncated_normal_moments_build_lazily(self):
        d = TruncatedNormal.from_mean_cv(0.01, 0.1)
        assert d._dist is None
        assert d.mean == pytest.approx(0.01, rel=1e-6)
        assert d._dist is not None
