"""Unit tests for the running monitors of :mod:`repro.stats`."""

import math

import numpy as np
import pytest

from repro.stats import SeriesMonitor, TallyMonitor


class TestTallyMonitor:
    def test_empty_monitor(self):
        m = TallyMonitor()
        assert m.count == 0
        assert m.mean == 0.0
        assert m.variance == 0.0

    def test_mean_matches_numpy(self):
        data = [1.5, 2.5, 3.0, 10.0, -1.0]
        m = TallyMonitor()
        for v in data:
            m.record(v)
        assert m.mean == pytest.approx(np.mean(data))

    def test_variance_matches_numpy_ddof1(self):
        data = [0.1, 0.9, 0.4, 0.7, 0.2, 0.6]
        m = TallyMonitor()
        for v in data:
            m.record(v)
        assert m.variance == pytest.approx(np.var(data, ddof=1))

    def test_min_max(self):
        m = TallyMonitor()
        for v in (3.0, -2.0, 7.0):
            m.record(v)
        assert m.minimum == -2.0
        assert m.maximum == 7.0

    def test_cv(self):
        m = TallyMonitor()
        for v in (10.0, 10.0, 10.0):
            m.record(v)
        assert m.cv == 0.0

    def test_single_observation_variance_zero(self):
        m = TallyMonitor()
        m.record(5.0)
        assert m.variance == 0.0

    def test_numerical_stability_large_offset(self):
        # Welford should survive a huge common offset.
        base = 1e12
        data = [base + d for d in (0.0, 1.0, 2.0)]
        m = TallyMonitor()
        for v in data:
            m.record(v)
        assert m.variance == pytest.approx(1.0, rel=1e-6)


class TestSeriesMonitor:
    def test_time_average_constant(self):
        s = SeriesMonitor()
        s.record(0.0, 5.0)
        assert s.time_average(until=10.0) == pytest.approx(5.0)

    def test_time_average_step(self):
        s = SeriesMonitor()
        s.record(0.0, 0.0)
        s.record(5.0, 10.0)
        assert s.time_average(until=10.0) == pytest.approx(5.0)

    def test_non_monotone_rejected(self):
        s = SeriesMonitor()
        s.record(5.0, 1.0)
        with pytest.raises(ValueError):
            s.record(4.0, 2.0)

    def test_last(self):
        s = SeriesMonitor()
        assert s.last == 0.0
        s.record(0.0, 3.0)
        s.record(1.0, 7.0)
        assert s.last == 7.0

    def test_empty_average(self):
        assert SeriesMonitor().time_average() == 0.0


class TestNoRecordFastMode:
    """Monitors keep summary statistics without per-event history."""

    def test_series_memory_bounded(self):
        mon = SeriesMonitor()
        times = np.arange(10_000, dtype=float)
        values = times % 7
        for t, v in zip(times, values):
            mon.record(float(t), float(v))
        # No trajectory retained ...
        assert not any(isinstance(v, list) for v in vars(mon).values())
        # ... but the reductions are those of the full series.
        assert mon.count == 10_000
        assert mon.last == values[-1]
        assert mon.mean == pytest.approx(values.mean())
        assert mon.variance == pytest.approx(values.var(ddof=1))
        assert mon.std == pytest.approx(values.std(ddof=1))
        steps = values[:-1].sum()
        assert mon.time_average() == pytest.approx(steps / times[-1])
        assert mon.time_average(until=20_000.0) == pytest.approx(
            (steps + values[-1] * (20_000.0 - times[-1])) / 20_000.0
        )

    def test_series_no_record_still_validates_monotonicity(self):
        mon = SeriesMonitor()
        mon.record(5.0, 1.0)
        with pytest.raises(ValueError):
            mon.record(4.0, 2.0)

    def test_series_no_record_rejects_backdated_until(self):
        mon = SeriesMonitor()
        mon.record(0.0, 1.0)
        mon.record(10.0, 3.0)
        with pytest.raises(ValueError, match="precedes the last sample"):
            mon.time_average(until=5.0)
