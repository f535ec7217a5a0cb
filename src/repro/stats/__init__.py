"""Timing statistics substrate (replaces the paper's R workflow).

Distribution fitting with log-likelihood model selection
(:func:`fit_best`), the calibrated Ranger timing models
(:func:`ranger_timing`), replicate summaries, and the running
:class:`TallyMonitor`/:class:`SeriesMonitor` collectors.
"""

from .comparisons import (
    ComparisonResult,
    a12_effect_size,
    compare_samples,
    mann_whitney,
)
from .descriptive import (
    SeriesMonitor,
    Summary,
    TallyMonitor,
    confidence_interval,
    relative_error,
    summarize,
)
from .distributions import (
    DEFAULT_CANDIDATES,
    Constant,
    Distribution,
    Exponential,
    FitResult,
    Gamma,
    LogNormal,
    Normal,
    TruncatedNormal,
    Uniform,
    Weibull,
    fit_best,
)
from .timing import (
    RANGER_TC_SECONDS,
    calibrate_timing,
    TABLE2_TA_MEANS,
    TimingModel,
    constant_timing,
    ranger_timing,
    ta_mean_for,
)

__all__ = [
    "Distribution",
    "Constant",
    "Uniform",
    "Normal",
    "TruncatedNormal",
    "LogNormal",
    "Gamma",
    "Exponential",
    "Weibull",
    "FitResult",
    "fit_best",
    "DEFAULT_CANDIDATES",
    "TimingModel",
    "ranger_timing",
    "calibrate_timing",
    "constant_timing",
    "ta_mean_for",
    "TABLE2_TA_MEANS",
    "RANGER_TC_SECONDS",
    "ComparisonResult",
    "mann_whitney",
    "a12_effect_size",
    "compare_samples",
    "Summary",
    "summarize",
    "confidence_interval",
    "relative_error",
    "TallyMonitor",
    "SeriesMonitor",
]
