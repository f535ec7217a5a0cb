"""Probability distributions for timing models: sampling, MLE fitting,
and log-likelihood model selection.

The paper measured TA/TC/TF on TACC Ranger and used R's ``fitdistr`` to
fit candidate distributions, selecting the best by log-likelihood
(§IV-B).  This module reproduces that workflow on scipy.stats: each
named distribution supports closed-form or scipy-backed MLE fitting,
and :func:`fit_best` ranks candidates by log-likelihood / AIC exactly as
the paper's R pipeline did.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# SciPy is imported inside the functions that fit or score, never at
# module level: ``repro.problems`` imports this module for the timing
# wrappers, and SciPy's import cost would land on every program.

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
]


class Distribution(ABC):
    """A one-dimensional distribution usable as a timing model."""

    #: Registry name (used in configs and fit reports).
    name: str = "distribution"

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw one value (``size=None``) or an array of values."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expected value."""

    @property
    @abstractmethod
    def variance(self) -> float:
        """Variance."""

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def cv(self) -> float:
        """Coefficient of variation."""
        return self.std / self.mean if self.mean else 0.0

    @abstractmethod
    def loglik(self, data: np.ndarray) -> float:
        """Log-likelihood of ``data`` under this distribution."""

    @property
    def nparams(self) -> int:
        """Free parameters (for AIC)."""
        return 2

    def __repr__(self) -> str:
        return f"<{type(self).__name__} mean={self.mean:.6g} cv={self.cv:.3g}>"


class Constant(Distribution):
    """Degenerate distribution: always ``value``.

    This is what the paper's *analytical* model assumes for TF, TC and
    TA; plugging Constant into the simulation model reproduces the
    analytical model's lockstep behaviour exactly.
    """

    name = "constant"

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    @property
    def nparams(self) -> int:
        return 1

    def loglik(self, data: np.ndarray) -> float:
        data = np.asarray(data, dtype=float)
        return 0.0 if np.allclose(data, self.value) else -math.inf

    @classmethod
    def fit(cls, data: Sequence[float]) -> "Constant":
        return cls(float(np.mean(data)))


class Uniform(Distribution):
    """Uniform on [low, high]."""

    name = "uniform"

    def __init__(self, low: float, high: float) -> None:
        if high <= low:
            raise ValueError("high must exceed low")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng, size=None):
        return rng.uniform(self.low, self.high, size)

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def loglik(self, data: np.ndarray) -> float:
        data = np.asarray(data, dtype=float)
        if np.any(data < self.low) or np.any(data > self.high):
            return -math.inf
        return -data.size * math.log(self.high - self.low)

    @classmethod
    def fit(cls, data: Sequence[float]) -> "Uniform":
        data = np.asarray(data, dtype=float)
        lo, hi = float(data.min()), float(data.max())
        if hi <= lo:
            hi = lo + 1e-12
        return cls(lo, hi)


class Normal(Distribution):
    """Gaussian N(mu, sigma^2)."""

    name = "normal"

    def __init__(self, mu: float, sigma: float) -> None:
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def sample(self, rng, size=None):
        return rng.normal(self.mu, self.sigma, size)

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def variance(self) -> float:
        return self.sigma**2

    def loglik(self, data: np.ndarray) -> float:
        from scipy import stats as sps

        return float(np.sum(sps.norm.logpdf(data, self.mu, self.sigma)))

    @classmethod
    def fit(cls, data: Sequence[float]) -> "Normal":
        data = np.asarray(data, dtype=float)
        return cls(float(data.mean()), max(float(data.std()), 1e-15))


class TruncatedNormal(Distribution):
    """Gaussian truncated to non-negative support.

    A natural model for controlled delays: the paper's TF is "delay mean
    with a coefficient of variation of 0.1", which a left-truncated
    normal realises without ever producing negative times.
    """

    name = "truncnorm"

    def __init__(self, mu: float, sigma: float, low: float = 0.0) -> None:
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.low = float(low)
        self._a = (self.low - self.mu) / self.sigma
        self._dist = None

    def _frozen(self):
        """The SciPy distribution, built on first use (sampling, the
        hot path of every timed evaluation, never needs it)."""
        if self._dist is None:
            from scipy import stats as sps

            self._dist = sps.truncnorm(
                self._a, np.inf, loc=self.mu, scale=self.sigma
            )
        return self._dist

    @classmethod
    def from_mean_cv(cls, mean: float, cv: float) -> "TruncatedNormal":
        """Construct by target mean/CV of the *untruncated* normal.

        For cv <= ~0.3 the truncation at 0 is many sigmas away, so the
        realised mean/CV match the targets to numerical precision.
        """
        if mean <= 0:
            raise ValueError("mean must be positive")
        return cls(mean, max(mean * cv, 1e-300))

    def sample(self, rng, size=None):
        # Rejection sampling is exact and fast when truncation is mild
        # (the timing models here always are: cv ~ 0.1).
        if size is None:
            while True:
                v = rng.normal(self.mu, self.sigma)
                if v >= self.low:
                    return v
        out = rng.normal(self.mu, self.sigma, size)
        bad = out < self.low
        while np.any(bad):
            out[bad] = rng.normal(self.mu, self.sigma, int(bad.sum()))
            bad = out < self.low
        return out

    @property
    def mean(self) -> float:
        return float(self._frozen().mean())

    @property
    def variance(self) -> float:
        return float(self._frozen().var())

    def loglik(self, data: np.ndarray) -> float:
        return float(np.sum(self._frozen().logpdf(data)))

    @classmethod
    def fit(cls, data: Sequence[float]) -> "TruncatedNormal":
        data = np.asarray(data, dtype=float)
        return cls(float(data.mean()), max(float(data.std()), 1e-15))


class LogNormal(Distribution):
    """Log-normal: log X ~ N(mu, sigma^2).

    Heavy right tail; the customary fit for algorithm-overhead (TA)
    samples, which bunch low with occasional long archive updates.
    """

    name = "lognormal"

    def __init__(self, mu: float, sigma: float) -> None:
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)

    @classmethod
    def from_mean_cv(cls, mean: float, cv: float) -> "LogNormal":
        if mean <= 0 or cv <= 0:
            raise ValueError("mean and cv must be positive")
        sigma2 = math.log(1.0 + cv**2)
        mu = math.log(mean) - sigma2 / 2.0
        return cls(mu, math.sqrt(sigma2))

    def sample(self, rng, size=None):
        return rng.lognormal(self.mu, self.sigma, size)

    @property
    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    @property
    def variance(self) -> float:
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)

    def loglik(self, data: np.ndarray) -> float:
        from scipy import stats as sps

        return float(
            np.sum(sps.lognorm.logpdf(data, s=self.sigma, scale=math.exp(self.mu)))
        )

    @classmethod
    def fit(cls, data: Sequence[float]) -> "LogNormal":
        data = np.asarray(data, dtype=float)
        if np.any(data <= 0):
            raise ValueError("lognormal requires positive data")
        logs = np.log(data)
        return cls(float(logs.mean()), max(float(logs.std()), 1e-15))


class Gamma(Distribution):
    """Gamma(shape k, scale theta); the default TF model."""

    name = "gamma"

    def __init__(self, shape: float, scale: float) -> None:
        if shape <= 0 or scale <= 0:
            raise ValueError("shape and scale must be positive")
        self.shape = float(shape)
        self.scale = float(scale)

    @classmethod
    def from_mean_cv(cls, mean: float, cv: float) -> "Gamma":
        if mean <= 0 or cv <= 0:
            raise ValueError("mean and cv must be positive")
        shape = 1.0 / cv**2
        return cls(shape, mean / shape)

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, self.scale, size)

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale**2

    def loglik(self, data: np.ndarray) -> float:
        from scipy import stats as sps

        return float(np.sum(sps.gamma.logpdf(data, a=self.shape, scale=self.scale)))

    @classmethod
    def fit(cls, data: Sequence[float]) -> "Gamma":
        data = np.asarray(data, dtype=float)
        if np.any(data <= 0):
            raise ValueError("gamma requires positive data")
        from scipy import stats as sps

        a, _loc, scale = sps.gamma.fit(data, floc=0.0)
        return cls(a, scale)


class Exponential(Distribution):
    """Exponential with the given mean (maximal-variance baseline; used
    by the TF-variance ablation in §VI-B)."""

    name = "exponential"

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ValueError("mean must be positive")
        self._mean = float(mean)

    def sample(self, rng, size=None):
        return rng.exponential(self._mean, size)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._mean**2

    @property
    def nparams(self) -> int:
        return 1

    def loglik(self, data: np.ndarray) -> float:
        from scipy import stats as sps

        return float(np.sum(sps.expon.logpdf(data, scale=self._mean)))

    @classmethod
    def fit(cls, data: Sequence[float]) -> "Exponential":
        data = np.asarray(data, dtype=float)
        return cls(max(float(data.mean()), 1e-300))


class Weibull(Distribution):
    """Weibull(shape k, scale lambda)."""

    name = "weibull"

    def __init__(self, shape: float, scale: float) -> None:
        if shape <= 0 or scale <= 0:
            raise ValueError("shape and scale must be positive")
        self.shape = float(shape)
        self.scale = float(scale)

    def sample(self, rng, size=None):
        return self.scale * rng.weibull(self.shape, size)

    @property
    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    @property
    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.shape)
        g2 = math.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1**2)

    def loglik(self, data: np.ndarray) -> float:
        from scipy import stats as sps

        return float(
            np.sum(sps.weibull_min.logpdf(data, c=self.shape, scale=self.scale))
        )

    @classmethod
    def fit(cls, data: Sequence[float]) -> "Weibull":
        data = np.asarray(data, dtype=float)
        if np.any(data <= 0):
            raise ValueError("weibull requires positive data")
        from scipy import stats as sps

        c, _loc, scale = sps.weibull_min.fit(data, floc=0.0)
        return cls(c, scale)


@dataclass(frozen=True)
class FitResult:
    """One candidate distribution fitted to a sample."""

    distribution: Distribution
    loglik: float
    aic: float

    @property
    def name(self) -> str:
        return self.distribution.name


#: Candidate families considered by default, mirroring the paper's R
#: model-selection pass.
DEFAULT_CANDIDATES = (Normal, LogNormal, Gamma, Exponential, Weibull, Uniform)


def fit_best(
    data: Sequence[float],
    candidates: Sequence[type] = DEFAULT_CANDIDATES,
) -> list[FitResult]:
    """Fit every candidate family to ``data`` by MLE and rank the fits.

    Returns results sorted best-first by log-likelihood (the paper's
    criterion); AIC is included so families with different parameter
    counts can be compared fairly.  Families whose support excludes the
    data are skipped.
    """
    data = np.asarray(data, dtype=float)
    if data.size < 2:
        raise ValueError("need at least 2 observations to fit")
    results = []
    for cls in candidates:
        try:
            dist = cls.fit(data)
            ll = dist.loglik(data)
        except (ValueError, RuntimeError):
            continue
        if not math.isfinite(ll):
            continue
        results.append(
            FitResult(dist, ll, aic=2.0 * dist.nparams - 2.0 * ll)
        )
    results.sort(key=lambda r: r.loglik, reverse=True)
    if not results:
        raise ValueError("no candidate distribution fit the data")
    return results
