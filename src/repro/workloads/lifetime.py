"""Node-lifetime distributions.

The common experiment (§5.1) requires: *"Distribution of nodes' lifetime
meets the measurement results of Gnutella (figure 6 of [13]), in which the
average lifetime is about 135 minutes."*

Saroiu et al.'s session-duration distribution is heavy-tailed with a
median around one hour.  :class:`GnutellaLifetimeDistribution` models it as
a lognormal pinned at those two anchors:

* median = 60 minutes  →  ``mu = ln(3600)``
* mean   = 135 minutes →  ``sigma = sqrt(2 ln(135/60)) ≈ 1.2735``

(the lognormal mean is ``exp(mu + sigma^2/2)``, so both anchors are hit
exactly).  The adaptivity experiments (§5.3) scale every lifetime by
``Lifetime_Rate``, which is a plain multiplicative parameter here.

Exponential and Weibull alternatives are provided for ablations (the
protocol's refresh mechanism and error model are distribution-sensitive,
so it is worth checking the figures' shapes hold beyond the lognormal).
"""

from __future__ import annotations

import abc
import math
from typing import Optional

import numpy as np

#: Seconds per minute, for readability of anchor constants.
_MIN = 60.0

#: The paper's common-case mean lifetime (135 minutes, §5.1).
COMMON_MEAN_LIFETIME_S = 135.0 * _MIN

#: Saroiu et al. median session duration (~60 minutes).
GNUTELLA_MEDIAN_S = 60.0 * _MIN


class LifetimeDistribution(abc.ABC):
    """Sampling interface for node session lifetimes, in seconds."""

    def __init__(self, lifetime_rate: float = 1.0):
        if lifetime_rate <= 0:
            raise ValueError("lifetime_rate must be positive")
        self.lifetime_rate = float(lifetime_rate)

    @abc.abstractmethod
    def _base_mean(self) -> float:
        """Mean of the unscaled distribution, seconds."""

    @abc.abstractmethod
    def _base_sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` unscaled samples."""

    @property
    def mean(self) -> float:
        return self._base_mean() * self.lifetime_rate

    def sample(self, rng: np.random.Generator, n: Optional[int] = None):
        """Sample lifetimes (seconds).  Scalar when ``n`` is None.

        ``sample(rng, n)`` is ``n`` scalar calls, in order, and leaves
        ``rng`` where they would (NumPy fills a sized draw one variate at a
        time); ``tests/workloads/test_block_draws.py`` holds every subclass
        to that, and the scalable engine pre-draws its joins on it.
        """
        if n is None:
            return float(self._base_sample(rng, 1)[0] * self.lifetime_rate)
        if n < 0:
            raise ValueError("n must be non-negative")
        return self._base_sample(rng, n) * self.lifetime_rate

    def sample_residual(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Residual lifetimes for a stationary initial population.

        A node alive at an arbitrary observation instant was sampled with
        probability proportional to its session length (length biasing),
        and the observation lands uniformly inside the session.  The
        generic implementation does weighted resampling from a candidate
        pool; subclasses with closed forms may override.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return np.empty(0)
        pool = self._base_sample(rng, max(4 * n, 1024))
        weights = pool / pool.sum()
        chosen = rng.choice(pool, size=n, p=weights)
        return chosen * rng.random(n) * self.lifetime_rate

    def scaled(self, lifetime_rate: float) -> "LifetimeDistribution":
        """A copy with a different ``Lifetime_Rate`` (figures 11/12 sweep)."""
        import copy

        clone = copy.copy(self)
        if lifetime_rate <= 0:
            raise ValueError("lifetime_rate must be positive")
        clone.lifetime_rate = float(lifetime_rate)
        return clone


class GnutellaLifetimeDistribution(LifetimeDistribution):
    """Lognormal fit to the Gnutella session-duration measurement [13]."""

    def __init__(self, lifetime_rate: float = 1.0):
        super().__init__(lifetime_rate)
        self.mu = math.log(GNUTELLA_MEDIAN_S)
        ratio = COMMON_MEAN_LIFETIME_S / GNUTELLA_MEDIAN_S
        self.sigma = math.sqrt(2.0 * math.log(ratio))

    def _base_mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def _base_sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)

    def sample_residual(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Closed form: the length-biased version of Lognormal(mu, sigma)
        is Lognormal(mu + sigma^2, sigma); the residual is uniform inside
        the biased session."""
        if n < 0:
            raise ValueError("n must be non-negative")
        biased = rng.lognormal(self.mu + self.sigma**2, self.sigma, size=n)
        return biased * rng.random(n) * self.lifetime_rate

    def median(self) -> float:
        return math.exp(self.mu) * self.lifetime_rate


class ExponentialLifetime(LifetimeDistribution):
    """Memoryless lifetimes with the given mean (ablation alternative)."""

    def __init__(self, mean: float = COMMON_MEAN_LIFETIME_S, lifetime_rate: float = 1.0):
        super().__init__(lifetime_rate)
        if mean <= 0:
            raise ValueError("mean must be positive")
        self._mean = float(mean)

    def _base_mean(self) -> float:
        return self._mean

    def _base_sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self._mean, size=n)

    def sample_residual(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Memoryless: the residual is the full distribution."""
        return self.sample(rng, n)


class WeibullLifetime(LifetimeDistribution):
    """Weibull lifetimes (shape < 1 gives the heavy tail churn studies
    report); scale is solved from the requested mean."""

    def __init__(
        self,
        mean: float = COMMON_MEAN_LIFETIME_S,
        shape: float = 0.6,
        lifetime_rate: float = 1.0,
    ):
        super().__init__(lifetime_rate)
        if mean <= 0 or shape <= 0:
            raise ValueError("mean and shape must be positive")
        self.shape = float(shape)
        self.scale = mean / math.gamma(1.0 + 1.0 / shape)

    def _base_mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def _base_sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=n)
