"""Summary statistics for reported numbers.

Uncorrectable-error counts are (approximately) Poisson, so their intervals
come from the chi-square construction; continuous metrics (energy, latency)
get t-based mean intervals across seeds.

This module owns every distribution quantile the program uses: the
Poisson quantile behind the screen's predictive bounds, and the
chi-square (as a gamma quantile), normal and t quantiles behind the
Garwood, Wilson and t intervals.  Each calls the ``scipy.special``
kernel that ``scipy.stats`` itself calls, so its value is bit-identical
to the ``scipy.stats`` quantile, and imports it inside the function.
The program never imports ``scipy.stats``: loading it takes a process
0.6-1 s on a 2-CPU host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Mean plus a symmetric confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} +- {self.half_width:.2g} (n={self.n})"


def summarize(values: list[float] | np.ndarray, confidence: float = 0.95) -> Summary:
    """t-interval summary of repeated-measure values."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize zero values")
    mean = float(arr.mean())
    if arr.size == 1:
        return Summary(mean=mean, half_width=0.0, n=1)
    stderr = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return Summary(
        mean=mean,
        half_width=_t_critical(arr.size - 1, confidence) * stderr,
        n=int(arr.size),
    )


def mean_confidence_interval(
    values: list[float] | np.ndarray, confidence: float = 0.95
) -> tuple[float, float, float]:
    """(mean, low, high) convenience wrapper around :func:`summarize`."""
    s = summarize(values, confidence)
    return s.mean, s.low, s.high


def poisson_interval(count: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact (Garwood) confidence interval for a Poisson count.

    >>> low, high = poisson_interval(0)
    >>> low
    0.0
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    # chi2.ppf(p, 2k) / 2 is the gamma quantile with shape k.
    from scipy.special import gammaincinv

    alpha = 1.0 - confidence
    low = 0.0 if count == 0 else float(gammaincinv(count, alpha / 2))
    high = float(gammaincinv(count + 1, 1 - alpha / 2))
    return low, high


def poisson_quantile(q: float, mu: np.ndarray) -> np.ndarray:
    """Smallest ``k`` with ``P(Poisson(mu) <= k) >= q``, as float64.

    Bit-identical to ``scipy.stats.poisson.ppf(q, mu)`` for ``0 < q <= 1``
    and ``mu >= 0``: ``pdtrik`` rounded up, stepped down by one where
    ``pdtr`` already reaches ``q``, and infinite at ``q == 1``.

    >>> poisson_quantile(0.5, np.array([0.5, 10.0]))
    array([ 0., 10.])
    """
    from scipy.special import pdtr, pdtrik

    if q == 1.0:
        return np.full(np.shape(mu), np.inf)
    vals = np.ceil(pdtrik(q, mu))
    below = np.maximum(vals - 1, 0)
    return np.where(pdtr(below, mu) >= q, below, vals)


def binomial_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Used for fleet availability (fraction of devices surviving the
    horizon UE-free): well-behaved at the extremes 0/n and n/n where the
    normal approximation collapses.

    >>> low, high = binomial_interval(0, 10)
    >>> low
    0.0
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be in [0, trials]")
    from scipy.special import ndtri

    z = float(ndtri(0.5 + confidence / 2))
    p_hat = successes / trials
    denominator = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denominator
    half = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    return max(0.0, center - half), min(1.0, center + half)


def _t_critical(dof: int, confidence: float) -> float:
    from scipy.special import stdtrit

    return float(stdtrit(dof, 0.5 + confidence / 2))
