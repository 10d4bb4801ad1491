"""Confidence-interval helpers shared by the experiment drivers."""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist
from typing import Sequence

import numpy as np


@lru_cache(maxsize=64)
def _normal_quantile(p: float) -> float:
    return NormalDist().inv_cdf(p)


def z_value(confidence: float = 0.99) -> float:
    """Two-sided normal quantile for the given confidence level."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    return _normal_quantile(0.5 + confidence / 2.0)


def mean_ci(values: Sequence[float] | np.ndarray, confidence: float = 0.99) -> tuple[float, float]:
    """Sample mean and normal-approximation half-width."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot form a confidence interval from no samples")
    if arr.size == 1:
        return float(arr[0]), float("inf")
    half = z_value(confidence) * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return float(arr.mean()), half


def wilson_interval(successes: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval center and half-width for a binomial rate."""
    if n <= 0:
        raise ValueError("need at least one trial")
    z = z_value(confidence)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return center, half


def rate_ci(successes: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Empirical rate and half-width; Wilson fallback near the 0/1 edges.

    The normal approximation is fine in the bulk but useless when either
    count is tiny, so switch to Wilson when fewer than 10 successes or
    failures were seen (the interval is then re-centered as well).
    """
    if n <= 0:
        raise ValueError("need at least one trial")
    p = successes / n
    if min(successes, n - successes) < 10:
        return wilson_interval(successes, n, confidence)
    half = z_value(confidence) * math.sqrt(p * (1.0 - p) / n)
    return p, half


def dispersion_ci(values: Sequence[float] | np.ndarray, confidence: float = 0.99) -> tuple[float, float]:
    """Variance-to-mean ratio and an approximate half-width.

    Under a Poisson null the index of dispersion is asymptotically normal
    with variance 2/(n-1), which is what the half-width uses.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two samples for a dispersion ratio")
    mean = float(arr.mean())
    if mean == 0.0:
        raise ValueError("dispersion ratio undefined for an all-zero sample")
    ratio = float(arr.var(ddof=1)) / mean
    half = z_value(confidence) * math.sqrt(2.0 / (arr.size - 1))
    return ratio, half


def binomial_sigma(p: float, n: int) -> float:
    """Standard deviation of an empirical rate from n Bernoulli(p) draws."""
    return math.sqrt(p * (1.0 - p) / n)
