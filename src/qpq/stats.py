"""Confidence intervals, exact binomial tails, size checks and the report type.

`ExperimentReport` lives here, below `adversaries` and `experiments`, so
that the attack reports, the drivers and the CLI share one report type.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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


def dispersion_ci(values: Sequence[float] | np.ndarray, expected: float,
                  confidence: float = 0.99) -> tuple[float, float]:
    """Variance-to-mean ratio and an approximate half-width around `expected`.

    Under a Poisson null the index of dispersion is asymptotically normal
    with variance 2/(n-1). Binomial(m, p) counts have ratio 1 - p, and to
    first order variance (1 - p)**2 * 2/(n-1), so the half-width is
    `expected` times the Poisson one.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two samples for a dispersion ratio")
    mean = float(arr.mean())
    if mean == 0.0:
        raise ValueError("dispersion ratio undefined for an all-zero sample")
    ratio = float(arr.var(ddof=1)) / mean
    half = expected * z_value(confidence) * math.sqrt(2.0 / (arr.size - 1))
    return ratio, half


def binomial_sigma(p: float, n: int) -> float:
    """Standard deviation of an empirical rate from n Bernoulli(p) draws."""
    return math.sqrt(p * (1.0 - p) / n)


def require_size(name: str, value: int, minimum: int = 1) -> None:
    """Reject a size below `minimum` before any work is done."""
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def binomial_tails(x: int, n: int, p: float) -> tuple[float, float]:
    """Exact P(X <= x) and P(X >= x) for X ~ Binomial(n, p), summed from log-space terms."""
    if not 0 <= x <= n:
        raise ValueError(f"need 0 <= x <= n, got x={x}, n={n}")
    if not 0.0 < p < 1.0:
        edge = 0 if p <= 0.0 else n  # the whole mass sits on one count
        return float(x >= edge), float(x <= edge)
    log_norm = math.lgamma(n + 1)
    pmf = [math.exp(log_norm - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                    + i * math.log(p) + (n - i) * math.log1p(-p)) for i in range(n + 1)]
    return min(1.0, math.fsum(pmf[:x + 1])), min(1.0, math.fsum(pmf[x:]))


def binomial_test(x: int, n: int, p: float, confidence: float = 0.99) -> bool:
    """Exact two-sided test: pass iff each tail of x keeps more than (1 - confidence) / 2."""
    alpha = (1.0 - confidence) / 2.0
    lower, upper = binomial_tails(x, n, p)
    return lower > alpha and upper > alpha


@dataclass
class ExperimentReport:
    """Analytic values, empirical values, intervals, and verdicts for one experiment.

    A rate with no samples is None (null in JSON). The serialized form
    deliberately omits the runtime so that report files are byte-identical
    for a fixed seed; the runtime is still available on the object and in
    the human-readable rendering.
    """

    experiment: str
    params: dict
    analytic: dict = field(default_factory=dict)
    empirical: dict = field(default_factory=dict)
    ci99: dict = field(default_factory=dict)
    passed: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    def all_passed(self) -> bool:
        return all(self.passed.values())

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "analytic": self.analytic,
            "empirical": self.empirical,
            "ci99": self.ci99,
            "passed": self.passed,
            "extra": self.extra,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"experiment: {self.experiment}",
                 f"params: {json.dumps(self.params, sort_keys=True)}",
                 f"runtime: {self.runtime_s:.2f}s",
                 f"{'metric':<28}{'analytic':>14}{'empirical':>14}{'ci99':>12}  verdict"]
        keys = sorted(set(self.analytic) | set(self.empirical))
        for key in keys:
            ana = self.analytic.get(key)
            emp = self.empirical.get(key)
            ci = self.ci99.get(key)
            verdict = self.passed.get(key)
            lines.append(f"{key:<28}"
                         f"{'' if ana is None else format(ana, '.6g'):>14}"
                         f"{'' if emp is None else format(emp, '.6g'):>14}"
                         f"{'' if ci is None else format(ci, '.2g'):>12}"
                         f"  {'' if verdict is None else ('pass' if verdict else 'FAIL')}")
        for key, verdict in sorted(self.passed.items()):
            if key not in keys:
                lines.append(f"{key:<28}{'':>14}{'':>14}{'':>12}  "
                             f"{'pass' if verdict else 'FAIL'}")
        return "\n".join(lines)
