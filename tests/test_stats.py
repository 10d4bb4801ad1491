"""Statistics helpers: the normal quantile, exact binomial tails, size checks, import path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.stats import binom, norm

from qpq import stats


@pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.999])
def test_z_value_matches_scipy(confidence):
    assert stats.z_value(confidence) == pytest.approx(
        float(norm.ppf(0.5 + confidence / 2.0)), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5])
def test_z_value_rejects_levels_outside_the_unit_interval(confidence):
    with pytest.raises(ValueError, match="confidence"):
        stats.z_value(confidence)


def test_importing_qpq_loads_no_scipy():
    code = "import sys, qpq; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(stats.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("x,n,p", [
    (0, 20, 8.3e-4), (1, 20, 8.3e-4), (2, 20, 8.3e-4), (1, 600, 9.6e-5),
    (0, 600, 9.6e-5), (40, 2000, 0.02), (20, 2000, 0.02), (65, 2000, 0.02),
    (0, 1, 0.5), (1, 1, 0.5), (250, 1000, 0.25), (7, 7, 0.999), (3, 50, 1e-12),
])
def test_binomial_tails_match_scipy(x, n, p):
    lower, upper = stats.binomial_tails(x, n, p)
    assert lower == pytest.approx(float(binom.cdf(x, n, p)), rel=1e-9, abs=1e-300)
    assert upper == pytest.approx(float(binom.sf(x - 1, n, p)), rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_binomial_tails_at_a_degenerate_rate(p):
    edge = 0 if p == 0.0 else 5
    for x in range(6):
        assert stats.binomial_tails(x, 5, p) == (float(x >= edge), float(x <= edge))


def test_binomial_test_keeps_half_a_percent_in_each_tail():
    # P(X >= 1 | 600, 9.6e-5) = 5.6%: one restart at a tiny rate is no failure.
    assert stats.binomial_test(1, 600, 9.6e-5)
    assert not stats.binomial_test(3, 600, 9.6e-5)
    n, p = 300, 0.03
    for x in range(n + 1):
        lower, upper = float(binom.cdf(x, n, p)), float(binom.sf(x - 1, n, p))
        assert stats.binomial_test(x, n, p) == (lower > 0.005 and upper > 0.005), x


def test_binomial_tails_reject_a_count_outside_the_trials():
    with pytest.raises(ValueError, match="0 <= x <= n"):
        stats.binomial_tails(5, 4, 0.5)


@pytest.mark.parametrize("value,minimum", [(0, 1), (-3, 1), (1, 2)])
def test_require_size_names_the_size_and_the_minimum(value, minimum):
    with pytest.raises(ValueError, match=f"trials must be >= {minimum}, got {value}"):
        stats.require_size("trials", value, minimum)
    stats.require_size("trials", minimum, minimum)


def test_report_text_leaves_a_rate_without_samples_blank():
    report = stats.ExperimentReport("biased", {"phi": 0.3}, analytic={"p_b": 0.5},
                                    empirical={"p_b": None}, ci99={"p_b": None},
                                    passed={"p_b": False})
    row = next(line for line in report.to_text().splitlines() if line.startswith("p_b"))
    assert row.split() == ["p_b", "0.5", "FAIL"]
    assert '"p_b": null' in report.to_json()
