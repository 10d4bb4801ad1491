"""Confidence-interval helpers: the normal quantile and the import path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.stats import norm

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
