"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.

Criterion 5 asserts the exact shape of the discrimination-bound curve
1 - F: it is constant on each depth pair (1,2), (3,4), (5,6), ... and drops
strictly on entering every odd depth. A strict decrease at every step is
false for this curve; `tests/test_experiments.py::TestUsdCurve::
test_pairs_flat_at_50_digits` confirms the pair equality with 50-digit
arithmetic that shares no code with the dense `fidelity` of
`tests/conftest.py`. That file also holds the trace distance and the
unambiguous-discrimination bound that criteria 5 and 7 read.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from qpq.adversaries import (
    USD_SUCCESS,
    UsdAlice,
    alice_joint_helstrom,
    biased_analytics,
    biased_round_trials,
    conditional_register_mixtures,
    entangled_round_trials,
    no_signaling_audit,
    usd_success_trials,
)
from qpq.experiments import (
    TABLE1_REFERENCE,
    bb84_attack_experiment,
    key_stats,
    monte_carlo,
    multi_string_combine,
    table1,
    usd_curve,
)
from qpq.protocol import ProtocolConfig, run_protocol
from qpq.quantum import parity_mixtures
from qpq import stats

from conftest import honest_category_counts, trace_distance, usd_bound

SEED = 20260809


class Criterion:
    """Collects named sub-checks and emits a single pass/fail line."""

    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.failures = []
        self.notes = []

    def check(self, name, ok, detail=""):
        if not ok:
            self.failures.append(f"{name} ({detail})" if detail else name)

    def note(self, text):
        self.notes.append(text)

    def conclude(self):
        verdict = "PASS" if not self.failures else "FAIL"
        extra = f" [{'; '.join(self.notes)}]" if self.notes else ""
        detail = f" failing: {', '.join(self.failures)}" if self.failures else ""
        print(f"ACCEPTANCE C{self.number} {self.title}: {verdict}{extra}{detail}")
        assert not self.failures, f"criterion {self.number}: {self.failures}"


@pytest.fixture(scope="module")
def honest_mc():
    start = time.perf_counter()
    report = monte_carlo(ProtocolConfig(n=1000, k=4, seed=SEED), trials=2000)
    report.runtime_s = time.perf_counter() - start
    return report


def test_c01_table_reproduction():
    crit = Criterion(1, "analytic key statistics for the six reference points")
    start = time.perf_counter()
    rows = table1()
    elapsed = time.perf_counter() - start
    for row, (n, k, p0_str, nbar_str) in zip(rows, TABLE1_REFERENCE):
        crit.check(f"p0 n={n} k={k}", row.p0_display == p0_str,
                   f"{row.p0_display} != {p0_str}")
        crit.check(f"n_bar n={n} k={k}", row.n_bar_display == nbar_str,
                   f"{row.n_bar_display} != {nbar_str}")
    example = key_stats(50_000, 7)
    crit.check("spot value", (f"{example.p0:.3f}", f"{example.n_bar:.2f}") == ("0.047", "3.05"))
    crit.check("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f}s")
    crit.note(f"runtime {elapsed * 1000:.2f} ms")
    crit.conclude()


def test_c02_honest_monte_carlo(honest_mc):
    crit = Criterion(2, "honest runs at n=1000, k=4, 2000 trials")
    report = honest_mc
    sigma3 = 3.0 * stats.binomial_sigma(0.25, report.params["trials"] * 4000)
    crit.check("conclusive rate 3 sigma",
               abs(report.empirical["conclusive_rate"] - 0.25) <= sigma3,
               f"{report.empirical['conclusive_rate']:.5f}")
    crit.check("known mean ci vs 3.91",
               abs(report.empirical["known_mean"] - 3.91) <= report.ci99["known_mean"],
               f"{report.empirical['known_mean']:.3f} +- {report.ci99['known_mean']:.3f}")
    ratio = report.analytic["known_dispersion"]
    crit.check(f"variance/mean ci vs {ratio:.5f}",
               abs(report.empirical["known_dispersion"] - ratio)
               <= report.ci99["known_dispersion"],
               f"{report.empirical['known_dispersion']:.3f}")
    crit.check("runtime < 2 min", report.runtime_s < 120.0, f"{report.runtime_s:.1f}s")
    crit.note(f"mean {report.empirical['known_mean']:.3f}, "
              f"restart fraction {report.empirical['restart_fraction']:.4f}, "
              f"runtime {report.runtime_s:.1f}s")
    crit.conclude()


def test_c03_usd_attack():
    crit = Criterion(3, "memory attack via unambiguous discrimination")
    rng = np.random.default_rng([SEED, 3])
    samples = 10**6
    rate = float(usd_success_trials(samples, rng).mean())
    sigma3 = 3.0 * stats.binomial_sigma(USD_SUCCESS, samples)
    crit.check("per-qubit success 3 sigma vs 0.2929",
               abs(rate - (1.0 - 1.0 / math.sqrt(2.0))) <= sigma3, f"{rate:.5f}")
    report = monte_carlo(ProtocolConfig(n=50_000, k=7, seed=SEED),
                         alice=UsdAlice(), trials=600)
    crit.check("known mean ci vs 9.3",
               abs(report.empirical["known_mean"] - 9.3) <= report.ci99["known_mean"],
               f"{report.empirical['known_mean']:.3f} +- {report.ci99['known_mean']:.3f}")
    crit.note(f"qubit rate {rate:.5f}, run mean {report.empirical['known_mean']:.3f}")
    crit.conclude()


def test_c04_joint_helstrom():
    crit = Criterion(4, "joint minimum-error guessing probability")
    for k in range(1, 11):
        value = alice_joint_helstrom(k)
        crit.check(f"matrix route k={k}",
                   abs(value.closed_form - value.matrix_value) <= 1e-9,
                   f"diff {abs(value.closed_form - value.matrix_value):.2e}")
    k7 = alice_joint_helstrom(7).closed_form
    crit.check("k=7 value 0.5442", abs(k7 - 0.5442) <= 5e-5, f"{k7:.6f}")
    crit.note(f"k=7 guess rate {k7:.6f}")
    crit.conclude()


def test_c05_parity_distance_and_curve():
    crit = Criterion(5, "parity trace distance and discrimination-bound curve")
    for k in range(1, 11):
        even, odd = parity_mixtures(k)
        d = trace_distance(even, odd)
        crit.check(f"trace distance k={k}", abs(d - 2.0 ** (-k / 2.0)) <= 1e-9,
                   f"diff {abs(d - 2.0 ** (-k / 2.0)):.2e}")
    points = usd_curve(10)
    bounds = [p.bound for p in points]
    crit.check("k=1 bound 0.2929", abs(bounds[0] - 0.2929) <= 1e-4, f"{bounds[0]:.6f}")
    # The curve is flat on each depth pair (2m-1, 2m) and drops strictly on
    # entering every odd depth; see test_pairs_flat_at_50_digits for the
    # 50-digit check of the pair equality. bound(3) = bound(4) = 1 - 5*sqrt(2)/8.
    crit.check("k=3,4 bound 1 - 5 sqrt(2)/8",
               all(abs(b - (1.0 - 5.0 * math.sqrt(2.0) / 8.0)) <= 1e-9
                   for b in bounds[2:4]), f"{bounds[2]:.12f}, {bounds[3]:.12f}")
    unequal_pairs = [2 * m for m in range(1, 6)
                     if abs(bounds[2 * m - 1] - bounds[2 * m - 2]) > 1e-9]
    crit.check("flat on depth pairs (2m-1, 2m)", not unequal_pairs,
               f"bound(k) != bound(k-1) for k in {unequal_pairs}")
    crit.check("non-increasing k=1..10",
               all(b.bound <= a.bound + 1e-9 for a, b in zip(points, points[1:])))
    crit.check("strict drop entering odd k",
               all(points[i].bound < points[i - 1].bound - 1e-9
                   for i in range(2, 10, 2)))
    crit.conclude()


def test_c06_bias_bounds():
    crit = Criterion(6, "biased-preparation conclusiveness bounds")
    ne = biased_analytics(math.pi / 8)
    sw = biased_analytics(5 * math.pi / 8)
    crit.check("analytic p_c(pi/8) = 0.1464", abs(ne.p_c - 0.1464) <= 1e-4,
               f"{ne.p_c:.6f}")
    crit.check("analytic p_c(5pi/8) = 0.8536", abs(sw.p_c - 0.8536) <= 1e-4,
               f"{sw.p_c:.6f}")
    trials = 10**6
    res_ne = biased_round_trials(math.pi / 8, trials, np.random.default_rng([SEED, 61]))
    res_sw = biased_round_trials(5 * math.pi / 8, trials, np.random.default_rng([SEED, 62]))
    p_c_ne, p_c_sw = res_ne.conclusive / trials, res_sw.conclusive / trials
    bit_error_ne = 1.0 - res_ne.bit_hits / res_ne.conclusive
    crit.check("empirical p_c(pi/8) 3 sigma",
               abs(p_c_ne - ne.p_c) <= 3.0 * stats.binomial_sigma(ne.p_c, trials),
               f"{p_c_ne:.5f}")
    crit.check("empirical p_c(5pi/8) 3 sigma",
               abs(p_c_sw - sw.p_c) <= 3.0 * stats.binomial_sigma(sw.p_c, trials),
               f"{p_c_sw:.5f}")
    crit.check("bit error at pi/8 is 50% within 3 sigma",
               abs(bit_error_ne - 0.5)
               <= 3.0 * stats.binomial_sigma(0.5, res_ne.conclusive),
               f"{bit_error_ne:.4f}")
    sweep = [biased_analytics(phi).p_c for phi in np.linspace(0.0, math.pi, 181)]
    crit.check("sweep confined to [0.1464, 0.8536]",
               min(sweep) >= 0.1464 and max(sweep) <= 0.8536,
               f"range [{min(sweep):.5f}, {max(sweep):.5f}]")
    crit.conclude()


def test_c07_entangled_register():
    crit = Criterion(7, "entangled-register attack statistics")
    trials = 10**6
    res = entangled_round_trials("conclusiveness_basis", trials,
                                 np.random.default_rng([SEED, 7]))
    crit.check("rho_c entrywise 5e-3",
               np.abs(res.rho_conclusive - np.eye(2) / 2).max() <= 5e-3,
               f"max dev {np.abs(res.rho_conclusive - np.eye(2) / 2).max():.4f}")
    rho_n_exact = np.array([[0.5, math.sqrt(2) / 3], [math.sqrt(2) / 3, 0.5]])
    crit.check("rho_n entrywise 5e-3",
               np.abs(res.rho_inconclusive - rho_n_exact).max() <= 5e-3,
               f"max dev {np.abs(res.rho_inconclusive - rho_n_exact).max():.4f}")
    guess_rate, bit_guess_rate = res.p_c_hits / trials, res.bit_hits / res.conclusive
    hw = stats.z_value(0.99) * stats.binomial_sigma(0.8536, trials)
    crit.check("conclusiveness guess ci vs 0.8536",
               abs(guess_rate - 0.8536) <= hw + 1e-4, f"{guess_rate:.5f}")
    hw_bit = stats.z_value(0.99) * stats.binomial_sigma(0.5, res.conclusive)
    crit.check("bit guess ci vs 0.5",
               abs(bit_guess_rate - 0.5) <= hw_bit, f"{bit_guess_rate:.5f}")
    rho_c, rho_n = conditional_register_mixtures()
    crit.check("register states unambiguously indistinguishable",
               not usd_bound(rho_c, rho_n).feasible)
    crit.note(f"conclusiveness guess {guess_rate:.5f}")
    crit.conclude()


def test_c08_no_signaling():
    crit = Criterion(8, "no-signaling audit over the strategy sweep")
    audit = no_signaling_audit(points=181, trials_per_point=20_000, seed=SEED)
    crit.check("basis guess 1/2 within 99% ci for every strategy",
               audit.basis_guess_ok)
    crit.check("max analytic p_c*p_b <= 1/2 exactly",
               audit.max_product_analytic <= 0.5,
               f"max {audit.max_product_analytic}")
    crit.note(f"max product {audit.max_product_analytic:.6f} "
              f"at {audit.max_product_strategy}")
    crit.conclude()


def test_c09_bb84_contrast():
    crit = Criterion(9, "basis announcements give the whole key away")
    report = bb84_attack_experiment(n=1000, k=4, trials=25, seed=SEED)
    crit.check("whole key known", report.passed["whole_key_known"])
    crit.check("error free", report.passed["error_free"])
    for n, k in ((64, 2), (300, 6)):
        rep = bb84_attack_experiment(n=n, k=k, trials=8, seed=SEED + n)
        crit.check(f"whole key known n={n} k={k}", rep.passed["whole_key_known"])
        crit.check(f"error free n={n} k={k}", rep.passed["error_free"])
    crit.conclude()


def test_c10_property_suite(honest_mc):
    crit = Criterion(10, "round trip, loss invariance, determinism, combining")
    crit.check("honest retrieval always correct (2000 runs)",
               honest_mc.passed["retrieval_correct"])
    crit.check("known bits always match the provider key",
               honest_mc.passed["known_bits_sound"])

    counts = [honest_category_counts(ProtocolConfig(n=500, k=2, eta=eta, seed=SEED),
                                     trials=150)
              for eta in (1.0, 0.1)]
    _, p_value, _, _ = chi2_contingency(np.stack(counts))
    crit.check("loss invariance chi-square p > 0.01", p_value > 0.01,
               f"p = {p_value:.4f}")

    config = ProtocolConfig(n=400, k=3, seed=SEED)
    a = monte_carlo(config, trials=50).to_json()
    b = monte_carlo(config, trials=50).to_json()
    crit.check("seeded reports byte-exact", a == b)
    db = np.random.default_rng(SEED).integers(0, 2, 400, dtype=np.uint8)
    t1 = run_protocol(config, db, 7)
    t2 = run_protocol(config, db, 7)
    crit.check("seeded transcripts identical",
               t1.to_dict(verbose=True) == t2.to_dict(verbose=True))

    combine = multi_string_combine(m=3, n=10_000, k=6, trials=120, seed=SEED)
    crit.check("combined key never empty", combine.passed["at_least_one_always"])
    crit.check("one combined bit dominates (property-style)",
               combine.empirical["p_exactly_one"] >= 0.9,
               f"{combine.empirical['p_exactly_one']:.3f}")
    crit.note(f"loss chi-square p {p_value:.3f}; combine distribution "
              f"{combine.extra['distribution']}")
    crit.conclude()
