"""Experiment-layer tests: closed forms, drivers, reports, combining."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from qpq import experiments, stats
from qpq.adversaries import USD_SUCCESS, BiasedBob, EntangledBob, UsdAlice
from qpq.experiments import (
    TABLE1_REFERENCE,
    bb84_attack_experiment,
    combine_known_sets,
    helstrom_experiment,
    key_stats,
    monte_carlo,
    multi_string_combine,
    table1,
    table1_matches_reference,
    usd_attack_experiment,
    usd_curve,
    usd_curve_experiment,
)
from qpq.protocol import ProtocolConfig, run_protocol

from conftest import honest_category_counts, parity_usd_bound_50_digits


class TestKeyStats:
    def test_thousand_by_four(self):
        ks = key_stats(1000, 4)
        assert ks.n_bar == pytest.approx(3.90625, abs=1e-12)
        assert f"{ks.p0:.3f}" == "0.020"

    def test_fifty_thousand_by_seven(self):
        ks = key_stats(50_000, 7)
        assert f"{ks.n_bar:.2f}" == "3.05"
        assert f"{ks.p0:.3f}" == "0.047"

    def test_all_conclusive_degenerates(self):
        ks = key_stats(123, 5, p_conclusive=1.0)
        assert ks.n_bar == 123
        assert ks.p0 == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            key_stats(0, 1)
        with pytest.raises(ValueError):
            key_stats(1, 1, p_conclusive=0.0)


class TestTable1:
    def test_all_six_rows_round_to_the_reference(self):
        assert table1_matches_reference()
        for row, (n, k, p0_str, nbar_str) in zip(table1(), TABLE1_REFERENCE):
            assert (row.n, row.k) == (n, k)
            assert row.p0_display == p0_str
            assert row.n_bar_display == nbar_str

    def test_poisson_approximation_is_close_at_the_reference_points(self):
        for row in table1():
            assert abs(row.stats.p0 - row.stats.poisson_approx) <= 0.003


class TestMonteCarlo:
    def test_honest_statistics_pass_their_checks(self):
        report = monte_carlo(ProtocolConfig(n=1000, k=4, seed=404), trials=250)
        assert report.all_passed()
        assert report.extra["failures"] == 0
        assert report.empirical["retrieval_correct_rate"] == 1.0

    def test_reports_are_byte_identical_for_a_seed(self):
        config = ProtocolConfig(n=300, k=3, seed=11)
        a = monte_carlo(config, trials=60).to_json()
        b = monte_carlo(config, trials=60).to_json()
        assert a == b

    def test_job_count_does_not_change_results(self):
        config = ProtocolConfig(n=200, k=2, seed=13)
        serial = monte_carlo(config, trials=24, jobs=1)
        parallel = monte_carlo(config, trials=24, jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_restart_exhaustion_counts_as_failure(self):
        config = ProtocolConfig(n=1, k=25, seed=3, max_restarts=1)
        report = monte_carlo(config, trials=8)
        assert report.extra["failures"] == 8
        assert report.empirical["restart_fraction"] == 1.0

    def test_known_mean_check_holds_its_level_at_a_rare_known_bit(self):
        """At n = 1000, k = 8 a first attempt knows a bit with chance 1.5%, so most
        50-trial samples of the count are all 0, with a zero-width interval.

        Over 100 unused seeds the check may fail no more often than a 1% level
        allows, by a one-sided exact binomial test at 99%. Only first attempts
        enter the check, so each run stops after its first attempt.
        """
        seeds = range(7100, 7200)
        failures = sum(
            not monte_carlo(ProtocolConfig(n=1000, k=8, seed=s, max_restarts=0),
                            trials=50).passed["known_mean"]
            for s in seeds)
        assert stats.binomial_tails(failures, len(seeds), 0.01)[1] > 0.01

    def test_one_restart_at_a_tiny_restart_probability_passes(self):
        """p0 = 8.3e-4 and 20 trials: one restart has chance 1.6%, inside the 99% test.

        The Wilson interval of 1/20 starts at 0.0059, above p0, so a coverage
        check on it would call this draw a 99% failure.
        """
        config = ProtocolConfig(n=110, k=2, seed=98)
        report = monte_carlo(config, trials=20)
        p0 = key_stats(110, 2).p0
        assert report.empirical["restart_fraction"] == 1 / 20
        assert report.analytic["restart_fraction"] == p0 < 1e-3
        center, half = stats.wilson_interval(1, 20)
        assert center - half > p0
        assert report.passed["restart_fraction"]

    def test_usd_strategy_uses_its_own_analytics(self):
        report = monte_carlo(ProtocolConfig(n=1500, k=2, seed=2), alice=UsdAlice(),
                             trials=150)
        assert report.analytic["conclusive_rate"] == pytest.approx(USD_SUCCESS)
        assert report.analytic["known_mean"] == pytest.approx(1500 * USD_SUCCESS ** 2)
        assert report.passed["known_mean"]

    @pytest.mark.parametrize("alice,p_c", [(None, 0.25), (UsdAlice(), USD_SUCCESS)],
                             ids=["honest", "usd"])
    def test_dispersion_is_checked_against_the_binomial_ratio(self, alice, p_c):
        """First-attempt known counts are Binomial(n, p_c**k): variance over mean is 1 - p_c**k.

        At k = 1 that is 0.75 for the honest user and 1/sqrt(2) for the
        discrimination attack, far enough from the Poisson limit 1 to fail there.
        """
        trials = 2000
        report = monte_carlo(ProtocolConfig(n=1000, k=1, seed=5), alice=alice, trials=trials)
        expected = 1.0 - p_c
        assert report.analytic["known_dispersion"] == expected
        assert report.ci99["known_dispersion"] == \
            expected * stats.z_value(0.99) * math.sqrt(2.0 / (trials - 1))
        assert report.passed["known_dispersion"]
        assert abs(report.empirical["known_dispersion"] - 1.0) > report.ci99["known_dispersion"]

    def test_category_counts_cover_all_kept_qubits(self):
        counts = honest_category_counts(ProtocolConfig(n=100, k=2, seed=1), trials=10)
        assert counts.sum() >= 10 * 200  # restarts can only add attempts


class TestProviderMonteCarloDigests:
    """sha256 of `monte_carlo` reports under the provider strategies.

    No CLI command runs `monte_carlo` with a provider strategy, so the CLI
    digests cannot see these reports. Pinned while each strategy still
    stated a soundness flag beside its conclusive rate, before the two
    became one `Law`.
    """

    BOBS = {
        "biased-0.3": BiasedBob(0.3),
        "register-honest": EntangledBob("honest_basis"),
        "register-conclusiveness": EntangledBob("conclusiveness_basis"),
    }
    DIGESTS = {
        ("biased-0.3", 12345):
            "73524818b943c21d3e0bb9bf2b0b19ac98f2bc87900d5727ab9f223517e909b4",
        ("register-honest", 12345):
            "5f5b4166912c28604101989b73967ff9663c449d548a4dcc10ac83fa96acb40e",
        ("register-conclusiveness", 12345):
            "28ddab4ffa432bd818f0748d86f443220cf9abea7072c4c15e7e49c4ea8e2183",
        ("biased-0.3", 7):
            "6c0a0e2516eca9d98a175ef3d33ba3e5839b10e0634f10383c82413994ce9418",
        ("register-honest", 7):
            "c71a880f343b664f33ea2e660fa3ffa79137c4d958db8f20c8c47a2184ba4ba6",
        ("register-conclusiveness", 7):
            "75b5904ed4215a92dc1a6c143cd251b1d9e9b6e7dcdfe509722d99de9fc347bc",
    }

    @pytest.mark.parametrize("name,seed", list(DIGESTS),
                             ids=[f"{name}-seed{seed}" for name, seed in DIGESTS])
    def test_report_digest(self, name, seed):
        report = monte_carlo(ProtocolConfig(n=2000, k=2, seed=seed), bob=self.BOBS[name],
                             trials=20)
        digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode())
        assert digest.hexdigest() == self.DIGESTS[name, seed]


class TestUsdCurve:
    def test_first_value_and_monotonicity(self):
        points = usd_curve(8)
        assert points[0].bound == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-9)
        bounds = [p.bound for p in points]
        assert all(b <= a + 1e-9 for a, b in zip(bounds, bounds[1:]))

    def test_experiment_report_flags(self):
        report = usd_curve_experiment(k_max=8)
        assert report.passed["k1_value"]
        assert report.passed["non_increasing"]
        assert report.passed["strict_decrease_even_to_odd"]
        assert len(report.extra["points"]) == 8

    def test_pairs_flat_at_50_digits(self):
        # Independent route to the curve's shape: at 50 digits the gaps on the
        # depth pairs (1,2) and (3,4) come out near 1e-26, the rounding left by
        # square roots of the rank-deficient spectra, so the pairs are equal.
        pytest.importorskip("mpmath")
        exact = [parity_usd_bound_50_digits(k) for k in range(1, 5)]
        assert abs(exact[1] - exact[0]) < 1e-20
        assert abs(exact[3] - exact[2]) < 1e-20
        bounds = [p.bound for p in usd_curve(4)]
        assert bounds == pytest.approx([float(b) for b in exact], abs=1e-12)

    def test_reaches_k_max_flat_on_every_depth_pair(self):
        bounds = [p.bound for p in usd_curve(16)]
        for m in range(1, 9):
            assert abs(bounds[2 * m - 1] - bounds[2 * m - 2]) <= 1e-12
        assert all(b < a - 1e-6 for a, b in zip(bounds[1::2], bounds[2::2]))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            usd_curve(0)
        with pytest.raises(ValueError):
            usd_curve(17)


class TestAttackExperiments:
    def test_usd_attack_report(self):
        report = usd_attack_experiment(n=2000, k=3, trials=120,
                                       qubit_samples=200_000, seed=5)
        assert report.passed["qubit_success_rate"]
        assert report.passed["run_known_mean"]

    def test_helstrom_report(self):
        report = helstrom_experiment(k=3, trials=40_000, seed=5)
        assert report.passed["routes_agree_1e9"]
        assert report.passed["guess_rate"]
        assert report.extra["max_route_difference"] <= 1e-9

    def test_bb84_report(self):
        report = bb84_attack_experiment(n=300, k=3, trials=20, seed=5)
        assert report.all_passed()
        assert report.analytic["known_mean_bb84"] == 300.0

    @pytest.mark.parametrize("call", [
        lambda: monte_carlo(ProtocolConfig(n=10, k=1), trials=1),
        lambda: bb84_attack_experiment(n=10, k=1, trials=1),
        lambda: usd_attack_experiment(n=200, k=2, trials=1),
    ], ids=["monte-carlo", "bb84", "usd"])
    def test_fewer_than_two_trials_rejected_before_any_draw(self, call, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw was made")

        for name in ("run_protocol", "usd_success_trials", "_map_trials"):
            monkeypatch.setattr(experiments, name, no_draw)
        with pytest.raises(ValueError, match="trials must be >= 2"):
            call()


class TestCombine:
    def test_single_string_is_the_identity(self):
        known = [3, 7, 11]
        out = combine_known_sets([known], n=20)
        assert out.size == 3

    def test_two_singletons_force_exactly_one(self):
        out = combine_known_sets([[4], [17]], n=30)
        assert out.tolist() == [0]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            combine_known_sets([[1], []], n=10)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            combine_known_sets([[11]], n=10)

    def test_alignment_keeps_joint_positions(self):
        # strings already sharing structure: {0,5} and {2,7} align to {0,5}
        out = combine_known_sets([[0, 5], [2, 7]], n=10)
        assert out.tolist() == [0, 5]

    def test_driver_reports_a_distribution(self):
        report = multi_string_combine(m=2, n=400, k=4, trials=50, seed=8)
        assert report.passed["at_least_one_always"]
        dist = report.extra["distribution"]
        assert sum(dist.values()) == 50
        assert report.empirical["p_exactly_one"] >= 0.9

    def test_driver_single_string_matches_run_distribution(self):
        report = multi_string_combine(m=1, n=200, k=3, trials=40, seed=4)
        counts = []
        config = ProtocolConfig(n=200, k=3, seed=report.params["seed"], max_restarts=200)
        for trial in range(40):
            rng = np.random.default_rng([config.seed, trial])
            t = run_protocol(config, np.zeros(200, dtype=np.uint8), 0, rng=rng)
            counts.append(len(t.key.alice_known))
        dist = report.extra["distribution"]
        values, freqs = np.unique(counts, return_counts=True)
        assert dist == {int(v): int(f) for v, f in zip(values, freqs)}

    @pytest.mark.parametrize("trials", [0, -1])
    def test_driver_rejects_fewer_than_one_trial(self, trials):
        with pytest.raises(ValueError, match="trial"):
            multi_string_combine(m=2, n=100, k=2, trials=trials)

    def test_driver_job_count_is_immaterial(self):
        a = multi_string_combine(m=2, n=150, k=3, trials=16, seed=3, jobs=1)
        b = multi_string_combine(m=2, n=150, k=3, trials=16, seed=3, jobs=2)
        assert a.to_json() == b.to_json()


def _square(base, t):
    return base + t * t


class TestTrialMapper:
    def test_workers_clamp_to_jobs_cores_and_chunks(self):
        assert experiments._worker_count(8, 100, cpus=2) == 2
        assert experiments._worker_count(8, 3, cpus=64) == 3
        assert experiments._worker_count(2, 100, cpus=64) == 2
        assert experiments._worker_count(1, 100, cpus=64) == 1
        assert experiments._worker_count(4, 0, cpus=4) == 1
        assert experiments._worker_count(4, 10) <= (os.cpu_count() or 1)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            experiments._worker_count(jobs, 10, cpus=4)
        with pytest.raises(ValueError, match="jobs"):
            monte_carlo(ProtocolConfig(n=10, k=1), trials=2, jobs=jobs)

    def test_one_chunk_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        assert experiments._map_trials(_square, (10,), 1, jobs=64) == [10]
        assert experiments._map_trials(_square, (10,), 4, jobs=1) == [10, 11, 14, 19]

    def test_two_workers_keep_trial_order(self):
        assert experiments._map_trials(_square, (1,), 5, jobs=2) == [1, 2, 5, 10, 17]


class TestReportRendering:
    def test_text_table_contains_verdicts(self):
        report = monte_carlo(ProtocolConfig(n=200, k=2, seed=7), trials=40)
        text = report.to_text()
        assert "experiment: monte_carlo" in text
        assert "known_mean" in text
        assert "pass" in text

    def test_json_roundtrip_excludes_runtime(self):
        report = monte_carlo(ProtocolConfig(n=100, k=2, seed=7), trials=10)
        assert "runtime" not in report.to_json()
        assert report.runtime_s > 0.0
