"""Experiment-layer tests: closed forms, drivers, reports, combining."""

import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from qpq import experiments, protocol, stats
from qpq.adversaries import (
    USD_SUCCESS,
    Bb84MemoryAlice,
    BiasedBob,
    EntangledBob,
    UsdAlice,
)
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
from qpq.protocol import (
    CHUNK,
    HonestAlice,
    HonestBob,
    ObliviousKey,
    ProtocolConfig,
    RestartLimitExceeded,
    run_protocol,
)

from conftest import cheat_detection, honest_category_counts, parity_usd_bound_50_digits


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

    def test_cheating_on_both_sides_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(experiments, "_map_trials", no_draw)
        monkeypatch.setattr(protocol, "_send", no_draw)
        with pytest.raises(ValueError, match="both sides"):
            monte_carlo(ProtocolConfig(n=40, k=3), alice=UsdAlice(), bob=BiasedBob(0.3),
                        trials=20)

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


class TestHonestMonteCarloDigests:
    """sha256 of 200-trial honest `monte_carlo` reports.

    No CLI command runs honest `monte_carlo`, so the CLI digests cannot see
    these reports. The points are the benchmark's lossy (1000, 4) run, the
    same run at eta = 1 and under basis announcements, and a restart-heavy
    point where most first attempts know no bit and some runs exhaust their
    restarts. Pinned while every trial still ran through `run_protocol`.
    """

    POINTS = {
        "lossy": {"n": 1000, "k": 4, "eta": 0.5},
        "lossless": {"n": 1000, "k": 4},
        "bb84": {"n": 1000, "k": 4, "eta": 0.5, "announcement": "bb84"},
        "restart-heavy": {"n": 7, "k": 2, "eta": 0.8, "max_restarts": 3},
    }
    DIGESTS = {
        ("lossy", 12345):
            "56501b0d85b4a74037c21cefacc2b2d2d0183a62203eaccace59309b8c7029d5",
        ("lossless", 12345):
            "7ec24ae1902081dd0465109aa4f4192c7c2b328f6f276f01dfdf49abe6678d96",
        ("bb84", 12345):
            "06582d594ff30a1b8ecc67e8ae3374721a5f7213c9dc34a27fde19d1f02ce48d",
        ("restart-heavy", 12345):
            "5c8454f482a99180bb84a0fed167436a5e38b4b879e598296692de5b19a7c4e0",
        ("lossy", 7):
            "641b298967d95ca52fa4f4678447164173b366a0f0970cd3a55773e97bb3600d",
        ("lossless", 7):
            "a1da08af2eb938fdb73aa6f952b9ce3451628cd87ab15bf1fa3db71396cdc1c7",
        ("bb84", 7):
            "7923de886105607da3d35b2c07cb8574a7c7b6b1f53b9789147d2ade69ebf90b",
        ("restart-heavy", 7):
            "6d7a1c7a3d65d01f74428e0628770e16967d0f5fc61246938f516fde594b2183",
    }

    @pytest.mark.parametrize("name,seed", list(DIGESTS),
                             ids=[f"{name}-seed{seed}" for name, seed in DIGESTS])
    def test_report_digest(self, name, seed):
        report = monte_carlo(ProtocolConfig(seed=seed, **self.POINTS[name]), trials=200)
        digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode())
        assert digest.hexdigest() == self.DIGESTS[name, seed]


def per_trial(config, alice, bob, trials):
    """Each trial as one `run_protocol` call on its stream `[seed, t]`, after
    its database and target: the trial-by-trial route of `monte_carlo`."""
    results = []
    for t in trials:
        rng = np.random.default_rng([config.seed, t])
        database = rng.integers(0, 2, config.n, dtype=np.uint8)
        target = int(rng.integers(config.n))
        try:
            run = run_protocol(config, database, target, alice=alice, bob=bob, rng=rng)
        except RestartLimitExceeded as exc:
            results.append(experiments.TrialResult(
                False, True, 0, 0, 0, sum(exc.conclusive_counts),
                config.raw_length * exc.attempts, False))
            continue
        results.append(experiments.TrialResult(
            success=True, restarted=run.restarts > 0, first_known=run.attempt_known_counts[0],
            final_known=run.key.known.size, known_mismatches=len(run.key.mismatched_indices()),
            conclusive_total=sum(run.attempt_conclusive_counts),
            kept_total=config.raw_length * (run.restarts + 1),
            retrieved_correct=run.retrieved_bit == int(database[target])))
    return results


class TestTrialBatches:
    """`monte_carlo` makes the first attempts of CHUNK // (n * k) trials as one
    batch, and each trial's result is the one `per_trial` gives."""

    # id: (alice, bob, config, trials, whether some first attempt knows no bit)
    CASES = {
        "honest-lossless": (None, None, dict(n=1000, k=4), 37, True),
        "honest-lossy": (None, None, dict(n=1000, k=4, eta=0.5), 37, True),
        "honest-bb84-lossy": (None, None, dict(n=1000, k=4, eta=0.37, announcement="bb84"),
                              37, False),
        "honest-odd-raw-length": (None, None, dict(n=301, k=3, eta=0.37), 150, True),
        "honest-restarts-3": (None, None, dict(n=7, k=2, eta=0.8, max_restarts=3), 300, True),
        "honest-restarts-1": (None, None, dict(n=7, k=2, eta=0.8, max_restarts=1), 300, True),
        "honest-restarts-0": (None, None, dict(n=7, k=2, eta=0.8, max_restarts=0), 300, True),
        "honest-chunk": (None, None, dict(n=CHUNK // 4, k=4, eta=0.5), 3, False),
        "honest-chunk-plus-one": (None, None, dict(n=CHUNK + 1, k=1, eta=0.5), 3, False),
        "usd": (UsdAlice(), None, dict(n=40, k=3), 600, True),
        "usd-lossy-past-chunk": (UsdAlice(), None, dict(n=CHUNK // 2 + 1, k=2, eta=0.5), 3,
                                 False),
        "bb84-memory-bases": (Bb84MemoryAlice(), None, dict(n=10, k=2, announcement="bb84"),
                              30, False),
        "bb84-memory-pairs": (Bb84MemoryAlice(), None, dict(n=10, k=3), 100, True),
        "biased-0.3": (None, BiasedBob(0.3), dict(n=20, k=2, max_restarts=1), 100, True),
        "register-honest": (None, EntangledBob("honest_basis"), dict(n=20, k=2), 100, True),
        "register-conclusiveness": (None, EntangledBob("conclusiveness_basis"),
                                    dict(n=20, k=2), 100, True),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_every_trial_result_equals_one_run_protocol_call(self, name):
        """Field for field and type for type, over every batch of a trial count
        that is not a multiple of the batch size (but for batches of one
        trial). At (7, 2, eta = 0.8) about 60% of first attempts know no bit;
        with no restart allowed those trials fail."""
        alice, bob = protocol._strategies(*self.CASES[name][:2])
        params, trials, empty_firsts = self.CASES[name][2:]
        config = ProtocolConfig(seed=23, **params)
        size = max(1, CHUNK // config.raw_length)
        assert size == 1 or trials % size
        spans = [range(lo, min(trials, lo + size)) for lo in range(0, trials, size)]
        got = [r for span in spans for r in experiments._trial_results(config, alice, bob, span)]
        want = per_trial(config, alice, bob, range(trials))
        assert got == want
        assert all(type(a) is type(b) for r, w in zip(got, want) for a, b in zip(r, w))
        assert any(r.first_known == 0 for r in want) == empty_firsts
        if config.max_restarts < 3 and empty_firsts:
            assert 0 < sum(not r.success for r in got) < trials

    @pytest.mark.parametrize("n,k,batched", [(CHUNK // 8, 4, True), (CHUNK + 1, 1, False)],
                             ids=["raw-length-chunk", "raw-length-chunk-plus-one"])
    def test_the_honest_gather_stops_past_one_chunk(self, n, k, batched, monkeypatch):
        """Two trials at n * k = CHUNK / 2 fill one batch of CHUNK raw qubits,
        which runs the honest rows; past one chunk a batch holds one trial,
        which runs one `_run_attempt`."""
        config = ProtocolConfig(n=n, k=k, eta=0.5, seed=4)
        calls = []
        attempt = protocol._run_attempt
        monkeypatch.setattr(protocol, "_run_attempt",
                            lambda *args: calls.append(1) or attempt(*args))
        monte_carlo(config, trials=2)
        assert len(calls) == (0 if batched else 2)

    @pytest.mark.parametrize("alice,bob,eta,max_restarts", [
        (None, None, 1.0, 20), (None, None, 0.5, 20), (None, None, 0.8, 0),
        (UsdAlice(), None, 1.0, 1), (None, BiasedBob(0.3), 0.8, 2),
    ], ids=["honest", "honest-lossy", "honest-restart-limit", "usd", "biased-0.3-lossy"])
    def test_reports_equal_trial_by_trial_runs(self, alice, bob, eta, max_restarts,
                                               monkeypatch):
        """250 trials; the honest pair runs them in batches of 109, 109 and 32."""
        config = ProtocolConfig(n=200, k=3, eta=eta, max_restarts=max_restarts, seed=8)
        report = monte_carlo(config, alice=alice, bob=bob, trials=250).to_json()
        monkeypatch.setattr(experiments, "_trial_results", per_trial)
        assert monte_carlo(config, alice=alice, bob=bob, trials=250).to_json() == report

    @pytest.mark.parametrize("alice", [None, UsdAlice()], ids=["honest", "usd"])
    def test_no_attempt_is_made_twice(self, alice, monkeypatch):
        """At (7, 2, eta = 0.8) most first attempts know no bit. Bob sends once
        per attempt of the trial-by-trial runs: an empty first attempt goes
        on along its stream, and is not made again from the trial's seed."""
        config = ProtocolConfig(n=7, k=2, eta=0.8, max_restarts=3, seed=31)
        attempts = sum(r.kept_total // config.raw_length
                       for r in per_trial(config, alice, HonestBob(), range(300)))
        sends = []
        send = protocol._send
        monkeypatch.setattr(protocol, "_send", lambda *args: sends.append(1) or send(*args))
        monte_carlo(config, alice=alice, trials=300)
        assert len(sends) == attempts > 300

    def test_job_count_does_not_change_the_report(self):
        config = ProtocolConfig(n=1000, k=4, eta=0.5, seed=19)
        assert (monte_carlo(config, trials=37, jobs=2).to_json()
                == monte_carlo(config, trials=37, jobs=1).to_json())

    @pytest.mark.parametrize("user", [HonestAlice, UsdAlice], ids=["honest", "usd"])
    def test_honest_subclasses_keep_their_own_seams(self, user):
        """A strategy that overrides a user's `respond` keeps its own seams: the
        honest routes and `UsdAlice.known_final` serve those classes alone."""
        responses = []

        class CountingAlice(user):
            def respond(self, rounds, kept, config, rng):
                responses.append(kept.size)
                return super().respond(rounds, kept, config, rng)

        config = ProtocolConfig(n=100, k=2, seed=6)
        report = monte_carlo(config, alice=CountingAlice(), trials=20)
        assert len(responses) >= 20
        assert (report.to_dict()["empirical"]
                == monte_carlo(config, alice=user(), trials=20).to_dict()["empirical"])

    def test_peak_memory_does_not_grow_with_trials(self):
        """2,000 trials at (1000, 4) peak within 1.5x of 200: the batch arrays
        are sized by CHUNK and each trial leaves only its tally behind. Each
        run follows an untraced one, which loads what `default_rng` imports
        lazily."""
        def traced_peak(trials):
            run = lambda: monte_carlo(ProtocolConfig(n=1000, k=4, seed=3), trials=trials)
            run()
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(2000) <= 1.5 * traced_peak(200)


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

    @pytest.mark.parametrize("known_sets", [[], np.empty((0, 3), dtype=np.int64)],
                             ids=["list", "array"])
    def test_no_input_set_rejected(self, known_sets):
        with pytest.raises(ValueError, match="^known_sets is empty"):
            combine_known_sets(known_sets, n=10)

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


class TestKeysStayArrays:
    """No engine or driver path builds a key's `alice_known` dict."""

    @pytest.fixture(autouse=True)
    def no_dict(self, monkeypatch):
        def taken(key):
            raise AssertionError("alice_known was built")
        monkeypatch.setattr(ObliviousKey, "alice_known", property(taken))

    def test_run_protocol_and_its_readers(self):
        config = ProtocolConfig(n=200, k=2, seed=3)
        database = np.random.default_rng(1).integers(0, 2, config.n, dtype=np.uint8)
        t = run_protocol(config, database, 5)
        assert t.retrieved_bit == database[5]
        assert t.to_dict()["known_indices"] == t.key.known_indices()
        assert t.key.mismatched_indices() == [] and cheat_detection([t], 3) in (None, 0.0)

    def test_honest_lossy_monte_carlo_with_restarts(self):
        report = monte_carlo(ProtocolConfig(n=20, k=2, eta=0.5, seed=4), trials=40)
        assert report.empirical["restart_fraction"] > 0 and report.extra["failures"] == 0

    def test_bb84_memory_monte_carlo_under_basis_announcements(self):
        monte_carlo(ProtocolConfig(n=100, k=2, seed=5, announcement="bb84"),
                    alice=Bb84MemoryAlice(), trials=10)

    def test_multi_string_combine(self):
        multi_string_combine(m=3, n=200, k=3, trials=10, seed=6)


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
