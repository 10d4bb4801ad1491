"""Attack-strategy tests: discrimination attacks, register attacks, audits."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qpq import adversaries, protocol, stats
from qpq.adversaries import (
    ER_MODES,
    ER_OUTCOME_PROBS,
    ER_REGISTER_ONE_PROB,
    ER_REGISTERS,
    USD_LOW,
    USD_SUCCESS,
    USD_THRESHOLD,
    USD_TOP,
    Bb84MemoryAlice,
    BiasedBob,
    EntangledBob,
    UsdAlice,
    alice_joint_helstrom,
    biased_analytics,
    biased_attack_report,
    biased_round_trials,
    conclusiveness_guess_bound,
    conditional_register_mixtures,
    entangled_attack_report,
    entangled_round_trials,
    helstrom_measurement_trials,
    no_signaling_audit,
    usd_success_trials,
)
from qpq.experiments import monte_carlo
from qpq.protocol import (
    CONCLUSIVE_TABLE,
    OUTCOME_SECOND_PROB,
    HonestAlice,
    HonestBob,
    ProtocolConfig,
    RestartLimitExceeded,
    CHUNK,
    FLOAT_PIECE,
    SargSymbol,
    run_protocol,
)
from qpq.quantum import K_MAX, sarg_state

from conftest import (
    BIT_GENERATORS,
    ROUND_FIELDS,
    biased_round_law,
    biased_round_trials_per_trial,
    cheat_detection,
    entangled_round_law,
    entangled_round_trials_per_trial,
    helstrom_measurement_trials_dense,
    helstrom_measurement_trials_integers,
    usd_bound,
    usd_success_trials_bytes,
    xor_error_bruteforce,
)


def three_sigma(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def usd_response(n, rng):
    """Honest rounds and the discrimination attack's records of them."""
    config = ProtocolConfig(n=n, k=1)
    rounds = HonestBob().rounds(n, config, rng)
    return rounds, UsdAlice().respond(rounds, np.arange(n), config, rng)


def attack_records(alice, n=2500, k=2, eta=1.0, announcement="sarg", seed=41):
    """Per-qubit records of one full run against a user-side attack."""
    config = ProtocolConfig(n=n, k=k, eta=eta, seed=seed, announcement=announcement)
    return run_protocol(config, np.zeros(n, dtype=np.uint8), 0, alice=alice).records


def assert_discrimination_records(records):
    """Kept qubits: a correct bit and posterior NaN where conclusive, -1 and 1/2 where not."""
    det = records.detected
    conclusive, inconclusive = det & records.conclusive, det & ~records.conclusive
    assert conclusive.any() and inconclusive.any()
    assert np.array_equal(records.alice_bit[conclusive], records.sent[conclusive] & 1)
    assert (records.alice_bit[inconclusive] == -1).all()
    assert np.isnan(records.posterior_bit1[conclusive]).all()
    assert (records.posterior_bit1[inconclusive] == 0.5).all()
    assert np.isnan(records.posterior_bit1[~det]).all()


class TestUsdAttack:
    def test_success_rate_at_one_million_samples(self, rng):
        n = 1_000_000
        rate = usd_success_trials(n, rng).mean()
        assert abs(rate - USD_SUCCESS) <= three_sigma(USD_SUCCESS, n)
        assert USD_SUCCESS == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)

    def test_closed_form_is_the_discrimination_bound_bit_for_bit(self):
        bound = usd_bound(sarg_state(SargSymbol.UP).density(),
                          sarg_state(SargSymbol.RIGHT).density()).bound
        assert USD_SUCCESS == bound == 0.2928932188134524

    @pytest.mark.parametrize("spare", [False, True], ids=["aligned", "spare-half"])
    @pytest.mark.parametrize("size", [1, 7, 4000, CHUNK + 1])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
    def test_coins_repeat_the_byte_twin(self, bit_generator, size, spare):
        """Same coins, generator state and next draw as the Python-int twin,
        with and without a spare 32-bit half held at entry. At CHUNK + 1 the
        top bytes take an odd number of 32-bit words when aligned, so the
        tie words start on a spare half."""
        mine, ref = (np.random.Generator(bit_generator([size, 18])) for _ in range(2))
        if spare:
            for gen in (mine, ref):
                gen.integers(0, 2**32 - 1, dtype=np.uint32)
        got = usd_success_trials(size, mine)
        want = usd_success_trials_bytes(size, ref)
        assert got.dtype == bool and np.array_equal(got, want)
        assert repr(mine.bit_generator.state) == repr(ref.bit_generator.state)
        assert mine.random() == ref.random()

    @pytest.mark.parametrize("layout", ["honest", "gathered"])
    @pytest.mark.parametrize("kept_kind", ["mask", "index"])
    @pytest.mark.parametrize("size", [CHUNK - 1, CHUNK + 3, 3 * CHUNK + 5])
    def test_records_repeat_the_byte_twin(self, size, kept_kind, layout):
        """The packed records are `_pack` of the twin's coins: conclusive with
        the sent symbol's bit where a coin wins, no outcome and no bit
        elsewhere. `kept` is the engine's broadcast mask or increasing
        indices; the gathered layout's `sent` is not the honest symbol bits,
        so the sent symbols are gathered from it."""
        fields = protocol.HONEST_LAYOUTS["sarg"]
        if layout == "gathered":
            fields = fields._replace(sent=fields.sent[::-1])
        draw = np.random.default_rng([size, 26])
        total = size if kept_kind == "mask" else size + 999
        rounds = protocol.BobRounds(code=draw.integers(0, 8, total, dtype=np.uint8),
                                    layout=fields)
        if kept_kind == "mask":
            kept = np.broadcast_to(np.True_, size)
        else:
            kept = np.sort(draw.choice(total, size, replace=False))
        mine, ref = (np.random.default_rng([size, 27]) for _ in range(2))
        got = UsdAlice().respond(rounds, kept, ProtocolConfig(n=10, k=1), mine).packed
        won = usd_success_trials_bytes(size, ref)
        sent = np.array(fields.sent, dtype=np.int8)[rounds.code[kept]]
        want = protocol._pack(-1, won, np.where(won, sent & 1, -1))
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert repr(mine.bit_generator.state) == repr(ref.bit_generator.state)

    def test_threshold_is_the_float_rule_on_the_53_bit_grid(self):
        """U / 2^53 < USD_SUCCESS exactly when U < USD_THRESHOLD, for every
        53-bit U: the rule is monotone in U, and it flips between T - 1 and T."""
        assert (USD_THRESHOLD - 1) / 2**53 < USD_SUCCESS
        assert not USD_THRESHOLD / 2**53 < USD_SUCCESS
        assert USD_TOP << 45 | USD_LOW == USD_THRESHOLD

    def test_coins_at_the_threshold_on_both_levels(self, monkeypatch):
        """U = T - 1 succeeds and U = T fails, and a top byte off USD_TOP
        settles the coin whatever the tie words hold."""
        top = np.array([USD_TOP - 1, USD_TOP, USD_TOP, USD_TOP + 1], dtype=np.uint8)
        words = np.array([USD_LOW - 1, USD_LOW], dtype="<u8") << 19 | (2**19 - 1)

        def top_pieces(rng, count, out):
            out[:count] = top
            yield 0, out[:count]

        monkeypatch.setattr(adversaries, "_byte_pieces", top_pieces)
        monkeypatch.setattr(adversaries, "_byte_draws", lambda rng, count: words.view(np.uint8))
        assert usd_success_trials(4, None).tolist() == [True, True, False, False]

    def test_coin_peak_memory(self):
        """At audit's 350,000 coins the draw peaks at about 1.5 bytes per coin:
        the top bytes, overwritten by the coins, and one piece's masks."""
        trials = 350_000
        rng = np.random.default_rng(7)
        tracemalloc.start()
        try:
            usd_success_trials(trials, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / trials <= 2.0

    def test_scalar_interpret_matches_rate(self, rng):
        n = 30_000
        _, res = usd_response(n, rng)
        assert abs(res.conclusive.sum() - USD_SUCCESS * n) <= \
            3.0 * math.sqrt(USD_SUCCESS * (1.0 - USD_SUCCESS) * n)

    def test_conclusive_results_are_never_wrong(self, rng):
        rounds, res = usd_response(5000, rng)
        assert res.conclusive.any()
        assert np.array_equal(res.bit[res.conclusive], rounds.sent[res.conclusive] & 1)
        assert (res.bit[~res.conclusive] == -1).all()
        assert_discrimination_records(attack_records(UsdAlice()))

    def test_lossy_run_records(self):
        """At eta < 1 the attack reads only the detected qubits' symbols."""
        records = attack_records(UsdAlice(), eta=0.7)
        assert not records.detected.all()
        assert records.kept_count == 2500 * 2
        assert_discrimination_records(records)

    @pytest.mark.parametrize("method", ["respond", "known_final"])
    def test_sent_symbol_must_be_announced(self, rng, method):
        """The attack needs a definite announced symbol; a biased state has none."""
        config = ProtocolConfig(n=10, k=1)
        rounds = BiasedBob(0.3).rounds(10, config, rng)
        with pytest.raises(ValueError, match="definite sent symbols"):
            getattr(UsdAlice(), method)(rounds, np.arange(10), config, rng)

    def test_basis_announcements_are_rejected_before_her_draw(self, monkeypatch):
        """Against a basis there is no pair to discriminate, and Bob's raw bit
        is the symbol's bit 1, not the bit 0 the attack would write down."""
        def no_draw(*args):
            raise AssertionError("the discrimination coins were drawn")

        # Her coins draw their bytes through `_byte_pieces`.
        monkeypatch.setattr(adversaries, "_byte_pieces", no_draw)
        config = ProtocolConfig(n=200, k=2, seed=1, announcement="bb84")
        with pytest.raises(ValueError, match="pair announcements"):
            run_protocol(config, np.zeros(200, dtype=np.uint8), 0, alice=UsdAlice(),
                         rng=np.random.default_rng(1))

    def test_full_runs_reach_the_predicted_known_mean(self):
        config = ProtocolConfig(n=2000, k=3, seed=31)
        report = monte_carlo(config, alice=UsdAlice(), trials=300)
        assert report.passed["known_mean"]
        assert report.passed["conclusive_rate"]
        assert report.analytic["known_mean"] == pytest.approx(2000 * USD_SUCCESS ** 3)
        # her conclusive bits stay correct, so retrieval still works
        assert report.passed["retrieval_correct"]


class TestJointHelstrom:
    def test_reference_values(self):
        assert alice_joint_helstrom(7).closed_form == pytest.approx(0.5442, abs=5e-5)
        assert alice_joint_helstrom(1).closed_form == pytest.approx(0.8536, abs=5e-5)

    def test_large_k_approaches_coin_flipping(self):
        assert alice_joint_helstrom(200).closed_form == pytest.approx(0.5)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_matrix_route_matches_closed_form(self, k):
        value = alice_joint_helstrom(k)
        assert abs(value.closed_form - value.matrix_value) <= 1e-9

    def test_matrix_route_stops_at_k_max(self):
        assert alice_joint_helstrom(K_MAX).matrix_value is not None
        assert alice_joint_helstrom(K_MAX + 1).matrix_value is None
        assert alice_joint_helstrom(200).matrix_value is None

    @pytest.mark.parametrize("k,trials", [(1, 30_000), (3, 30_000), (7, 10_000), (10, 8_192)])
    def test_weight_table_repeats_the_dense_measurement(self, k, trials):
        for seed in range(3):
            table = helstrom_measurement_trials(k, trials, np.random.default_rng([seed, k]))
            dense = helstrom_measurement_trials_dense(k, trials,
                                                      np.random.default_rng([seed, k]))
            assert table == dense

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
    @pytest.mark.parametrize("k", [1, 2, 11, 16])
    def test_repeats_the_integer_draw_twin(self, k, bit_generator):
        """Same rate, generator state and next draw, past the dense twin's k = 10."""
        for trials in (5, 4096, 4097):
            mine, ref = (np.random.Generator(bit_generator([k, trials])) for _ in range(2))
            assert (helstrom_measurement_trials(k, trials, mine)
                    == helstrom_measurement_trials_integers(k, trials, ref))
            assert repr(mine.bit_generator.state) == repr(ref.bit_generator.state)
            assert mine.random() == ref.random()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_simulated_measurement_reaches_the_bound(self, k, rng):
        n = 60_000
        rate = helstrom_measurement_trials(k, n, rng)
        expected = 0.5 + 0.5 * 2.0 ** (-k / 2.0)
        assert abs(rate - expected) <= three_sigma(expected, n)


class TestBb84Contrast:
    @pytest.mark.parametrize("n,k", [(60, 2), (500, 4), (120, 7)])
    def test_memory_attack_reads_the_whole_key(self, n, k):
        config = ProtocolConfig(n=n, k=k, seed=n + k, announcement="bb84")
        db = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
        t = run_protocol(config, db, 0, alice=Bb84MemoryAlice())
        assert len(t.key.alice_known) == n
        assert t.key.mismatched_indices() == []
        assert t.retrieved_bit == int(db[0])

    @pytest.mark.parametrize("eta", [1.0, 0.7])
    def test_memory_records_read_every_symbol(self, eta):
        records = attack_records(Bb84MemoryAlice(), n=300, eta=eta, announcement="bb84")
        det = records.detected
        sent = records.sent[det]
        assert records.conclusive[det].all()
        assert np.array_equal(records.outcome[det], sent)
        assert np.array_equal(records.basis[det], sent & 1)
        assert np.array_equal(records.alice_bit[det], sent >> 1)
        assert np.isnan(records.posterior_bit1).all()

    def test_memory_records_against_pairs_are_discrimination_records(self):
        assert_discrimination_records(attack_records(Bb84MemoryAlice(), eta=0.7))

    def test_same_attack_against_pair_announcements_degrades(self):
        """With pair announcements the stored-qubit attack gets only USD rates."""
        config = ProtocolConfig(n=500, k=2, seed=9)
        report = monte_carlo(config, alice=Bb84MemoryAlice(), trials=200)
        assert report.analytic["conclusive_rate"] == pytest.approx(USD_SUCCESS)
        assert report.passed["conclusive_rate"]
        assert report.empirical["known_mean"] < 500 / 5  # nowhere near full knowledge

    def test_honest_alice_in_bb84_mode_learns_half_the_raw_bits(self):
        config = ProtocolConfig(n=400, k=1, seed=12, announcement="bb84")
        report = monte_carlo(config, trials=150)
        assert report.analytic["conclusive_rate"] == 0.5
        assert report.passed["conclusive_rate"]


class TestBiasedPreparation:
    def test_sent_state_and_pair(self, rng):
        """No definite symbol, the pair {UP, RIGHT}, and the Born table of (cos, sin)(pi/8)."""
        rounds = BiasedBob(math.pi / 8.0).rounds(50, ProtocolConfig(n=50, k=1), rng)
        assert (rounds.sent == -1).all() and (rounds.pair == 0).all()
        state = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
        down, left = np.array([0.0, 1.0]), np.array([-1.0, 1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(rounds.layout.second,
                                   [[(state @ down) ** 2, (state @ left) ** 2]],
                                   rtol=0.0, atol=1e-15)

    def test_reference_angles(self):
        ne = biased_analytics(math.pi / 8.0)
        assert ne.p_c == pytest.approx(0.1464, abs=5e-5)
        assert ne.q_bit0 == pytest.approx(ne.q_bit1, abs=1e-12)
        assert ne.p_b == pytest.approx(0.5, abs=1e-12)
        sw = biased_analytics(5.0 * math.pi / 8.0)
        assert sw.p_c == pytest.approx(0.8536, abs=5e-5)
        honest = biased_analytics(0.0)
        assert honest.p_c == pytest.approx(0.25, abs=1e-12)
        assert honest.p_b == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_oracle_over_a_grid(self):
        """p_c(phi) = 1/2 - (sqrt(2)/4) sin(2 phi + pi/4), by trigonometric reduction."""
        for phi in np.linspace(0.0, math.pi, 91):
            expected = 0.5 - math.sqrt(2.0) / 4.0 * math.sin(2.0 * phi + math.pi / 4.0)
            assert biased_analytics(phi).p_c == pytest.approx(expected, abs=1e-12)

    def test_conclusiveness_stays_within_the_bounds(self):
        lo, hi = math.sin(math.pi / 8) ** 2, math.cos(math.pi / 8) ** 2
        values = [biased_analytics(phi).p_c for phi in np.linspace(0, math.pi, 181)]
        assert min(values) >= lo - 1e-12
        assert max(values) <= hi + 1e-12

    def test_product_peaks_at_exactly_one_half(self):
        products = [biased_analytics(phi).p_c * biased_analytics(phi).p_b
                    for phi in np.linspace(0, math.pi, 181)]
        assert max(products) <= 0.5
        assert max(products) == pytest.approx(0.5, abs=1e-12)

    def test_round_trials_match_analytics(self, rng):
        n = 150_000
        res = biased_round_trials(math.pi / 8.0, n, rng)
        assert abs(res.conclusive / n - 0.1464466) <= three_sigma(0.1464466, n)
        bit_error_rate = 1.0 - res.bit_hits / res.conclusive
        assert abs(bit_error_rate - 0.5) <= three_sigma(0.5, res.conclusive)
        assert abs(res.basis_hits / n - 0.5) <= three_sigma(0.5, n)

    def test_full_run_conclusive_rate_tracks_phi(self):
        config = ProtocolConfig(n=300, k=2, seed=21)
        report = monte_carlo(config, bob=BiasedBob(5 * math.pi / 8), trials=100)
        assert report.analytic["conclusive_rate"] == pytest.approx(0.8536, abs=5e-5)
        assert report.passed["conclusive_rate"]

    def test_report_pass_flags(self):
        rep = biased_attack_report(math.pi / 8.0, trials=50_000, seed=4)
        assert rep.all_passed()
        assert rep.analytic["product"] <= 0.5


ORACLE_PHIS = [0.0, math.pi / 8, math.pi / 4, 0.3, math.pi / 2, 2.0,
               3 * math.pi / 4, 5 * math.pi / 8, math.pi]


class LawSpy:
    """Stands in for a generator: records each `multinomial` law it is asked for."""

    def __init__(self):
        self.laws = []

    def multinomial(self, n, pvals):
        self.laws.append(np.array(pvals))
        return np.random.default_rng(0).multinomial(n, pvals)


class TestRoundBatteryLaws:
    """Each battery draws its cell counts as one multinomial sample of the per-round law.

    The reference is the per-round law of the per-trial twins, enumerated
    round by round from the same tables and rules (`biased_round_law`,
    `entangled_round_law`).
    """

    @pytest.mark.parametrize("phi", ORACLE_PHIS)
    def test_biased_cell_law_is_the_per_round_law(self, phi):
        spy = LawSpy()
        biased_round_trials(phi, 100, spy)
        assert len(spy.laws) == 1
        np.testing.assert_allclose(spy.laws[0], biased_round_law(phi)[0], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("mode", ER_MODES)
    def test_entangled_cell_law_is_the_per_round_law(self, mode):
        spy = LawSpy()
        entangled_round_trials(mode, 100, spy)
        assert len(spy.laws) == 1
        np.testing.assert_allclose(spy.laws[0], entangled_round_law(mode)[0],
                                   rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("battery,law", [
        (lambda t, rng: biased_round_trials(0.3, t, rng), lambda: biased_round_law(0.3)),
        (lambda t, rng: biased_round_trials(2.0, t, rng), lambda: biased_round_law(2.0)),
        *[(lambda t, rng, mode=mode: entangled_round_trials(mode, t, rng),
           lambda mode=mode: entangled_round_law(mode)) for mode in ER_MODES],
        (lambda t, rng: biased_round_trials_per_trial(0.3, t, rng),
         lambda: biased_round_law(0.3)),
        (lambda t, rng: entangled_round_trials_per_trial("conclusiveness_basis", t, rng),
         lambda: entangled_round_law("conclusiveness_basis")),
    ], ids=["bias-0.3", "bias-2.0", "entangle-honest", "entangle-conclusiveness",
            "twin-bias-0.3", "twin-entangle-conclusiveness"])
    def test_count_fields_fail_their_binomial_tests_at_most_one_percent(self, battery, law):
        """Over 300 seeds no test uses elsewhere, each count field passes an
        exact 99% binomial test against its enumerated rate, except in a
        number of seeds consistent with a true rate of 1% or less (one-sided
        exact binomial test at 99%). The twins take the same test, so the
        enumerated rates are the per-trial law's."""
        trials, seeds = 200, range(80_000, 80_300)
        rates = law()[1]
        failures = dict.fromkeys(ROUND_FIELDS, 0)
        for seed in seeds:
            ev = battery(trials, np.random.default_rng(seed))
            for name in ROUND_FIELDS:
                failures[name] += not stats.binomial_test(getattr(ev, name), trials, rates[name])
        for name, count in failures.items():
            assert stats.binomial_tails(count, len(seeds), 0.01)[1] > 0.01, (name, failures)


def assert_round_record(ev, twin, trials):
    """One battery's record beside its per-trial twin's on what no draw sets.

    The stream-free fields equal the twin's exactly. Each count field is an
    int in [0, trials]; `bit_hits` is at most `conclusive`, and equals it
    where his guess of a conclusive bit is certain (p_b = 1). A register
    state is NaN exactly when no round fell into its class, and otherwise a
    unit-trace, symmetric, positive semidefinite matrix.
    """
    for name in ("trials", "p_c", "p_b"):
        got, want = getattr(ev, name), getattr(twin, name)
        assert type(got) is type(want) and got == want, name
    for name in ROUND_FIELDS:
        count = getattr(ev, name)
        assert type(count) is int and 0 <= count <= trials, name
    assert ev.bit_hits <= ev.conclusive
    if ev.p_b == 1.0:
        assert ev.bit_hits == ev.conclusive
    for rho, empty in ((ev.rho_conclusive, ev.conclusive == 0),
                       (ev.rho_inconclusive, ev.conclusive == trials)):
        if rho is None:
            continue
        assert bool(np.isnan(rho).all()) == empty
        if not empty:
            assert abs(np.trace(rho) - 1.0) <= 1e-15
            np.testing.assert_allclose(rho, rho.T, rtol=0.0, atol=1e-15)
            assert np.linalg.eigvalsh(rho).min() >= -1e-15


class TestRoundBatteryRecords:
    """Battery and per-trial twin agree on every field the draws do not set,
    at one round, a few and a full battery, over seeds whose single rounds
    land in every class, the empty ones included."""

    @pytest.mark.parametrize("trials", [1, 7, 20_000])
    @pytest.mark.parametrize("phi", ORACLE_PHIS)
    def test_biased_record_matches_the_twin_off_the_stream(self, phi, trials):
        for seed in range(8):
            ev = biased_round_trials(phi, trials, np.random.default_rng([seed, trials]))
            twin = biased_round_trials_per_trial(phi, trials,
                                                 np.random.default_rng([seed, trials]))
            for record in (ev, twin):
                assert_round_record(record, twin, trials)
                assert record.p_c_hits == record.conclusive
                assert record.p_c_sigma_rate == max(record.conclusive / trials, 1e-9)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
    @pytest.mark.parametrize("trials", [1, 7, 20_000])
    @pytest.mark.parametrize("mode", ER_MODES)
    def test_entangled_record_matches_the_twin_off_the_stream(self, mode, trials):
        for seed in range(8):
            ev = entangled_round_trials(mode, trials, np.random.default_rng([seed, trials]))
            twin = entangled_round_trials_per_trial(mode, trials,
                                                    np.random.default_rng([seed, trials]))
            for record in (ev, twin):
                assert_round_record(record, twin, trials)
                assert record.p_c_sigma_rate == 0.5
                if mode == "honest_basis":
                    assert record.p_c_hits == record.conclusive


class TestEntangledRegister:
    def test_conditional_mixtures_match_the_exact_matrices(self):
        rho_c, rho_n = conditional_register_mixtures()
        np.testing.assert_allclose(rho_c.matrix, np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(rho_n.matrix,
                                   [[0.5, math.sqrt(2) / 3], [math.sqrt(2) / 3, 0.5]],
                                   atol=1e-12)

    def test_conclusiveness_guess_bound_value(self):
        assert conclusiveness_guess_bound() == pytest.approx(0.8536, abs=5e-5)
        assert conclusiveness_guess_bound() == pytest.approx(0.5 + math.sqrt(2) / 4,
                                                             abs=1e-12)

    def test_register_states_cannot_be_unambiguously_separated(self):
        rho_c, rho_n = conditional_register_mixtures()
        assert not usd_bound(rho_c, rho_n).feasible

    def test_scalar_round_is_self_consistent(self):
        """In the honest register basis his outcome is her conclusive bit with certainty."""
        p_one = ER_REGISTER_ONE_PROB["honest_basis"]
        assert p_one[SargSymbol.DOWN] == pytest.approx(1.0, abs=1e-15)  # her bit 1
        assert p_one[SargSymbol.LEFT] == pytest.approx(0.0, abs=1e-15)  # her bit 0

    def test_scalar_conclusiveness_round_statistics(self):
        """Guessing "conclusive" on the |-> outcome attains the Helstrom bound exactly."""
        p_minus = ER_REGISTER_ONE_PROB["conclusiveness_basis"]
        conclusive = CONCLUSIVE_TABLE[0]
        rate = sum(0.5 * ER_OUTCOME_PROBS[o] * (p_minus[o] if conclusive[o] else 1 - p_minus[o])
                   for o in range(4))
        assert rate == pytest.approx(conclusiveness_guess_bound(), abs=1e-15)

    def test_register_probabilities_are_the_born_rule(self):
        """Register outcome 1 is the projector onto |R1> or onto |-> = (|R0> - |R1>)/sqrt(2)."""
        one = {"honest_basis": np.array([0.0, 1.0]),
               "conclusiveness_basis": np.array([1.0, -1.0]) / math.sqrt(2.0)}
        for mode in ER_MODES:
            born = (ER_REGISTERS @ one[mode]) ** 2
            np.testing.assert_allclose(ER_REGISTER_ONE_PROB[mode], born, rtol=0.0, atol=1e-15)

    def test_bulk_trials_reach_the_reference_rates(self, rng):
        n = 200_000
        res = entangled_round_trials("conclusiveness_basis", n, rng)
        assert abs(res.p_c_hits / n - 0.8536) <= three_sigma(0.8536, n) + 1e-4
        assert abs(res.bit_hits / res.conclusive - 0.5) <= three_sigma(0.5, res.conclusive)
        assert abs(res.basis_hits / n - 0.5) <= three_sigma(0.5, n)
        np.testing.assert_allclose(res.rho_conclusive, np.eye(2) / 2, atol=1e-2)
        np.testing.assert_allclose(res.rho_inconclusive,
                                   [[0.5, 0.4714], [0.4714, 0.5]], atol=1e-2)

    def test_honest_mode_keeps_full_bit_knowledge(self, rng):
        res = entangled_round_trials("honest_basis", 50_000, rng)
        assert res.bit_hits == res.conclusive > 0
        assert abs(res.conclusive / 50_000 - 0.25) <= three_sigma(0.25, 50_000)

    def test_honest_mode_is_indistinguishable_for_alice(self):
        """Her outcome law equals the honest one given the pair {UP, RIGHT}:
        3/4 for the pair member of her basis, 1/4 for the other outcome."""
        np.testing.assert_allclose(ER_OUTCOME_PROBS, [0.75, 0.75, 0.25, 0.25],
                                   rtol=0.0, atol=1e-15)
        honest_second = OUTCOME_SECOND_PROB[[SargSymbol.UP, SargSymbol.RIGHT]].mean(axis=0)
        np.testing.assert_allclose(ER_OUTCOME_PROBS[2:], honest_second, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("size", [1, FLOAT_PIECE, 2 * FLOAT_PIECE + 5])
    def test_honest_basis_key_record_is_one_float_draw(self, size):
        """Drawn `FLOAT_PIECE` coins at a time, the key record holds the values
        and leaves the state of one whole-array `rng.random(size)` comparison."""
        config = ProtocolConfig(n=size, k=1)
        bob = EntangledBob("honest_basis")
        rounds = bob.rounds(size, config, None)
        kept = np.broadcast_to(np.True_, size)
        alice = HonestAlice().respond(rounds, kept, config, np.random.default_rng(3))
        mine, ref = np.random.default_rng(4), np.random.default_rng(4)
        got = bob.key_bits(rounds, kept, alice, config, mine)
        want = ref.random(size) < ER_REGISTER_ONE_PROB["honest_basis"][alice.outcome]
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert mine.bit_generator.state == ref.bit_generator.state

    def test_full_run_with_honest_register_mode_stays_sound(self):
        config = ProtocolConfig(n=300, k=2, seed=5)
        report = monte_carlo(config, bob=EntangledBob("honest_basis"), trials=120)
        assert report.passed["retrieval_correct"]
        assert report.passed["known_bits_sound"]
        assert report.passed["conclusive_rate"]

    def test_conclusiveness_mode_corrupts_his_key(self):
        """Erasing bit information costs him key knowledge: mismatches appear."""
        config = ProtocolConfig(n=200, k=1, seed=6)
        report = monte_carlo(config, bob=EntangledBob("conclusiveness_basis"), trials=60)
        assert report.empirical["known_mismatch_rate"] == pytest.approx(
            0.5, abs=3 * math.sqrt(0.25 / report.extra["known_bits_total"]))

    def test_report_pass_flags(self):
        rep = entangled_attack_report("conclusiveness_basis", trials=50_000, seed=2)
        assert rep.all_passed()
        rep = entangled_attack_report("honest_basis", trials=50_000, seed=2)
        assert rep.all_passed()

    def test_invalid_mode_rejected(self, rng):
        with pytest.raises(ValueError, match="mode"):
            entangled_round_trials("sideways", 10, rng)
        with pytest.raises(ValueError, match="mode"):
            EntangledBob("sideways")


class TestAttackReportStreams:
    """The round battery and the known-bit runs of one report share no stream."""

    @pytest.mark.parametrize("report", [
        lambda seed: biased_attack_report(math.pi / 8.0, trials=2000, seed=seed),
        lambda seed: entangled_attack_report("honest_basis", trials=2000, seed=seed),
    ], ids=["bias", "entangle"])
    @pytest.mark.parametrize("seed", [0, 12345])
    def test_known_bit_runs_never_start_on_the_battery_stream(self, monkeypatch,
                                                               report, seed):
        battery, runs = [], []

        def record(target, states):
            def wrapper(*args, **kwargs):
                rng = kwargs["rng"] if "rng" in kwargs else args[-1]
                states.append(repr(rng.bit_generator.state))
                return target(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(adversaries, "_provider_report",
                            record(adversaries._provider_report, battery))
        monkeypatch.setattr(protocol, "_send", record(protocol._send, runs))
        report(seed)
        assert len(battery) == 1 and len(runs) == 1
        assert battery != runs


def known_counts_through_run_protocol(bob, n, k, runs, seed, stream):
    """Reference route for the known-bit run counts: one full run at runs * n
    without restarts, its known set counted per block of n positions."""
    config = ProtocolConfig(n=runs * n, k=k, seed=seed, max_restarts=0)
    rng = np.random.default_rng([seed, stream, 1])
    try:
        t = run_protocol(config, np.zeros(config.n, dtype=np.uint8), 0, bob=bob, rng=rng)
    except RestartLimitExceeded:
        return [0] * runs
    return np.bincount(np.array(t.key.known_indices()) // n, minlength=runs).tolist()


class TestKnownBitRuns:
    """Counting known columns per block gives a full run's per-block known-set sizes."""

    @pytest.mark.parametrize("bob,n", [
        (BiasedBob(0.0), 400), (BiasedBob(0.7), 400),
        (EntangledBob("honest_basis"), 400), (EntangledBob("conclusiveness_basis"), 400),
        (BiasedBob(0.7), 6), (EntangledBob("conclusiveness_basis"), 6),
    ], ids=["bias-fair-coin", "bias-generic", "entangle-honest", "entangle-conclusiveness",
            "bias-small", "entangle-small"])
    def test_counts_equal_the_known_sets_of_full_runs(self, monkeypatch, bob, n):
        seed, stream, runs = 9, 1, 60
        seen, mean_ci = [], stats.mean_ci

        def spy(values, *args, **kwargs):
            seen.append(np.asarray(values).tolist())
            return mean_ci(values, *args, **kwargs)

        monkeypatch.setattr(adversaries.stats, "mean_ci", spy)
        got = adversaries._known_bits_through_runs(bob, n, 2, runs, seed, stream)
        monkeypatch.undo()
        want = known_counts_through_run_protocol(bob, n, 2, runs, seed, stream)
        assert seen == [want]
        assert got == (*stats.mean_ci(want), n * bob.law(ProtocolConfig(n, 2)).conclusive ** 2)
        if n == 6:
            assert 0 in want and max(want) > 0

    def test_a_restart_limit_in_the_reference_counts_every_block_zero(self):
        # A block of 2 positions at k = 2 is empty with probability
        # (1 - p_c**2)**2; seed 0 on stream 1 is such a case.
        bob = BiasedBob(0.0)
        want = known_counts_through_run_protocol(bob, 2, 2, 1, 0, 1)
        assert want == [0]
        assert adversaries._known_bits_through_runs(bob, 2, 2, 1, 0, 1)[0] == 0.0

    @pytest.mark.parametrize("bob,stream", [
        (BiasedBob(1.1), 1), (EntangledBob("honest_basis"), 2),
        (EntangledBob("conclusiveness_basis"), 2),
    ], ids=["bias-generic", "entangle-honest", "entangle-conclusiveness"])
    def test_known_mean_check_fails_at_most_one_percent(self, bob, stream):
        """The report's 99% `known_mean` check over 300 seeds no test uses elsewhere:
        the failure count must be consistent with a true rate of 1% or less
        (one-sided exact binomial test at 99%)."""
        seeds = range(90_000, 90_300)
        failures = 0
        for seed in seeds:
            mean, hw, expected = adversaries._known_bits_through_runs(bob, 400, 2, 150, seed,
                                                                      stream)
            failures += abs(mean - expected) > hw
        assert stats.binomial_tails(failures, len(seeds), 0.01)[1] > 0.01, failures


class TestProviderRounds:
    """Both provider strategies prepare one fixed state, and report rates from counts."""

    @pytest.mark.parametrize("bob,row,attack", [
        (BiasedBob(0.3), adversaries._biased_second_prob(0.3), "biased preparation"),
        (EntangledBob("conclusiveness_basis"), ER_OUTCOME_PROBS[2:], "register attack"),
    ], ids=["bias", "entangle"])
    def test_one_fixed_state_preparation(self, bob, row, attack):
        rounds = bob.rounds(5, ProtocolConfig(n=5, k=1), None)
        assert rounds.sent.tolist() == [-1] * 5
        assert rounds.pair.tolist() == rounds.code.tolist() == [0] * 5
        assert rounds.layout.second == (tuple(row.tolist()),)
        with pytest.raises(ValueError, match=f"^{attack} only targets pair announcements$"):
            bob.rounds(5, ProtocolConfig(n=5, k=1, announcement="bb84"), None)

    def test_biased_table_is_built_once_per_angle_read_only(self):
        table = adversaries._biased_second_prob(0.3)
        assert adversaries._biased_second_prob(0.3) is table
        assert not table.flags.writeable
        rounds = BiasedBob(0.3).rounds(5, ProtocolConfig(n=5, k=1), None)
        assert not protocol._respond_table(rounds.layout, "sarg")[2].flags.writeable
        assert adversaries._biased_second_prob.cache_info().maxsize is not None

    @pytest.mark.parametrize("bob", [BiasedBob(0.3), *map(EntangledBob, ER_MODES)],
                             ids=lambda bob: bob.label)
    def test_report_rates_and_intervals_come_from_the_counts(self, bob):
        trials = 3000
        rep = adversaries._attack_report(bob, trials, seed=3, stream=1)
        ev = bob.round_statistics(trials, np.random.default_rng([3, 1]))
        assert rep.empirical["p_c"] == ev.p_c_hits / trials
        assert rep.empirical["p_b"] == ev.bit_hits / ev.conclusive
        assert rep.empirical["basis_guess_rate"] == ev.basis_hits / trials
        assert rep.ci99["p_c"] == stats.rate_ci(ev.p_c_hits, trials)[1]
        assert rep.ci99["p_b"] == stats.rate_ci(ev.bit_hits, ev.conclusive)[1]
        assert rep.ci99["basis_guess_rate"] == stats.rate_ci(ev.basis_hits, trials)[1]


class TestNoSignalingAudit:
    def test_small_sweep_passes_and_caps_the_product(self):
        audit = no_signaling_audit(points=19, trials_per_point=4000, seed=7)
        assert audit.basis_guess_ok
        assert audit.product_ok
        assert audit.max_product_analytic <= 0.5
        assert len(audit.reports) == 21
        rows = audit.csv_rows()
        assert set(rows[0]) == {"phi", "p_c", "p_b", "product", "basis_guess", "ci"}

    def test_reference_products(self):
        ne = biased_analytics(math.pi / 8)
        assert ne.p_c * ne.p_b == pytest.approx(0.0732, abs=5e-5)
        honest = biased_analytics(0.0)
        assert honest.p_c * honest.p_b == pytest.approx(0.25, abs=1e-12)


class TestCheatDetection:
    @staticmethod
    def _transcripts(bob, n, k, runs, seed):
        out = []
        for run_idx in range(runs):
            rng = np.random.default_rng([seed, run_idx])
            config = ProtocolConfig(n=n, k=k, seed=seed, max_restarts=50)
            db = rng.integers(0, 2, n, dtype=np.uint8)
            out.append(run_protocol(config, db, int(rng.integers(n)), bob=bob, rng=rng))
        return out

    def test_honest_provider_is_never_caught(self):
        transcripts = self._transcripts(None, n=120, k=2, runs=40, seed=1)
        assert cheat_detection(transcripts, n_check=3) == 0.0

    def test_biased_provider_is_caught(self):
        transcripts = self._transcripts(BiasedBob(0.3), n=300, k=2, runs=60, seed=2)
        eps = 1.0 - biased_analytics(0.3).p_b
        expected = xor_error_bruteforce(eps, 2)
        rate = cheat_detection(transcripts, n_check=1)
        assert rate is not None
        assert rate > 0.2
        assert abs(rate - expected) < 0.2  # coarse; per-bit rate checked elsewhere

    def test_detection_grows_with_checked_bits(self):
        transcripts = self._transcripts(BiasedBob(0.3), n=300, k=2, runs=60, seed=3)
        rates = [cheat_detection(transcripts, n_check=m) for m in (1, 2, 4)]
        assert rates[0] <= rates[1] <= rates[2]

    def test_indeterminate_without_extra_bits(self):
        transcripts = self._transcripts(None, n=200, k=4, runs=6, seed=44)
        only_single = [t for t in transcripts if len(t.key.alice_known) == 1]
        if only_single:
            assert cheat_detection(only_single, n_check=1) is None

    @pytest.mark.parametrize("bob,p_b,k,n,seed", [
        (BiasedBob(0.3), biased_analytics(0.3).p_b, 2, 2_000, 61),
        (BiasedBob(0.3), biased_analytics(0.3).p_b, 4, 20_000, 62),
        (BiasedBob(math.pi / 8), biased_analytics(math.pi / 8).p_b, 7, 20_000, 63),
        (EntangledBob("conclusiveness_basis"), 0.5, 2, 2_000, 64),
    ], ids=["phi0.3-k2", "phi0.3-k4", "phi-pi8-k7", "register-conclusiveness-k2"])
    def test_known_bit_mismatch_composition(self, bob, p_b, k, n, seed):
        """The engine's known-final-bit mismatch rate under a provider attack
        equals its law's `known_wrong` and the XOR convolution oracle of k
        raw bits that Bob guesses with p_b each, by an exact binomial test at
        99% over every known final bit. The conclusiveness-basis register
        leaves his key a fair coin, p_b = 1/2."""
        config = ProtocolConfig(n=n, k=k, seed=seed)
        expected = bob.law(config).known_wrong
        assert xor_error_bruteforce(1.0 - p_b, k) == pytest.approx(expected, abs=1e-12)
        report = monte_carlo(config, bob=bob, trials=20)
        known = report.extra["known_bits_total"]
        mismatches = round(report.empirical["known_mismatch_rate"] * known)
        assert known > 0
        assert stats.binomial_test(mismatches, known, expected), (mismatches, known, expected)

    def test_bad_check_count_rejected(self):
        with pytest.raises(ValueError, match="checked bit"):
            cheat_detection([], 0)


class TestSizeValidation:
    """Sizes below one are rejected before a draw or a round is made."""

    @pytest.mark.parametrize("call", [
        lambda rng: biased_round_trials(math.pi / 8, 0, rng),
        lambda rng: biased_round_trials(math.pi / 8, -5, rng),
        lambda rng: entangled_round_trials("honest_basis", 0, rng),
        lambda rng: entangled_round_trials("conclusiveness_basis", -5, rng),
        lambda rng: helstrom_measurement_trials(7, 0, rng),
    ], ids=["biased-0", "biased-negative", "register-0", "register-negative", "helstrom-0"])
    def test_round_batteries_reject_fewer_than_one_trial(self, call, rng):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="trials must be >= 1"):
            call(rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("kwargs,name", [
        ({"points": 0}, "points"),
        ({"trials_per_point": 0}, "trials_per_point"),
        ({"points": -3}, "points"),
    ])
    def test_audit_rejects_empty_sizes(self, kwargs, name, monkeypatch):
        def no_work(*args):
            raise AssertionError("a round battery ran")

        monkeypatch.setattr(adversaries, "biased_round_trials", no_work)
        monkeypatch.setattr(adversaries, "entangled_round_trials", no_work)
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            no_signaling_audit(**kwargs)


# Pairing, strategies, announcement, and the law at k = 2: the analytic
# per-round conclusive rate, and the chance that a known final bit is wrong
# (the report checks retrieval exactly when it is 0).
PAIRINGS = [
    ("honest-sarg", None, None, "sarg", 0.25, 0.0),
    ("honest-bb84", None, None, "bb84", 0.5, 0.0),
    ("usd", UsdAlice(), None, "sarg", 0.2928932188134524, 0.0),
    ("bb84-memory-sarg", Bb84MemoryAlice(), None, "sarg", 0.2928932188134524, 0.0),
    ("bb84-memory-bb84", Bb84MemoryAlice(), None, "bb84", 1.0, 0.0),
    ("biased-pi/8", None, BiasedBob(math.pi / 8), "sarg", 0.1464466094067262, 0.5),
    ("register-honest", None, EntangledBob("honest_basis"), "sarg", 0.25, 0.0),
    ("register-conclusiveness", None, EntangledBob("conclusiveness_basis"), "sarg", 0.25,
     0.5),
]


class TestStrategyAnalytics:
    @pytest.mark.parametrize("alice,bob,announcement,rate,known_wrong",
                             [p[1:] for p in PAIRINGS], ids=[p[0] for p in PAIRINGS])
    def test_monte_carlo_takes_the_strategy_analytics(self, alice, bob, announcement,
                                                      rate, known_wrong):
        config = ProtocolConfig(n=40, k=2, seed=3, announcement=announcement)
        for strategy in [alice or bob] if alice or bob else [HonestAlice(), HonestBob()]:
            law = strategy.law(config)
            assert isinstance(law, protocol.Law)
            assert law._fields == ("conclusive", "known_wrong")
            assert law.conclusive == rate
            assert law.known_wrong == pytest.approx(known_wrong, abs=1e-12)
        report = monte_carlo(config, alice=alice, bob=bob, trials=2)
        assert report.analytic["conclusive_rate"] == rate
        assert report.analytic["known_mean"] == pytest.approx(40 * rate ** 2)
        assert ("retrieval_correct" in report.passed) == (known_wrong == 0.0)
        assert ("known_bits_sound" in report.passed) == (known_wrong == 0.0)
        alice, bob = alice or HonestAlice(), bob or HonestBob()
        assert (report.params["alice"], report.params["bob"]) == (alice.kind, bob.kind)
        assert set(report.params) == {"config", "trials", "alice", "bob",
                                      *dataclasses.asdict(bob)}
        for name, value in dataclasses.asdict(bob).items():
            assert report.params[name] == value

    @pytest.mark.parametrize("phi", [0.0, math.pi / 4, math.pi], ids=["0", "pi/4", "pi"])
    def test_a_bias_with_one_conclusive_outcome_keeps_the_key_sound(self, phi):
        """At these angles only one conclusive outcome can occur, so p_b is 1.0
        and Bob's guess is always her bit: the law's `known_wrong` is 0, and
        the report adds the exact checks, which hold."""
        config = ProtocolConfig(n=400, k=2, seed=5)
        assert BiasedBob(phi).law(config).known_wrong == 0.0
        report = monte_carlo(config, bob=BiasedBob(phi), trials=20)
        assert report.passed["retrieval_correct"] and report.passed["known_bits_sound"]
        assert report.empirical["known_mismatch_rate"] == 0.0

    def test_run_protocol_rejects_cheating_on_both_sides(self):
        config = ProtocolConfig(n=10, k=1)
        with pytest.raises(ValueError, match="both sides"):
            run_protocol(config, np.zeros(10, dtype=np.uint8), 0,
                         alice=UsdAlice(), bob=BiasedBob(0.3))

    def test_biased_audit_point_keeps_the_raw_grid_angle(self):
        """The grid's last angle is pi; the physics is pi-periodic, the report keeps pi."""
        audit = no_signaling_audit(points=3, trials_per_point=200, seed=1)
        assert [rep.params for rep in audit.reports[:3]] == \
            [{"phi": 0.0}, {"phi": math.pi / 2}, {"phi": math.pi}]
