"""Protocol-engine tests: per-qubit contracts, reduction, retrieval, full runs.

The honest per-qubit steps are checked exactly: `_byte_draws` is patched so
that HonestBob.rounds and HonestAlice.respond see every one of the 256
values of their draw byte, in every combination.
"""

import dataclasses
import math
import weakref

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from qpq import protocol
from qpq.protocol import (
    BIT_TABLE,
    CONCLUSIVE_TABLE,
    OUTCOME_SECOND_PROB,
    AnnouncedPair,
    BobRounds,
    EmptyKnownSet,
    HonestAlice,
    HonestBob,
    Interpretation,
    ObliviousKey,
    ProtocolConfig,
    RawRecords,
    RestartLimitExceeded,
    SargSymbol,
    decrypt_bit,
    encrypt_database,
    fair_coin_table,
    interpret,
    is_dyadic,
    query_shift,
    run_protocol,
)

from conftest import honest_category_counts


def three_sigma_count(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) * n)


ALL_BYTES = np.arange(256, dtype=np.uint8)


@pytest.fixture
def every_draw(monkeypatch):
    """One honest round per (Bob byte, Alice byte) combination, 65,536 in all.

    Returns (rounds, alice records, Alice's bytes). Bob's byte codes the sent
    symbol (bits 0-1) and the pair choice (bit 2); Alice's codes the coin
    (bit 0) and her basis (bit 1).
    """
    bob_bytes = np.repeat(ALL_BYTES, 256)
    alice_bytes = np.tile(ALL_BYTES, 256)
    draws = iter([bob_bytes, alice_bytes])
    config = ProtocolConfig(n=bob_bytes.size, k=1)
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "_byte_draws", lambda rng, count: next(draws))
        rounds = HonestBob().rounds(config.raw_length, config, None)
        alice = HonestAlice().respond(rounds, np.arange(config.raw_length), config, None)
    return rounds, alice, alice_bytes


def bob_bytes_only(monkeypatch):
    """HonestBob.rounds over the 256 values of its draw byte."""
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "_byte_draws", lambda rng, count: ALL_BYTES)
        return HonestBob().rounds(256, ProtocolConfig(n=256, k=1), None)


class TestAnnouncedPair:
    def test_the_four_valid_pairs(self):
        expected = [{0, 1}, {1, 2}, {2, 3}, {3, 0}]
        for pid in range(4):
            assert {int(s) for s in AnnouncedPair(pid).members} == expected[pid]

    def test_from_symbols_rejects_same_basis(self):
        with pytest.raises(ValueError, match="announceable"):
            AnnouncedPair.from_symbols(SargSymbol.UP, SargSymbol.DOWN)

    def test_from_symbols_is_order_free(self):
        a = AnnouncedPair.from_symbols(SargSymbol.UP, SargSymbol.RIGHT)
        b = AnnouncedPair.from_symbols(SargSymbol.RIGHT, SargSymbol.UP)
        assert a == b == AnnouncedPair(0)

    def test_one_member_per_basis(self):
        for pid in range(4):
            pair = AnnouncedPair(pid)
            assert {m.basis_index for m in pair.members} == {0, 1}


class TestInterpretationType:
    def test_conclusive_requires_bit(self):
        with pytest.raises(ValueError):
            Interpretation(conclusive=True)

    def test_inconclusive_requires_posterior(self):
        with pytest.raises(ValueError):
            Interpretation(conclusive=False)

    def test_posterior_range_checked(self):
        with pytest.raises(ValueError):
            Interpretation.inconclusive(1.5)


class TestBobPrepare:
    def test_symbols_are_uniform(self, monkeypatch):
        rounds = bob_bytes_only(monkeypatch)
        assert np.bincount(rounds.sent, minlength=4).tolist() == [64] * 4
        assert np.array_equal(rounds.kind, rounds.sent)

    def test_bit_zero_symbols_are_half(self, monkeypatch):
        rounds = bob_bytes_only(monkeypatch)
        assert int(np.count_nonzero(rounds.sent & 1 == 0)) == 128

    def test_stream_determinism(self):
        config = ProtocolConfig(n=32, k=1)
        a = HonestBob().rounds(32, config, np.random.default_rng(5))
        b = HonestBob().rounds(32, config, np.random.default_rng(5))
        assert np.array_equal(a.sent, b.sent) and np.array_equal(a.pair, b.pair)


class TestTransmit:
    def test_eta_one_always_detects(self):
        t = run_protocol(ProtocolConfig(n=100, k=3, seed=4), np.zeros(100, dtype=np.uint8), 0)
        assert len(t.records) == 300
        assert t.records.detected.all()

    def test_detection_rate_matches_eta(self):
        """The run stops at the qubit that completes the raw string, so the
        sent count is a negative-binomial draw with mean raw length / eta."""
        config = ProtocolConfig(n=20_000, k=5, eta=0.1, seed=6)
        t = run_protocol(config, np.zeros(config.n, dtype=np.uint8), 0)
        sent = len(t.records)
        assert t.records.kept_count == config.raw_length
        assert abs(config.raw_length - 0.1 * sent) <= three_sigma_count(0.1, sent)

    def test_invalid_eta_rejected(self):
        for eta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="detection"):
                ProtocolConfig(n=1, k=1, eta=eta)


class TestAliceMeasure:
    def test_eigenstate_in_own_basis(self, every_draw):
        rounds, alice, _ = every_draw
        own = rounds.sent & 1 == alice.basis
        assert own.sum() == 65536 // 2
        assert np.array_equal(alice.outcome[own], rounds.sent[own])

    def test_cross_basis_is_balanced(self, every_draw):
        """Each other-basis outcome occurs for exactly half of the coin values."""
        rounds, alice, _ = every_draw
        for sent in SargSymbol:
            cross = (rounds.sent == sent) & (alice.basis != sent.basis_index)
            counts = np.bincount(alice.outcome[cross], minlength=4)
            other = [int(s) for s in SargSymbol if s.basis_index != sent.basis_index]
            assert counts[other].tolist() == [cross.sum() // 2] * 2

    def test_conclusive_marginal_is_quarter(self, every_draw):
        _, alice, _ = every_draw
        assert int(alice.conclusive.sum()) == 65536 // 4

    def test_draws_are_exactly_uniform(self, every_draw):
        """Symbol, pair choice, basis and coin: each of the 32 joint cells once per 2,048."""
        rounds, alice, alice_bytes = every_draw
        choice = (rounds.sent - rounds.pair) % 4
        cell = ((rounds.sent * 2 + choice) * 2 + alice.basis) * 2 + (alice_bytes & 1)
        assert np.bincount(cell, minlength=32).tolist() == [2048] * 32
        assert np.array_equal(alice.basis, (alice_bytes >> 1) & 1)


class TestBobAnnounce:
    def test_pair_always_contains_sent(self, monkeypatch):
        rounds = bob_bytes_only(monkeypatch)
        for sent, pair in zip(rounds.sent, rounds.pair):
            assert SargSymbol(int(sent)) in AnnouncedPair(int(pair))

    def test_right_yields_its_two_pairs_evenly(self, monkeypatch):
        rounds = bob_bytes_only(monkeypatch)
        ids = rounds.pair[rounds.sent == SargSymbol.RIGHT]
        assert np.bincount(ids, minlength=4).tolist() == [32, 32, 0, 0]

    def test_up_yields_adjacent_pairs(self, monkeypatch):
        rounds = bob_bytes_only(monkeypatch)
        ids = set(rounds.pair[rounds.sent == SargSymbol.UP].tolist())
        assert ids == {0, 3}  # {UP,RIGHT} and {LEFT,UP}


class TestInterpret:
    def test_down_against_up_right_concludes_bit_one(self):
        res = interpret(0, SargSymbol.DOWN, AnnouncedPair(0))
        assert res.conclusive and res.bit == 1

    def test_left_against_up_right_concludes_bit_zero(self):
        res = interpret(1, SargSymbol.LEFT, AnnouncedPair(0))
        assert res.conclusive and res.bit == 0

    def test_right_against_up_right_is_two_thirds_bit_one(self):
        res = interpret(1, SargSymbol.RIGHT, AnnouncedPair(0))
        assert not res.conclusive
        assert res.posterior_bit1 == pytest.approx(2.0 / 3.0)

    def test_up_against_up_right_is_two_thirds_bit_zero(self):
        res = interpret(0, SargSymbol.UP, AnnouncedPair(0))
        assert not res.conclusive
        assert res.posterior_bit1 == pytest.approx(1.0 / 3.0)

    def test_outcome_must_match_basis(self):
        with pytest.raises(ValueError, match="basis"):
            interpret(1, SargSymbol.UP, AnnouncedPair(0))

    def test_conclusive_results_never_wrong(self, every_draw):
        """Honest-run soundness: a conclusive bit always equals the sent bit."""
        rounds, alice, _ = every_draw
        assert np.array_equal(alice.bit[alice.conclusive], rounds.sent[alice.conclusive] & 1)
        records = seeded_run_records()
        conclusive = records.detected & records.conclusive
        assert conclusive.any()
        assert np.array_equal(records.alice_bit[conclusive], records.sent[conclusive] & 1)

    def test_inconclusive_due_to_matching_basis_two_thirds(self, every_draw):
        """Given no conclusive result, the bases coincided with chance 2/3."""
        rounds, alice, _ = every_draw
        inconclusive = ~alice.conclusive
        matched = int(np.count_nonzero(alice.basis[inconclusive]
                                       == rounds.sent[inconclusive] & 1))
        assert 3 * matched == 2 * int(inconclusive.sum())
        records = seeded_run_records()
        inconclusive = records.detected & ~records.conclusive
        total = int(inconclusive.sum())
        matched = int(np.count_nonzero(records.basis[inconclusive]
                                       == records.sent[inconclusive] & 1))
        assert abs(matched - 2 * total / 3) <= three_sigma_count(2.0 / 3.0, total)


def seeded_run_records() -> RawRecords:
    config = ProtocolConfig(n=20_000, k=3, eta=0.7, seed=2718)
    return run_protocol(config, np.zeros(config.n, dtype=np.uint8), 0).records


def reduce(bob_bits, conclusive, alice_bits, n, k) -> ObliviousKey:
    return protocol._reduce_arrays(np.asarray(bob_bits, dtype=np.uint8),
                                   np.asarray(conclusive, dtype=bool),
                                   np.asarray(alice_bits, dtype=np.int8), n, k)


class TestReduceKey:
    """The engine's k-fold XOR reduction, `_reduce_arrays`; -1 marks no bit."""

    def test_k1_is_the_identity_reduction(self):
        key = reduce([1, 0, 0], [True, False, True], [1, -1, 0], n=3, k=1)
        assert key.bob_key.tolist() == [1, 0, 0]
        assert key.alice_known == {0: 1, 2: 0}

    def test_two_by_two_worked_example(self):
        key = reduce([1, 0, 1, 1], [True, False, True, False], [1, -1, 1, -1], n=2, k=2)
        assert key.bob_key.tolist() == [0, 1]
        assert key.alice_known == {0: 0}

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            reduce([0, 1], [True], [0], n=2, k=1)

    def test_alice_values_follow_conclusive_bits_not_bobs(self):
        """Reduction folds her conclusive bits even when they disagree with Bob."""
        key = reduce([1, 1], [True, True], [0, 0], n=1, k=2)
        assert key.bob_key.tolist() == [0]
        assert key.alice_known == {0: 0}


class TestQueryShiftEncrypt:
    def test_simple_shift(self, rng):
        j, s = query_shift({5: 1}, target_index=2, n=10, rng=rng)
        assert (j, s) == (5, 3)

    def test_wrapping_shift(self, rng):
        j, s = query_shift({1: 0}, target_index=8, n=10, rng=rng)
        assert (j, s) == (1, 3)

    def test_tie_break_is_uniform(self, rng):
        n = 20_000
        picks = sum(query_shift({2: 0, 7: 1}, 0, 10, rng)[0] == 2 for _ in range(n))
        assert abs(picks - n / 2) <= three_sigma_count(0.5, n)

    def test_empty_known_set_raises(self, rng):
        with pytest.raises(EmptyKnownSet):
            query_shift({}, 0, 10, rng)

    def test_zero_shift_identity(self):
        x = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert encrypt_database(x, np.zeros(4, dtype=np.uint8), 0).tolist() == x.tolist()

    def test_worked_example(self):
        c = encrypt_database(np.array([1, 0, 1]), np.array([1, 1, 0]), 1)
        assert c.tolist() == [0, 0, 0]

    def test_round_trip_recovers_target(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.integers(0, 2, n, dtype=np.uint8)
            key = rng.integers(0, 2, n, dtype=np.uint8)
            j = int(rng.integers(n))
            i = int(rng.integers(n))
            s = (j - i) % n
            c = encrypt_database(x, key, s)
            assert decrypt_bit(c, i, int(key[j])) == int(x[i])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            encrypt_database(np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8), 0)


class TestObliviousKeyType:
    def test_rejects_out_of_range_known_index(self):
        with pytest.raises(ValueError, match="known entry"):
            ObliviousKey(bob_key=np.zeros(4, dtype=np.uint8), alice_known={4: 0})


class TestRunProtocol:
    def test_honest_runs_always_retrieve_the_target(self):
        for seed in range(60):
            config = ProtocolConfig(n=200, k=3, seed=seed)
            rng = np.random.default_rng([seed, 77])
            x = rng.integers(0, 2, 200, dtype=np.uint8)
            target = int(rng.integers(200))
            t = run_protocol(config, x, target, rng=rng)
            assert t.retrieved_bit == int(x[target])
            assert t.key.mismatched_indices() == []
            assert t.records.kept_count == config.raw_length

    def test_failed_attempt_is_released_before_the_next(self, monkeypatch):
        real = protocol._run_attempt
        previous: list[weakref.ref] = []
        alive_at_call: list[bool] = []

        def tracked(*args):
            alive_at_call.append(any(ref() is not None for ref in previous))
            att = real(*args)
            previous[:] = [weakref.ref(att), weakref.ref(att.bob_bits),
                           weakref.ref(att.alice.conclusive), weakref.ref(att.rounds)]
            return att

        class NeverConclusiveAlice:
            kind = "never_conclusive"

            def respond(self, rounds, kept, config, rng):
                none = np.full(kept.size, -1, dtype=np.int8)
                return protocol.AliceRecords(
                    basis=none, outcome=none, conclusive=np.zeros(kept.size, dtype=bool),
                    bit=none)

        monkeypatch.setattr(protocol, "_run_attempt", tracked)
        config = ProtocolConfig(n=50, k=2, seed=1, max_restarts=3)
        with pytest.raises(RestartLimitExceeded):
            run_protocol(config, np.zeros(50, dtype=np.uint8), 0,
                         alice=NeverConclusiveAlice())
        assert alive_at_call == [False] * 4

    def test_restart_fraction_near_two_percent(self):
        """First-attempt failure rate for n=1000, k=4 sits at 0.020."""
        restarts = 0
        runs = 400
        for seed in range(runs):
            config = ProtocolConfig(n=1000, k=4, seed=seed)
            t = run_protocol(config, np.zeros(1000, dtype=np.uint8), 0)
            restarts += t.restarts > 0
        p0 = (1.0 - 0.25 ** 4) ** 1000
        assert abs(restarts - p0 * runs) <= 3.0 * math.sqrt(p0 * (1 - p0) * runs)

    def test_restart_limit_exceeded_carries_attempts(self):
        config = ProtocolConfig(n=1, k=30, max_restarts=0, seed=3)
        with pytest.raises(RestartLimitExceeded) as err:
            run_protocol(config, np.array([1], dtype=np.uint8), 0)
        assert err.value.attempts == 1

    def test_seeded_runs_are_reproducible(self):
        config = ProtocolConfig(n=300, k=3, seed=99)
        x = np.random.default_rng(1).integers(0, 2, 300, dtype=np.uint8)
        a = run_protocol(config, x, 17)
        b = run_protocol(config, x, 17)
        assert a.key.alice_known == b.key.alice_known
        assert a.shift == b.shift
        assert np.array_equal(a.ciphertext, b.ciphertext)
        assert np.array_equal(a.records.sent, b.records.sent)

    def test_lossy_run_keeps_exactly_the_raw_length(self):
        config = ProtocolConfig(n=100, k=3, eta=0.3, seed=5)
        t = run_protocol(config, np.zeros(100, dtype=np.uint8), 1)
        assert t.records.kept_count == 300
        assert len(t.records) > 300  # undetected sends are on record
        assert t.retrieved_bit == 0

    def test_loss_independence_chi_square(self):
        """Kept-qubit statistics match between eta = 1 and eta = 0.1."""
        counts = []
        for eta in (1.0, 0.1):
            config = ProtocolConfig(n=500, k=2, eta=eta, seed=2026)
            counts.append(honest_category_counts(config, trials=150))
        table = np.stack(counts)
        assert table.sum() == 2 * 150 * 1000
        _, p_value, _, _ = chi2_contingency(table)
        assert p_value > 0.01

    def test_rejects_bad_inputs(self):
        config = ProtocolConfig(n=10, k=2, seed=0)
        with pytest.raises(ValueError, match="target"):
            run_protocol(config, np.zeros(10, dtype=np.uint8), 10)
        with pytest.raises(ValueError, match="database"):
            run_protocol(config, np.zeros(9, dtype=np.uint8), 0)
        with pytest.raises(ValueError, match="0 or 1"):
            run_protocol(config, np.full(10, 2, dtype=np.uint8), 0)

    def test_transcript_json_schema(self):
        config = ProtocolConfig(n=50, k=2, seed=8)
        t = run_protocol(config, np.zeros(50, dtype=np.uint8), 3)
        doc = t.to_dict()
        for field in ("config", "restarts", "known_indices", "shift",
                      "retrieved_bit", "target_index"):
            assert field in doc
        assert "records" not in doc
        verbose = t.to_dict(verbose=True)
        assert len(verbose["records"]) == len(t.records)
        kept = [r for r in verbose["records"] if r["detected"]]
        assert len(kept) == 100
        assert all(r["pair"] is not None for r in kept)


class TestConfigValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ProtocolConfig(n=0, k=1)
        with pytest.raises(ValueError):
            ProtocolConfig(n=1, k=0)
        with pytest.raises(ValueError):
            ProtocolConfig(n=1, k=1, eta=1.5)
        with pytest.raises(ValueError):
            ProtocolConfig(n=1, k=1, announcement="phase")


def _unpacked(packed):
    outcome, conclusive, bit = protocol._unpack(np.asarray(packed, dtype=np.uint8))
    return int(outcome), bool(conclusive), int(bit)


def category_counts(alice: HonestAlice, rounds: BobRounds, config: ProtocolConfig,
                    rng) -> np.ndarray:
    """Counts of the eight (outcome, conclusive) categories of one response."""
    res = alice.respond(rounds, np.arange(len(rounds)), config, rng)
    return np.bincount(res.outcome.astype(np.int64) * 2 + res.conclusive, minlength=8)


# Each outcome symbol has probability 1/4 and is conclusive with chance 1/4.
EXACT_CATEGORY_SPLIT = np.tile([3 / 16, 1 / 16], 4)


class TestFairCoinEngine:
    def test_packed_table_composes_the_reference_tables(self):
        """Every entry equals OUTCOME_SECOND_PROB (snapped) then CONCLUSIVE/BIT_TABLE."""
        table = fair_coin_table(OUTCOME_SECOND_PROB, "sarg")
        assert table.shape == (4, 4, 2, 2)
        for kind in range(4):
            for pair in range(4):
                for basis in (0, 1):
                    for coin in (0, 1):
                        p = round(2 * OUTCOME_SECOND_PROB[kind, basis]) / 2
                        second = 0.5 * (1 - coin) < p
                        outcome = basis + 2 * second
                        expected = (outcome, bool(CONCLUSIVE_TABLE[pair, outcome]),
                                    int(BIT_TABLE[pair, outcome]))
                        assert _unpacked(table[kind, pair, basis, coin]) == expected

    def test_basis_announcement_table(self):
        table = fair_coin_table(OUTCOME_SECOND_PROB, "bb84")
        for kind in range(4):
            for basis in (0, 1):
                for coin in (0, 1):
                    second = 0.5 * (1 - coin) < round(2 * OUTCOME_SECOND_PROB[kind, basis]) / 2
                    outcome, conclusive, bit = _unpacked(table[kind, kind & 1, basis, coin])
                    assert outcome == basis + 2 * second
                    assert conclusive == (basis == kind & 1)
                    assert bit == (int(second) if conclusive else -1)

    def test_honest_table_is_dyadic_after_snapping(self):
        # The orthogonal entries hold round-off, not exact zeros.
        assert 0.0 < OUTCOME_SECOND_PROB[0, 0] < 1e-12
        assert is_dyadic(OUTCOME_SECOND_PROB)

    def test_dyadic_check_rejects_other_probabilities(self):
        table = np.array([[0.3, 0.5]])
        assert not is_dyadic(table)
        with pytest.raises(ValueError, match="0, 1/2 or 1"):
            fair_coin_table(table, "sarg")

    def test_fair_engine_fits_the_exact_category_split(self):
        config = ProtocolConfig(n=50_000, k=4)
        rng = np.random.default_rng(4401)
        rounds = HonestBob().rounds(config.raw_length, config, rng)
        counts = category_counts(HonestAlice(), rounds, config, rng)
        _, p_value = chisquare(counts, EXACT_CATEGORY_SPLIT * counts.sum())
        assert p_value > 0.01

    def test_float_coin_path_agrees_with_the_fair_engine(self):
        """A non-dyadic table (zeros lifted by 1e-9) forces the float coin."""
        config = ProtocolConfig(n=50_000, k=4)
        rng = np.random.default_rng(4402)
        fair = HonestBob().rounds(config.raw_length, config, rng)
        lifted = np.rint(2 * OUTCOME_SECOND_PROB) / 2
        lifted[lifted == 0.0] = 1e-9
        assert not is_dyadic(lifted)
        floated = dataclasses.replace(HonestBob().rounds(config.raw_length, config, rng),
                                      kind_table=lifted)
        fair_counts = category_counts(HonestAlice(), fair, config, rng)
        float_counts = category_counts(HonestAlice(), floated, config, rng)
        _, p_fit = chisquare(float_counts, EXACT_CATEGORY_SPLIT * float_counts.sum())
        _, p_same, _, _ = chi2_contingency(np.stack([fair_counts, float_counts]))
        assert p_fit > 0.01
        assert p_same > 0.01


class TestLazyRecords:
    def test_non_verbose_run_builds_no_records(self, monkeypatch):
        def forbidden(att):
            raise AssertionError("records were built")

        monkeypatch.setattr(protocol, "_scatter_records", forbidden)
        config = ProtocolConfig(n=200, k=3, eta=0.5, seed=31)
        t = run_protocol(config, np.zeros(200, dtype=np.uint8), 4)
        assert "records" not in t.to_dict()
        assert "records" not in vars(t)

    @pytest.mark.parametrize("announcement", ["sarg", "bb84"])
    def test_verbose_records_match_a_direct_scatter(self, announcement):
        config = ProtocolConfig(n=60, k=2, eta=0.5, seed=32, announcement=announcement)
        t = run_protocol(config, np.zeros(60, dtype=np.uint8), 9)
        direct = protocol._scatter_records(t.final_attempt)
        for f in dataclasses.fields(RawRecords):
            assert np.array_equal(getattr(t.records, f.name), getattr(direct, f.name),
                                  equal_nan=True), f.name
        assert t.to_dict(verbose=True)["records"] == list(direct.iter_dicts())

    def test_record_posteriors_follow_interpret(self):
        config = ProtocolConfig(n=80, k=2, eta=0.5, seed=33)
        t = run_protocol(config, np.zeros(80, dtype=np.uint8), 0)
        for rec in t.to_dict(verbose=True)["records"]:
            if not rec["detected"]:
                continue
            res = interpret(rec["basis"], SargSymbol(rec["outcome"]),
                            AnnouncedPair(rec["pair"]))
            assert (rec["conclusive"], rec["bit"]) == (res.conclusive, res.bit)
            if res.conclusive:
                assert rec["posterior_bit1"] is None
            else:
                assert rec["posterior_bit1"] == pytest.approx(res.posterior_bit1)

    def test_category_counts_repeat_for_a_seed(self):
        config = ProtocolConfig(n=300, k=2, eta=0.4, seed=34)
        first = honest_category_counts(config, trials=5)
        assert np.array_equal(first, honest_category_counts(config, trials=5))
