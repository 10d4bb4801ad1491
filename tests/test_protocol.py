"""Protocol-engine tests: per-qubit contracts, reduction, retrieval, full runs.

The honest per-qubit steps are checked exactly: `_byte_draws` is patched so
that HonestBob.rounds and HonestAlice.respond see every one of the 256
values of their draw byte, in every combination.
"""

import dataclasses
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from qpq import protocol
from qpq.adversaries import Bb84MemoryAlice, BiasedBob, EntangledBob, UsdAlice
from qpq.protocol import (
    BIT_TABLE,
    CONCLUSIVE_TABLE,
    OUTCOME_SECOND_PROB,
    AliceRecords,
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

from conftest import honest_category_counts, whole_array_respond


def three_sigma_count(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) * n)


ALL_BYTES = np.arange(256, dtype=np.uint8)


@pytest.fixture
def every_draw(monkeypatch):
    """One honest round per (Bob byte, Alice byte) combination, 65,536 in all.

    Returns (rounds, alice records, Alice's bytes). Bob's byte codes the sent
    symbol (bits 0-1) and the pair choice (bit 2); Alice's codes the coin
    (bit 0) and her basis (bit 1). The engine owns and overwrites its draw
    buffers, so each side gets a copy.
    """
    bob_bytes = np.repeat(ALL_BYTES, 256)
    alice_bytes = np.tile(ALL_BYTES, 256)
    draws = iter([bob_bytes.copy(), alice_bytes.copy()])
    config = ProtocolConfig(n=bob_bytes.size, k=1)
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "_byte_draws", lambda rng, count: next(draws))
        rounds = HonestBob().rounds(config.raw_length, config, None)
        alice = HonestAlice().respond(rounds, np.arange(config.raw_length), config, None)
    return rounds, alice, alice_bytes


def bob_bytes_only(monkeypatch):
    """HonestBob.rounds over the 256 values of its draw byte."""
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "_byte_draws", lambda rng, count: ALL_BYTES.copy())
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
    alice = AliceRecords.from_fields(basis=0, outcome=0, conclusive=conclusive, bit=alice_bits)
    return protocol._reduce_arrays(np.asarray(bob_bits, dtype=np.uint8), alice.packed, n, k)


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
        with pytest.raises(ValueError, match="1-D"):
            encrypt_database(np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8), 1)

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_matches_the_roll_oracle(self, n):
        """C = X XOR roll(key, -s) for shifts 0, 1, n - 1, n, negative and random ones."""
        rng = np.random.default_rng([n, 11])
        x = rng.integers(0, 2, n, dtype=np.uint8)
        key = rng.integers(0, 2, n, dtype=np.uint8)
        shifts = [0, 1, n - 1, n, -1, 3 * n + 2, *rng.integers(0, 4 * n, 5).tolist()]
        for s in shifts:
            got = encrypt_database(x, key, s)
            assert got.dtype == np.uint8
            assert np.array_equal(got, x ^ np.roll(key, -s % n)), s


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
                           weakref.ref(att.alice.packed), weakref.ref(att.rounds)]
            return att

        class NeverConclusiveAlice:
            kind = "never_conclusive"

            def respond(self, rounds, kept, config, rng):
                none = np.full(kept.size, -1, dtype=np.int8)
                return protocol.AliceRecords.from_fields(
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

    @pytest.mark.parametrize("database", [
        [0.7, 1.0, 0.2, 1.9], [0.0, 1.0, 0.0, 1.0], [-255, 1, 0, 1], [-1, 1, 0, 1],
        [2, 1, 0, 1], np.array([0, 1, 0, 256], dtype=np.int16), ["0", "1", "0", "1"],
    ], ids=["float", "whole-floats", "minus-255", "minus-1", "two", "int16-256", "str"])
    def test_rejects_non_binary_databases(self, database):
        config = ProtocolConfig(n=4, k=1, seed=0)
        with pytest.raises(ValueError, match="0 or 1"):
            run_protocol(config, database, 0)

    @pytest.mark.parametrize("target", [2.5, True, "3", np.True_, np.float64(2.0)],
                             ids=["float", "bool", "str", "numpy-bool", "numpy-float"])
    def test_rejects_non_integer_targets_before_any_draw(self, target):
        config = ProtocolConfig(n=10, k=2, seed=0)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="target index must be an integer"):
            run_protocol(config, np.zeros(10, dtype=np.uint8), target, rng=rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("target", [3, np.int64(3), np.uint8(3)],
                             ids=["int", "int64", "uint8"])
    def test_accepts_python_and_numpy_integer_targets(self, target):
        config = ProtocolConfig(n=10, k=2, seed=0)
        database = np.arange(10) % 2
        got = run_protocol(config, database, target)
        assert type(got.target_index) is int
        assert got.to_dict() == run_protocol(config, database, 3).to_dict()

    @pytest.mark.parametrize("database", [
        [False, True, True, False], [0, 1, 1, 0], np.array([0, 1, 1, 0], dtype=np.int64),
    ], ids=["bool", "list", "int64"])
    def test_accepts_bool_and_integer_databases(self, database):
        config = ProtocolConfig(n=4, k=1, seed=5)
        want = run_protocol(config, np.array([0, 1, 1, 0], dtype=np.uint8), 2)
        got = run_protocol(config, database, 2)
        assert got.retrieved_bit == 1
        assert np.array_equal(got.ciphertext, want.ciphertext)
        assert got.ciphertext.dtype == np.uint8

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


def strategy_field_combinations() -> list[tuple[int, int, bool, int]]:
    """Every (basis, outcome, conclusive, bit) a strategy records.

    A measured outcome lies in Alice's basis; the memory attacks record
    neither basis nor outcome (-1); the bit is -1 exactly where inconclusive.
    """
    return [(basis, outcome, conclusive, bit)
            for basis in (-1, 0, 1)
            for outcome in ([-1] if basis < 0 else [basis, basis + 2])
            for conclusive in (False, True)
            for bit in ([0, 1] if conclusive else [-1])]


class TestPackedRecords:
    """AliceRecords keeps the basis and one packed byte; the other fields decode it."""

    def test_from_fields_round_trips_every_strategy_combination(self):
        combos = strategy_field_combinations()
        assert len(combos) == 15
        fields = {name: np.array(column, dtype=dtype) for name, column, dtype in
                  zip(("basis", "outcome", "conclusive", "bit"), zip(*combos),
                      (np.int8, np.int8, bool, np.int8))}
        records = AliceRecords.from_fields(**fields)
        assert records.packed.dtype == np.uint8
        assert np.array_equal(records.packed >> 5, np.zeros(15))
        for name, want in fields.items():
            got = getattr(records, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    @pytest.mark.parametrize("alice_cls,bob,announcement,eta", [
        (HonestAlice, None, "sarg", 1.0),
        (HonestAlice, None, "bb84", 0.6),
        (UsdAlice, None, "sarg", 1.0),
        (Bb84MemoryAlice, None, "bb84", 1.0),
        (HonestAlice, BiasedBob(0.3), "sarg", 1.0),
        (HonestAlice, EntangledBob("honest_basis"), "sarg", 0.6),
    ], ids=["honest", "honest-bb84-lossy", "usd", "bb84-memory", "biased", "entangled"])
    def test_respond_counts_are_the_transcript_counts(self, alice_cls, bob, announcement, eta):
        """Each response's conclusive flags mark its bits, and their sum per attempt
        is `attempt_conclusive_counts`, as the bench tracer reads it."""
        seen = []

        class RecordingAlice(alice_cls):
            def respond(self, rounds, kept, config, rng):
                records = super().respond(rounds, kept, config, rng)
                seen.append((kept.size, records))
                return records

        config = ProtocolConfig(n=200, k=4, eta=eta, seed=12, announcement=announcement)
        t = run_protocol(config, np.zeros(200, dtype=np.uint8), 0,
                         alice=RecordingAlice(), bob=bob)
        assert len(seen) == t.restarts + 1
        for size, records in seen:
            assert size == config.raw_length
            assert np.array_equal(records.conclusive, records.bit >= 0)
        assert [int(r.conclusive.sum()) for _, r in seen] == t.attempt_conclusive_counts

    def test_the_honest_case_spans_restarts(self):
        """So the counts above are compared over more than one attempt."""
        config = ProtocolConfig(n=200, k=4, seed=12)
        t = run_protocol(config, np.zeros(200, dtype=np.uint8), 0)
        assert t.restarts >= 1
        assert len(t.attempt_conclusive_counts) == t.restarts + 1


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

    @pytest.mark.parametrize("field,value", [
        ("k", 2.0), ("max_restarts", 1.5), ("n", 10.5), ("n", True),
    ], ids=["k-float", "max-restarts-float", "n-fraction", "n-bool"])
    def test_rejects_non_integer_sizes_up_front(self, field, value):
        sizes = {"n": 10, "k": 2, "max_restarts": 3, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            ProtocolConfig(**sizes)

    def test_stores_numpy_integer_sizes_as_python_ints(self):
        config = ProtocolConfig(n=np.int64(10), k=np.uint8(2), max_restarts=np.int32(3))
        assert [type(v) for v in (config.n, config.k, config.max_restarts)] == [int] * 3
        assert config.to_dict() == ProtocolConfig(n=10, k=2, max_restarts=3).to_dict()


def _unpacked(packed):
    """Outcome, conclusive flag and bit (-1 where inconclusive) of one packed byte."""
    packed = int(packed)
    return packed & 3, bool(packed & 4), (packed >> 3) - 1


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


CHUNK = protocol.CHUNK


def respond_inputs(table: str, size: int, kept_kind: str, announcement: str):
    """Rounds, `kept` and config for one response of `size` qubits.

    "mask" keeps every round through the all-True mask, as at eta = 1;
    "index" keeps an increasing subset of about twice as many rounds, as
    under loss. The biased and entangled tables replace the honest kinds
    and force the float coin.
    """
    config = ProtocolConfig(n=size, k=1, announcement=announcement)
    rng = np.random.default_rng([size, 5])
    total = size if kept_kind == "mask" else 2 * size + 3
    rounds = HonestBob().rounds(total, config, rng)
    if table != "honest":
        bob = BiasedBob(0.3) if table == "biased" else EntangledBob("honest_basis")
        rounds = dataclasses.replace(
            rounds, kind=np.zeros(total, dtype=np.int8),
            kind_table=bob.rounds(1, ProtocolConfig(n=1, k=1), rng).kind_table)
    if kept_kind == "mask":
        kept = np.ones(size, dtype=bool)
    else:
        kept = np.sort(rng.choice(total, size, replace=False))
    return rounds, kept, config


@pytest.mark.parametrize("size", [1, 7, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7])
def test_chunked_byte_draws_are_one_bytes_call(size):
    """CHUNK-byte calls give the bytes and the generator state of one rng.bytes call."""
    chunked_rng, whole_rng = np.random.default_rng([size, 3]), np.random.default_rng([size, 3])
    got = protocol._byte_draws(chunked_rng, size)
    want = np.frombuffer(whole_rng.bytes(size), dtype=np.uint8)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert chunked_rng.bit_generator.state == whole_rng.bit_generator.state


SPARE_BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                        np.random.SFC64]
BYTE_DRAW_SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, CHUNK - 1, CHUNK, CHUNK + 1,
                   2 * CHUNK + 7]


@pytest.mark.parametrize("spare", [False, True], ids=["aligned", "spare-half"])
@pytest.mark.parametrize("size", BYTE_DRAW_SIZES)
@pytest.mark.parametrize("bit_generator", SPARE_BIT_GENERATORS + [np.random.MT19937],
                         ids=lambda bg: bg.__name__)
def test_byte_draws_match_one_bytes_call_for_every_bit_generator(bit_generator, size, spare):
    """The bytes, the whole state and the next draws equal one rng.bytes call's.

    With `spare`, one 32-bit draw first leaves half of a 64-bit output
    buffered; MT19937 has no such buffer and takes the `rng.bytes` pieces.
    """
    mine, ref = (np.random.Generator(bit_generator(size)) for _ in range(2))
    if spare:
        for rng in (mine, ref):
            rng.integers(0, 2**32 - 1, dtype=np.uint32)
    got = protocol._byte_draws(mine, size)
    want = np.frombuffer(ref.bytes(size), dtype=np.uint8)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    assert repr(mine.bit_generator.state) == repr(ref.bit_generator.state)
    assert mine.bytes(5) == ref.bytes(5)
    assert mine.random() == ref.random()


class TestChunkedRespond:
    """HonestAlice.respond works through CHUNK qubits at a time; the oracle in one pass."""

    @pytest.mark.parametrize("kept_kind", ["mask", "index"])
    @pytest.mark.parametrize("table", ["honest", "biased", "entangled"])
    @pytest.mark.parametrize("announcement", ["sarg", "bb84"])
    @pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7])
    def test_matches_the_whole_array_oracle(self, size, announcement, table, kept_kind):
        rounds, kept, config = respond_inputs(table, size, kept_kind, announcement)
        fair = protocol._fair_lookup(rounds.kind_table, announcement) is not None
        assert fair == (table == "honest")
        chunked_rng, whole_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = HonestAlice().respond(rounds, kept, config, chunked_rng)
        want = whole_array_respond(rounds, kept, config, whole_rng)
        for name in ("basis", "packed", "outcome", "conclusive", "bit"):
            mine, ref = getattr(got, name), getattr(want, name)
            assert mine.dtype == ref.dtype, name
            assert np.array_equal(mine, ref), name
        assert chunked_rng.bit_generator.state == whole_rng.bit_generator.state


class TestEngineSeams:
    @pytest.mark.parametrize("eta", [1.0, 0.6])
    def test_kept_at_the_strategy_seams(self, eta):
        """At eta = 1 `kept` is the all-True mask; under loss, increasing indices."""
        seen = []

        class RecordingAlice(HonestAlice):
            def respond(self, rounds, kept, config, rng):
                seen.append(("respond", kept, len(rounds)))
                return super().respond(rounds, kept, config, rng)

        class RecordingBob(HonestBob):
            def key_bits(self, rounds, kept, alice, config, rng):
                seen.append(("key_bits", kept, len(rounds)))
                return super().key_bits(rounds, kept, alice, config, rng)

        config = ProtocolConfig(n=300, k=3, eta=eta, seed=41)
        run_protocol(config, np.zeros(300, dtype=np.uint8), 0,
                     alice=RecordingAlice(), bob=RecordingBob())
        assert [name for name, _, _ in seen[:2]] == ["respond", "key_bits"]
        for _, kept, total in seen:
            assert kept.size == config.raw_length
            if eta == 1.0:
                assert kept.dtype == bool and kept.all() and total == kept.size
            else:
                assert kept.dtype.kind == "i"
                assert (np.diff(kept) > 0).all() and total == kept[-1] + 1

    def test_engine_peak_memory_per_qubit(self):
        """One honest run at N = 10^5, k = 9 holds at most 6 bytes per raw qubit."""
        config = ProtocolConfig(n=10**5, k=9, seed=0)
        database = np.zeros(config.n, dtype=np.uint8)
        tracemalloc.start()
        try:
            run_protocol(config, database, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / config.raw_length <= 6.0


def transcript_digest(t) -> str:
    """sha256 over every `RawRecords` field (name, dtype, shape, bytes) and the key."""
    h = hashlib.sha256()
    arrays = [(f.name, getattr(t.records, f.name)) for f in dataclasses.fields(RawRecords)]
    for name, values in arrays + [("bob_key", t.key.bob_key)]:
        values = np.ascontiguousarray(values)
        h.update(f"{name}:{values.dtype.str}:{values.shape}:".encode())
        h.update(values.tobytes())
    h.update(repr(sorted(t.key.alice_known.items())).encode())
    return h.hexdigest()


class TestRecordDigests:
    """sha256 of the per-qubit records and the key of small runs under every strategy.

    The honest pair at eta = 1 and under loss in both announcement modes, the
    two user attacks, and the two provider attacks in each of their modes:
    the fair-coin lookup, the float coin (the entangled register, and a
    biased angle off the multiples of pi/4) and the attacks' own record
    fields. Two runs span more than one `protocol.CHUNK` of qubits, and one
    folds an odd number of rows, where a complemented bit flips the key.
    Bb84MemoryAlice against pairs runs UsdAlice, so their digests agree.
    """

    def test_biased_angles_take_both_coin_paths(self):
        """pi/4 prepares RIGHT, whose outcome table is dyadic; pi/8 and 0.3 are not."""
        config = ProtocolConfig(n=1, k=1)
        rng = np.random.default_rng(0)
        assert [is_dyadic(BiasedBob(phi).rounds(1, config, rng).kind_table)
                for phi in (math.pi / 4, math.pi / 8, 0.3)] == [True, False, False]

    @pytest.mark.parametrize("n,k,eta,announcement,alice,bob,digest", [
        pytest.param(40, 2, 1.0, "sarg", None, None,
                     "89e35e2322618359b34681c588015ef8f08ef2b072d8144360fae2e70eed9f13",
                     id="honest-sarg"),
        pytest.param(40, 3, 1.0, "sarg", None, None,
                     "75bfdd9a658fa7d421d22d5c75e9560119159bc737140c7a5cbc968e454c9497",
                     id="honest-sarg-odd-k"),
        pytest.param(40, 2, 0.6, "sarg", None, None,
                     "7a310d2a8f113db9fcd3b63402641114c6a8eb029a187c5a85818e50f2ce58e4",
                     id="honest-sarg-lossy"),
        pytest.param(40, 2, 1.0, "bb84", None, None,
                     "043b79d5d95b726529640c27b9960ab6c103a0f17e883a01da3c3bb76af7d931",
                     id="honest-bb84"),
        pytest.param(40, 2, 0.6, "bb84", None, None,
                     "26d1a5fee4c7b02a285a871eb08b62e872444d9f4c170c63addaa868f0140fef",
                     id="honest-bb84-lossy"),
        pytest.param(40, 2, 1.0, "sarg", UsdAlice(), None,
                     "469762d55b69088168441f37cbefc6f3015794ad5449587dd58e6c0948b3eab6",
                     id="usd"),
        pytest.param(40_000, 2, 0.6, "sarg", UsdAlice(), None,
                     "35b1889221c633a3c8e6fbeebd310cc93353cc92aecbb96dd23555b3240c0933",
                     id="usd-lossy-multi-chunk"),
        pytest.param(40, 2, 1.0, "sarg", Bb84MemoryAlice(), None,
                     "469762d55b69088168441f37cbefc6f3015794ad5449587dd58e6c0948b3eab6",
                     id="bb84-memory-sarg"),
        pytest.param(40, 2, 1.0, "bb84", Bb84MemoryAlice(), None,
                     "0eaa4f35c4a52a5152a1eb7d6f7defc7c6e2a950a695bf45bd4cd9824aa51f58",
                     id="bb84-memory-bb84"),
        pytest.param(40, 2, 1.0, "sarg", None, BiasedBob(math.pi / 4),
                     "cb597cb29054e502c1c5aad2f004db8f1e16009c8ae46dfad274224aa42f97af",
                     id="biased-fair-coin"),
        pytest.param(40, 2, 1.0, "sarg", None, BiasedBob(math.pi / 8),
                     "9c9564ff092e1a6e25416f0589c4bdc54f1a4841fd2b407194bad1023d493466",
                     id="biased-pi-8-float-coin"),
        pytest.param(40_000, 2, 1.0, "sarg", None, BiasedBob(0.3),
                     "aa1da969b0d2d92216bb0c13d6487d523801bbb47072f1a19bf692b71d1a6127",
                     id="biased-float-coin-multi-chunk"),
        pytest.param(40, 2, 1.0, "sarg", None, EntangledBob("honest_basis"),
                     "efa05f3f4dee645ea4d77e07b06a535ed98e16670984c32a3d6e5447d151870f",
                     id="entangled-honest-basis"),
        pytest.param(40, 2, 0.6, "sarg", None, EntangledBob("conclusiveness_basis"),
                     "47d090aee51d829e75a4fdabfe5a00e6d83ba32527729e66c65f7918ed2dfe02",
                     id="entangled-conclusiveness-basis"),
    ])
    def test_records_and_key_digest(self, n, k, eta, announcement, alice, bob, digest):
        config = ProtocolConfig(n=n, k=k, eta=eta, seed=1234, announcement=announcement)
        database = np.random.default_rng(5).integers(0, 2, n, dtype=np.uint8)
        t = run_protocol(config, database, 3, alice=alice, bob=bob)
        assert transcript_digest(t) == digest
