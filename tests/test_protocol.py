"""Protocol-engine tests: per-qubit contracts, reduction, retrieval, full runs.

The honest per-qubit steps are checked exactly: `_byte_pieces`, under
every byte draw, is patched so that HonestBob.rounds and HonestAlice.respond
see every one of the 256 values of their draw byte, in every combination.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from qpq import protocol
from qpq.adversaries import Bb84MemoryAlice, BiasedBob, EntangledBob, UsdAlice
from qpq.experiments import monte_carlo
from qpq.protocol import (
    BIT_TABLE,
    CONCLUSIVE_TABLE,
    HONEST_LAYOUTS,
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
    interpret,
    query_shift,
    run_protocol,
)

from conftest import BIT_GENERATORS, folded_key, honest_category_counts, whole_array_respond


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
    draws = iter([bob_bytes, alice_bytes])

    def pieces(rng, count, out):
        draw = next(draws)
        for start in range(0, count, CHUNK):
            piece = out[start:min(count, start + CHUNK)]
            piece[:] = draw[start:start + piece.size]
            yield start, piece

    config = ProtocolConfig(n=bob_bytes.size, k=1)
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "_byte_pieces", pieces)
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
        law = np.array(rounds.layout.second)[rounds.code]
        assert np.array_equal(law, OUTCOME_SECOND_PROB[rounds.sent])

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
    @pytest.mark.parametrize("announcement", ["sarg", "bb84"])
    def test_every_honest_code_decodes_as_the_draw_formula(self, monkeypatch, announcement):
        """Each of the 256 draw bytes, so each of the 8 codes, gives the sent symbol
        draw & 3 and, against pairs, the pair (draw - ((draw >> 2) & 1)) & 3; -1 against bases.
        Its outcome law is the sent symbol's."""
        config = ProtocolConfig(n=256, k=1, announcement=announcement)
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "_byte_draws", lambda rng, count: ALL_BYTES.copy())
            rounds = HonestBob().rounds(256, config, None)
        assert rounds.code.dtype == np.uint8 and np.array_equal(rounds.code, ALL_BYTES & 7)
        sent = (ALL_BYTES & 3).astype(np.int8)
        pair = ((ALL_BYTES - ((ALL_BYTES >> 2) & 1)) & 3).astype(np.int8)
        if announcement == "bb84":
            pair[:] = -1
        for name, want in (("sent", sent), ("pair", pair)):
            got = getattr(rounds, name)
            assert got.dtype == np.int8 and np.array_equal(got, want), name
        assert np.array_equal(np.array(rounds.layout.second)[rounds.code],
                              OUTCOME_SECOND_PROB[sent])

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


def fold(bob_bits, packed, n, k) -> ObliviousKey:
    """One attempt's key as the engine folds it: `_fold_rows` on a batch of one."""
    return protocol._fold_rows(bob_bits[None], packed[None], n, k).key(0)


def reduce(bob_bits, conclusive, alice_bits, n, k) -> ObliviousKey:
    alice = AliceRecords.from_fields(outcome=0, conclusive=conclusive, bit=alice_bits)
    return fold(np.asarray(bob_bits, dtype=np.uint8), alice.packed, n, k)


class TestReduceKey:
    """The engine's k-fold XOR reduction, `_fold_rows`; -1 marks no bit."""

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
        place, s = query_shift(np.array([5]), target_index=2, n=10, rng=rng)
        assert (place, s) == (0, 3)

    def test_wrapping_shift(self, rng):
        place, s = query_shift(np.array([1]), target_index=8, n=10, rng=rng)
        assert (place, s) == (0, 3)

    def test_tie_break_is_uniform(self, rng):
        n = 20_000
        picks = sum(query_shift(np.array([2, 7]), 0, 10, rng)[0] == 0 for _ in range(n))
        assert abs(picks - n / 2) <= three_sigma_count(0.5, n)

    def test_picks_the_positions_of_the_dict_route(self):
        """The picks of the route that sorted a dict's keys, at fixed seeds:
        one `rng.integers(len(known))` draw per query."""
        known = np.array([2, 7, 11, 30, 31])
        picks = [query_shift(known, 5, 40, np.random.default_rng(s)) for s in range(8)]
        assert [(int(known[p]), s) for p, s in picks] == [
            (31, 26), (11, 6), (31, 26), (31, 26), (30, 25), (30, 25), (11, 6), (31, 26)]
        rng = np.random.default_rng(99)
        picks = [query_shift(known, 33, 40, rng) for _ in range(8)]
        assert [(int(known[p]), s) for p, s in picks] == [
            (31, 38), (11, 18), (30, 37), (11, 18), (2, 9), (11, 18), (31, 38), (31, 38)]

    def test_empty_known_set_raises(self, rng):
        with pytest.raises(EmptyKnownSet):
            query_shift(np.array([], dtype=np.intp), 0, 10, rng)

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
    @pytest.mark.parametrize("known,bits,match", [
        ([0, 2, 4], [1, 0, 1], "indices"),
        ([-1, 2], [1, 0], "indices"),
        ([0, 3, 2], [1, 0, 1], "indices"),
        ([0, 2, 2], [1, 0, 1], "indices"),
        ([0, 2, 3], [1, 2, 1], "bits"),
        ([0, 2, 3], [1, -1, 1], "bits"),
        ([0, 2], [1, 0, 1], "shape"),
        ([[0, 2]], [[1, 0]], "shape"),
    ], ids=["index-out-of-range", "negative-index", "indices-not-increasing",
            "repeated-index", "bit-of-2", "bit-of-minus-1", "length-mismatch", "two-dim"])
    def test_rejects_entries_outside_the_key(self, known, bits, match):
        with pytest.raises(ValueError, match=match):
            ObliviousKey(np.zeros(4, dtype=np.uint8), np.array(known), np.array(bits))

    def test_holds_read_only_arrays_and_leaves_the_callers_writeable(self):
        bob_key = np.array([1, 0, 1, 1], dtype=np.uint8)
        known = np.array([0, 3], dtype=np.intp)
        bits = np.array([1, 0], dtype=np.uint8)
        key = ObliviousKey(bob_key, known, bits)
        for given, held in ((bob_key, key.bob_key), (known, key.known), (bits, key.bits)):
            assert given.flags.writeable and not held.flags.writeable
        assert (key.known.dtype, key.bits.dtype) == (np.intp, np.uint8)
        assert key.alice_known == {0: 1, 3: 0}
        assert key.known_indices() == [0, 3] and key.mismatched_indices() == [3]

    def test_empty_lists_make_an_empty_known_set(self):
        key = ObliviousKey(np.zeros(3, dtype=np.uint8), [], [])
        assert key.size == 3 and key.alice_known == {} and key.mismatched_indices() == []

    @pytest.mark.parametrize("size", [0, 1, 4, 1000])
    def test_mismatches_equal_the_per_entry_loop_after_changes(self, size):
        rng = np.random.default_rng([size, 31])
        key = ObliviousKey(rng.integers(0, 2, 1000, dtype=np.uint8), [], [])
        known = key.alice_known
        positions = rng.permutation(1000)[:size].tolist()
        known.update(zip(positions, key.bob_key[positions].tolist()))
        for j in positions[:size // 3]:
            known[j] ^= 1
        for j in positions[size // 3:size // 2]:
            del known[j]
        known.update({j: 1 - int(key.bob_key[j]) for j in range(0, 1000, 97)})
        want = [j for j, bit in sorted(known.items()) if bit != int(key.bob_key[j])]
        assert key.mismatched_indices() == want
        assert key.known_indices() == sorted(known)


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
                    outcome=none, conclusive=np.zeros(kept.size, dtype=bool), bit=none)

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

    def test_restart_limit_exceeded_carries_the_conclusive_counts(self):
        """One count per attempt, each the conclusive count of that attempt's records."""
        counted = []

        class CountingAlice(HonestAlice):
            def respond(self, rounds, kept, config, rng):
                records = super().respond(rounds, kept, config, rng)
                counted.append(int(records.conclusive.sum()))
                return records

        config = ProtocolConfig(n=40, k=20, max_restarts=2, seed=3)
        with pytest.raises(RestartLimitExceeded) as err:
            run_protocol(config, np.zeros(40, dtype=np.uint8), 0, alice=CountingAlice())
        assert err.value.attempts == 3
        assert err.value.conclusive_counts == counted
        assert all(0 < c < config.raw_length for c in counted)

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
    """AliceRecords keeps one packed byte per qubit; every field decodes it."""

    def test_from_fields_round_trips_every_strategy_combination(self):
        """The basis is not passed: it is the outcome's, or -1 with the outcome."""
        combos = strategy_field_combinations()
        assert len(combos) == 15
        fields = {name: np.array(column, dtype=dtype) for name, column, dtype in
                  zip(("basis", "outcome", "conclusive", "bit"), zip(*combos),
                      (np.int8, np.int8, bool, np.int8))}
        records = AliceRecords.from_fields(
            **{name: fields[name] for name in ("outcome", "conclusive", "bit")})
        assert records.packed.dtype == np.uint8
        assert np.array_equal(records.packed >> 6, np.zeros(15))
        assert np.array_equal((records.packed >> 5) & 1, fields["outcome"] < 0)
        for name, want in fields.items():
            got = getattr(records, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    @pytest.mark.parametrize("alice,announcement,measured", [
        (HonestAlice(), "sarg", True),
        (HonestAlice(), "bb84", True),
        (UsdAlice(), "sarg", False),
        (Bb84MemoryAlice(), "sarg", False),
        (Bb84MemoryAlice(), "bb84", True),
    ], ids=["honest", "honest-bb84", "usd", "bb84-memory-sarg", "bb84-memory-bb84"])
    def test_basis_and_outcome_decode_under_every_user(self, alice, announcement, measured):
        """-1 for both where Alice measured nothing (bit 5 set), else the outcome's basis."""
        config = ProtocolConfig(n=300, k=3, announcement=announcement)
        rng = np.random.default_rng(8)
        rounds = HonestBob().rounds(config.raw_length, config, rng)
        kept = np.broadcast_to(np.True_, config.raw_length)
        records = alice.respond(rounds, kept, config, rng)
        basis, outcome = records.basis, records.outcome
        assert basis.dtype == outcome.dtype == np.int8
        assert np.array_equal((records.packed & 32) != 0, outcome < 0)
        if measured:
            assert (outcome >= 0).all() and np.array_equal(basis, outcome & 1)
            assert set(basis.tolist()) == {0, 1}
        else:
            assert (basis == -1).all() and (outcome == -1).all()
        if isinstance(alice, Bb84MemoryAlice) and measured:
            assert np.array_equal(outcome, rounds.sent)

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

    @pytest.mark.parametrize("field,value,message", [
        ("eta", True, "eta must be a real number, got True"),
        ("eta", np.True_, "eta must be a real number, got np.True_"),
        ("eta", "0.5", "eta must be a real number, got '0.5'"),
        ("eta", 0.5j, "eta must be a real number, got 0.5j"),
        ("seed", True, "seed must be a non-negative integer, got True"),
        ("seed", -1, "seed must be a non-negative integer, got -1"),
        ("seed", np.int64(-5), "seed must be a non-negative integer, got np.int64(-5)"),
        ("seed", 3.0, "seed must be a non-negative integer, got 3.0"),
        ("seed", "3", "seed must be a non-negative integer, got '3'"),
    ], ids=["eta-bool", "eta-numpy-bool", "eta-str", "eta-complex", "seed-bool",
            "seed-negative", "seed-numpy-negative", "seed-float", "seed-str"])
    def test_rejects_a_bad_eta_or_seed_up_front(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProtocolConfig(n=10, k=1, **{field: value})

    def test_keeps_eta_and_seed_as_given(self):
        """Ints and numpy values pass unchanged, so no report byte moves."""
        config = ProtocolConfig(n=10, k=1, eta=np.float32(0.5), seed=np.uint16(3))
        assert type(config.eta) is np.float32 and type(config.seed) is np.uint16
        doc = ProtocolConfig(n=10, k=1, eta=1, seed=0).to_dict()
        assert type(doc["eta"]) is int and type(doc["seed"]) is int

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


def honest_respond_entries(announcement: str):
    """The packed entry of the cached respond table per index code * 4 + basis * 2
    + coin of an honest layout, read back through the two-byte lookup, and
    whether its coin is fair."""
    layout = HONEST_LAYOUTS[announcement]
    table, fair, second = protocol._respond_table(layout, announcement)
    assert np.array_equal(second, OUTCOME_SECOND_PROB[list(layout.sent)])
    both_bytes = np.repeat(np.arange(4 * len(layout.sent), dtype=np.uint8), 2)
    return table[both_bytes.view(np.uint16)].view(np.uint8)[::2], fair


class TestFairCoinEngine:
    def test_packed_table_composes_the_reference_tables(self):
        """Every entry equals OUTCOME_SECOND_PROB (snapped) then CONCLUSIVE/BIT_TABLE."""
        entries, fair = honest_respond_entries("sarg")
        assert fair
        for code in range(8):
            symbol, pair = code & 3, ((code & 3) - (code >> 2)) & 3
            for basis in (0, 1):
                for coin in (0, 1):
                    p = round(2 * OUTCOME_SECOND_PROB[symbol, basis]) / 2
                    second = 0.5 * (1 - coin) < p
                    outcome = basis + 2 * second
                    expected = (outcome, bool(CONCLUSIVE_TABLE[pair, outcome]),
                                int(BIT_TABLE[pair, outcome]))
                    assert _unpacked(entries[code * 4 + basis * 2 + coin]) == expected

    def test_basis_announcement_table(self):
        entries, fair = honest_respond_entries("bb84")
        assert fair
        for code in range(8):
            symbol = code & 3
            for basis in (0, 1):
                for coin in (0, 1):
                    second = 0.5 * (1 - coin) < round(2 * OUTCOME_SECOND_PROB[symbol, basis]) / 2
                    outcome, conclusive, bit = _unpacked(entries[code * 4 + basis * 2 + coin])
                    assert outcome == basis + 2 * second
                    assert conclusive == (basis == symbol & 1)
                    assert bit == (int(second) if conclusive else -1)

    def test_honest_table_is_dyadic_after_snapping(self):
        # The orthogonal entries hold round-off, not exact zeros.
        assert 0.0 < OUTCOME_SECOND_PROB[0, 0] < 1e-12
        assert protocol._respond_table(HONEST_LAYOUTS["sarg"], "sarg")[1]

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
        layout = fair.layout._replace(second=tuple(map(tuple, lifted[list(fair.layout.sent)])))
        assert not protocol._respond_table(layout, "sarg")[1]
        floated = dataclasses.replace(HonestBob().rounds(config.raw_length, config, rng),
                                      layout=layout)
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
    under loss. The biased and entangled outcome laws replace the honest
    ones at every code and force the float coin.
    """
    config = ProtocolConfig(n=size, k=1, announcement=announcement)
    rng = np.random.default_rng([size, 5])
    total = size if kept_kind == "mask" else 2 * size + 3
    rounds = HonestBob().rounds(total, config, rng)
    if table != "honest":
        bob = BiasedBob(0.3) if table == "biased" else EntangledBob("honest_basis")
        law = bob.rounds(1, ProtocolConfig(n=1, k=1), rng).layout.second
        rounds = dataclasses.replace(rounds, layout=rounds.layout._replace(second=law * 8))
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


BYTE_DRAW_SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, CHUNK - 1, CHUNK, CHUNK + 1,
                   2 * CHUNK + 7]


def streamed_byte_draws(rng, size):
    """Alice's streamed draw: each piece is out[start:stop], in order, from even starts."""
    out = np.empty(size + size % 2, dtype=np.uint8)
    stop = 0
    for start, piece in protocol._byte_pieces(rng, size, out):
        assert start == stop and start % 2 == 0
        assert piece.base is out and piece.ctypes.data == out.ctypes.data + start
        stop = start + piece.size
    assert stop == size
    return out[:size]


@pytest.mark.parametrize("spare", [False, True], ids=["aligned", "spare-half"])
@pytest.mark.parametrize("size", BYTE_DRAW_SIZES)
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_byte_draws_match_one_bytes_call_for_every_bit_generator(bit_generator, size, spare):
    """The bytes, the whole state and the next draws equal one rng.bytes call's,
    drawn whole (Bob) and streamed piece by piece into Alice's records.

    With `spare`, one 32-bit draw first leaves half of a 64-bit output
    buffered; MT19937 has no such buffer and takes the `rng.bytes` pieces.
    """
    for draw in (protocol._byte_draws, streamed_byte_draws):
        mine, ref = (np.random.Generator(bit_generator(size)) for _ in range(2))
        if spare:
            for rng in (mine, ref):
                rng.integers(0, 2**32 - 1, dtype=np.uint32)
        got = draw(mine, size)
        want = np.frombuffer(ref.bytes(size), dtype=np.uint8)
        assert got.dtype == np.uint8 and np.array_equal(got, want), draw.__name__
        assert repr(mine.bit_generator.state) == repr(ref.bit_generator.state), draw.__name__
        assert mine.bytes(5) == ref.bytes(5)
        assert mine.random() == ref.random()


@pytest.mark.parametrize("spare", [False, True], ids=["aligned", "spare-half"])
@pytest.mark.parametrize("size", BYTE_DRAW_SIZES)
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_fair_bits_match_one_integers_call_for_every_bit_generator(bit_generator, size,
                                                                   spare):
    """The coins, the whole state and the next draws equal one
    rng.integers(0, 2, size) call's, with and without a spare 32-bit half."""
    mine, ref = (np.random.Generator(bit_generator(size)) for _ in range(2))
    if spare:
        for rng in (mine, ref):
            rng.integers(0, 2**32 - 1, dtype=np.uint32)
    got = protocol._fair_bits(mine, size)
    want = ref.integers(0, 2, size)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert repr(mine.bit_generator.state) == repr(ref.bit_generator.state)
    assert np.array_equal(mine.integers(0, 2, 3), ref.integers(0, 2, 3))
    assert mine.bytes(5) == ref.bytes(5)
    assert mine.random() == ref.random()


@pytest.mark.parametrize("spare", [False, True], ids=["aligned", "spare-half"])
@pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 7, 1000, 50_001, CHUNK + 2, 4 * CHUNK + 3])
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_fair_bytes_match_one_uint8_integers_call_for_every_bit_generator(bit_generator, size,
                                                                         spare):
    """A database draw: the uint8 coins, the whole state and the next draws
    equal one rng.integers(0, 2, size, dtype=np.uint8) call's, which takes
    ceil(size / 4) 32-bit words, with and without a spare 32-bit half."""
    mine, ref = (np.random.Generator(bit_generator([size, 26])) for _ in range(2))
    if spare:
        for rng in (mine, ref):
            rng.integers(0, 2**32 - 1, dtype=np.uint32)
    got = protocol._fair_bits(mine, size, np.uint8)
    want = ref.integers(0, 2, size, dtype=np.uint8)
    assert got.dtype == want.dtype == np.uint8 and np.array_equal(got, want)
    assert repr(mine.bit_generator.state) == repr(ref.bit_generator.state)
    assert np.array_equal(mine.integers(0, 2, 3), ref.integers(0, 2, 3))
    assert mine.bytes(5) == ref.bytes(5)
    assert mine.random() == ref.random()


class TestChunkedRespond:
    """HonestAlice.respond works through CHUNK qubits at a time; the oracle in one pass."""

    @pytest.mark.parametrize("spare", [False, True], ids=["aligned", "spare-half"])
    @pytest.mark.parametrize("kept_kind", ["mask", "index"])
    @pytest.mark.parametrize("table", ["honest", "biased", "entangled"])
    @pytest.mark.parametrize("announcement", ["sarg", "bb84"])
    @pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7])
    def test_matches_the_whole_array_oracle(self, size, announcement, table, kept_kind, spare):
        """With `spare`, one 32-bit draw first leaves half of a 64-bit output
        buffered, so Alice's first piece is the 4-byte head plus CHUNK."""
        rounds, kept, config = respond_inputs(table, size, kept_kind, announcement)
        assert protocol._respond_table(rounds.layout, announcement)[1] == (table == "honest")
        chunked_rng, whole_rng = np.random.default_rng(9), np.random.default_rng(9)
        if spare:
            for rng in (chunked_rng, whole_rng):
                rng.integers(0, 2**32 - 1, dtype=np.uint32)
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

    @staticmethod
    def _traced_peak(run) -> int:
        """Peak traced bytes of `run()`, after one untraced run: the first run in
        an interpreter also allocates the modules `default_rng` imports lazily."""
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_engine_peak_memory_per_qubit(self):
        """One honest run at N = 10^5, k = 9 holds at most 3 bytes per raw qubit:
        Bob's code and Alice's packed records, plus the key and the chunk buffers."""
        config = ProtocolConfig(n=10**5, k=9, seed=0)
        database = np.zeros(config.n, dtype=np.uint8)
        peak = self._traced_peak(lambda: run_protocol(config, database, 0))
        assert peak / config.raw_length <= 3.0

    def test_float_coin_peak_memory_per_qubit(self):
        """One float-coin run (BiasedBob(0.3)) at N = 10^5, k = 9 holds at most
        4 bytes per raw qubit: Alice's draw lands in her records, with no
        second full-length copy. Its first attempt is expected to restart."""
        config = ProtocolConfig(n=10**5, k=9, seed=0, max_restarts=0)
        database = np.zeros(config.n, dtype=np.uint8)

        def run():
            try:
                run_protocol(config, database, 0, bob=BiasedBob(0.3))
            except RestartLimitExceeded:
                pass

        assert self._traced_peak(run) / config.raw_length <= 4.0

    def test_usd_attempt_peak_memory_per_qubit(self):
        """One UsdAlice attempt at N = 10^5, k = 9 holds at most 3 bytes per raw
        qubit: Bob's code and her coin bytes, which become win flags in place
        and are folded into her known final bits (`known_final`), with no
        records and no raw-length temporaries. Its ties are searched one
        `CHUNK` piece at a time. Its first attempt may restart."""
        config = ProtocolConfig(n=10**5, k=9, seed=0, max_restarts=0)
        database = np.zeros(config.n, dtype=np.uint8)

        def run():
            try:
                run_protocol(config, database, 0, alice=UsdAlice())
            except RestartLimitExceeded:
                pass

        assert self._traced_peak(run) / config.raw_length <= 3.0

    def test_streamed_peak_memory_does_not_grow_with_k(self):
        """At n = 10^5 one streamed honest run at k = 9 peaks within 1.25x of one
        at k = 3: it holds the key and a few `CHUNK` buffers, no raw-length array."""
        def peak(k):
            config = ProtocolConfig(n=10**5, k=k, seed=0)
            database = np.zeros(config.n, dtype=np.uint8)
            return self._traced_peak(lambda: run_protocol(config, database, 0))

        assert peak(9) <= 1.25 * peak(3)

    @pytest.mark.parametrize("n, k", [(10**5, 9), (1 << 15, 9), (1 << 15, 7)])
    def test_materialized_peak_memory_per_qubit(self, n, k):
        """The honest user as a subclass takes the materialized route; it too
        holds at most 3 bytes per raw qubit, also where the raw string is a
        few `CHUNK`s, so a gather's temporary would weigh."""
        config = ProtocolConfig(n=n, k=k, seed=0)
        database = np.zeros(config.n, dtype=np.uint8)
        peak = self._traced_peak(lambda: run_protocol(config, database, 0, alice=PlainAlice()))
        assert peak / config.raw_length <= 3.0


class PlainAlice(HonestAlice):
    """The honest user as a subclass, which `run_protocol` does not stream."""


def streamed_twins(kind, seed, spare: int) -> list[np.random.Generator]:
    """Two generators of bit generator `kind` in one state, which holds the
    spare half of an output when `spare` is 1 (MT19937, which holds none,
    has then drawn one 32-bit word)."""
    twins = [np.random.Generator(kind(seed)) for _ in range(2)]
    for rng in twins:
        if spare:
            rng.bytes(4)
        assert rng.bit_generator.state.get("has_uint32", spare) == spare
    return twins


def assert_same_state_and_draws(mine: np.random.Generator, ref: np.random.Generator) -> None:
    # By repr, which also compares the key array of an MT19937 state.
    assert repr(mine.bit_generator.state) == repr(ref.bit_generator.state)
    assert mine.random() == ref.random()
    assert mine.bytes(11) == ref.bytes(11)
    assert mine.integers(1 << 40) == ref.integers(1 << 40)


STREAMED_KINDS = pytest.mark.parametrize("kind", [np.random.PCG64, np.random.PCG64DXSM],
                                         ids=lambda kind: kind.__name__)
# Every n at k = 1, 3 and 9 (at n = CHUNK, k = 9 most attempts know no bit),
# and an even k, where Alice's folded bit is not flipped.
STREAMED_SHAPES = [(n, k) for n in (CHUNK, CHUNK + 1, 70_001, 2 * CHUNK + 3)
                   for k in (1, 3, 9)] + [(70_001, 2)]


class TestStreamedAttempt:
    """The honest pair itself against pairs at eta = 1, with n >= CHUNK, on
    PCG64 or PCG64DXSM, makes each attempt in `_streamed_attempt`: the same
    key, counts, generator state and later draws as `_run_attempt` and the
    folds on a twin generator."""

    @STREAMED_KINDS
    @pytest.mark.parametrize("spare", [0, 1])
    @pytest.mark.parametrize("n,k", STREAMED_SHAPES)
    def test_attempt_matches_the_materialized_one(self, kind, spare, n, k):
        mine, ref = streamed_twins(kind, [n, k], spare)
        config = ProtocolConfig(n=n, k=k)
        record = protocol._streamed_attempt(config, mine)
        att = protocol._run_attempt(config, HonestAlice(), HonestBob(), ref)
        assert_record_matches(record, [att], n, k)
        assert_same_state_and_draws(mine, ref)

    @STREAMED_KINDS
    @pytest.mark.parametrize("spare", [0, 1])
    def test_run_with_restarts_matches_the_materialized_run(self, kind, spare):
        """At (CHUNK, 9) about 78% of attempts know no bit."""
        config = ProtocolConfig(n=CHUNK, k=9)
        database = np.random.default_rng(8).integers(0, 2, CHUNK, dtype=np.uint8)
        mine, ref = streamed_twins(kind, 11, spare)
        got = run_protocol(config, database, 5, rng=mine)
        want = run_protocol(config, database, 5, alice=PlainAlice(), rng=ref)
        assert got.restarts > 0
        assert got.to_dict() == want.to_dict()
        assert got.attempt_known_counts == want.attempt_known_counts
        assert got.attempt_conclusive_counts == want.attempt_conclusive_counts
        assert np.array_equal(got.key.bob_key, want.key.bob_key)
        assert np.array_equal(got.ciphertext, want.ciphertext)
        assert_same_state_and_draws(mine, ref)
        # The final attempt, made again from its start state after the restarts.
        assert np.array_equal(got.final_attempt.rounds.code, want.final_attempt.rounds.code)
        assert np.array_equal(got.final_attempt.alice.packed, want.final_attempt.alice.packed)

    @STREAMED_KINDS
    def test_restart_limit_carries_the_materialized_counts(self, kind):
        config = ProtocolConfig(n=CHUNK, k=9, max_restarts=2)
        database = np.zeros(CHUNK, dtype=np.uint8)
        mine, ref = streamed_twins(kind, 10, 0)
        with pytest.raises(RestartLimitExceeded) as got:
            run_protocol(config, database, 0, rng=mine)
        with pytest.raises(RestartLimitExceeded) as want:
            run_protocol(config, database, 0, alice=PlainAlice(), rng=ref)
        assert got.value.conclusive_counts == want.value.conclusive_counts
        assert len(got.value.conclusive_counts) == 3
        assert_same_state_and_draws(mine, ref)

    def test_records_replay_the_final_attempt(self):
        """The transcript keeps the final attempt's start state, not its
        arrays; its records are those of the materialized final attempt."""
        config = ProtocolConfig(n=CHUNK + 1, k=1)
        database = np.ones(config.n, dtype=np.uint8)
        got = run_protocol(config, database, 3, rng=np.random.default_rng(21))
        want = run_protocol(config, database, 3, alice=PlainAlice(),
                            rng=np.random.default_rng(21))
        assert got.start == np.random.default_rng(21).bit_generator.state
        assert "final_attempt" not in vars(got)
        direct = protocol._scatter_records(want.final_attempt)
        for f in dataclasses.fields(RawRecords):
            assert np.array_equal(getattr(got.records, f.name), getattr(direct, f.name),
                                  equal_nan=True), f.name
        assert got.to_dict(verbose=True)["records"] == list(direct.iter_dicts())

    @pytest.mark.parametrize("case", ["MT19937", "SFC64", "Philox", "bb84", "lossy",
                                      "alice-subclass", "bob-subclass", "n-below-chunk",
                                      "PCG64", "PCG64DXSM"])
    def test_only_the_honest_pair_on_advanceable_generators_is_streamed(self, case,
                                                                        monkeypatch):
        calls = []
        real = protocol._run_attempt
        monkeypatch.setattr(protocol, "_run_attempt",
                            lambda *args: calls.append(args) or real(*args))
        kind = getattr(np.random, case, np.random.PCG64)
        config = ProtocolConfig(n=CHUNK - 1 if case == "n-below-chunk" else CHUNK, k=2,
                                eta=0.9 if case == "lossy" else 1.0,
                                announcement="bb84" if case == "bb84" else "sarg")
        t = run_protocol(config, np.zeros(config.n, dtype=np.uint8), 0,
                         alice=PlainAlice() if case == "alice-subclass" else None,
                         bob=type("PlainBob", (HonestBob,), {})() if case == "bob-subclass"
                         else None,
                         rng=np.random.Generator(kind(6)))
        streamed = case in ("PCG64", "PCG64DXSM")
        assert len(calls) == (0 if streamed else t.restarts + 1)
        t.final_attempt
        # Every route replays the final attempt once from its start state.
        assert len(calls) == (1 if streamed else t.restarts + 2)

    @pytest.mark.parametrize("n,eta", [(CHUNK // 2, 0.5), (CHUNK // 2 + 1, 0.5),
                                       (CHUNK // 2 + 1, 1.0)],
                             ids=["half-chunk", "half-chunk-plus-one", "lossless"])
    def test_a_lone_honest_attempt_is_never_gathered(self, n, eta, monkeypatch):
        """A `run_protocol` attempt of the honest pair below n = CHUNK, lossy
        or at eta = 1, on either side of n * k = CHUNK / 2, goes through
        `_run_attempt`, and so through every strategy seam."""
        calls = []
        real = protocol._run_attempt
        monkeypatch.setattr(protocol, "_run_attempt",
                            lambda *args: calls.append(args) or real(*args))
        config = ProtocolConfig(n=n, k=1, eta=eta, seed=2)
        t = run_protocol(config, np.zeros(n, dtype=np.uint8), 0)
        assert len(calls) == t.restarts + 1

    def test_lane_formula_matches_the_respond_table(self, monkeypatch):
        """Every (Bob byte, Alice byte) pair once at k = 1: Alice's known columns
        and her bits there are the conclusive flags and bits of
        `_respond_table(HONEST_LAYOUTS["sarg"], "sarg")` at all 32 indices."""
        bob_bytes = np.repeat(ALL_BYTES, 256)
        alice_bytes = np.tile(ALL_BYTES, 256)
        draws = iter([bob_bytes, alice_bytes])

        class Reader:
            def __init__(self, rng, offset):
                self.draw = next(draws)[offset:]

            def read(self, out):
                out[:] = self.draw[:out.size]
                self.draw = self.draw[out.size:]

            def finish(self, count):
                pass

        monkeypatch.setattr(protocol, "_DrawReader", Reader)
        monkeypatch.setattr(protocol, "_state_after", lambda rng, count: None)
        config = ProtocolConfig(n=bob_bytes.size, k=1)
        record = protocol._streamed_attempt(config, np.random.default_rng(0))
        key, conclusive = record.key(0), int(record.conclusive[0])
        entries, _ = honest_respond_entries("sarg")
        index = (bob_bytes & 7).astype(np.intp) * 4 + (alice_bytes & 3)
        assert set(index.tolist()) == set(range(32))
        want = (entries[index] & 4) != 0
        assert np.array_equal(key.known, np.flatnonzero(want))
        assert conclusive == np.count_nonzero(want)
        assert np.array_equal(key.bits, (entries[index[want]] >> 4) & 1)
        assert np.array_equal(key.bob_key, bob_bytes & 1)


def known_final_twins(kind, seed, spare: int, count: int) -> tuple[list, list]:
    """`count` pairs of twin generators of bit generator `kind`; each holds the
    spare half of an output when `spare` is 1 (PCG64 only)."""
    twins = ([], [])
    for i in range(count):
        for side in twins:
            rng = np.random.Generator(kind([seed, i]))
            if spare:
                rng.bytes(4)
                assert rng.bit_generator.state["has_uint32"] == 1
            side.append(rng)
    return twins


def assert_record_matches(record, atts, n, k):
    """An `AttemptKeys` record holds, per attempt in `atts`, the key and
    conclusive count that `folded_key` folds from its `_run_attempt`
    arrays, in its stated dtypes; each `key(t)` passes `ObliviousKey`'s own
    checks and equals the folded key in arrays and dtypes."""
    assert record.bob_keys.shape == (len(atts), n) and record.bob_keys.dtype == np.uint8
    for name in ("rows", "cols"):
        assert getattr(record, name).dtype == np.intp, name
    assert record.bits.dtype == np.uint8 and record.conclusive.shape == (len(atts),)
    assert np.array_equal(record.rows, np.sort(record.rows))
    for t, att in enumerate(atts):
        key = record.key(t)
        want, conclusive = folded_key(att.bob_bits, att.alice.packed, n, k)
        for field_name in ("bob_key", "known", "bits"):
            value, expected = getattr(key, field_name), getattr(want, field_name)
            assert value.dtype == expected.dtype, field_name
            assert np.array_equal(value, expected), field_name
        assert record.conclusive[t] == conclusive


def assert_attempts_match_materialized(config, alice, mine, refs, bob=HonestBob()):
    """`_attempts` on the generators `mine` gives, per attempt, the key and
    conclusive count of `_run_attempt` and the folds on its twin in `refs`,
    and leaves each generator in its twin's state."""
    got = protocol._attempts(config, alice, bob, mine)
    atts = [protocol._run_attempt(config, alice, bob, ref) for ref in refs]
    assert_record_matches(got, atts, config.n, config.k)
    for rng, ref in zip(mine, refs):
        assert_same_state_and_draws(rng, ref)
    return got


class TestAttemptRecord:
    """Every route of `_attempts` gives one `AttemptKeys` record whose rows
    hold the keys and counts of `_run_attempt` and the folds on twin
    generators (the streamed route: `TestStreamedAttempt`, the `known_final`
    users: `TestKnownFinalAttempt`)."""

    # id: (alice, bob, n, k, eta, generators in the batch)
    CASES = {
        "honest-gathered": (HonestAlice(), HonestBob(), 40, 3, 1.0, 7),
        "honest-gathered-lossy-odd": (HonestAlice(), HonestBob(), 41, 3, 0.6, 5),
        "honest-lone": (HonestAlice(), HonestBob(), 300, 3, 0.7, 1),
        "honest-lone-past-chunk": (HonestAlice(), HonestBob(), CHUNK // 2 + 1, 3, 0.5, 1),
        "biased-batch": (HonestAlice(), BiasedBob(0.3), 200, 2, 1.0, 6),
        "register-lone": (HonestAlice(), EntangledBob("honest_basis"), 300, 2, 0.8, 1),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_record_matches_the_materialized_attempts(self, name):
        alice, bob, n, k, eta, batch = self.CASES[name]
        config = ProtocolConfig(n=n, k=k, eta=eta)
        mine, refs = known_final_twins(np.random.PCG64, [n, k, 3], 0, batch)
        got = assert_attempts_match_materialized(config, alice, mine, refs, bob)
        assert got.cols.size > 0


class TestKnownFinalAttempt:
    """`UsdAlice` and `Bb84MemoryAlice` define `known_final`, so `_attempts`
    makes their attempts against `HonestBob` without records: the same key,
    conclusive count, generator state and later draws as `_run_attempt` and
    the folds on twin generators."""

    # id: (bit generator, spare half at entry, n, k, eta, generators in the batch)
    CASES = {
        "pcg64": (np.random.PCG64, 0, 300, 3, 1.0, 1),
        "pcg64-spare": (np.random.PCG64, 1, 300, 3, 1.0, 1),
        "mt19937": (np.random.MT19937, 0, 300, 3, 1.0, 1),
        "k-1": (np.random.PCG64, 0, 500, 1, 1.0, 1),
        "n-below-8": (np.random.PCG64, 1, 5, 1, 1.0, 1),
        "odd-raw-length": (np.random.PCG64, 0, 301, 3, 1.0, 1),
        "chunk-and-odd-piece": (np.random.PCG64, 0, 9363, 7, 1.0, 1),
        "lossy-past-chunk": (np.random.PCG64, 1, CHUNK // 2 + 1, 2, 0.5, 1),
        "batch": (np.random.PCG64, 0, 40, 3, 1.0, 7),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_attempt_matches_the_materialized_one(self, name):
        kind, spare, n, k, eta, batch = self.CASES[name]
        config = ProtocolConfig(n=n, k=k, eta=eta)
        mine, refs = known_final_twins(kind, [n, k], spare, batch)
        got = assert_attempts_match_materialized(config, UsdAlice(), mine, refs)
        assert len(got.bob_keys) == batch
        if name in ("pcg64", "k-1", "chunk-and-odd-piece"):
            assert got.cols.size > 0

    @pytest.mark.parametrize("announcement", ["bb84", "sarg"])
    @pytest.mark.parametrize("eta", [1.0, 0.6])
    @pytest.mark.parametrize("n,k,spare", [(40, 3, 1), (1000, 4, 0), (9363, 7, 1)],
                             ids=["40-3-spare", "1000-4", "9363-7-spare"])
    def test_memory_attack_matches_the_materialized_one(self, announcement, eta, n, k,
                                                        spare):
        """Under basis announcements every position is known and nothing is
        drawn; against pairs her attempt is `UsdAlice`'s. 9363 * 7 = 65,541
        raw qubits are one `CHUNK` and an odd piece; a batch of 3 at n = 40."""
        config = ProtocolConfig(n=n, k=k, eta=eta, announcement=announcement)
        mine, refs = known_final_twins(np.random.PCG64, [n, k, 5], spare, 3 if n == 40 else 1)
        got = assert_attempts_match_materialized(config, Bb84MemoryAlice(), mine, refs)
        if announcement == "bb84":
            assert got.cols.size == n * len(mine)
            assert np.array_equal(got.conclusive, [n * k] * len(mine))

    @pytest.fixture
    def calls(self, monkeypatch):
        """Names of the `_run_attempt` and `UsdAlice.respond` calls made."""
        seen = []
        attempt, respond = protocol._run_attempt, UsdAlice.respond
        monkeypatch.setattr(protocol, "_run_attempt",
                            lambda *args: seen.append("_run_attempt") or attempt(*args))
        monkeypatch.setattr(UsdAlice, "respond",
                            lambda self, *args: seen.append("respond") or respond(self, *args))
        return seen

    def test_runs_make_no_records_until_the_final_attempt_is_read(self, calls):
        """At (40, 3) about a third of attempts know no bit, so the run restarts."""
        config = ProtocolConfig(n=40, k=3, seed=4)
        t = run_protocol(config, np.zeros(40, dtype=np.uint8), 0, alice=UsdAlice())
        assert t.restarts > 0 and calls == []
        t.final_attempt
        t.records
        assert calls == ["_run_attempt", "respond"]

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_monte_carlo_makes_no_records(self, calls, eta):
        """Neither the batched first attempts nor the runs of restarted trials."""
        config = ProtocolConfig(n=40, k=3, eta=eta, seed=9)
        report = monte_carlo(config, alice=UsdAlice(), trials=50)
        assert report.empirical["restart_fraction"] > 0
        assert calls == []

    def test_the_memory_attack_makes_no_records_until_the_final_attempt_is_read(self, calls):
        """`Bb84MemoryAlice` against pairs takes `UsdAlice.known_final`; her
        replayed final attempt goes through `UsdAlice.respond`."""
        config = ProtocolConfig(n=40, k=3, seed=4)
        t = run_protocol(config, np.zeros(40, dtype=np.uint8), 0, alice=Bb84MemoryAlice())
        assert t.restarts > 0 and calls == []
        t.records
        assert calls == ["_run_attempt", "respond"]


# (offset, spare, kind): a copy of PCG64 or PCG64DXSM read from each offset,
# and `rng`'s own bit generator of every kind read with no offset.
READER_CASES = ([(offset, spare, kind)
                 for offset in list(range(14)) + [CHUNK - 1, CHUNK, CHUNK + 3]
                 for spare in (0, 1) for kind in (np.random.PCG64, np.random.PCG64DXSM)]
                + [(None, spare, kind) for spare in (0, 1) for kind in BIT_GENERATORS])


class TestDrawReader:
    """`_DrawReader` reads one `rng.bytes(count)`, and its `finish` leaves the
    state of that one call: from any offset on a copy of a PCG64 or
    PCG64DXSM generator, and with no offset on `rng`'s own bit generator of
    any kind, which `_byte_pieces` reads through (also covered by
    `test_byte_draws_match_one_bytes_call_for_every_bit_generator`)."""

    @pytest.mark.parametrize("offset, spare, kind", READER_CASES,
                             ids=[f"{o}-{s}-{k.__name__}" for o, s, k in READER_CASES])
    def test_uneven_reads_from_any_offset_are_one_bytes_call(self, offset, spare, kind):
        """MT19937, read through `rng.bytes`, in whole 32-bit words but the last."""
        count = 2 * CHUNK + 11
        first = offset or 0
        mine, ref = streamed_twins(kind, [first, 3], spare)
        want = np.frombuffer(ref.bytes(count), dtype=np.uint8)[first:]
        start_state = mine.bit_generator.state
        reader = protocol._DrawReader(mine, offset)
        got = np.zeros(count - first, dtype=np.uint8)
        start = 0
        sizes = (4, 12, CHUNK + 4, 8) if kind is np.random.MT19937 else (1, 7, CHUNK + 5, 3, 8, 2)
        for size in itertools.cycle(sizes):
            piece = got[start:start + size]
            reader.read(piece)
            start += piece.size
            if start == got.size:
                break
        if offset is not None:
            # At any offset, 0 included, the reader reads a copy, so `mine`
            # moves only at `finish`.
            assert mine.bit_generator.state == start_state
        reader.finish(count)
        assert np.array_equal(got, want)
        assert_same_state_and_draws(mine, ref)

    @STREAMED_KINDS
    @pytest.mark.parametrize("spare", [0, 1])
    @pytest.mark.parametrize("count", [1, 3, 4, 5, 8, 9, 12, 13, CHUNK + 3])
    def test_state_after_is_one_bytes_call(self, kind, spare, count):
        """Counts within the spare half, ending on a 32-bit word or within one."""
        mine, ref = streamed_twins(kind, [count, 4], spare)
        protocol._state_after(mine, count)
        ref.bytes(count)
        assert_same_state_and_draws(mine, ref)


class TestReplayedRecords:
    """A transcript keeps its final attempt's start state and strategies, and
    `final_attempt` makes that attempt again with `_run_attempt` on a new
    generator, under every strategy. Every run but the memory attack under
    bases, which knows every bit it keeps, restarts at least once. The
    honest runs on MT19937 and under loss at 32,772 raw qubits
    (`honest-gathered`, a lone attempt the batched gather once made) make
    their attempts through `_run_attempt` as well. The
    `to_dict(verbose=True)` digests were taken while every transcript but a
    streamed one held its final attempt whole."""

    # id: (alice, bob, config, bit generator, seed, restarts, sha256 of the verbose report)
    CASES = {
        "usd": (UsdAlice(), None, dict(n=8, k=3), np.random.PCG64, 0, 3,
                "7ff20d621de54bcefb419d80e42387ab98737fc7fe10bd2548ed376aa4dd55ee"),
        "bb84-memory-bases": (Bb84MemoryAlice(), None, dict(n=8, k=3, announcement="bb84"),
                              np.random.PCG64, 0, 0,
                              "6653132a765db6f0a927507887c050a55f54104bcf6bd07500b6b843f4e1a595"),
        "biased-0.3-lossy": (None, BiasedBob(0.3), dict(n=20, k=2, eta=0.6), np.random.PCG64, 1,
                             8, "a9386f8e0bded77dbd1163b5603a1088b18d7a4e08567c68fcf486eba7352286"),
        "register-honest": (None, EntangledBob("honest_basis"), dict(n=20, k=2), np.random.PCG64,
                            0, 1,
                            "02f18f648f3f89d1d3f75bac69a31ad4c3be0540efac42d6c141a95c1b82d6fb"),
        "register-conclusiveness": (
            None, EntangledBob("conclusiveness_basis"), dict(n=20, k=2), np.random.PCG64, 0, 1,
            "34e79c8b03108daf3ea1a795b74f4526e56bce1fb6da3e9bb95a5f39b80faafb"),
        "honest-mt19937": (None, None, dict(n=8, k=3), np.random.MT19937, 0, 3,
                           "f91dc03511411ad4baed2190ae17271b0145e468dc91de3d3490ef32d3b4b434"),
        "honest-gathered": (None, None, dict(n=5462, k=6, eta=0.9), np.random.PCG64, 0, 1,
                            "6d9e6c9f01d53d447c645bfca46a8a383dc6d640c91c0eb42803b8ca0fc3575e"),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_records_are_those_of_the_final_attempt(self, name):
        alice, bob, params, kind, seed, restarts, digest = self.CASES[name]
        config = ProtocolConfig(**params)
        rng = np.random.Generator(kind(seed))
        t = run_protocol(config, np.arange(config.n) % 2, 3, alice=alice, bob=bob, rng=rng)
        assert t.restarts == restarts
        assert "final_attempt" not in vars(t)
        after = repr(rng.bit_generator.state)
        # A twin generator, moved through the attempts that knew no bit.
        alice, bob = protocol._strategies(alice, bob)
        twin = np.random.Generator(kind(seed))
        for _ in range(restarts):
            protocol._run_attempt(config, alice, bob, twin)
        assert repr(t.start) == repr(twin.bit_generator.state)
        direct = protocol._scatter_records(protocol._run_attempt(config, alice, bob, twin))
        for f in dataclasses.fields(RawRecords):
            assert np.array_equal(getattr(t.records, f.name), getattr(direct, f.name),
                                  equal_nan=True), f.name
        doc = json.dumps(t.to_dict(verbose=True), sort_keys=True).encode()
        assert hashlib.sha256(doc).hexdigest() == digest
        assert repr(rng.bit_generator.state) == after


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
    fields. Several runs span more than one `protocol.CHUNK` of qubits, and
    some fold an odd number of rows, where a complemented bit flips the key.
    The honest runs and the fair-coin biased run at n = 43,691, k = 3 have an
    odd raw length of two chunks and more; at eta = 1 the honest user's draw
    starts on the spare half of a 64-bit output that the provider's left.
    Bb84MemoryAlice against pairs runs UsdAlice, so their digests agree.
    The `usd`, `usd-lossy-multi-chunk` and `bb84-memory-sarg` digests were
    re-pinned when `usd_success_trials` moved from one float per coin to
    the byte-and-tie draw, after checking field by field that only Alice's
    `conclusive`, `alice_bit` and `posterior_bit1` and her known bits moved.
    """

    def test_biased_angles_take_both_coin_paths(self):
        """pi/4 prepares RIGHT, whose outcome table is dyadic; pi/8 and 0.3 are not."""
        config = ProtocolConfig(n=1, k=1)
        rng = np.random.default_rng(0)
        assert [protocol._respond_table(BiasedBob(phi).rounds(1, config, rng).layout, "sarg")[1]
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
                     "a0c96acf6351c6f0f7f28300551c5036346d4148312822bdb4f5b5a84c7dfde9",
                     id="usd"),
        pytest.param(40_000, 2, 0.6, "sarg", UsdAlice(), None,
                     "be35245c8b720459f8d0e937f350339d18ceb928fe8c9154a2defa10ef006a80",
                     id="usd-lossy-multi-chunk"),
        pytest.param(40, 2, 1.0, "sarg", Bb84MemoryAlice(), None,
                     "a0c96acf6351c6f0f7f28300551c5036346d4148312822bdb4f5b5a84c7dfde9",
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
        pytest.param(43_691, 3, 1.0, "sarg", None, None,
                     "a9d5c1e65b41c891e67de7419c2d9858dbcc645a7433c51bf538b63e2fc296f1",
                     id="honest-sarg-odd-multi-chunk"),
        pytest.param(43_691, 3, 0.6, "sarg", None, None,
                     "bfc5f2098f6c060f4dfbfd66f73b41850d7269b9f0350da5b6d85fa727fa24e8",
                     id="honest-sarg-lossy-odd-multi-chunk"),
        pytest.param(43_691, 3, 1.0, "bb84", None, None,
                     "995b8b54615373d83d44330d872df94a01130e436c43eda7d4c180e152d7a650",
                     id="honest-bb84-odd-multi-chunk"),
        pytest.param(43_691, 3, 0.6, "bb84", None, None,
                     "5999c048f9cda6fe7db6740b80c963cccf73b999463c005fc1d9b77c5cc90e2b",
                     id="honest-bb84-lossy-odd-multi-chunk"),
        pytest.param(43_691, 3, 1.0, "sarg", None, BiasedBob(math.pi / 4),
                     "f6295dd00b2d8ddfa6923d7508c9684394d51de623014cd8109d3830016056dc",
                     id="biased-fair-coin-odd-multi-chunk"),
    ])
    def test_records_and_key_digest(self, n, k, eta, announcement, alice, bob, digest):
        config = ProtocolConfig(n=n, k=k, eta=eta, seed=1234, announcement=announcement)
        database = np.random.default_rng(5).integers(0, 2, n, dtype=np.uint8)
        t = run_protocol(config, database, 3, alice=alice, bob=bob)
        assert transcript_digest(t) == digest
