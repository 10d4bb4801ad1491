"""Dishonest strategies for both parties and the bounds they cannot beat.

User-side attacks: perfect-memory unambiguous discrimination of the
announced pair, the joint minimum-error (Helstrom) measurement on the k
qubits behind one final key bit, and the basis-announcement contrast mode
that breaks the scheme entirely. The discrimination user's coins come from
one kernel (`_usd_coins`) that turns each coin byte into a win flag in
place; her `known_final` folds the flags into her known final bits, and her
`respond` packs them into records. Provider-side attacks:
biased state preparation at an arbitrary Hilbert angle, and an entangled
register held back per qubit. Each provider battery returns its round
counts beside its analytic p_c and p_b (`ProviderRounds`), drawn as one
multinomial sample of the per-round law of its cells (Alice's 4 outcomes,
or the register's 16 round codes), so its cost does not grow with its
size. One helper reads every sampled rate from the counts into the shared
part of an `ExperimentReport`, to which the attack reports and the
no-signaling audit over the whole family add their checks, with intervals
from the same counts. The attack reports also count the final key bits an
honest user knows after one attempt against the strategy: the known
positions of one first attempt that `protocol._attempts` makes, counted per
block of 400 of its 60,000 positions, without a query or a ciphertext.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import stats
from .stats import ExperimentReport
from .quantum import (
    K_MAX,
    DensityMatrix,
    PureState,
    SargSymbol,
    helstrom_guess,
    helstrom_parity_table,
    parity_bounds,
    parity_mixtures,  # noqa: F401 (bench/tests/test_bench.py traces through it)
    sarg_state,
    state_at_angle,
)
from .protocol import (
    AliceRecords,
    BIT_TABLE,
    BobRounds,
    CHUNK,
    CONCLUSIVE_TABLE,
    FLOAT_PIECE,
    HonestAlice,
    Law,
    ProtocolConfig,
    RoundLayout,
    _at_kept,
    _attempts,
    _byte_draws,
    _byte_pieces,
    _decode,
    _fair_bits,
    _fold,
    run_protocol,  # noqa: F401 (bench/tests/test_bench.py traces through it)
)

# Optimal unambiguous-discrimination success rate for the equal-prior
# announced pair {UP, RIGHT}: one minus their overlap 1/sqrt(2). It equals
# the bound 1 - F of the two states bit for bit (the equal-overlap pure-state
# pair attains it), which the tests' dense `usd_bound` checks.
USD_SUCCESS = 1 - math.sqrt(0.5)

# `rng.random() < USD_SUCCESS` is the event U < USD_THRESHOLD for the 53-bit
# integer U behind the float; both sides are multiples of 2^-53, so the
# integer rule and the float rule agree exactly. U's top 8 bits settle the
# comparison unless they equal USD_TOP; then its low 45 bits do.
USD_THRESHOLD = math.ceil(USD_SUCCESS * 2**53)
USD_TOP, USD_LOW = USD_THRESHOLD >> 45, USD_THRESHOLD & (2**45 - 1)


# --------------------------------------------------------------------------
# user-side attacks
# --------------------------------------------------------------------------

def _usd_coins(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Turn `out`, a uint8 array, into Bernoulli(USD_SUCCESS) win flags in
    place, exactly as `rng.random(out.size) < USD_SUCCESS` decides them, and
    return them as a bool view.

    The draws, in order: one `rng.bytes(out.size)`, U's top 8 bits, one
    byte per coin, drawn `protocol.CHUNK` at a time into `out`; then, if
    any byte ties with USD_TOP (1 in 256), one `rng.bytes(8 * ties)`, whose
    8-byte words hold in their top 45 bits U's low bits, one word per tied
    coin in position order. Each piece is searched for ties and turned into
    flags while it is in cache; the ties are settled after the last piece.
    """
    ties = [np.empty(0, dtype=np.intp)]
    for start, top in _byte_pieces(rng, out.size, out):
        ties.append(np.flatnonzero(top == USD_TOP) + start)
        np.less(top, USD_TOP, out=top.view(bool))
    tied = np.concatenate(ties)
    low = _byte_draws(rng, 8 * tied.size).view("<u8") >> 19
    won = out.view(bool)
    won[tied[low < USD_LOW]] = True
    return won


def usd_success_trials(trials: int, rng: np.random.Generator) -> np.ndarray:
    """Success mask of the discrimination measurement, one byte per coin (`_usd_coins`)."""
    return _usd_coins(rng, np.empty(trials, dtype=np.uint8))


def _check_discrimination(rounds: BobRounds, config: ProtocolConfig) -> None:
    if config.announcement == "bb84":
        raise ValueError("discrimination attack needs pair announcements")
    if min(rounds.layout.sent) < 0:
        raise ValueError("discrimination attack needs definite sent symbols")


@dataclass(frozen=True)
class UsdAlice:
    """Quantum-memory user: unambiguous discrimination after each announcement.

    Each stored qubit is identified with probability 1 - 1/sqrt(2) and then
    always correctly; the failure outcome is symmetric between the two
    equal-prior candidates, so the records give it posterior 1/2. A basis
    announcement leaves no pair to discriminate (see `Bb84MemoryAlice`).
    `known_final` and `respond` read the same coins (`_usd_coins`): the
    engine's attempts take her known final bits, a transcript's replay her
    records.
    """

    kind = "usd"

    def law(self, config: ProtocolConfig) -> Law:
        return Law(USD_SUCCESS)

    def known_final(self, rounds: BobRounds, kept: np.ndarray, config: ProtocolConfig,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int]:
        """(known positions, her bits there, conclusive count): the columns where
        her coin wins in all k rows, the XOR over the rows of the sent
        symbols' bits there, and the number of won coins."""
        _check_discrimination(rounds, config)
        n, k = config.n, config.k
        won = _usd_coins(rng, np.empty(kept.size, dtype=np.uint8))
        known = np.flatnonzero(_fold(np.bitwise_and, won, n, k))
        sent = _decode(_at_kept(rounds.code, kept, np.arange(0, k * n, n)[:, None] + known),
                       rounds.layout.sent)
        return known, np.bitwise_xor.reduce(sent, axis=0) & 1, int(np.count_nonzero(won))

    def respond(self, rounds: BobRounds, kept: np.ndarray, config: ProtocolConfig,
                rng: np.random.Generator) -> AliceRecords:
        """Her records, packed in place over her coins (`_usd_coins`) `CHUNK` at a
        time; the gain is built on the fresh `_decode` bytes with `* 8`, as
        `_pack` does: numpy 2.4 runs a uint8 `<< 3` several times slower."""
        _check_discrimination(rounds, config)
        records = np.empty(kept.size, dtype=np.uint8)
        _usd_coins(rng, records)
        for start in range(0, kept.size, CHUNK):
            part = slice(start, start + CHUNK)
            # A won coin adds conclusive (4) and bit + 1 (bits 3-4) to 0x23.
            gain = _decode(_at_kept(rounds.code, kept, part), rounds.layout.sent).view(np.uint8)
            gain &= 1
            gain *= 8
            gain += 12
            piece = records[part]
            piece *= gain
            piece += 0x23
        return AliceRecords(packed=records)


@dataclass(frozen=True)
class Bb84MemoryAlice:
    """Stores every qubit and measures after the classical announcement.

    Under basis announcements this reads off every raw bit exactly; against
    pair announcements the stored qubit still faces the two-state
    discrimination problem, so the attack degrades to the unambiguous
    rates.
    """

    kind = "bb84_memory"

    def law(self, config: ProtocolConfig) -> Law:
        return Law(1.0 if config.announcement == "bb84" else USD_SUCCESS)

    def respond(self, rounds: BobRounds, kept: np.ndarray, config: ProtocolConfig,
                rng: np.random.Generator) -> AliceRecords:
        if config.announcement != "bb84":
            return UsdAlice().respond(rounds, kept, config, rng)
        sent = _at_kept(rounds.sent, kept)
        return AliceRecords.from_fields(outcome=sent, conclusive=True, bit=sent >> 1)


class JointHelstromValue(NamedTuple):
    """Closed-form guessing probability plus the `parity_bounds` check value."""

    closed_form: float
    matrix_value: float | None


def alice_joint_helstrom(k: int) -> JointHelstromValue:
    """Per-final-bit guessing probability of the joint minimum-error measurement.

    The closed form is 1/2 + 1/(2 sqrt(2**k)). For k <= K_MAX `matrix_value`
    is `parity_bounds(k).helstrom_guess`, the same expression from the plane
    decomposition, so the two agree by construction; the independent dense
    check lives in the tests (`TestJointHelstrom`, `TestParityBlocks`).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    matrix_value = parity_bounds(k).helstrom_guess if k <= K_MAX else None
    return JointHelstromValue(closed_form=0.5 + 0.5 * 2.0 ** (-k / 2.0),
                              matrix_value=matrix_value)


# Trials drawn per pass of `helstrom_measurement_trials`; the draw order,
# and so every sampled rate, depends on it.
HELSTROM_BATCH = 4096


def helstrom_measurement_trials(k: int, trials: int, rng: np.random.Generator) -> float:
    """Empirical guess rate of the simulated joint minimum-error measurement.

    Each trial draws a parity and a uniform bit string of that parity, then
    Born-samples the two-outcome measurement onto the sign eigenspaces of
    the mixture difference. The even-outcome probability depends only on
    the string's Hamming weight, so it is read from a (k+1)-entry table.
    Trials are drawn `HELSTROM_BATCH` at a time. A batch of m trials takes
    m * (k + 1) fair coins in one `_fair_bits` call: m parities, then an
    (m, k) bit matrix whose last column stands in for the parity fix-up
    and is ignored. With s the sum of the first k - 1 columns, the last bit
    is parity ^ (s & 1), so the weight is s plus that bit; the values and
    the generator state are those of two `rng.integers(0, 2, ...)` calls.
    """
    stats.require_size("trials", trials)
    p_even = helstrom_parity_table(k)
    correct = 0
    done = 0
    while done < trials:
        m = min(HELSTROM_BATCH, trials - done)
        coins = _fair_bits(rng, m * (k + 1))
        parity = coins[:m]
        # einsum sums rows several times faster than sum(axis=1), which loops
        # over the short inner axis.
        s = np.einsum("ij->i", coins[m:].reshape(m, k)[:, :-1])
        guess_even = rng.random(m) < p_even[s + (parity ^ (s & 1))]
        correct += int((guess_even == (parity == 0)).sum())
        done += m
    return correct / trials


# --------------------------------------------------------------------------
# provider-side attacks: round statistics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProviderRounds:
    """One battery of provider-attack rounds as counts, beside its analytic references.

    `p_c` is the rate the strategy targets: Alice's conclusiveness, or his
    guess of it when that is what he measures. The audit takes the binomial
    sigma of the sampled p_c at `p_c_sigma_rate`: the sampled rate for a
    biased state, the widest (1/2) for the register.
    """

    trials: int
    conclusive: int         # rounds Alice found conclusive
    bit_hits: int           # conclusive rounds where his bit equals hers
    basis_hits: int         # rounds where he guessed her basis
    p_c_hits: int           # the count behind the sampled p_c
    p_c: float
    p_b: float              # his bit-guess accuracy, given a conclusive round
    p_c_sigma_rate: float
    # Register states rebuilt from the rounds; NaN for a class no round fell into.
    rho_conclusive: np.ndarray | None = None
    rho_inconclusive: np.ndarray | None = None


def _outcome_law(second_prob: np.ndarray) -> np.ndarray:
    """Chance of each outcome UP, RIGHT, DOWN, LEFT of one round: Alice's basis
    b uniform, then the second member b + 2 with chance second_prob[b]."""
    return np.concatenate([0.5 - 0.5 * second_prob, 0.5 * second_prob])


def _fixed_state_rounds(count: int, config: ProtocolConfig, second_prob: np.ndarray,
                        attack: str) -> BobRounds:
    """A fixed state against the pair {UP, RIGHT}: one code with no definite
    symbol, whose outcome law `second_prob` is Alice's [p_v, p_h]."""
    if config.announcement != "sarg":
        raise ValueError(f"{attack} only targets pair announcements")
    layout = RoundLayout(sent=(-1,), pair=(0,), second=(tuple(second_prob.tolist()),))
    return BobRounds(code=np.zeros(count, dtype=np.uint8), layout=layout)


# --------------------------------------------------------------------------
# provider-side attacks: biased state
# --------------------------------------------------------------------------

class BiasedAnalytics(NamedTuple):
    """Exact per-round numbers for a biased preparation at angle phi."""

    p_c: float          # probability Alice's result is conclusive
    p_b: float          # his best guess accuracy of her bit, given conclusive
    q_bit0: float       # P(conclusive with bit 0) = P(outcome LEFT)
    q_bit1: float       # P(conclusive with bit 1) = P(outcome DOWN)
    ml_bit: int         # his maximum-likelihood bit guess


# Cached because an attacked run asks for its angle's table on every attempt;
# bounded because the audit and `sweep` visit a new angle per strategy.
@lru_cache(maxsize=256)
def _biased_second_prob(phi: float) -> np.ndarray:
    """Born probabilities of DOWN (vertical basis) and LEFT (diagonal basis) at angle phi.

    Computed once per angle; the cached array is read-only.
    """
    psi = state_at_angle(phi)
    probs = np.array([psi.overlap(sarg_state(SargSymbol.DOWN)) ** 2,
                      psi.overlap(sarg_state(SargSymbol.LEFT)) ** 2])
    probs.setflags(write=False)
    return probs


def biased_analytics(phi: float) -> BiasedAnalytics:
    """Born-rule conclusiveness and bit statistics for the biased preparation.

    Against the announced pair {UP, RIGHT} the conclusive outcomes are DOWN
    (bit 1) and LEFT (bit 0), each reached through the matching basis choice
    with probability 1/2.
    """
    q1, q0 = (0.5 * p for p in _biased_second_prob(phi).tolist())
    p_c = q0 + q1
    ml_bit = 1 if q1 > q0 else 0
    p_b = (max(q0, q1) / p_c) if p_c > 0.0 else 1.0
    return BiasedAnalytics(p_c=p_c, p_b=p_b, q_bit0=q0, q_bit1=q1, ml_bit=ml_bit)


def biased_round_trials(phi: float, trials: int, rng: np.random.Generator) -> ProviderRounds:
    """Simulate biased-preparation rounds against an honest user."""
    stats.require_size("trials", trials)
    ana = biased_analytics(phi)
    counts = rng.multinomial(trials, _outcome_law(_biased_second_prob(phi)))
    conclusive = CONCLUSIVE_TABLE[0]  # the provider attacks announce {UP, RIGHT}
    n_c = int(counts[conclusive].sum())
    basis_guess = 0 if ana.ml_bit == 1 else 1
    return ProviderRounds(
        trials=trials, conclusive=n_c,
        bit_hits=int(counts[conclusive & (BIT_TABLE[0] == ana.ml_bit)].sum()),
        basis_hits=int(counts[basis_guess] + counts[basis_guess + 2]),
        p_c_hits=n_c, p_c=ana.p_c, p_b=ana.p_b, p_c_sigma_rate=max(n_c / trials, 1e-9))


@dataclass(frozen=True)
class BiasedBob:
    """Provider sending the fixed state at angle phi while announcing {UP, RIGHT}.

    His raw-key record is his maximum-likelihood guess of the bit Alice
    writes down on a conclusive round. Other announced pairs behave the
    same way up to a relabeling, so only the canonical pair is modeled.
    `phi` is kept as given, so reports show the caller's angle.
    """

    phi: float

    kind = "biased"

    def __post_init__(self):
        object.__setattr__(self, "phi", float(self.phi))

    @property
    def label(self) -> str:
        return f"biased(phi={self.phi:.6f})"

    def law(self, config: ProtocolConfig) -> Law:
        # A known final bit XORs k conclusive raw bits; he guesses each with p_b.
        ana = biased_analytics(self.phi)
        return Law(ana.p_c, (1.0 - (2.0 * ana.p_b - 1.0) ** config.k) / 2.0)

    def round_statistics(self, trials: int, rng: np.random.Generator) -> ProviderRounds:
        return biased_round_trials(self.phi, trials, rng)

    def rounds(self, count: int, config: ProtocolConfig, rng: np.random.Generator) -> BobRounds:
        return _fixed_state_rounds(count, config, _biased_second_prob(self.phi),
                                   "biased preparation")

    def key_bits(self, rounds: BobRounds, kept: np.ndarray, alice: AliceRecords,
                 config: ProtocolConfig, rng: np.random.Generator) -> np.ndarray:
        return np.full(kept.size, biased_analytics(self.phi).ml_bit, dtype=np.uint8)


# --------------------------------------------------------------------------
# provider-side attacks: entangled register
# --------------------------------------------------------------------------

ER_MODES = ("honest_basis", "conclusiveness_basis")


def entangled_joint_state() -> PureState:
    """(|UP>|R0> + |RIGHT>|R1>) / sqrt(2); signal qubit first."""
    up = sarg_state(SargSymbol.UP).amplitudes
    right = sarg_state(SargSymbol.RIGHT).amplitudes
    return PureState((np.kron(up, [1.0, 0.0]) + np.kron(right, [0.0, 1.0])) / math.sqrt(2))


def _conditional_register_states() -> tuple[np.ndarray, np.ndarray]:
    """Register state left behind by each of Alice's four outcomes.

    Returns (probs, registers): probs[o] is the outcome probability given
    the matching basis choice, registers[o] the normalized register vector.
    """
    joint = entangled_joint_state().amplitudes.reshape(2, 2)
    probs = np.zeros(4)
    registers = np.zeros((4, 2))
    for sym in SargSymbol:
        bra = sarg_state(sym).amplitudes
        sub = bra @ joint
        p = float(sub @ sub)
        probs[int(sym)] = p
        registers[int(sym)] = sub / math.sqrt(p)
    return probs, registers


ER_OUTCOME_PROBS, ER_REGISTERS = _conditional_register_states()
# P(DOWN | vertical basis), P(LEFT | diagonal basis): the register
# layout's `second`, Alice's outcome law.
ER_SECOND_PROB = ER_OUTCOME_PROBS[2:]
# P(register outcome 1 | Alice's outcome o) per mode: the projector onto |R1>
# in the honest basis, onto |-> = (|R0> - |R1>) / sqrt(2) in the other.
ER_REGISTER_ONE_PROB = {
    "honest_basis": ER_REGISTERS[:, 1] ** 2,
    "conclusiveness_basis": ((ER_REGISTERS[:, 0] - ER_REGISTERS[:, 1]) ** 2) / 2.0,
}


# Chance of each register round code, Alice's outcome + 4 * his register
# outcome + 8 * his own coin, which stands in for the bit the conclusiveness
# basis erases (always 0 in the honest basis).
ER_CELL_LAW = {
    mode: np.multiply.outer([0.5, 0.5] if mode == "conclusiveness_basis" else [1.0, 0.0],
                            np.stack([1.0 - one, one]) * _outcome_law(ER_SECOND_PROB)).ravel()
    for mode, one in ER_REGISTER_ONE_PROB.items()}


def conditional_register_mixtures() -> tuple[DensityMatrix, DensityMatrix]:
    """Exact register states conditioned on a conclusive / inconclusive round."""
    conclusive = np.zeros((2, 2))
    inconclusive = np.zeros((2, 2))
    w_c = w_n = 0.0
    for sym in SargSymbol:
        weight = 0.5 * ER_OUTCOME_PROBS[int(sym)]
        contrib = weight * np.outer(ER_REGISTERS[int(sym)], ER_REGISTERS[int(sym)])
        if CONCLUSIVE_TABLE[0, int(sym)]:
            conclusive += contrib
            w_c += weight
        else:
            inconclusive += contrib
            w_n += weight
    return DensityMatrix(conclusive / w_c), DensityMatrix(inconclusive / w_n)


def conclusiveness_guess_bound() -> float:
    """Best probability of guessing conclusiveness from the register."""
    rho_c, rho_n = conditional_register_mixtures()
    return helstrom_guess(rho_c, rho_n, 0.25)


def _check_mode(mode: str) -> None:
    if mode not in ER_MODES:
        raise ValueError(f"mode must be one of {ER_MODES}")


def entangled_round_trials(mode: str, trials: int, rng: np.random.Generator) -> ProviderRounds:
    """Simulate register rounds; also reconstructs the conditional register states.

    Alice measures her half of the joint state in a random basis; her
    outcome fixes the register state, which Bob then measures in the basis
    selected by `mode` ("honest_basis" recovers the sent bit,
    "conclusiveness_basis" estimates conclusiveness and erases the bit).
    """
    _check_mode(mode)
    stats.require_size("trials", trials)
    counts = rng.multinomial(trials, ER_CELL_LAW[mode]).reshape(2, 2, 4)
    coin, reg_out, alice_outcome = np.indices(counts.shape)
    conclusive = CONCLUSIVE_TABLE[0, alice_outcome]
    n_c = int(counts[conclusive].sum())
    if mode == "honest_basis":
        bob_bit, basis_guess = reg_out, 1 - reg_out
        p_c_hits, p_c, p_b = n_c, 0.25, 1.0
    else:
        # Register outcome 1 is his guess "conclusive".
        bob_bit, basis_guess = coin, coin ^ reg_out
        p_c_hits = int(counts[(reg_out == 1) == conclusive].sum())
        p_c, p_b = conclusiveness_guess_bound(), 0.5

    per_outcome = counts.sum(axis=(0, 1)).astype(float)
    outers = np.einsum("oi,oj->oij", ER_REGISTERS, ER_REGISTERS)
    conc_sel = CONCLUSIVE_TABLE[0]
    # A class that no round fell into gets a NaN state, without a division.
    rho_c, rho_n = (np.einsum("o,oij->ij", w, outers) / w.sum() if w.sum()
                    else np.full((2, 2), np.nan)
                    for w in (per_outcome * conc_sel, per_outcome * ~conc_sel))

    return ProviderRounds(
        trials=trials, conclusive=n_c,
        bit_hits=int(counts[conclusive & (bob_bit == BIT_TABLE[0, alice_outcome])].sum()),
        basis_hits=int(counts[basis_guess == (alice_outcome & 1)].sum()),
        p_c_hits=p_c_hits, p_c=p_c, p_b=p_b, p_c_sigma_rate=0.5,
        rho_conclusive=rho_c, rho_inconclusive=rho_n)


@dataclass(frozen=True)
class EntangledBob:
    """Provider keeping one register qubit per signal and measuring it late."""

    mode: str = "honest_basis"

    kind = "entangled"

    def __post_init__(self):
        _check_mode(self.mode)

    @property
    def label(self) -> str:
        return f"entangled({self.mode})"

    def law(self, config: ProtocolConfig) -> Law:
        # Alice's marginal is honest in either mode. Only the honest register
        # basis recovers the bit she concludes; the other leaves his key a fair coin.
        return Law(0.25, 0.0 if self.mode == "honest_basis" else 0.5)

    def round_statistics(self, trials: int, rng: np.random.Generator) -> ProviderRounds:
        return entangled_round_trials(self.mode, trials, rng)

    def rounds(self, count: int, config: ProtocolConfig, rng: np.random.Generator) -> BobRounds:
        return _fixed_state_rounds(count, config, ER_SECOND_PROB, "register attack")

    def key_bits(self, rounds: BobRounds, kept: np.ndarray, alice: AliceRecords,
                 config: ProtocolConfig, rng: np.random.Generator) -> np.ndarray:
        # Alice's outcome pins his register state exactly; sampling his own
        # measurement from it reproduces the joint statistics without any
        # signaling shortcut (the correlation lives in the shared state).
        if self.mode == "honest_basis":
            p_r1, outcome = ER_REGISTER_ONE_PROB[self.mode], alice.outcome
            bits = np.empty(kept.size, dtype=np.uint8)
            for start in range(0, kept.size, FLOAT_PIECE):
                part = outcome[start:start + FLOAT_PIECE]
                np.less(rng.random(part.size), p_r1[part],
                        out=bits[start:start + FLOAT_PIECE].view(bool))
            return bits
        return _fair_bits(rng, kept.size).astype(np.uint8)


# --------------------------------------------------------------------------
# reports and the no-signaling audit
# --------------------------------------------------------------------------

def _known_bits_through_runs(bob, n: int, k: int, runs: int, seed: int,
                             stream: int) -> tuple[float, float, float]:
    """Mean known-bit count of first attempts under a provider strategy.

    The runs are the n-position blocks of one honest-user attempt at runs * n
    positions, made by `_attempts` from [seed, stream, 1] (the battery draws
    from [seed, stream]). Block r counts the attempt's known positions among
    r * n to (r + 1) * n - 1. A fixed-state provider prepares every raw qubit
    independently, so the blocks are independent Binomial(n, p_c**k)
    counts, the law of separate attempts at n. They are the per-block known
    sets a `run_protocol` call with no restarts would build from the same
    stream (none for an empty attempt), without the query or the
    ciphertext: every draw a count reads comes before Bob's key record, the
    attempt's last. numpy's SeedSequence reads a trailing 0 as the padding
    of a shorter seed, so [seed, stream, 0] would be the battery's own stream.
    Returns (empirical mean, 99% half-width, n * p_c**k with p_c from `bob.law`).
    """
    config = ProtocolConfig(n=runs * n, k=k, seed=seed)
    rng = np.random.default_rng([seed, stream, 1])
    [(key, _)] = _attempts(config, HonestAlice(), bob, [rng])
    mean, hw = stats.mean_ci(np.bincount(key.known // n, minlength=runs))
    return mean, hw, n * bob.law(config).conclusive ** k


def _provider_report(bob, trials: int,
                     rng: np.random.Generator) -> tuple[ExperimentReport, ProviderRounds]:
    """Analytic and sampled p_c, p_b and product, plus the bit-error and basis-guess rates.

    Each sampled rate is read once from the counts. The sampled p_b,
    bit-error rate and product are None when no round was conclusive; the
    battery comes back beside the report.
    """
    ev = bob.round_statistics(trials, rng)
    p_c = ev.p_c_hits / trials
    p_b = ev.bit_hits / ev.conclusive if ev.conclusive else None
    report = ExperimentReport(
        experiment=bob.kind, params=dataclasses.asdict(bob),
        analytic={"p_c": ev.p_c, "p_b": ev.p_b, "product": ev.p_c * ev.p_b,
                  "bit_error_rate": 1.0 - ev.p_b},
        empirical={"p_c": p_c, "p_b": p_b,
                   "product": None if p_b is None else p_c * p_b,
                   "bit_error_rate": None if p_b is None else 1.0 - p_b,
                   "basis_guess_rate": ev.basis_hits / trials},
        extra={"trials": trials})
    return report, ev


def _attack_report(bob, trials: int, seed: int, stream: int) -> ExperimentReport:
    """Round statistics of one provider strategy checked against its exact values.

    The rounds draw from the stream [seed, stream]. A side experiment
    measures how many final key bits an honest user ends up knowing at
    n = 400, k = 2: 150 blocks of 400 positions of one first attempt
    at 60,000 positions (`_known_bits_through_runs`), on the stream
    [seed, stream, 1]. A rate without samples fails its check.
    """
    start = time.perf_counter()
    rep, ev = _provider_report(bob, trials, np.random.default_rng([seed, stream]))
    ana, emp, n_c = rep.analytic, rep.empirical, ev.conclusive
    _, hw_c = stats.rate_ci(ev.p_c_hits, trials)
    _, hw_b = stats.rate_ci(ev.basis_hits, trials)
    hw_bit = stats.rate_ci(ev.bit_hits, n_c)[1] if n_c else None
    known_mean, known_hw, known_expected = _known_bits_through_runs(
        bob, 400, 2, 150, seed, stream)
    ana["known_bits_mean"], emp["known_bits_mean"] = known_expected, known_mean
    rep.ci99 = {"p_c": hw_c, "p_b": hw_bit, "basis_guess_rate": hw_b,
                "known_bits_mean": known_hw}
    rep.passed = {
        "p_c": abs(emp["p_c"] - ana["p_c"]) <= hw_c,
        "p_b": n_c > 0 and abs(emp["p_b"] - ana["p_b"]) <= hw_bit,
        "basis_guess_half": abs(emp["basis_guess_rate"] - 0.5) <= hw_b,
        "product_bound": ana["product"] <= 0.5,
        "known_mean": abs(known_mean - known_expected) <= known_hw,
    }
    rep.runtime_s = time.perf_counter() - start
    return rep


def biased_attack_report(phi: float, trials: int = 200_000, seed: int = 0) -> ExperimentReport:
    """Biased-state round statistics checked against the exact values."""
    return _attack_report(BiasedBob(phi), trials, seed, stream=1)


def entangled_attack_report(mode: str, trials: int = 200_000, seed: int = 0) -> ExperimentReport:
    """Register-attack round statistics checked against the exact values."""
    return _attack_report(EntangledBob(mode), trials, seed, stream=2)


@dataclass
class AuditResult:
    """Outcome of the strategy sweep against the no-signaling limit."""

    reports: list[ExperimentReport]
    max_product_analytic: float
    max_product_strategy: str
    basis_guess_ok: bool
    product_ok: bool
    familywise_confidence: float
    trials_per_point: int

    def all_passed(self) -> bool:
        return self.basis_guess_ok and self.product_ok

    def csv_rows(self) -> list[dict]:
        return [{"phi": rep.params.get("phi", ""), "p_c": rep.empirical["p_c"],
                 "p_b": rep.empirical["p_b"], "product": rep.empirical["product"],
                 "basis_guess": rep.empirical["basis_guess_rate"],
                 "ci": rep.ci99["basis_guess_rate"]} for rep in self.reports]

    def to_dict(self) -> dict:
        return {
            "max_product_analytic": self.max_product_analytic,
            "max_product_strategy": self.max_product_strategy,
            "basis_guess_ok": self.basis_guess_ok,
            "product_ok": self.product_ok,
            "familywise_confidence": self.familywise_confidence,
            "trials_per_point": self.trials_per_point,
            "strategies": [rep.to_dict() for rep in self.reports],
        }


def no_signaling_audit(points: int = 181, trials_per_point: int = 20_000,
                       seed: int = 0, confidence: float = 0.99) -> AuditResult:
    """Sweep the provider-attack family and verify the no-signaling limits.

    Covers the biased preparation on a `points`-wide angle grid plus both
    register modes. For every strategy the analytic product p_c * p_b must
    stay at or below 1/2 and the empirical basis-guess rate must sit at 1/2
    within a simultaneous confidence band (the per-strategy level is
    Bonferroni-adjusted so the band holds jointly at `confidence`).
    """
    stats.require_size("points", points)
    stats.require_size("trials_per_point", trials_per_point)
    strategies = ([BiasedBob(phi) for phi in np.linspace(0.0, math.pi, points)]
                  + [EntangledBob(mode) for mode in ER_MODES])
    per_test_conf = 1.0 - (1.0 - confidence) / len(strategies)
    z_family = stats.z_value(per_test_conf)
    hw = z_family * stats.binomial_sigma(0.5, trials_per_point)

    reports: list[ExperimentReport] = []
    max_product = -1.0
    max_strategy = ""
    for idx, bob in enumerate(strategies):
        rep, ev = _provider_report(bob, trials_per_point, np.random.default_rng([seed, idx]))
        product, emp_product = rep.analytic["product"], rep.empirical["product"]
        # Conservative familywise interval for the empirical p_c * p_b.
        margin = (z_family * stats.binomial_sigma(ev.p_c_sigma_rate, trials_per_point)
                  + z_family * stats.binomial_sigma(0.5, max(ev.conclusive, 1)))
        rep.ci99 = {"basis_guess_rate": hw, "product": margin}
        rep.passed = {
            "basis_guess_half": abs(rep.empirical["basis_guess_rate"] - 0.5) <= hw,
            "product_bound": (product <= 0.5 and emp_product is not None
                              and emp_product <= 0.5 + margin),
        }
        if product > max_product:
            max_product, max_strategy = product, bob.label
        reports.append(rep)

    return AuditResult(reports=reports, max_product_analytic=max_product,
                       max_product_strategy=max_strategy,
                       basis_guess_ok=all(r.passed["basis_guess_half"] for r in reports),
                       product_ok=all(r.passed["product_bound"] for r in reports),
                       familywise_confidence=confidence,
                       trials_per_point=trials_per_point)

