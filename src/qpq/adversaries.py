"""Dishonest strategies for both parties and the bounds they cannot beat.

User-side attacks: perfect-memory unambiguous discrimination of the
announced pair, the joint minimum-error (Helstrom) measurement on the k
qubits behind one final key bit, and the basis-announcement contrast mode
that breaks the scheme entirely. Provider-side attacks: biased state
preparation at an arbitrary Hilbert angle, and an entangled register held
back per qubit. The audit machinery verifies the guessing bounds and the
no-signaling product limit for the whole family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from . import stats
from .quantum import (
    K_MAX,
    DensityMatrix,
    MeasurementBasis,
    PureState,
    SargSymbol,
    helstrom_guess,
    helstrom_parity_table,
    measure,
    parity_bounds,
    parity_mixtures,  # noqa: F401 (bench/tests/test_bench.py traces through it)
    sarg_state,
    state_at_angle,
    usd_bound,
)
from .protocol import (
    AliceRecords,
    AnnouncedPair,
    BIT_TABLE,
    BobRounds,
    CONCLUSIVE_TABLE,
    Interpretation,
    ProtocolConfig,
    RestartLimitExceeded,
    Transcript,
    interpret,
    run_protocol,
)

CANONICAL_PAIR = AnnouncedPair(0)  # {UP, RIGHT}

# Optimal unambiguous-discrimination success rate for the equal-prior
# announced pair, taken straight from the discrimination bound (the
# equal-overlap pure-state pair attains it).
USD_SUCCESS = usd_bound(sarg_state(SargSymbol.UP).density(),
                        sarg_state(SargSymbol.RIGHT).density()).bound


# --------------------------------------------------------------------------
# user-side attacks
# --------------------------------------------------------------------------

def alice_usd_interpret(pair: AnnouncedPair, sent: SargSymbol,
                        rng: np.random.Generator) -> Interpretation:
    """Optimal unambiguous discrimination of the announced pair.

    Succeeds with probability 1 - 1/sqrt(2) and is then always correct; the
    failure outcome is symmetric between the two equal-prior candidates, so
    it carries posterior 1/2.
    """
    sent = SargSymbol(sent)
    if sent not in pair:
        raise ValueError(f"sent symbol {sent!r} is not in the announced pair")
    if rng.random() < USD_SUCCESS:
        return Interpretation.conclusive_bit(sent.bit)
    return Interpretation.inconclusive(0.5)


def usd_success_trials(trials: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized success mask of the discrimination measurement."""
    return rng.random(trials) < USD_SUCCESS


@dataclass(frozen=True)
class UsdAlice:
    """Quantum-memory user: unambiguous discrimination after each announcement."""

    kind = "usd"

    def respond(self, rounds: BobRounds, kept: np.ndarray, config: ProtocolConfig,
                rng: np.random.Generator) -> AliceRecords:
        sent = rounds.sent[kept]
        if (sent < 0).any():
            raise ValueError("discrimination attack needs definite sent symbols")
        conclusive = usd_success_trials(kept.size, rng)
        bit = np.where(conclusive, sent & 1, -1).astype(np.int8)
        filler = np.full(kept.size, -1, dtype=np.int8)
        posterior = np.where(conclusive, np.nan, 0.5)
        return AliceRecords(basis=filler, outcome=filler, conclusive=conclusive,
                            bit=bit, posterior_bit1=posterior)


@dataclass(frozen=True)
class Bb84MemoryAlice:
    """Stores every qubit and measures after the classical announcement.

    Under basis announcements this reads off every raw bit exactly; against
    pair announcements the stored qubit still faces the two-state
    discrimination problem, so the attack degrades to the unambiguous
    rates.
    """

    kind = "bb84_memory"

    def respond(self, rounds: BobRounds, kept: np.ndarray, config: ProtocolConfig,
                rng: np.random.Generator) -> AliceRecords:
        if config.announcement != "bb84":
            return UsdAlice().respond(rounds, kept, config, rng)
        sent = rounds.sent[kept]
        return AliceRecords(basis=(sent & 1).astype(np.int8),
                            outcome=sent.astype(np.int8),
                            conclusive=np.ones(kept.size, dtype=bool),
                            bit=(sent >> 1).astype(np.int8),
                            posterior_bit1=np.full(kept.size, np.nan))


def bb84_memory_attack(config: ProtocolConfig, database, target_index: int,
                       rng: np.random.Generator | None = None) -> Transcript:
    """Run the protocol against a perfect-memory user.

    With `config.announcement == "bb84"` her known set is the whole key;
    with pair announcements the same attacker only reaches the unambiguous
    discrimination rates.
    """
    return run_protocol(config, database, target_index, alice=Bb84MemoryAlice(), rng=rng)


class JointHelstromValue(NamedTuple):
    """Closed-form guessing probability plus the matrix-route check value."""

    closed_form: float
    matrix_value: float | None


def alice_joint_helstrom(k: int, matrix_max_k: int = K_MAX) -> JointHelstromValue:
    """Per-final-bit guessing probability of the joint minimum-error measurement.

    The closed form is 1/2 + 1/(2 sqrt(2**k)); for k <= matrix_max_k the
    value is recomputed through the Helstrom bound of the parity mixtures'
    permutation-symmetric blocks, and the two routes must agree to 1e-9.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    closed = 0.5 + 0.5 * 2.0 ** (-k / 2.0)
    matrix_value = None
    if k <= matrix_max_k:
        matrix_value = parity_bounds(k).helstrom_guess
    return JointHelstromValue(closed_form=closed, matrix_value=matrix_value)


def helstrom_measurement_trials(k: int, trials: int, rng: np.random.Generator,
                                batch: int = 4096) -> float:
    """Empirical guess rate of the simulated joint minimum-error measurement.

    Each trial draws a parity and a uniform bit string of that parity, then
    Born-samples the two-outcome measurement onto the sign eigenspaces of
    the mixture difference. The even-outcome probability depends only on
    the string's Hamming weight, so it is read from a (k+1)-entry table.
    """
    p_even = helstrom_parity_table(k)
    correct = 0
    done = 0
    while done < trials:
        m = min(batch, trials - done)
        parity = rng.integers(0, 2, m)
        bits = rng.integers(0, 2, (m, k))
        bits[:, -1] = parity ^ np.bitwise_xor.reduce(bits[:, :-1], axis=1) \
            if k > 1 else parity
        guess_even = rng.random(m) < p_even[bits.sum(axis=1)]
        correct += int((guess_even == (parity == 0)).sum())
        done += m
    return correct / trials


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


def bob_biased_send(phi: float) -> tuple[PureState, AnnouncedPair]:
    """State actually sent at Hilbert angle phi, with the canonical pair announced."""
    return state_at_angle(phi), CANONICAL_PAIR


def biased_analytics(phi: float) -> BiasedAnalytics:
    """Born-rule conclusiveness and bit statistics for the biased preparation.

    Against the canonical pair the conclusive outcomes are DOWN (bit 1) and
    LEFT (bit 0), each reached through the matching basis choice with
    probability 1/2.
    """
    psi = state_at_angle(phi)
    q1 = 0.5 * psi.overlap(sarg_state(SargSymbol.DOWN)) ** 2
    q0 = 0.5 * psi.overlap(sarg_state(SargSymbol.LEFT)) ** 2
    p_c = q0 + q1
    ml_bit = 1 if q1 > q0 else 0
    p_b = (max(q0, q1) / p_c) if p_c > 0.0 else 1.0
    return BiasedAnalytics(p_c=p_c, p_b=p_b, q_bit0=q0, q_bit1=q1, ml_bit=ml_bit)


@dataclass(frozen=True)
class BiasedBob:
    """Provider sending the fixed state at angle phi while announcing {UP, RIGHT}.

    His raw-key record is his maximum-likelihood guess of the bit Alice
    writes down on a conclusive round. Other announced pairs behave the
    same way up to a relabeling, so only the canonical pair is modeled.
    """

    phi: float

    kind = "biased"

    def __post_init__(self):
        object.__setattr__(self, "phi", float(self.phi) % math.pi)

    def analytics(self) -> BiasedAnalytics:
        return biased_analytics(self.phi)

    def _kind_table(self) -> np.ndarray:
        psi = state_at_angle(self.phi)
        return np.array([[psi.overlap(sarg_state(SargSymbol.DOWN)) ** 2,
                          psi.overlap(sarg_state(SargSymbol.LEFT)) ** 2]])

    def rounds(self, count: int, config: ProtocolConfig, rng: np.random.Generator) -> BobRounds:
        if config.announcement != "sarg":
            raise ValueError("biased preparation only targets pair announcements")
        return BobRounds(sent=np.full(count, -1, dtype=np.int8),
                         pair=np.zeros(count, dtype=np.int8),
                         kind=np.zeros(count, dtype=np.int8),
                         kind_table=self._kind_table())

    def key_bits(self, rounds: BobRounds, kept: np.ndarray, alice: AliceRecords,
                 config: ProtocolConfig, rng: np.random.Generator) -> np.ndarray:
        return np.full(kept.size, self.analytics().ml_bit, dtype=np.uint8)


# --------------------------------------------------------------------------
# provider-side attacks: entangled register
# --------------------------------------------------------------------------

ER_MODES = ("honest_basis", "conclusiveness_basis")

REGISTER_R0 = PureState(np.array([1.0, 0.0]))
REGISTER_R1 = PureState(np.array([0.0, 1.0]))
REGISTER_BASIS_HONEST = MeasurementBasis((REGISTER_R0, REGISTER_R1))
REGISTER_BASIS_CONCLUSIVENESS = MeasurementBasis((
    PureState(np.array([1.0, 1.0]) / math.sqrt(2)),
    PureState(np.array([1.0, -1.0]) / math.sqrt(2)),
))


def entangled_joint_state() -> PureState:
    """(|UP>|R0> + |RIGHT>|R1>) / sqrt(2); signal qubit first."""
    up = sarg_state(SargSymbol.UP).amplitudes
    right = sarg_state(SargSymbol.RIGHT).amplitudes
    return PureState((np.kron(up, REGISTER_R0.amplitudes)
                      + np.kron(right, REGISTER_R1.amplitudes)) / math.sqrt(2))


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


@dataclass(frozen=True)
class EntangledRound:
    """One exactly-simulated register round."""

    alice_basis: int
    alice_outcome: SargSymbol
    interpretation: Interpretation
    register_state: PureState
    register_outcome: int
    bob_bit: int
    conclusiveness_guess: bool | None
    basis_guess: int


def bob_entangled_round(mode: str, rng: np.random.Generator) -> EntangledRound:
    """Play one round of the entangled-register attack exactly.

    Alice measures her half of the joint state in a random basis; her
    outcome fixes the register state, which Bob then measures in the basis
    selected by `mode` ("honest_basis" recovers the sent bit,
    "conclusiveness_basis" estimates conclusiveness and erases the bit).
    """
    if mode not in ER_MODES:
        raise ValueError(f"mode must be one of {ER_MODES}")
    basis = int(rng.integers(2))
    second = rng.random() < ER_OUTCOME_PROBS[basis + 2]
    outcome = SargSymbol(basis + 2 * second)
    register = PureState(ER_REGISTERS[int(outcome)].copy())
    interp = interpret(basis, outcome, CANONICAL_PAIR)
    if mode == "honest_basis":
        reg_out = measure(register, REGISTER_BASIS_HONEST, rng)
        bob_bit = reg_out
        conclusiveness_guess = None
        basis_guess = 0 if bob_bit == 1 else 1
    else:
        reg_out = measure(register, REGISTER_BASIS_CONCLUSIVENESS, rng)
        bob_bit = int(rng.integers(2))  # the register kept no bit information
        conclusiveness_guess = reg_out == 1
        implied = 0 if bob_bit == 1 else 1
        basis_guess = implied if conclusiveness_guess else 1 - implied
    return EntangledRound(alice_basis=basis, alice_outcome=outcome,
                          interpretation=interp, register_state=register,
                          register_outcome=reg_out, bob_bit=bob_bit,
                          conclusiveness_guess=conclusiveness_guess,
                          basis_guess=basis_guess)


@dataclass(frozen=True)
class EntangledBob:
    """Provider keeping one register qubit per signal and measuring it late."""

    mode: str = "honest_basis"

    kind = "entangled"

    def __post_init__(self):
        if self.mode not in ER_MODES:
            raise ValueError(f"mode must be one of {ER_MODES}")

    def rounds(self, count: int, config: ProtocolConfig, rng: np.random.Generator) -> BobRounds:
        if config.announcement != "sarg":
            raise ValueError("register attack only targets pair announcements")
        table = np.array([[ER_OUTCOME_PROBS[SargSymbol.DOWN],
                           ER_OUTCOME_PROBS[SargSymbol.LEFT]]])
        return BobRounds(sent=np.full(count, -1, dtype=np.int8),
                         pair=np.zeros(count, dtype=np.int8),
                         kind=np.zeros(count, dtype=np.int8),
                         kind_table=table)

    def key_bits(self, rounds: BobRounds, kept: np.ndarray, alice: AliceRecords,
                 config: ProtocolConfig, rng: np.random.Generator) -> np.ndarray:
        # Alice's outcome pins his register state exactly; sampling his own
        # measurement from it reproduces the joint statistics without any
        # signaling shortcut (the correlation lives in the shared state).
        registers = ER_REGISTERS[alice.outcome]
        if self.mode == "honest_basis":
            p_r1 = registers[:, 1] ** 2
            return (rng.random(kept.size) < p_r1).astype(np.uint8)
        return rng.integers(0, 2, kept.size).astype(np.uint8)


# --------------------------------------------------------------------------
# per-round trial batteries
# --------------------------------------------------------------------------

@dataclass
class RoundTrialStats:
    """Aggregates from a batch of single-qubit attack rounds."""

    trials: int
    conclusive_rate: float
    bit_guess_rate: float          # conditioned on conclusive rounds
    bit_error_rate: float
    basis_guess_rate: float
    conclusive_count: int
    conclusiveness_guess_rate: float | None = None
    rho_conclusive: np.ndarray | None = None
    rho_inconclusive: np.ndarray | None = None


def biased_round_trials(phi: float, trials: int, rng: np.random.Generator) -> RoundTrialStats:
    """Simulate biased-preparation rounds against an honest user."""
    ana = biased_analytics(phi)
    psi = state_at_angle(phi)
    second_prob = np.array([psi.overlap(sarg_state(SargSymbol.DOWN)) ** 2,
                            psi.overlap(sarg_state(SargSymbol.LEFT)) ** 2])
    basis = rng.integers(0, 2, trials)
    second = rng.random(trials) < second_prob[basis]
    outcome = basis + 2 * second
    conclusive = CONCLUSIVE_TABLE[0, outcome]
    alice_bit = BIT_TABLE[0, outcome]
    n_c = int(conclusive.sum())
    bit_hits = int((alice_bit[conclusive] == ana.ml_bit).sum())
    basis_guess = 0 if ana.ml_bit == 1 else 1
    basis_hits = int((basis == basis_guess).sum())
    return RoundTrialStats(
        trials=trials,
        conclusive_rate=n_c / trials,
        bit_guess_rate=bit_hits / n_c if n_c else float("nan"),
        bit_error_rate=1.0 - bit_hits / n_c if n_c else float("nan"),
        basis_guess_rate=basis_hits / trials,
        conclusive_count=n_c,
    )


def entangled_round_trials(mode: str, trials: int, rng: np.random.Generator) -> RoundTrialStats:
    """Simulate register rounds; also reconstructs the conditional register states."""
    if mode not in ER_MODES:
        raise ValueError(f"mode must be one of {ER_MODES}")
    basis = rng.integers(0, 2, trials)
    second = rng.random(trials) < np.array([ER_OUTCOME_PROBS[2], ER_OUTCOME_PROBS[3]])[basis]
    outcome = basis + 2 * second
    conclusive = CONCLUSIVE_TABLE[0, outcome]
    alice_bit = BIT_TABLE[0, outcome]
    n_c = int(conclusive.sum())

    registers = ER_REGISTERS[outcome]
    if mode == "honest_basis":
        reg_out = (rng.random(trials) < registers[:, 1] ** 2).astype(np.int8)
        bob_bit = reg_out
        basis_guess = np.where(bob_bit == 1, 0, 1)
        conclusiveness_guess_rate = None
    else:
        minus_prob = ((registers[:, 0] - registers[:, 1]) ** 2) / 2.0
        reg_out = (rng.random(trials) < minus_prob).astype(np.int8)
        bob_bit = rng.integers(0, 2, trials).astype(np.int8)
        guess_conclusive = reg_out == 1
        conclusiveness_guess_rate = float((guess_conclusive == conclusive).mean())
        implied = np.where(bob_bit == 1, 0, 1)
        basis_guess = np.where(guess_conclusive, implied, 1 - implied)

    bit_hits = int((bob_bit[conclusive] == alice_bit[conclusive]).sum())

    counts = np.bincount(outcome, minlength=4).astype(float)
    outers = np.einsum("oi,oj->oij", ER_REGISTERS, ER_REGISTERS)
    conc_sel = CONCLUSIVE_TABLE[0]
    rho_c = np.einsum("o,oij->ij", counts * conc_sel, outers) / counts[conc_sel].sum()
    rho_n = np.einsum("o,oij->ij", counts * ~conc_sel, outers) / counts[~conc_sel].sum()

    return RoundTrialStats(
        trials=trials,
        conclusive_rate=n_c / trials,
        bit_guess_rate=bit_hits / n_c if n_c else float("nan"),
        bit_error_rate=1.0 - bit_hits / n_c if n_c else float("nan"),
        basis_guess_rate=float((basis_guess == basis).mean()),
        conclusive_count=n_c,
        conclusiveness_guess_rate=conclusiveness_guess_rate,
        rho_conclusive=rho_c,
        rho_inconclusive=rho_n,
    )


def honest_pair_round_trials(trials: int, rng: np.random.Generator) -> np.ndarray:
    """Outcome counts for an honest provider restricted to the canonical pair.

    The comparison twin for the register attack in honest mode: the sent
    symbol is uniform over {UP, RIGHT} and the pair announcement is fixed,
    which is exactly the honest protocol conditioned on that announcement.
    """
    from .protocol import OUTCOME_SECOND_PROB
    sent = rng.integers(0, 2, trials)
    basis = rng.integers(0, 2, trials)
    second = rng.random(trials) < OUTCOME_SECOND_PROB[sent, basis]
    outcome = basis + 2 * second
    return np.bincount(outcome, minlength=4)


def entangled_outcome_counts(mode: str, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Alice-side outcome counts under the register attack."""
    basis = rng.integers(0, 2, trials)
    second = rng.random(trials) < np.array([ER_OUTCOME_PROBS[2], ER_OUTCOME_PROBS[3]])[basis]
    return np.bincount(basis + 2 * second, minlength=4)


# --------------------------------------------------------------------------
# reports and the no-signaling audit
# --------------------------------------------------------------------------

@dataclass
class AttackReport:
    """Per-strategy statistics with analytic references and 99% intervals."""

    strategy: str
    params: dict
    trials: int
    p_c: float
    p_b: float
    product: float
    bit_error_rate: float
    basis_guess_rate: float
    known_bits_mean: float | None = None
    analytic: dict = field(default_factory=dict)
    ci99: dict = field(default_factory=dict)
    passed: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "params": self.params,
            "trials": self.trials,
            "p_c": self.p_c,
            "p_b": self.p_b,
            "product": self.product,
            "bit_error_rate": self.bit_error_rate,
            "basis_guess_rate": self.basis_guess_rate,
            "known_bits_mean": self.known_bits_mean,
            "analytic": self.analytic,
            "ci99": self.ci99,
            "passed": self.passed,
        }

    def all_passed(self) -> bool:
        return all(self.passed.values())


def _known_bits_through_runs(bob, p_conclusive: float, n: int, k: int,
                             runs: int, seed: int) -> tuple[float, float, float]:
    """Mean known-bit count of first attempts under a provider strategy.

    Returns (empirical mean, 99% half-width, analytic n * p_c**k).
    """
    counts = []
    config = ProtocolConfig(n=n, k=k, seed=seed, max_restarts=0)
    database = np.zeros(n, dtype=np.uint8)
    for run_idx in range(runs):
        rng = np.random.default_rng([seed, run_idx])
        try:
            t = run_protocol(config, database, 0, bob=bob, rng=rng)
            counts.append(len(t.key.alice_known))
        except RestartLimitExceeded:
            counts.append(0)
    mean, hw = stats.mean_ci(counts)
    return mean, hw, n * p_conclusive ** k


def biased_attack_report(phi: float, trials: int = 200_000, seed: int = 0,
                         run_shape: tuple[int, int, int] = (400, 2, 150)) -> AttackReport:
    """Empirical biased-state round statistics checked against the exact values.

    `run_shape` = (n, k, runs) sizes the full-protocol side experiment that
    measures how many final key bits the user ends up knowing.
    """
    rng = np.random.default_rng([seed, 1])
    ana = biased_analytics(phi)
    res = biased_round_trials(phi, trials, rng)
    _, hw_c = stats.rate_ci(round(res.conclusive_rate * trials), trials)
    _, hw_b = stats.rate_ci(round(res.basis_guess_rate * trials), trials)
    known_mean, known_hw, known_expected = _known_bits_through_runs(
        BiasedBob(phi), ana.p_c, *run_shape, seed=seed)
    product = ana.p_c * ana.p_b
    passed = {
        "conclusive_rate": abs(res.conclusive_rate - ana.p_c) <= hw_c,
        "basis_guess_half": abs(res.basis_guess_rate - 0.5) <= hw_b,
        "product_bound": product <= 0.5,
        "known_mean": abs(known_mean - known_expected) <= known_hw,
    }
    return AttackReport(
        strategy="biased", params={"phi": phi}, trials=trials,
        p_c=res.conclusive_rate, p_b=res.bit_guess_rate,
        product=res.conclusive_rate * res.bit_guess_rate,
        bit_error_rate=res.bit_error_rate,
        basis_guess_rate=res.basis_guess_rate,
        known_bits_mean=known_mean,
        analytic={"p_c": ana.p_c, "p_b": ana.p_b, "product": product,
                  "bit_error_rate": 1.0 - ana.p_b,
                  "known_bits_mean": known_expected},
        ci99={"p_c": hw_c, "basis_guess_rate": hw_b, "known_bits_mean": known_hw},
        passed=passed,
    )


def entangled_attack_report(mode: str, trials: int = 200_000, seed: int = 0,
                            run_shape: tuple[int, int, int] = (400, 2, 150)) -> AttackReport:
    """Empirical register-attack statistics checked against the exact values."""
    rng = np.random.default_rng([seed, 2])
    res = entangled_round_trials(mode, trials, rng)
    guess_bound = conclusiveness_guess_bound()
    if mode == "honest_basis":
        p_c_analytic, p_b_analytic = 0.25, 1.0
        p_c_emp = res.conclusive_rate
    else:
        p_c_analytic, p_b_analytic = guess_bound, 0.5
        p_c_emp = res.conclusiveness_guess_rate
    _, hw_c = stats.rate_ci(round(p_c_emp * trials), trials)
    _, hw_b = stats.rate_ci(round(res.basis_guess_rate * trials), trials)
    _, hw_bit = stats.rate_ci(round(res.bit_guess_rate * res.conclusive_count),
                              res.conclusive_count)
    # Alice's marginal is honest either way, so her known-bit count follows
    # the honest statistics here.
    known_mean, known_hw, known_expected = _known_bits_through_runs(
        EntangledBob(mode), 0.25, *run_shape, seed=seed)
    product = p_c_analytic * p_b_analytic
    passed = {
        "p_c": abs(p_c_emp - p_c_analytic) <= hw_c,
        "p_b": abs(res.bit_guess_rate - p_b_analytic) <= hw_bit,
        "basis_guess_half": abs(res.basis_guess_rate - 0.5) <= hw_b,
        "product_bound": product <= 0.5,
        "known_mean": abs(known_mean - known_expected) <= known_hw,
    }
    return AttackReport(
        strategy="entangled", params={"mode": mode}, trials=trials,
        p_c=p_c_emp, p_b=res.bit_guess_rate,
        product=p_c_emp * res.bit_guess_rate,
        bit_error_rate=res.bit_error_rate,
        basis_guess_rate=res.basis_guess_rate,
        known_bits_mean=known_mean,
        analytic={"p_c": p_c_analytic, "p_b": p_b_analytic, "product": product,
                  "conclusiveness_guess_bound": guess_bound,
                  "known_bits_mean": known_expected},
        ci99={"p_c": hw_c, "basis_guess_rate": hw_b, "p_b": hw_bit,
              "known_bits_mean": known_hw},
        passed=passed,
    )


@dataclass
class AuditResult:
    """Outcome of the strategy sweep against the no-signaling limit."""

    reports: list[AttackReport]
    max_product_analytic: float
    max_product_strategy: str
    basis_guess_ok: bool
    product_ok: bool
    familywise_confidence: float
    trials_per_point: int

    def all_passed(self) -> bool:
        return self.basis_guess_ok and self.product_ok

    def csv_rows(self) -> list[dict]:
        rows = []
        for rep in self.reports:
            rows.append({
                "phi": rep.params.get("phi", ""),
                "p_c": rep.p_c,
                "p_b": rep.p_b,
                "product": rep.product,
                "basis_guess": rep.basis_guess_rate,
                "ci": rep.ci99["basis_guess_rate"],
            })
        return rows

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
    phis = np.linspace(0.0, math.pi, points)
    n_strategies = points + 2
    per_test_conf = 1.0 - (1.0 - confidence) / n_strategies
    z_family = stats.z_value(per_test_conf)

    reports: list[AttackReport] = []
    basis_ok = True
    product_ok = True
    max_product = -1.0
    max_strategy = ""

    def _product_margin(res: RoundTrialStats) -> float:
        """Conservative familywise interval for the empirical p_c * p_b."""
        hw_c = z_family * stats.binomial_sigma(max(res.conclusive_rate, 1e-9),
                                               res.trials)
        hw_b = z_family * stats.binomial_sigma(0.5, max(res.conclusive_count, 1))
        return hw_c + hw_b

    for idx, phi in enumerate(phis):
        rng = np.random.default_rng([seed, idx])
        ana = biased_analytics(phi)
        res = biased_round_trials(phi, trials_per_point, rng)
        hw = z_family * stats.binomial_sigma(0.5, trials_per_point)
        product = ana.p_c * ana.p_b
        emp_product = res.conclusive_rate * res.bit_guess_rate
        ok_basis = abs(res.basis_guess_rate - 0.5) <= hw
        ok_product = product <= 0.5 and emp_product <= 0.5 + _product_margin(res)
        basis_ok &= ok_basis
        product_ok &= ok_product
        if product > max_product:
            max_product, max_strategy = product, f"biased(phi={phi:.6f})"
        reports.append(AttackReport(
            strategy="biased", params={"phi": float(phi)}, trials=trials_per_point,
            p_c=res.conclusive_rate, p_b=res.bit_guess_rate,
            product=emp_product,
            bit_error_rate=res.bit_error_rate,
            basis_guess_rate=res.basis_guess_rate,
            analytic={"p_c": ana.p_c, "p_b": ana.p_b, "product": product},
            ci99={"basis_guess_rate": hw, "product": _product_margin(res)},
            passed={"basis_guess_half": ok_basis, "product_bound": ok_product},
        ))

    for offset, mode in enumerate(ER_MODES):
        rng = np.random.default_rng([seed, points + offset])
        res = entangled_round_trials(mode, trials_per_point, rng)
        if mode == "honest_basis":
            p_c_analytic, p_b_analytic = 0.25, 1.0
            p_c_emp = res.conclusive_rate
        else:
            p_c_analytic, p_b_analytic = conclusiveness_guess_bound(), 0.5
            p_c_emp = res.conclusiveness_guess_rate
        hw = z_family * stats.binomial_sigma(0.5, trials_per_point)
        product = p_c_analytic * p_b_analytic
        emp_product = p_c_emp * res.bit_guess_rate
        margin = (z_family * stats.binomial_sigma(0.5, trials_per_point)
                  + z_family * stats.binomial_sigma(0.5, max(res.conclusive_count, 1)))
        ok_basis = abs(res.basis_guess_rate - 0.5) <= hw
        ok_product = product <= 0.5 and emp_product <= 0.5 + margin
        basis_ok &= ok_basis
        product_ok &= ok_product
        if product > max_product:
            max_product, max_strategy = product, f"entangled({mode})"
        reports.append(AttackReport(
            strategy="entangled", params={"mode": mode}, trials=trials_per_point,
            p_c=p_c_emp, p_b=res.bit_guess_rate,
            product=emp_product,
            bit_error_rate=res.bit_error_rate,
            basis_guess_rate=res.basis_guess_rate,
            analytic={"p_c": p_c_analytic, "p_b": p_b_analytic, "product": product},
            ci99={"basis_guess_rate": hw, "product": margin},
            passed={"basis_guess_half": ok_basis, "product_bound": ok_product},
        ))

    return AuditResult(reports=reports, max_product_analytic=max_product,
                       max_product_strategy=max_strategy,
                       basis_guess_ok=basis_ok, product_ok=product_ok,
                       familywise_confidence=confidence,
                       trials_per_point=trials_per_point)


# --------------------------------------------------------------------------
# cheat detection
# --------------------------------------------------------------------------

def xor_error_rate(per_bit_error: float, k: int) -> float:
    """Error rate of a k-fold XOR of independently flipped bits."""
    if not 0.0 <= per_bit_error <= 1.0:
        raise ValueError(f"error rate must lie in [0, 1], got {per_bit_error}")
    return 0.5 * (1.0 - (1.0 - 2.0 * per_bit_error) ** k)


def cheat_detection(transcripts: Iterable[Transcript], n_check: int) -> float | None:
    """Probability that buying extra known bits exposes a lying provider.

    For each run, Alice compares up to `n_check` of her known key bits
    beyond the queried one against the provider's answers (his key). The
    return value is the fraction of runs with at least one mismatch, or
    None when no run offered an extra bit to check.
    """
    if n_check < 1:
        raise ValueError("need at least one checked bit")
    outcomes = []
    for t in transcripts:
        extras = [j for j in t.key.known_indices() if j != t.chosen_index]
        if not extras:
            continue
        checked = extras[:n_check]
        outcomes.append(any(t.key.alice_known[j] != int(t.key.bob_key[j])
                            for j in checked))
    if not outcomes:
        return None
    return float(np.mean(outcomes))


def biased_known_bit_mismatch(phi: float, k: int, trials: int,
                              rng: np.random.Generator) -> float:
    """Empirical mismatch rate of a known final bit under the biased attack.

    Samples the k contributing rounds conditioned on all being conclusive
    (the only way Alice knows the final bit) and compares her XOR against
    the provider's maximum-likelihood key bit.
    """
    ana = biased_analytics(phi)
    p_bit1 = ana.q_bit1 / ana.p_c
    alice = (rng.random((trials, k)) < p_bit1).astype(np.uint8)
    alice_final = np.bitwise_xor.reduce(alice, axis=1)
    bob_final = (ana.ml_bit * k) % 2
    return float((alice_final != bob_final).mean())
