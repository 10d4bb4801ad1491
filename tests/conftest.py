"""Shared helpers: random states, the dense discrimination routines, brute-force
twins used as oracles, cheat detection and run tallies.

Trace distance, fidelity, the unambiguous-discrimination bound and cheat
detection run in no command or report of the package, only as the tests'
independent route, so they are defined here rather than in `qpq`.
"""

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np
import pytest

from qpq.adversaries import (
    ER_REGISTER_ONE_PROB,
    ER_REGISTERS,
    ER_SECOND_PROB,
    HELSTROM_BATCH,
    USD_SUCCESS,
    ProviderRounds,
    _biased_second_prob,
    biased_analytics,
    conclusiveness_guess_bound,
)
from qpq import protocol
from qpq.protocol import (
    BIT_TABLE,
    CONCLUSIVE_TABLE,
    AliceRecords,
    BobRounds,
    ProtocolConfig,
    Transcript,
    run_protocol,
)
from qpq.quantum import (
    EIG_FLOOR,
    DensityMatrix,
    ParityBounds,
    PureState,
    SargSymbol,
    _check_same_dim,
    helstrom_guess,
    helstrom_parity_table,
    parity_mixtures,
    sarg_state,
)


# Every bit generator numpy ships; all but MT19937 keep a spare 32-bit half
# of a 64-bit output in their state.
BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
                  np.random.MT19937]


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_pure(rng, dim=2) -> PureState:
    v = rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_density(rng, dim=2, rank=None) -> DensityMatrix:
    rank = rank or dim
    weights = rng.dirichlet(np.ones(rank))
    m = np.zeros((dim, dim))
    for w in weights:
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v)
    return DensityMatrix(m)


# The dense discrimination routines, the tests' independent route to
# `parity_bounds` and `USD_SUCCESS`.
SUPPORT_TOL = 1e-10     # eigenvalue threshold defining the support of a state


def _clip_spectrum(eigenvalues: np.ndarray, context: str) -> np.ndarray:
    """Zero the round-off part of a PSD spectrum before square roots.

    Eigenvalues below -1e-10 are treated as real negativity and raise;
    anything within the relative noise floor of zero is truncated so that
    rank-deficient inputs do not leak O(sqrt(eps)) into trace roots.
    """
    low = float(eigenvalues.min()) if eigenvalues.size else 0.0
    if low < EIG_FLOOR:
        raise ValueError(f"{context}: eigenvalue {low!r} below the {EIG_FLOOR} floor")
    floor = eigenvalues.size * np.finfo(float).eps * max(float(eigenvalues.max()), 0.0)
    out = eigenvalues.copy()
    out[out < floor] = 0.0
    return out


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of a - b. Lies in [0, 1]."""
    _check_same_dim(a, b)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Square-root fidelity trace sqrt(sqrt(a) b sqrt(a)).

    Equals the absolute overlap |<psi0|psi1>| on pure states; 1 iff a == b.
    Computed by two symmetric eigendecompositions with eigenvalue clipping.
    """
    _check_same_dim(a, b)
    w, u = np.linalg.eigh(a.matrix)
    w = _clip_spectrum(w, "fidelity: first argument")
    sqrt_a = (u * np.sqrt(w)) @ u.T
    inner = sqrt_a @ b.matrix @ sqrt_a
    inner = 0.5 * (inner + inner.T)
    w2 = _clip_spectrum(np.linalg.eigvalsh(inner), "fidelity: inner product")
    return float(np.sqrt(w2).sum())


class UsdBound(NamedTuple):
    """Equal-prior unambiguous-discrimination bound plus feasibility flag."""

    bound: float
    feasible: bool


def _has_support_outside(a: DensityMatrix, b: DensityMatrix) -> bool:
    """True if part of a's support lies outside b's support (threshold 1e-10)."""
    w, u = np.linalg.eigh(b.matrix)
    kernel = u[:, w <= SUPPORT_TOL]
    if kernel.shape[1] == 0:
        return False  # b has full support, nothing lies outside it
    leaked = float(np.einsum("ij,ik,kj->", kernel, a.matrix, kernel))
    return leaked > SUPPORT_TOL


def usd_bound(a: DensityMatrix, b: DensityMatrix) -> UsdBound:
    """Upper bound 1 - F(a, b) on the equal-prior unambiguous success rate.

    Unambiguously identifying both states is only possible when each state
    has support outside the other's support; the flag reports that
    feasibility via a rank/support comparison.
    """
    _check_same_dim(a, b)
    feasible = _has_support_outside(a, b) and _has_support_outside(b, a)
    return UsdBound(bound=1.0 - fidelity(a, b), feasible=feasible)


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
        known, bits = t.key._entries()
        checked = np.flatnonzero(known != t.chosen_index)[:n_check]
        if checked.size:
            outcomes.append(bool((bits[checked] != t.key.bob_key[known[checked]]).any()))
    if not outcomes:
        return None
    return float(np.mean(outcomes))


def honest_category_counts(config: ProtocolConfig, trials: int) -> np.ndarray:
    """Counts over (outcome, conclusive) categories for kept qubits.

    Eight categories: outcome symbol (4) times conclusive flag (2). Used by
    the loss-invariance comparison, where the detected-qubit statistics must
    not depend on the detection probability.
    """
    counts = np.zeros(8, dtype=np.int64)
    for trial in range(trials):
        rng = np.random.default_rng([config.seed, trial])
        database = rng.integers(0, 2, config.n, dtype=np.uint8)
        target = int(rng.integers(config.n))
        t = run_protocol(config, database, target, rng=rng)
        kept = t.records.detected
        cat = (t.records.outcome[kept].astype(np.int64) * 2
               + t.records.conclusive[kept])
        counts += np.bincount(cat, minlength=8)
    return counts


def usd_success_trials_bytes(trials: int, rng: np.random.Generator) -> np.ndarray:
    """`adversaries.usd_success_trials` rebuilt with Python ints: its oracle.

    A coin succeeds where U < T, T = ceil(USD_SUCCESS * 2^53), for the
    53-bit U whose top 8 bits are one `rng.bytes(trials)` byte. Where that
    byte is T's top 8 bits, U's low 45 bits are the top 45 of a
    little-endian 8-byte word from one further `rng.bytes(8 * ties)` call,
    made only if a tie occurred (`rng.bytes(0)` takes a 32-bit word);
    elsewhere they cannot change the comparison and are left 0.
    """
    threshold = math.ceil(Fraction(USD_SUCCESS) * 2**53)
    top = rng.bytes(trials)
    ties = [i for i, byte in enumerate(top) if byte == threshold >> 45]
    words = rng.bytes(8 * len(ties)) if ties else b""
    low = {i: int.from_bytes(words[8 * j:8 * j + 8], "little") >> 19
           for j, i in enumerate(ties)}
    return np.array([(byte << 45 | low.get(i, 0)) < threshold for i, byte in enumerate(top)],
                    dtype=bool)


def whole_array_respond(rounds: BobRounds, kept: np.ndarray, config: ProtocolConfig,
                        rng: np.random.Generator) -> AliceRecords:
    """HonestAlice.respond in one pass over whole arrays: the chunked engine's oracle.

    It draws the same bytes and float coins in the same order and reads
    Bob's rounds through their decoded `sent` and `pair` and the outcome law
    `layout.second` of each code, with no production table. When every
    entry of the law lies within 1e-12 of 0, 1/2 or 1, the drawn coin c
    decides through 0.5 * (1 - c) < p whether Alice sees the second member
    of her basis; otherwise a float coin does. `CONCLUSIVE_TABLE` and
    `BIT_TABLE` (against pairs) or the announced basis (against bases) then
    give her fields, packed through `AliceRecords.from_fields`, whose
    decoded basis must be the drawn one.
    """
    draw = protocol._byte_draws(rng, kept.size)
    basis = (draw >> 1) & 1
    law = np.array(rounds.layout.second)
    p = law[rounds.code[kept], basis]
    if np.abs(law - np.rint(2 * law) / 2).max() <= 1e-12:
        seen = 0.5 * (1 - (draw & 1)) < np.rint(2 * p) / 2
    else:
        seen = rng.random(kept.size) < p
    outcome = basis + 2 * seen
    if config.announcement == "sarg":
        pair = rounds.pair[kept]
        conclusive, bit = CONCLUSIVE_TABLE[pair, outcome], BIT_TABLE[pair, outcome]
    else:
        conclusive = basis == (rounds.sent[kept] & 1)
        bit = np.where(conclusive, seen, -1)
    records = AliceRecords.from_fields(outcome=outcome, conclusive=conclusive, bit=bit)
    assert np.array_equal(records.basis, basis)
    return records


def parity_mixtures_bruteforce(k: int):
    """Enumeration twin of the production Kronecker-power construction."""
    up = sarg_state(SargSymbol.UP).amplitudes
    right = sarg_state(SargSymbol.RIGHT).amplitudes
    dim = 2 ** k
    even = np.zeros((dim, dim))
    odd = np.zeros((dim, dim))
    for bits in itertools.product((0, 1), repeat=k):
        v = np.ones(1)
        for b in bits:
            v = np.kron(v, up if b == 0 else right)
        if sum(bits) % 2 == 0:
            even += np.outer(v, v)
        else:
            odd += np.outer(v, v)
    scale = 2.0 ** (k - 1)
    return DensityMatrix(even / scale), DensityMatrix(odd / scale)


def parity_usd_bound_50_digits(k: int):
    """50-digit twin of `parity_mixtures` + `fidelity`: 1 - F(rho_even, rho_odd).

    Builds rho_even/odd = (M^(x)k +/- D^(x)k) / 2**k from exact projector
    entries and takes both square roots with `mp.eigsy`, so no numpy routine
    is involved. Returns an mpmath number. mpmath is in the `test` extra
    but not a runtime dependency, so it is imported here and callers guard
    with `pytest.importorskip("mpmath")`.
    """
    from mpmath import mp

    def kron_power(m):
        dim = 2 ** k
        return mp.matrix([[mp.fprod(m[(i >> s) & 1, (j >> s) & 1] for s in range(k))
                           for j in range(dim)] for i in range(dim)])

    def clipped_sqrts(w):
        return [mp.sqrt(max(x, 0)) for x in w]

    with mp.workdps(50):
        h = mp.mpf(1) / 2
        p_up = mp.matrix([[1, 0], [0, 0]])
        p_right = mp.matrix([[h, h], [h, h]])
        total = kron_power(p_up + p_right) / 2 ** k
        signed = kron_power(p_up - p_right) / 2 ** k
        even, odd = total + signed, total - signed
        w, u = mp.eigsy(even)
        sqrt_even = u * mp.diag(clipped_sqrts(w)) * u.T
        inner = sqrt_even * odd * sqrt_even
        inner = (inner + inner.T) / 2
        return 1 - mp.fsum(clipped_sqrts(mp.eigsy(inner, eigvals_only=True)))


def parity_usd_bound_closed_form_50_digits(k: int):
    """Binomial closed form of 1 - F(rho_even, rho_odd), at 50 digits.

    F = ||[s^d(x, y)]_{x even, y odd}||_* / 2**(k-1), s = 1/sqrt(2), with d
    the Hamming distance. In the Hadamard basis the Gram matrix is diagonal
    and the parity flip pairs z with its complement, which gives
        F(k) = E[sign(k - 2B)],  B ~ Binomial(k, p),  p = (1 - 1/sqrt(2)) / 2.
    Shares no code with either matrix route. Returns an mpmath number.
    """
    from mpmath import mp

    with mp.workdps(50):
        p = (1 - 1 / mp.sqrt(2)) / 2
        f = mp.fsum(math.comb(k, w) * (1 - p) ** (k - w) * p ** w * mp.sign(k - 2 * w)
                    for w in range(k + 1))
        return 1 - f


def parity_bounds_dense(k: int) -> ParityBounds:
    """Dense-route twin of `qpq.quantum.parity_bounds`."""
    even, odd = parity_mixtures(k)
    return ParityBounds(fidelity=fidelity(even, odd),
                        trace_distance=trace_distance(even, odd),
                        helstrom_guess=helstrom_guess(even, odd, 0.5))


def _parity_product_states(bits: np.ndarray) -> np.ndarray:
    """Stack of product states (rows) for a (trials, k) bit array."""
    up = sarg_state(SargSymbol.UP).amplitudes
    right = sarg_state(SargSymbol.RIGHT).amplitudes
    states = np.ones((bits.shape[0], 1))
    for col in range(bits.shape[1]):
        qubit = np.where(bits[:, col, None] == 0, up, right)
        states = (states[:, :, None] * qubit[:, None, :]).reshape(bits.shape[0], -1)
    return states


def _integer_draw_trials(k: int, trials: int, rng: np.random.Generator, p_even_of) -> float:
    """The Helstrom sampler's loop on `rng.integers` draws, shared by both twins.

    Per batch it draws the parity and an int64 (m, k) bit matrix through
    `rng.integers(0, 2, ...)`, overwrites the last column so the row has
    that parity, and guesses "even" with probability `p_even_of(bits)`.
    """
    correct = 0
    done = 0
    while done < trials:
        m = min(HELSTROM_BATCH, trials - done)
        parity = rng.integers(0, 2, m)
        bits = rng.integers(0, 2, (m, k))
        bits[:, -1] = parity ^ np.bitwise_xor.reduce(bits[:, :-1], axis=1) \
            if k > 1 else parity
        guess_even = rng.random(m) < p_even_of(bits)
        correct += int((guess_even == (parity == 0)).sum())
        done += m
    return correct / trials


def helstrom_measurement_trials_dense(k: int, trials: int, rng: np.random.Generator) -> float:
    """Dense twin of `qpq.adversaries.helstrom_measurement_trials`.

    Builds the 2**k-dimensional product state of every trial and projects it
    onto the positive eigenspace of the dense rho_even - rho_odd; draws from
    the stream in the same order as the table route.
    """
    even, odd = parity_mixtures(k)
    w, u = np.linalg.eigh(even.matrix - odd.matrix)
    positive = u[:, w >= 0.0]
    return _integer_draw_trials(
        k, trials, rng, lambda bits: ((_parity_product_states(bits) @ positive) ** 2).sum(axis=1))


def helstrom_measurement_trials_integers(k: int, trials: int,
                                         rng: np.random.Generator) -> float:
    """Integer-draw twin of `qpq.adversaries.helstrom_measurement_trials`.

    Reads the weight table at the full row sum of each drawn string. Unlike
    the dense twin it runs at any k.
    """
    p_even = helstrom_parity_table(k)
    return _integer_draw_trials(k, trials, rng, lambda bits: p_even[bits.sum(axis=1)])


def xor_error_bruteforce(eps: float, k: int) -> float:
    """Convolution oracle for the error rate of a k-fold XOR of noisy bits."""
    dist = np.zeros(k + 1)
    dist[0] = 1.0
    for _ in range(k):
        nxt = np.zeros(k + 1)
        nxt[1:] += dist[:-1] * eps
        nxt += dist * (1.0 - eps)
        dist = nxt
    return float(dist[1::2].sum())


# The count fields of a `ProviderRounds`, in the order the round rules return them.
ROUND_FIELDS = ("conclusive", "bit_hits", "basis_hits", "p_c_hits")


def biased_round_fields(phi, basis, second):
    """The count fields each biased round adds to, as bool arrays in
    `ROUND_FIELDS` order, from Alice's basis and whether she saw its second
    member: her outcome and bit from the interpretation tables, his guess
    the maximum-likelihood bit."""
    ana = biased_analytics(phi)
    outcome = basis + 2 * second
    conclusive = CONCLUSIVE_TABLE[0, outcome]
    return (conclusive, conclusive & (BIT_TABLE[0, outcome] == ana.ml_bit),
            basis == (0 if ana.ml_bit == 1 else 1), conclusive)


def entangled_round_fields(mode, basis, second, reg_out, coin):
    """The count fields each register round adds to, as in
    `biased_round_fields`, from Alice's basis and second-member flag, his
    register outcome and his own coin (read only in the conclusiveness basis)."""
    outcome = basis + 2 * second
    conclusive = CONCLUSIVE_TABLE[0, outcome]
    if mode == "honest_basis":
        bob_bit = reg_out
        basis_guess = np.where(bob_bit == 1, 0, 1)
        p_c_hit = conclusive
    else:
        bob_bit = coin
        guess_conclusive = reg_out == 1
        p_c_hit = guess_conclusive == conclusive
        implied = np.where(bob_bit == 1, 0, 1)
        basis_guess = np.where(guess_conclusive, implied, 1 - implied)
    return (conclusive, conclusive & (bob_bit == BIT_TABLE[0, outcome]),
            basis_guess == basis, p_c_hit)


def biased_round_trials_per_trial(phi, trials, rng):
    """Per-trial twin of `qpq.adversaries.biased_round_trials`.

    Draws every round, Alice's basis and then whether she sees its second
    member, and adds up `biased_round_fields`.
    """
    ana = biased_analytics(phi)
    basis = rng.integers(0, 2, trials)
    second = rng.random(trials) < _biased_second_prob(phi)[basis]
    counts = [int(f.sum()) for f in biased_round_fields(phi, basis, second)]
    return ProviderRounds(trials, *counts, p_c=ana.p_c, p_b=ana.p_b,
                          p_c_sigma_rate=max(counts[0] / trials, 1e-9))


def entangled_round_trials_per_trial(mode, trials, rng):
    """Per-trial twin of `qpq.adversaries.entangled_round_trials`."""
    basis = rng.integers(0, 2, trials)
    second = rng.random(trials) < ER_SECOND_PROB[basis]
    outcome = basis + 2 * second
    reg_out = (rng.random(trials) < ER_REGISTER_ONE_PROB[mode][outcome]).astype(np.int8)
    coin = (rng.integers(0, 2, trials) if mode == "conclusiveness_basis"
            else np.zeros(trials, dtype=np.int64))
    counts = [int(f.sum()) for f in entangled_round_fields(mode, basis, second, reg_out, coin)]
    if mode == "honest_basis":
        p_c, p_b = 0.25, 1.0
    else:
        p_c, p_b = conclusiveness_guess_bound(), 0.5

    per_outcome = np.bincount(outcome, minlength=4).astype(float)
    outers = np.einsum("oi,oj->oij", ER_REGISTERS, ER_REGISTERS)
    conc_sel = CONCLUSIVE_TABLE[0]
    rho_c = np.einsum("o,oij->ij", per_outcome * conc_sel, outers) / per_outcome[conc_sel].sum()
    rho_n = np.einsum("o,oij->ij", per_outcome * ~conc_sel, outers) / per_outcome[~conc_sel].sum()

    return ProviderRounds(trials, *counts, p_c=p_c, p_b=p_b, p_c_sigma_rate=0.5,
                          rho_conclusive=rho_c, rho_inconclusive=rho_n)


def _enumerated_law(prob, cell, fields, cells):
    """Sum the chances of the enumerated rounds per cell and per count field."""
    law = np.bincount(cell, weights=prob, minlength=cells)
    return law, {name: math.fsum(prob[f]) for name, f in zip(ROUND_FIELDS, fields)}


def biased_round_law(phi):
    """The per-round law of the biased battery, enumerated over Alice's basis b
    and whether she sees its second member, chance second_prob[b]: the chance
    of each outcome UP, RIGHT, DOWN, LEFT, and of each count field's event."""
    basis, second = np.array(list(itertools.product((0, 1), (0, 1)))).T
    p = _biased_second_prob(phi)[basis]
    prob = 0.5 * np.where(second == 1, p, 1.0 - p)
    return _enumerated_law(prob, basis + 2 * second,
                           biased_round_fields(phi, basis, second), 4)


def entangled_round_law(mode):
    """The per-round law of the register battery, enumerated as in
    `biased_round_law` and over his register outcome and his own coin: the
    chance of each code, outcome + 4 * register + 8 * coin, and of each
    count field's event. The honest basis draws no coin; it reads as 0."""
    coins = (0, 1) if mode == "conclusiveness_basis" else (0,)
    basis, second, reg_out, coin = np.array(
        list(itertools.product((0, 1), (0, 1), (0, 1), coins))).T
    outcome = basis + 2 * second
    p_second = ER_SECOND_PROB[basis]
    p_one = ER_REGISTER_ONE_PROB[mode][outcome]
    prob = (0.5 * np.where(second == 1, p_second, 1.0 - p_second)
            * np.where(reg_out == 1, p_one, 1.0 - p_one) / len(coins))
    return _enumerated_law(prob, outcome + 4 * reg_out + 8 * coin,
                           entangled_round_fields(mode, basis, second, reg_out, coin), 16)
