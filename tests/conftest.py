"""Shared helpers: random states, brute-force twins used as oracles, run tallies."""

import itertools
import math

import numpy as np
import pytest

from qpq.adversaries import (
    ER_REGISTER_ONE_PROB,
    ER_REGISTERS,
    ER_SECOND_PROB,
    HELSTROM_BATCH,
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
    run_protocol,
)
from qpq.quantum import (
    DensityMatrix,
    ParityBounds,
    PureState,
    SargSymbol,
    fidelity,
    helstrom_guess,
    parity_mixtures,
    sarg_state,
    trace_distance,
)


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


def whole_array_respond(rounds: BobRounds, kept: np.ndarray, config: ProtocolConfig,
                        rng: np.random.Generator) -> AliceRecords:
    """HonestAlice.respond in one pass over whole arrays: the chunked engine's oracle.

    It draws the same bytes and float coins in the same order, gathers the
    packed table with one full-length index, unpacks it with whole-array
    masks and packs the fields again through `AliceRecords.from_fields`.
    """
    draw = protocol._byte_draws(rng, kept.size)
    basis = (draw >> 1) & 1
    if config.announcement == "sarg":
        announced = rounds.pair[kept].astype(np.uint8)
    else:
        announced = rounds.sent[kept].astype(np.uint8) & 1
    kind = rounds.kind[kept].astype(np.uint8)
    lookup = protocol._fair_lookup(rounds.kind_table, config.announcement)
    if lookup is not None:
        index = (kind << 4) | (announced << 2) | (draw & 3)
    else:
        second = rng.random(kept.size) < rounds.kind_table[kind, basis]
        lookup = protocol._interpretation_table(config.announcement).ravel()
        index = (announced << 2) | (basis << 1) | second
    packed = lookup[index]
    return AliceRecords.from_fields(basis=basis.view(np.int8), outcome=(packed & 3).view(np.int8),
                                    conclusive=(packed & 4) != 0,
                                    bit=(packed >> 3).view(np.int8) - 1)


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
    is involved. Returns an mpmath number. mpmath is not a declared
    dependency, so it is imported here and callers guard with
    `pytest.importorskip("mpmath")`.
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


def helstrom_measurement_trials_dense(k: int, trials: int, rng: np.random.Generator) -> float:
    """Dense twin of `qpq.adversaries.helstrom_measurement_trials`.

    Builds the 2**k-dimensional product state of every trial and projects it
    onto the positive eigenspace of the dense rho_even - rho_odd; draws from
    the stream in the same order as the table route.
    """
    even, odd = parity_mixtures(k)
    w, u = np.linalg.eigh(even.matrix - odd.matrix)
    positive = u[:, w >= 0.0]
    correct = 0
    done = 0
    while done < trials:
        m = min(HELSTROM_BATCH, trials - done)
        parity = rng.integers(0, 2, m)
        bits = rng.integers(0, 2, (m, k))
        bits[:, -1] = parity ^ np.bitwise_xor.reduce(bits[:, :-1], axis=1) \
            if k > 1 else parity
        p_even_outcome = ((_parity_product_states(bits) @ positive) ** 2).sum(axis=1)
        guess_even = rng.random(m) < p_even_outcome
        correct += int((guess_even == (parity == 0)).sum())
        done += m
    return correct / trials


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


def biased_round_trials_per_trial(phi, trials, rng):
    """Per-trial twin of `qpq.adversaries.biased_round_trials`.

    Looks up Alice's conclusiveness and bit for every round in the
    interpretation tables; draws from the stream in the same order as the
    outcome-count route.
    """
    ana = biased_analytics(phi)
    basis = rng.integers(0, 2, trials)
    second = rng.random(trials) < _biased_second_prob(phi)[basis]
    outcome = basis + 2 * second
    conclusive = CONCLUSIVE_TABLE[0, outcome]
    alice_bit = BIT_TABLE[0, outcome]
    n_c = int(conclusive.sum())
    basis_guess = 0 if ana.ml_bit == 1 else 1
    return ProviderRounds(trials=trials, conclusive=n_c,
                          bit_hits=int((alice_bit[conclusive] == ana.ml_bit).sum()),
                          basis_hits=int((basis == basis_guess).sum()),
                          p_c_hits=n_c, p_c=ana.p_c, p_b=ana.p_b,
                          p_c_sigma_rate=max(n_c / trials, 1e-9))


def entangled_round_trials_per_trial(mode, trials, rng):
    """Per-trial twin of `qpq.adversaries.entangled_round_trials`."""
    basis = rng.integers(0, 2, trials)
    second = rng.random(trials) < ER_SECOND_PROB[basis]
    outcome = basis + 2 * second
    conclusive = CONCLUSIVE_TABLE[0, outcome]
    alice_bit = BIT_TABLE[0, outcome]

    reg_out = (rng.random(trials) < ER_REGISTER_ONE_PROB[mode][outcome]).astype(np.int8)
    if mode == "honest_basis":
        bob_bit = reg_out
        basis_guess = np.where(bob_bit == 1, 0, 1)
        p_c_hits, p_c, p_b = int(conclusive.sum()), 0.25, 1.0
    else:
        bob_bit = rng.integers(0, 2, trials).astype(np.int8)
        guess_conclusive = reg_out == 1
        p_c_hits = int((guess_conclusive == conclusive).sum())
        p_c, p_b = conclusiveness_guess_bound(), 0.5
        implied = np.where(bob_bit == 1, 0, 1)
        basis_guess = np.where(guess_conclusive, implied, 1 - implied)

    bit_hits = int((bob_bit[conclusive] == alice_bit[conclusive]).sum())

    counts = np.bincount(outcome, minlength=4).astype(float)
    outers = np.einsum("oi,oj->oij", ER_REGISTERS, ER_REGISTERS)
    conc_sel = CONCLUSIVE_TABLE[0]
    rho_c = np.einsum("o,oij->ij", counts * conc_sel, outers) / counts[conc_sel].sum()
    rho_n = np.einsum("o,oij->ij", counts * ~conc_sel, outers) / counts[~conc_sel].sum()

    return ProviderRounds(trials=trials, conclusive=int(conclusive.sum()), bit_hits=bit_hits,
                          basis_hits=int((basis_guess == basis).sum()), p_c_hits=p_c_hits,
                          p_c=p_c, p_b=p_b, p_c_sigma_rate=0.5,
                          rho_conclusive=rho_c, rho_inconclusive=rho_n)
