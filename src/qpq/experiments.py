"""Analytic key statistics, Monte Carlo drivers, and report assembly.

Every number the simulator claims is produced twice where possible: a
closed-form value and a seeded empirical estimate with a 99% interval. The
drivers here tie the protocol engine and the attack strategies together
into reproducible experiments.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import stats
from .stats import ExperimentReport
from .adversaries import (
    USD_SUCCESS,
    Bb84MemoryAlice,
    UsdAlice,
    alice_joint_helstrom,
    helstrom_measurement_trials,
    usd_success_trials,
)
from .protocol import (
    CHUNK,
    HonestAlice,
    ProtocolConfig,
    RestartLimitExceeded,
    _attempts,
    _fair_bits,
    _strategies,
    decrypt_bit,
    encrypt_database,
    query_shift,
    run_protocol,
)
from .quantum import K_MAX, parity_bounds
# bench/tests/test_bench.py traces through this binding.
from .quantum import parity_mixtures  # noqa: F401


@dataclass(frozen=True)
class KeyStats:
    """Expected known-bit count and restart probability for one (N, k) choice."""

    n_bar: float
    p0: float
    poisson_approx: float


def key_stats(n: int, k: int, p_conclusive: float = 0.25) -> KeyStats:
    """Closed-form key statistics after the k-fold XOR reduction.

    A final key bit is known only when all k contributing rounds were
    conclusive, so n_bar = n * p**k known bits on average and the whole
    attempt fails with probability p0 = (1 - p**k)**n, approximately
    exp(-n_bar) for large n.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got {n}, {k}")
    if not 0.0 < p_conclusive <= 1.0:
        raise ValueError(f"conclusive probability must lie in (0, 1], got {p_conclusive}")
    p_known = p_conclusive ** k
    n_bar = n * p_known
    p0 = (1.0 - p_known) ** n
    return KeyStats(n_bar=n_bar, p0=p0, poisson_approx=math.exp(-n_bar))


class Table1Row(NamedTuple):
    n: int
    k: int
    stats: KeyStats
    p0_display: str
    n_bar_display: str


# Reference working points for six database sizes; the display strings are
# the acceptance targets the analytic values must round to.
TABLE1_REFERENCE: tuple[tuple[int, int, str, str], ...] = (
    (10**3, 4, "0.020", "3.91"),
    (5 * 10**3, 5, "0.008", "4.88"),
    (10**4, 6, "0.087", "2.44"),
    (5 * 10**4, 7, "0.047", "3.05"),
    (10**5, 7, "0.002", "6.10"),
    (10**6, 9, "0.022", "3.81"),
)


def table1() -> list[Table1Row]:
    """Key statistics for the six reference (N, k) working points."""
    rows = []
    for n, k, _, _ in TABLE1_REFERENCE:
        ks = key_stats(n, k)
        rows.append(Table1Row(n=n, k=k, stats=ks,
                              p0_display=f"{ks.p0:.3f}",
                              n_bar_display=f"{ks.n_bar:.2f}"))
    return rows


def table1_matches_reference() -> bool:
    return all(row.p0_display == ref[2] and row.n_bar_display == ref[3]
               for row, ref in zip(table1(), TABLE1_REFERENCE))


# --------------------------------------------------------------------------
# Monte Carlo driver
# --------------------------------------------------------------------------

class TrialResult(NamedTuple):
    success: bool
    restarted: bool
    first_known: int
    final_known: int
    known_mismatches: int
    conclusive_total: int
    kept_total: int
    retrieved_correct: bool


def _trial_results(config: ProtocolConfig, alice, bob, trials: range) -> Iterator[TrialResult]:
    """One `TrialResult` per trial t of `trials`, in order, as one
    `run_protocol` call on the stream `[seed, t]` gives it, after t's
    database (one byte draw's top bits, as `_fair_bits` draws them) and
    target. One `_seeding.streams` call makes every stream.

    `_attempts` makes the first attempts of each CHUNK // (n * k) trials
    (at least one) on their streams as one batch, and its record is tallied
    as whole arrays: each attempt's known count and known-bit mismatches.
    A trial whose first attempt knows a bit then draws its query place,
    encrypts and decrypts; one whose first attempt knows no bit goes on
    along that stream through `run_protocol` with one restart fewer; with
    no restart left it fails.
    """
    from ._seeding import streams

    need = config.raw_length
    rngs = streams(config.seed, trials)
    while batch := list(islice(rngs, max(1, CHUNK // need))):
        inputs = []
        for rng in batch:
            database = _fair_bits(rng, config.n, np.uint8)
            inputs.append((rng, database, int(rng.integers(config.n))))
        keys = _attempts(config, alice, bob, batch)
        known = np.bincount(keys.rows, minlength=len(batch))
        wrong = np.bincount(keys.rows[keys.bits != keys.bob_keys[keys.rows, keys.cols]],
                            minlength=len(batch))
        firsts = zip(known.tolist(), (np.cumsum(known) - known).tolist(), wrong.tolist(),
                     keys.conclusive.tolist())
        for t, ((rng, database, target), (first, lo, mismatches, conclusive)) in enumerate(
                zip(inputs, firsts)):
            final = first
            try:
                if first:
                    place, shift = query_shift(keys.cols[lo:lo + first], target, config.n, rng)
                    ciphertext = encrypt_database(database, keys.bob_keys[t], shift)
                    retrieved = decrypt_bit(ciphertext, target, keys.bits[lo + place])
                    later = []
                elif config.max_restarts:
                    fewer = dataclasses.replace(config, max_restarts=config.max_restarts - 1)
                    run = run_protocol(fewer, database, target, alice=alice, bob=bob, rng=rng)
                    final, mismatches = run.key.known.size, len(run.key.mismatched_indices())
                    retrieved, later = run.retrieved_bit, run.attempt_conclusive_counts
                else:  # no restart left: the trial fails after its first attempt
                    raise RestartLimitExceeded([])
            except RestartLimitExceeded as exc:
                yield TrialResult(False, True, 0, 0, 0, conclusive + sum(exc.conclusive_counts),
                                  need * (exc.attempts + 1), False)
                continue
            yield TrialResult(
                success=True, restarted=not first, first_known=first, final_known=final,
                known_mismatches=mismatches, conclusive_total=conclusive + sum(later),
                kept_total=need * (len(later) + 1),
                retrieved_correct=retrieved == int(database[target]))


def _trial_tallies(config: ProtocolConfig, alice, bob, size: int,
                   trials: range) -> list[tuple[np.ndarray, np.ndarray]]:
    """The `_trial_results` of `trials`, `size` at a time: per group, their
    first-attempt known counts and the sum of each `TrialResult` field."""
    results = iter(_trial_results(config, alice, bob, trials))
    tallies = []
    while group := list(islice(results, size)):
        tallies.append((np.array([r.first_known for r in group], dtype=np.int64),
                        np.array(group, dtype=np.int64).sum(axis=0)))
    return tallies


def _worker_count(jobs: int, chunks: int, cpus: int | None = None) -> int:
    """Processes worth starting: min(jobs, cores, chunks), at least one.

    `cpus` defaults to `os.cpu_count()`. Raises ValueError for jobs < 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cpus = cpus if cpus is not None else os.cpu_count() or 1
    return max(1, min(jobs, cpus, chunks))


def _map_trials(fn, args: tuple, count: int, jobs: int) -> list:
    """The lists fn(*args, span) joined, for range(count) split into one
    span per process, at most `_worker_count` of them, in order.

    Every index seeds its own stream, so the result does not depend on jobs.
    """
    workers = _worker_count(jobs, count)
    if workers == 1:
        return fn(*args, range(count))
    bounds = np.linspace(0, count, workers + 1, dtype=int).tolist()
    spans = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    # Imported here: `concurrent.futures` loads `multiprocessing` and more,
    # which a single-process run never needs.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [result for part in pool.map(partial(fn, *args), spans) for result in part]


def monte_carlo(config: ProtocolConfig, alice=None, bob=None, trials: int = 2000,
                jobs: int = 1) -> ExperimentReport:
    """Run seeded protocol trials and compare the statistics to the closed forms.

    The closed forms are the cheating side's `Law` (else the honest one); a
    `known_wrong` of 0 adds the exact retrieval and known-bit soundness checks.
    Each trial owns the stream derived from (config.seed, trial index), so
    results are identical for any job count and batching: `_trial_results`
    makes the first attempts of CHUNK // (n * k) trials as one batch and
    tallies its keys as arrays, building no `ObliviousKey` but for a trial
    that restarts, and `_trial_tallies` keeps only the first-attempt known
    counts and the field sums of each such group. Known-bit
    statistics are taken from the first attempt of each run (the
    unconditioned distribution); restart exhaustion counts as a failed trial,
    not a crash. The dispersion interval needs at least two trials; cheating
    on both sides raises ValueError, as in `run_protocol`, before any draw.
    """
    stats.require_size("trials", trials, 2)
    start = time.perf_counter()
    alice, bob = _strategies(alice, bob)
    size = max(1, CHUNK // config.raw_length)
    tallies = _map_trials(_trial_tallies, (config, alice, bob, size), trials, jobs)
    first_known = np.concatenate([known for known, _ in tallies]).astype(float)
    # Field sums; a failed trial counts no known bit, mismatch or correct
    # retrieval, so the sums over the successes are the sums over all trials.
    totals = TrialResult._make(np.sum([sums for _, sums in tallies], axis=0).tolist())
    restarted = totals.restarted
    kept_total = totals.kept_total
    conclusive_total = totals.conclusive_total
    successes = totals.success
    known_total = totals.final_known
    mismatch_total = totals.known_mismatches

    strategy = bob if isinstance(alice, HonestAlice) else alice
    p_conclusive, known_wrong = strategy.law(config)
    analytic: dict = {}
    empirical: dict = {}
    ci99: dict = {}
    passed: dict = {}

    known_mean, known_hw = stats.mean_ci(first_known)
    empirical["known_mean"] = known_mean
    ci99["known_mean"] = known_hw
    empirical["restart_fraction"] = restarted / trials
    ci99["restart_fraction"] = stats.rate_ci(restarted, trials)[1]
    conc_rate = conclusive_total / kept_total
    empirical["conclusive_rate"] = conc_rate
    ci99["conclusive_rate"] = stats.z_value(0.99) * stats.binomial_sigma(
        p_conclusive, kept_total)

    ks = key_stats(config.n, config.k, p_conclusive)
    analytic["known_mean"] = ks.n_bar
    analytic["restart_fraction"] = ks.p0
    analytic["conclusive_rate"] = p_conclusive
    if known_hw > 0.0:
        passed["known_mean"] = abs(known_mean - ks.n_bar) <= known_hw
    else:
        # Counts with no spread give a zero-width interval, so they are judged
        # exactly: the trials whose first attempt knew a bit against
        # Binomial(trials, 1 - p0), and a common count above 0 against n_bar.
        knew = int(np.count_nonzero(first_known))
        passed["known_mean"] = (stats.binomial_test(knew, trials, 1.0 - ks.p0)
                                and known_mean in (0.0, ks.n_bar))
    # Exact two-sided binomial test: a Wilson interval misses a tiny p0 after one restart.
    passed["restart_fraction"] = stats.binomial_test(restarted, trials, ks.p0)
    sigma3 = 3.0 * stats.binomial_sigma(p_conclusive, kept_total)
    passed["conclusive_rate"] = abs(conc_rate - p_conclusive) <= sigma3
    if 0.0 < ks.n_bar and first_known.mean() > 0.0 and p_conclusive < 1.0:
        # First-attempt counts are Binomial(n, p_c**k), whose ratio is 1 - p_c**k.
        expected_ratio = 1.0 - p_conclusive ** config.k
        ratio, ratio_hw = stats.dispersion_ci(first_known, expected_ratio)
        empirical["known_dispersion"] = ratio
        ci99["known_dispersion"] = ratio_hw
        analytic["known_dispersion"] = expected_ratio
        passed["known_dispersion"] = abs(ratio - expected_ratio) <= ratio_hw

    if successes:
        correct = totals.retrieved_correct
        empirical["retrieval_correct_rate"] = correct / successes
        if known_wrong == 0.0:
            analytic["retrieval_correct_rate"] = 1.0
            passed["retrieval_correct"] = correct == successes
            passed["known_bits_sound"] = mismatch_total == 0
        if known_total:
            empirical["known_mismatch_rate"] = mismatch_total / known_total

    return ExperimentReport(
        experiment="monte_carlo",
        params={"config": config.to_dict(), "trials": trials,
                "alice": alice.kind, "bob": bob.kind, **dataclasses.asdict(strategy)},
        analytic=analytic, empirical=empirical, ci99=ci99, passed=passed,
        extra={"successes": successes, "failures": trials - successes,
               "known_bits_total": known_total},
        runtime_s=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------
# discrimination-bound curve
# --------------------------------------------------------------------------

class CurvePoint(NamedTuple):
    k: int
    bound: float


def usd_curve(k_max: int = 10) -> list[CurvePoint]:
    """Joint unambiguous-discrimination bound 1 - F per folding depth k."""
    if not 1 <= k_max <= K_MAX:
        raise ValueError(f"k_max must lie in 1..{K_MAX}, got {k_max}")
    return [CurvePoint(k=k, bound=1.0 - parity_bounds(k).fidelity)
            for k in range(1, k_max + 1)]


def usd_curve_experiment(k_max: int = 10) -> ExperimentReport:
    """Curve report with the bound checks the values actually satisfy.

    The bound is non-increasing in k and drops strictly at every step from
    even to odd k; adjacent (odd, even) pairs are exactly equal, so no
    strict-decrease claim is made across those steps.
    """
    start = time.perf_counter()
    points = usd_curve(k_max)
    bounds = [p.bound for p in points]
    k1_expected = 1.0 - 1.0 / math.sqrt(2.0)
    non_increasing = all(b - a <= 1e-9 for a, b in zip(bounds, bounds[1:]))
    strict_at_odd = all(bounds[i] < bounds[i - 1] - 1e-9
                        for i in range(2, len(bounds), 2))
    return ExperimentReport(
        experiment="usd_curve",
        params={"k_max": k_max},
        analytic={"k1_bound": k1_expected},
        empirical={"k1_bound": bounds[0]},
        passed={"k1_value": abs(bounds[0] - k1_expected) <= 1e-9,
                "non_increasing": non_increasing,
                "strict_decrease_even_to_odd": strict_at_odd},
        extra={"points": [[p.k, p.bound] for p in points]},
        runtime_s=time.perf_counter() - start,
    )


def usd_attack_experiment(n: int = 50_000, k: int = 7, trials: int = 600,
                          qubit_samples: int = 10**6, seed: int = 0,
                          jobs: int = 1) -> ExperimentReport:
    """Perfect-memory discrimination attack: per-qubit rate plus full runs."""
    stats.require_size("trials", trials, 2)
    config = ProtocolConfig(n=n, k=k, seed=seed)
    start = time.perf_counter()
    rng = np.random.default_rng([seed, 10**6])
    hits = int(usd_success_trials(qubit_samples, rng).sum())
    rate, _ = stats.rate_ci(hits, qubit_samples)
    sigma3 = 3.0 * stats.binomial_sigma(USD_SUCCESS, qubit_samples)
    mc = monte_carlo(config, alice=UsdAlice(), trials=trials, jobs=jobs)
    return ExperimentReport(
        experiment="usd_attack",
        params={"n": n, "k": k, "trials": trials,
                "qubit_samples": qubit_samples, "seed": seed},
        analytic={"qubit_success_rate": USD_SUCCESS,
                  **{f"run_{key}": v for key, v in mc.analytic.items()}},
        empirical={"qubit_success_rate": rate,
                   **{f"run_{key}": v for key, v in mc.empirical.items()}},
        ci99={"qubit_success_rate": sigma3,
              **{f"run_{key}": v for key, v in mc.ci99.items()}},
        passed={"qubit_success_rate": abs(rate - USD_SUCCESS) <= sigma3,
                **{f"run_{key}": v for key, v in mc.passed.items()}},
        runtime_s=time.perf_counter() - start,
    )


# Depths 1..AGREEMENT_K_MAX at which `helstrom_experiment` compares its routes.
AGREEMENT_K_MAX = 10


def helstrom_experiment(k: int = 7, trials: int = 100_000, seed: int = 0) -> ExperimentReport:
    """Joint minimum-error attack: closed form, `parity_bounds` value, simulated rounds.

    Both "routes" evaluate 1/2 (1 + 2**(-k/2)), so `max_route_difference` is 0
    by construction; the dense check lives in `TestJointHelstrom`/`TestParityBlocks`.
    """
    if not 1 <= k <= K_MAX:
        raise ValueError(f"k must lie in 1..{K_MAX}, got {k}")
    start = time.perf_counter()
    worst = 0.0
    for kk in range(1, AGREEMENT_K_MAX + 1):
        value = alice_joint_helstrom(kk)
        worst = max(worst, abs(value.closed_form - value.matrix_value))
    target = alice_joint_helstrom(k)
    rng = np.random.default_rng([seed, 42])
    emp = helstrom_measurement_trials(k, trials, rng)
    _, hw = stats.rate_ci(round(emp * trials), trials)
    return ExperimentReport(
        experiment="helstrom_attack",
        params={"k": k, "trials": trials, "seed": seed,
                "agreement_k_max": AGREEMENT_K_MAX},
        analytic={"guess_rate": target.closed_form},
        empirical={"guess_rate": emp,
                   "matrix_guess_rate": target.matrix_value},
        ci99={"guess_rate": hw},
        passed={"routes_agree_1e9": worst <= 1e-9,
                "guess_rate": abs(emp - target.closed_form) <= hw},
        extra={"max_route_difference": worst},
        runtime_s=time.perf_counter() - start,
    )


def bb84_attack_experiment(n: int = 1000, k: int = 4, trials: int = 50,
                           seed: int = 0, jobs: int = 1) -> ExperimentReport:
    """Memory attack under basis announcements, with the pair-announcement contrast."""
    stats.require_size("trials", trials, 2)
    start = time.perf_counter()
    memory = monte_carlo(ProtocolConfig(n=n, k=k, seed=seed, announcement="bb84"),
                         alice=Bb84MemoryAlice(), trials=trials, jobs=jobs)
    contrast = monte_carlo(ProtocolConfig(n=n, k=k, seed=seed),
                           alice=Bb84MemoryAlice(), trials=trials, jobs=jobs)
    return ExperimentReport(
        experiment="bb84_memory_attack",
        params={"n": n, "k": k, "trials": trials, "seed": seed},
        analytic={"known_mean_bb84": float(n),
                  "known_mean_sarg": contrast.analytic["known_mean"]},
        empirical={"known_mean_sarg": contrast.empirical["known_mean"]},
        ci99={"known_mean_sarg": contrast.ci99["known_mean"]},
        passed={"whole_key_known": memory.extra["known_bits_total"] == n * trials,
                "error_free": memory.passed["known_bits_sound"],
                "sarg_mode_degrades": contrast.passed["known_mean"]},
        runtime_s=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------
# multi-string combining
# --------------------------------------------------------------------------

def combine_known_sets(known_sets: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """Greedy shift combination of known-index sets from independent keys.

    Each string is cyclically shifted so that its first known index lands at
    position 0; a position of the combined key is known only where every
    shifted string is known. Raises ValueError if there is no input set or
    any input set is empty.
    """
    if len(known_sets) == 0:
        raise ValueError("known_sets is empty: no known set to combine")
    aligned: list[np.ndarray] = []
    for idx, known in enumerate(known_sets):
        arr = np.unique(np.asarray(known, dtype=np.int64))
        if arr.size == 0:
            raise ValueError(f"input string {idx} has an empty known set")
        if arr[0] < 0 or arr[-1] >= n:
            raise ValueError(f"input string {idx} holds indices outside [0, {n})")
        aligned.append(np.sort((arr - arr[0]) % n))
    combined = aligned[0]
    for arr in aligned[1:]:
        combined = np.intersect1d(combined, arr, assume_unique=True)
    return combined


def _combine_trials(config: ProtocolConfig, m: int, trials: range) -> list[int]:
    """The combined known-bit count of each trial t of `trials`: m keys made
    one after another on the stream `[seed, t]`."""
    from ._seeding import streams

    database = np.zeros(config.n, dtype=np.uint8)
    counts = []
    for rng in streams(config.seed, trials):
        sets = [run_protocol(config, database, 0, rng=rng).key.known for _ in range(m)]
        counts.append(int(combine_known_sets(sets, config.n).size))
    return counts


def multi_string_combine(m: int, n: int, k: int, trials: int = 200,
                         seed: int = 0, jobs: int = 1) -> ExperimentReport:
    """Distribution of the combined known-bit count over seeded trials.

    Generates m independent keys per trial with the honest protocol
    (restarting empty attempts) and combines them with the greedy shift
    rule. Reports the count distribution and the exactly-one probability.
    """
    stats.require_size("m", m)
    stats.require_size("trials", trials)
    start = time.perf_counter()
    config = ProtocolConfig(n=n, k=k, seed=seed, max_restarts=200)
    counts = _map_trials(_combine_trials, (config, m), trials, jobs)

    values, freqs = np.unique(np.asarray(counts), return_counts=True)
    distribution = {int(v): int(f) for v, f in zip(values, freqs)}
    exactly_one = distribution.get(1, 0) / trials
    _, hw1 = stats.rate_ci(distribution.get(1, 0), trials)
    return ExperimentReport(
        experiment="multi_string_combine",
        params={"m": m, "n": n, "k": k, "trials": trials, "seed": seed},
        empirical={"p_exactly_one": exactly_one, "mean_known": float(np.mean(counts)),
                   "min_known": int(min(counts))},
        ci99={"p_exactly_one": hw1},
        passed={"at_least_one_always": min(counts) >= 1},
        extra={"distribution": distribution},
        runtime_s=time.perf_counter() - start,
    )
