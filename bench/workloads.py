"""The four benchmark workloads: inputs, one op, and the checks on its output.

Every input of op `i` comes from `numpy.random.default_rng([seed, i])`, so
the same workload seed gives the same databases, targets, generators and
angles. Drivers run with `jobs=1`: the benchmark is one closed-loop client.

Each op returns an `OpResult`. Its `failures` list names the exact
invariants the op broke; those make the op count as failed. Every other
99% verdict of the program's reports lands in `stat_checks`, which are
counted but never fail an op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from qpq import adversaries, experiments, protocol

QUERY_N, QUERY_K = 10**6, 9


@dataclass
class OpResult:
    failures: list[str] = field(default_factory=list)
    stat_checks: dict[str, bool] = field(default_factory=dict)
    qubits_detected: int = 0
    route_error: float | None = None


def _split_verdicts(result: OpResult, prefix: str, passed: dict, exact: tuple[str, ...]) -> None:
    """File each verdict of a report as an exact invariant or a 99% check."""
    for key in exact:
        if not passed.get(key, False):
            result.failures.append(f"{prefix}.{key}")
    for key, ok in passed.items():
        if key not in exact:
            result.stat_checks[f"{prefix}.{key}"] = bool(ok)


# --------------------------------------------------------------------------
# query-large
# --------------------------------------------------------------------------

def query_inputs(seed: int, index: int) -> dict:
    rng = np.random.default_rng([seed, index])
    database = rng.integers(0, 2, QUERY_N, dtype=np.uint8)
    target = int(rng.integers(QUERY_N))
    return {"database": database, "target": target, "rng": rng}


def query_op(database, target: int, rng) -> protocol.Transcript:
    config = protocol.ProtocolConfig(n=QUERY_N, k=QUERY_K)
    return protocol.run_protocol(config, database, target, rng=rng)


def check_transcript(t: protocol.Transcript, database: np.ndarray, target: int) -> list[str]:
    """Exact invariants of one honest private query."""
    n = t.config.n
    failures = []
    if t.retrieved_bit != int(database[target]):
        failures.append("retrieved_bit_wrong")
    if t.key.mismatched_indices():
        failures.append("known_bits_mismatch")
    if t.chosen_index not in t.key.alice_known:
        failures.append("chosen_index_unknown")
    if t.shift != (t.chosen_index - target) % n:
        failures.append("shift_inconsistent")
    return failures


def query_check(t: protocol.Transcript, inputs: dict) -> OpResult:
    config = t.config
    return OpResult(failures=check_transcript(t, inputs["database"], inputs["target"]),
                    qubits_detected=config.n * config.k * (t.restarts + 1))


# --------------------------------------------------------------------------
# mc-honest
# --------------------------------------------------------------------------

def mc_inputs(seed: int, index: int) -> dict:
    rng = np.random.default_rng([seed, index])
    return {"mc_seed": int(rng.integers(2**31)), "combine_seed": int(rng.integers(2**31))}


def mc_op(mc_seed: int, combine_seed: int):
    config = protocol.ProtocolConfig(n=1000, k=4, eta=0.5, seed=mc_seed)
    mc = experiments.monte_carlo(config, trials=200, jobs=1)
    combine = experiments.multi_string_combine(m=3, n=10**4, k=6, trials=20,
                                               seed=combine_seed, jobs=1)
    return mc, combine


def mc_check(out, inputs: dict) -> OpResult:
    mc, combine = out
    result = OpResult()
    _split_verdicts(result, "monte_carlo", mc.passed, ("retrieval_correct", "known_bits_sound"))
    _split_verdicts(result, "combine", combine.passed, ("at_least_one_always",))
    return result


# --------------------------------------------------------------------------
# audit
# --------------------------------------------------------------------------

def audit_inputs(seed: int, index: int) -> dict:
    rng = np.random.default_rng([seed, index])
    return {"phi": float(rng.uniform(0.0, math.pi)), "op_seed": int(rng.integers(2**31))}


def audit_op(phi: float, op_seed: int):
    usd = experiments.monte_carlo(protocol.ProtocolConfig(n=50_000, k=7, seed=op_seed),
                                  alice=adversaries.UsdAlice(), trials=40, jobs=1)
    biased = adversaries.biased_attack_report(phi, seed=op_seed)
    entangled = [adversaries.entangled_attack_report(mode, seed=op_seed)
                 for mode in adversaries.ER_MODES]
    audit = adversaries.no_signaling_audit(seed=op_seed)
    bb84 = experiments.bb84_attack_experiment(seed=op_seed)
    return usd, biased, entangled, audit, bb84


def audit_check(out, inputs: dict) -> OpResult:
    usd, biased, entangled, audit, bb84 = out
    result = OpResult()
    _split_verdicts(result, "usd", usd.passed, ("known_bits_sound", "retrieval_correct"))
    _split_verdicts(result, "bb84", bb84.passed, ("whole_key_known", "error_free"))
    analytic_reports = [biased, *entangled, *audit.reports]
    _split_verdicts(result, "biased", biased.passed, ("product_bound",))
    for rep in entangled:
        _split_verdicts(result, f"entangled.{rep.params['mode']}", rep.passed, ("product_bound",))
    if any(rep.analytic["product"] > 0.5 for rep in analytic_reports):
        result.failures.append("analytic_product_above_half")
    result.stat_checks["sweep.basis_guess_ok"] = audit.basis_guess_ok
    result.stat_checks["sweep.product_ok"] = audit.product_ok
    return result


# --------------------------------------------------------------------------
# bounds
# --------------------------------------------------------------------------

ROUTE_TOLERANCE = 1e-9


def bounds_inputs(seed: int, index: int) -> dict:
    rng = np.random.default_rng([seed, index])
    return {"op_seed": int(rng.integers(2**31))}


def bounds_op(op_seed: int):
    curve = experiments.usd_curve_experiment(10)
    helstrom = experiments.helstrom_experiment(k=7, trials=100_000, seed=op_seed)
    return curve, helstrom


def bounds_check(out, inputs: dict) -> OpResult:
    curve, helstrom = out
    result = OpResult()
    _split_verdicts(result, "usd_curve", curve.passed,
                    ("k1_value", "non_increasing", "strict_decrease_even_to_odd"))
    _split_verdicts(result, "helstrom", helstrom.passed, ("routes_agree_1e9",))
    k1_error = abs(curve.extra["points"][0][1] - (1.0 - 1.0 / math.sqrt(2.0)))
    result.route_error = max(helstrom.extra["max_route_difference"], k1_error)
    if not result.route_error <= ROUTE_TOLERANCE:
        result.failures.append("route_error_above_1e-9")
    return result


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why each was chosen."""

    name: str
    make_inputs: Callable[[int, int], dict]
    op: Callable
    check: Callable[[object, dict], OpResult]


WORKLOADS = {w.name: w for w in (
    Workload("query-large", query_inputs, query_op, query_check),
    Workload("mc-honest", mc_inputs, mc_op, mc_check),
    Workload("audit", audit_inputs, audit_op, audit_check),
    Workload("bounds", bounds_inputs, bounds_op, bounds_check),
)}
