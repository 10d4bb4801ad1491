"""Metric arithmetic: the tail-percentile rule and the per-layer metrics.

Per-layer values that count calls, busy time, self time or work are given
per traced op, so they compare across runs that complete different numbers
of ops in the same time.
"""

from __future__ import annotations

import statistics
from collections import Counter

from tracing import busy_ns, self_times

TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1

ADVERSARY_SPANS = (
    "UsdAlice.respond", "Bb84MemoryAlice.respond", "BiasedBob.rounds", "EntangledBob.key_bits",
    "biased_round_trials", "entangled_round_trials", "no_signaling_audit",
    "helstrom_measurement_trials", "alice_joint_helstrom",
)


def tail_percentile(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least `TAIL_BEYOND` samples above it.

    Returns (value, level): the value is the sorted sample at index
    n - 1 - TAIL_BEYOND, and the level is the share of samples at or below
    it. Needs at least `MIN_OPS` samples.
    """
    n = len(latencies)
    if n < MIN_OPS:
        raise ValueError(f"the tail needs at least {MIN_OPS} samples, got {n}")
    return sorted(latencies)[n - 1 - TAIL_BEYOND], (n - TAIL_BEYOND) / n


def end_to_end(latencies: list[float], completed: int,
               loop_s: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of one closed-loop run; set-up and memory come from probes.

    `latencies` and `loop_s` (the loop's duration) are in the same seconds,
    which the benchmark scales to the reference machine speed.
    """
    tail, _ = tail_percentile(latencies)
    return {
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "ops_per_s": (completed / loop_s, "1/s"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], counters: Counter, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced ops, keyed by metric name."""
    selfs = self_times(spans)
    calls: Counter = Counter(span[0] for span in spans)
    self_ns: Counter = Counter()
    for span, own in zip(spans, selfs):
        self_ns[span[0]] += own

    def busy(match) -> float:
        return busy_ns(spans, match) / 1e9

    def named(name):
        return lambda s: s == name

    out: dict[str, tuple[float, str]] = {}

    def per_op(key: str, value: float, unit: str) -> None:
        out[key] = (_ratio(value, ops), unit)

    for fn in ("parity_mixtures", "fidelity", "helstrom_guess"):
        name = f"quantum.{fn}"
        per_op(f"{name}.calls", calls[name], "count/op")
        per_op(f"{name}.busy_s", busy(named(name)), "s/op")
    per_op("quantum.dense_bytes", counters["quantum.dense_bytes"], "B/op")
    k10 = [s[2] - s[1] for s in spans if s[0] == "quantum.parity_mixtures" and s[5] == {"k": 10}]
    f1024 = [s[2] - s[1] for s in spans if s[0] == "quantum.fidelity" and s[5] == {"dim": 1024}]
    route = (statistics.mean(k10) + statistics.mean(f1024)) / 1e9 if k10 and f1024 else 0.0
    out["quantum.dense_route_k10_s"] = (route, "s")

    run = "protocol.run_protocol"
    per_op(f"{run}.calls", calls[run], "count/op")
    run_busy = busy(named(run))
    per_op(f"{run}.busy_s", run_busy, "s/op")
    per_op(f"{run}.self_s", self_ns[run] / 1e9, "s/op")
    for phase, suffix in (("prepare", ".rounds"), ("measure", ".respond"),
                          ("key_bits", ".key_bits")):
        per_op(f"protocol.{phase}.busy_s", busy(lambda s, x=suffix: s.endswith(x)), "s/op")
    for fn in ("encrypt_database", "query_shift"):
        per_op(f"protocol.{fn}.busy_s", busy(named(f"protocol.{fn}")), "s/op")
    for count in ("attempts", "restarts", "restart_limit_exceeded", "qubits_prepared",
                  "qubits_detected", "conclusive"):
        per_op(f"protocol.{count}", counters[f"protocol.{count}"], "count/op")
    detected = counters["protocol.qubits_detected"]
    out["protocol.detected_ratio"] = (_ratio(detected, counters["protocol.qubits_prepared"]), "ratio")
    out["protocol.conclusive_ratio"] = (_ratio(counters["protocol.conclusive"], detected), "ratio")
    out["protocol.ns_per_qubit"] = (_ratio(run_busy * 1e9, detected), "ns")

    for short in ADVERSARY_SPANS:
        name = f"adversaries.{short}"
        per_op(f"{name}.calls", calls[name], "count/op")
        per_op(f"{name}.busy_s", busy(named(name)), "s/op")
    per_op("adversaries.rounds_simulated", counters["adversaries.rounds_simulated"], "count/op")

    mc = "experiments.monte_carlo"
    per_op(f"{mc}.calls", calls[mc], "count/op")
    per_op(f"{mc}.busy_s", busy(named(mc)), "s/op")
    per_op(f"{mc}.self_s", self_ns[mc] / 1e9, "s/op")
    out["experiments.per_trial_overhead_s"] = (
        _ratio(self_ns[mc] / 1e9, counters["experiments.monte_carlo.trials"]), "s")
    msc = "experiments.multi_string_combine"
    per_op(f"{msc}.busy_s", busy(named(msc)), "s/op")
    per_op(f"{msc}.self_s", self_ns[msc] / 1e9, "s/op")
    for fn in ("usd_curve_experiment", "helstrom_experiment"):
        per_op(f"experiments.{fn}.busy_s", busy(named(f"experiments.{fn}")), "s/op")

    per_op("stats.calls", sum(c for name, c in calls.items() if name.startswith("stats.")),
           "count/op")
    per_op("stats.busy_s", busy(lambda s: s.startswith("stats.")), "s/op")
    return out
