"""The process that runs one workload's closed loop and reports on it.

Usage: python3 bench/worker.py ROOT WORKLOAD SEED SECONDS TRACE OUT_DIR

Prints one JSON line: the run's details and its metrics, as name ->
[value, unit]. `run.py` spawns it and adds the set-up and CLI metrics.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import metrics


def closed_loop(workload, seed: int, seconds: float, reference, tracer=None) -> dict:
    """Run ops back to back; with a tracer, trace the even-numbered ones.

    `reference()` times the reference kernel in the sidecar process; it
    runs before every op and once after the last. An op's `latency` covers
    the program call alone and its `cycle` the whole iteration (inputs,
    call, checks) apart from the kernel; the run's `scale`, from the median
    kernel timing, turns either into seconds at the reference machine
    speed.
    """
    from workloads import OpResult

    ops = []
    start = time.perf_counter()
    kernels = [reference()]
    index = 0
    while index < metrics.MIN_OPS or time.perf_counter() - start < seconds:
        cycle_start = time.perf_counter()
        inputs = workload.make_inputs(seed, index)
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.op = index
            tracer.install()
        op_start = time.perf_counter()
        try:
            out = workload.op(**inputs)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            latency = time.perf_counter() - op_start
            result = OpResult(failures=[f"raised {type(exc).__name__}: {exc}"])
            raised = True
        else:
            latency = time.perf_counter() - op_start
            raised = False
        finally:
            if traced:
                tracer.uninstall()
        if not raised:
            result = workload.check(out, inputs)
            del out
        del inputs
        cycle = time.perf_counter() - cycle_start
        kernels.append(reference())
        ops.append({"latency": latency, "cycle": cycle, "traced": traced, "raised": raised,
                    "result": result})
        index += 1
    return {"ops": ops, "wall_s": time.perf_counter() - start,
            "scale": calibrate.speed_scale(kernels)}


def details(name: str, seed: int, loop: dict) -> dict:
    """Counts, checks and unscaled figures of one run, for the line before the result."""
    ops = loop["ops"]
    results = [op["result"] for op in ops]
    failed = [r for r in results if r.failures]
    stat_checks = [ok for r in results for ok in r.stat_checks.values()]
    doc = {
        "workload": name, "seed": seed, "ops": len(ops),
        "tail_level": metrics.tail_percentile([op["latency"] for op in ops])[1],
        "failed": len(failed),
        "failed_frac": len(failed) / len(ops),
        "failures": sorted({f for r in failed for f in r.failures})[:10],
        "stat_checks_evaluated": len(stat_checks),
        "stat_checks_failed": stat_checks.count(False),
        "speed_factor": loop["scale"],
        "unscaled_latency_p50_s": statistics.median(op["latency"] for op in ops),
        "unscaled_ops_per_s": len(ops) / loop["wall_s"],
    }
    if name == "query-large":
        doc["qubits_per_s"] = sum(r.qubits_detected for r in results) / loop["wall_s"]
    if name == "bounds":
        doc["route_error_max"] = max(r.route_error for r in results if r.route_error is not None)
    return doc


def untraced_run(workload, seed: int, seconds: float, reference) -> dict:
    loop = closed_loop(workload, seed, seconds, reference)
    ops = loop["ops"]
    latencies = [op["latency"] * loop["scale"] for op in ops]
    busy = sum(op["cycle"] for op in ops) * loop["scale"]
    completed = sum(not op["raised"] for op in ops)
    doc = details(workload.name, seed, loop)
    doc["loop_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"details": doc, "metrics": metrics.end_to_end(latencies, completed, busy)}


def traced_run(workload, seed: int, seconds: float, reference, out_dir: Path) -> dict:
    import qpq.cli  # noqa: F401  (the CLI module is a layer the tracer patches too)
    from tracing import Tracer

    tracer = Tracer()
    tracer.plan()
    loop = closed_loop(workload, seed, seconds, reference, tracer)
    traced = [op["latency"] * loop["scale"] for op in loop["ops"] if op["traced"]]
    untraced = [op["latency"] * loop["scale"] for op in loop["ops"] if not op["traced"]]
    doc = details(workload.name, seed, loop)
    layer = metrics.layer_metrics(tracer.spans, tracer.counters, len(traced))
    for key in ("stat_checks_evaluated", "stat_checks_failed"):
        layer[f"experiments.{key}"] = (doc[key] / doc["ops"], "count/op")
    traced_rate = len(traced) / sum(traced)
    untraced_rate = len(untraced) / sum(untraced)
    layer["trace.ops_traced"] = (float(len(traced)), "count")
    layer["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    layer["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    layer["trace.overhead_ops_per_s"] = (untraced_rate - traced_rate, "1/s")
    tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.json.gz")
    return {"details": doc, "metrics": layer}


def main(argv: list[str]) -> None:
    root, name, seed, seconds, trace, out_dir = argv
    sys.path.insert(0, f"{root}/src")
    from workloads import WORKLOADS

    workload, seed, seconds = WORKLOADS[name], int(seed), float(seconds)
    with calibrate.Sidecar() as sidecar:
        if int(trace):
            result = traced_run(workload, seed, seconds, sidecar.time, Path(out_dir))
        else:
            result = untraced_run(workload, seed, seconds, sidecar.time)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
