"""Closed-loop benchmark of qpq, one workload per invocation.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: query-large, mc-honest, audit, bounds (see `workloads.py`).

One client drives the workload in a closed loop in a fresh process
(`worker.py`): op i+1 starts only when op i has finished, and ops start
until S seconds have passed and at least 11 ops ran, so the tail percentile
exists. A run of the ~1 s workloads completes only 11-13 ops, so there the
"tail" (the highest percentile with 10 ops above it) lies below the median;
its level is on the details line. Op i's inputs come from the seed and i
alone. Five fresh interpreters give set-up time (importing qpq and building
one op's inputs) and the first three of them peak RSS (running that one
op); each metric is their median. Times are scaled to a reference machine
speed by a kernel timed in a qpq-free sidecar process (`calibrate.py`).

With `--trace 0` the ops run untraced and the last stdout line carries the
end-to-end metrics. With `--trace 1` even-numbered ops run with the layer
wrappers of `tracing.py` installed and odd-numbered ops without, which
gives the tracing overhead; then `python -X importtime -c 'import qpq'`
gives the import time of qpq and the parts of it that numpy and
scipy.stats take, and the ten CLI subcommands run once at their defaults
in a temporary directory. The last line carries the per-layer metrics.
Spans go to `bench/out/`.

The line before the last holds the run's details: op count, tail level,
failed fraction, the workload-specific metrics (`qubits_per_s` on
query-large, `route_error_max` on bounds) and the 99% verdict counts.

This module and the ones it imports (`processes.py`, `calibrate.py`) load
only the standard library, so the children they spawn report their own
peak RSS; the sidecar loads numpy in its own process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import calibrate
import processes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("query-large", "mc-honest", "audit", "bounds")
RUN_LIMIT_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = _parse(argv)
    if not (ROOT / "src" / "qpq" / "__init__.py").is_file():
        print(f"error: no qpq sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not args.trace:
        with calibrate.Sidecar() as sidecar:
            setup = processes.probe(ROOT, args.workload, args.seed, sidecar.time)
    budget = RUN_LIMIT_S - (time.perf_counter() - start)
    if args.trace:
        budget -= processes.CLI_TIMEOUT_S
    result = processes.run_worker(ROOT, args.workload, args.seed, args.seconds,
                                  bool(args.trace), OUT, timeout=budget)
    details, metrics = result["details"], result["metrics"]
    if args.trace:
        metrics.update(processes.measure_import_split(ROOT))
        metrics.update(processes.record_cli(ROOT, OUT, deadline=start + RUN_LIMIT_S))
    else:
        details["unscaled_setup_s"] = setup["unscaled_setup_s"]
        metrics["setup_s"] = (setup["setup_s"], "s")
        metrics["peak_rss_mb"] = (setup["peak_rss_mb"], "MB")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["ops"],
        "failed": details["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
