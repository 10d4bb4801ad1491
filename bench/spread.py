"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 bench/spread.py --seeds 1-10 [--traced-seed 1] [--out bench/BASELINE.json]
                            [--against bench/BASELINE.json]

For every workload of BENCHMARK.json and every seed it runs
`bench/run.py --trace 0` for BENCHMARK.json's `run_seconds` and, for
`--traced-seed`, one `--trace 1` run. Per end-to-end metric it prints the
median, the quartiles (as `statistics.quantiles(values, n=4)` gives them)
and the spread (q3 - q1) / median next to the metric's bound, and at the
end the largest spread as a share of its bound, `setup_s` included. With
`--against` it also prints how much worse each median is than the one in
an earlier output of this script, as a share of that median. With `--out`
it writes the medians, quartiles, per-layer values and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=200)
    lines = proc.stdout.splitlines()
    return {"details": json.loads(lines[-2]), "result": json.loads(lines[-1]),
            "wall_s": time.perf_counter() - start}


def _environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else None

    doc = {"environment": _environment(), "run_seconds": seconds, "seeds": _seeds(args.seeds),
           "workloads": {}}
    worst = 0.0
    worst_shift = 0.0
    for name in (w["name"] for w in spec["workloads"]):
        runs = [_run(name, seed, seconds, 0) for seed in _seeds(args.seeds)]
        entry = {"correct": all(r["result"]["correct"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "ops": [r["details"]["ops"] for r in runs],
                 "run_wall_s": [r["wall_s"] for r in runs],
                 "details": [r["details"] for r in runs], "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            worst = max(worst, spread / bound)
            entry["end_to_end"][metric] = {"median": median, "q1": q1, "q3": q3,
                                           "spread": spread, "bound": bound,
                                           "values": values}
            line = (f"{name:12s} {metric:16s} median={median:.6g} spread={spread:.4f} "
                    f"bound={bound} ({spread / bound:.2f} of bound)")
            if earlier is not None:
                before = earlier[name]["end_to_end"][metric]["median"]
                worse = (median - before if better[metric] == "lower" else before - median) / before
                worst_shift = max(worst_shift, worse / bound)
                line += f" worse_than_earlier={worse:+.4f} ({worse / bound:+.2f} of bound)"
            print(line, flush=True)
        if args.traced_seed is not None:
            traced = _run(name, args.traced_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["result"]["metrics"].items()}
            entry["traced_run_wall_s"] = traced["wall_s"]
        doc["workloads"][name] = entry
    print(f"largest spread as a share of its bound: {worst:.2f}")
    if earlier is not None:
        print(f"largest worsening against the earlier medians, as a share of its bound: "
              f"{worst_shift:.2f}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
