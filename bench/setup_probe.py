"""Child process for the set-up and peak-memory measurements.

Imports the workload module, which imports numpy and qpq and nothing else
outside the standard library, as any program that uses qpq would; builds
the inputs of op INDEX of a workload; then prints `ready`. The parent times
the whole interval from spawning this interpreter to reading that line.
With RUN_OP 1 the probe then runs that one op and prints its peak RSS in MB.

Usage: python3 bench/setup_probe.py ROOT WORKLOAD SEED INDEX RUN_OP
"""

import sys

root, workload, seed, index, run_op = sys.argv[1:]
sys.path.insert(0, f"{root}/src")
import workloads  # noqa: E402

spec = workloads.WORKLOADS[workload]
inputs = spec.make_inputs(int(seed), int(index))
print("ready", flush=True)
if int(run_op):
    import resource

    spec.op(**inputs)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, flush=True)
