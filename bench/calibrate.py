"""A fixed reference kernel that tracks how fast this machine runs right now.

On a shared host the same op can take 20-50% longer for minutes at a time
while other tenants load the physical cores; CPU time rises with wall time,
so the slowdown is lost efficiency, not lost scheduling. The kernel is one
LAPACK eigendecomposition of a fixed 384 x 384 symmetric matrix. Of four
candidates timed between ops of every workload on a 2-core Xeon host (an
interpreter loop, numpy work on small arrays, numpy work on 4M-element
arrays, and this one) it followed the op times most closely on all of
them.

The kernel runs in a sidecar process of its own (`Sidecar`), which never
imports qpq. Process-wide state that qpq may change in the process it runs
in (BLAS threads, thread or process pools, allocator state) therefore
cannot move the kernel time; only the machine can. The benchmark asks the
sidecar for a timing between ops, while the op's process waits, and scales
a run's times by `speed_scale`: REFERENCE_S over the run's median kernel
time, which reports them in seconds at the reference machine speed. Drifts
of the host from one run to the next then cancel to first order; the
unscaled times stay in each run's details line. One scale per run, rather
than one per op, keeps the kernel's own noise out of single ops.

Run as a script, this module is the sidecar: for each line it reads on
stdin it prints `timed_kernel()`.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# `timed_kernel()` in the sidecar on a quiet 2-core Xeon (2.1 GHz) host with numpy 2.4.
REFERENCE_S = 0.020


def kernel() -> float:
    """One pass of the reference kernel; returns a value so nothing is skipped.

    numpy is imported here so that importing this module for REFERENCE_S
    or `Sidecar` keeps a process small and free of numpy.
    """
    import numpy as np

    m = np.random.default_rng(0).random((384, 384))
    return float(np.linalg.eigh(m + m.T)[0][0])


def timed_kernel(passes: int = 3) -> float:
    """Shortest of `passes` timed kernel passes, taken after an untimed pass.

    The untimed pass warms caches and the allocator the same way before
    every timing, whatever the machine did in between. The first passes
    after the sidecar has been idle through an op run slow by a varying
    amount; on a 2-core Xeon host a single timed pass varied by a CV of
    0.36-0.43 between ops, and the shortest of three by 0.07-0.10.
    """
    kernel()
    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def speed_scale(kernel_times: list[float]) -> float:
    """Factor that turns seconds measured now into seconds at the reference speed."""
    return REFERENCE_S / statistics.median(kernel_times)


class Sidecar:
    """A child process that returns `timed_kernel()` on each request.

    Use as a context manager; leaving it closes the pipe and waits for the
    child to end.
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def time(self) -> float:
        """`timed_kernel()`, in seconds, as the sidecar measures it right now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference sidecar ended with code {self._proc.wait()}")
        return float(line)

    def __enter__(self) -> "Sidecar":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(timed_kernel(), flush=True)
