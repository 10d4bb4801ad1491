"""Child processes of the benchmark: set-up probes, the workload, the CLI record.

This module imports only the standard library, and so does `run.py`, which
spawns every child. That matters for peak RSS: Linux starts a child's
peak-RSS reading at the resident size of the process it was spawned from,
so a child spawned from a small parent reports its own peak.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from calibrate import speed_scale

BENCH = Path(__file__).resolve().parent
PROBES = 5
RSS_PROBES = 3
SPLITS = 3
CLI_TIMEOUT_S = 60.0
CLI_COMMANDS = {
    "run": ["run"],
    "table1": ["table1"],
    "attack-alice-usd": ["attack-alice", "--strategy", "usd"],
    "attack-alice-helstrom": ["attack-alice", "--strategy", "helstrom"],
    "attack-alice-bb84": ["attack-alice", "--strategy", "bb84"],
    "attack-bob-bias": ["attack-bob", "--strategy", "bias"],
    "attack-bob-entangle": ["attack-bob", "--strategy", "entangle"],
    "sweep": ["sweep"],
    "usd-curve": ["usd-curve"],
    "combine": ["combine"],
}


def probe(root: Path, workload: str, seed: int, reference) -> dict:
    """Set-up time and one-op peak RSS, as medians over fresh interpreters.

    Probe j builds the inputs of op j; set-up time is the median over
    `PROBES` of them and peak RSS the median over the first `RSS_PROBES`,
    which also run op j. `reference()` times the reference kernel in the
    sidecar before the first probe and after each; the median set-up time
    is scaled to the reference machine speed by the median of those
    timings, and the unscaled median is kept as well. A per-op peak is used
    rather than the peak of the whole closed loop, because an op that
    restarts briefly holds two attempts' records and a long loop's peak
    would only say whether one op of the run did.
    """
    walls = []
    rss = []
    kernels = [reference()]
    for index in range(PROBES):
        run_op = index < RSS_PROBES
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "setup_probe.py"), str(root),
                               workload, str(seed), str(index), str(int(run_op))],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            rest = proc.stdout.read().split()
            code = proc.wait(timeout=CLI_TIMEOUT_S)
        if code != 0 or line.strip() != "ready" or len(rest) != int(run_op):
            raise RuntimeError(f"set-up probe exited with code {code}")
        kernels.append(reference())
        walls.append(ready - start)
        if run_op:
            rss.append(float(rest[0]))
    setup = statistics.median(walls)
    return {"setup_s": setup * speed_scale(kernels), "unscaled_setup_s": setup,
            "peak_rss_mb": statistics.median(rss)}


def import_split(importtime: str) -> dict[str, float]:
    """Split the `import qpq` entry of `python -X importtime` output, in seconds.

    `import_qpq_s` is the cumulative time of the whole `import qpq`. Every
    module imported under it is charged, by its self time, to the outermost
    numpy or scipy module above it (itself included), else to qpq; so
    `import_numpy_s` and `import_scipy_stats_s` are the parts of
    `import_qpq_s` that numpy and scipy (which qpq loads only for
    `scipy.stats`) bring in, standard-library modules they pull in
    included.
    """
    entries = []
    for line in importtime.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or "self" in fields[0]:
            continue
        name = fields[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(),
                        int(fields[0].split(":")[1]), int(fields[1])))
    split = {"import_numpy_s": 0.0, "import_scipy_stats_s": 0.0, "import_qpq_s": 0.0}
    stack: list[tuple[int, str]] = []
    # importtime prints a module when its import ends, so children come
    # before their parent; walked in reverse, each parent comes first.
    for indent, name, self_us, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        stack.append((indent, name))
        if stack[0][1] != "qpq":
            continue
        if len(stack) == 1:
            split["import_qpq_s"] += cumulative_us / 1e6
        tops = [n.split(".")[0] for _, n in stack]
        owner = next((top for top in tops if top in ("numpy", "scipy")), None)
        if owner == "numpy":
            split["import_numpy_s"] += self_us / 1e6
        elif owner == "scipy":
            split["import_scipy_stats_s"] += self_us / 1e6
    return split


def measure_import_split(root: Path) -> dict[str, tuple[float, str]]:
    """Median `import_split` over `SPLITS` fresh `python -X importtime -c 'import qpq'`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    splits = []
    for _ in range(SPLITS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qpq"],
                              cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=True,
                              timeout=CLI_TIMEOUT_S)
        splits.append(import_split(proc.stderr))
    return {f"setup.{key}": (statistics.median(s[key] for s in splits), "s")
            for key in splits[0]}


def _run_child(argv: list[str], cwd: Path, env: dict, timeout: float) -> tuple[int, float, float]:
    """Run one command in its own session; return (exit code, wall s, peak RSS MB).

    A timer kills the whole process group if the command overruns, so pool
    workers it started end with it.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_worker(root: Path, workload: str, seed: int, seconds: float, trace: bool,
               out_dir: Path, timeout: float) -> dict:
    """Run the closed loop in a fresh interpreter and return its JSON result."""
    argv = [sys.executable, str(BENCH / "worker.py"), str(root), workload, str(seed),
            str(seconds), str(int(trace)), str(out_dir)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def record_cli(root: Path, scratch: Path, deadline: float) -> dict:
    """Run each CLI command at its defaults in a temporary directory under `scratch`.

    Each command gets at most `CLI_TIMEOUT_S` and must end by `deadline` (a
    `time.perf_counter` value); a command killed for overrunning records
    exit code -9.
    """
    env = {k: v for k, v in os.environ.items() if k != "QPQ_SEED"}
    env["PYTHONPATH"] = str(root / "src")
    out: dict[str, tuple[float, str]] = {}
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="cli-", dir=scratch) as tmp:
        for name, argv in CLI_COMMANDS.items():
            timeout = max(1.0, min(CLI_TIMEOUT_S, deadline - time.perf_counter()))
            code, wall, rss = _run_child([sys.executable, "-m", "qpq.cli", *argv],
                                         Path(tmp), env, timeout)
            out[f"cli.{name}.wall_s"] = (wall, "s")
            out[f"cli.{name}.peak_rss_mb"] = (rss, "MB")
            out[f"cli.{name}.exit"] = (float(code), "code")
    return out
