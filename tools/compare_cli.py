"""Compare the CLI output of two source trees, command by command.

Usage: python tools/compare_cli.py PARENT_TREE CHANGE_TREE [--seeds 12345 7] [--keys]

Each tree is a checkout of this repository. For every seed, each tree's
`src/` runs every `CLI_COMMANDS` argv of `bench/processes.py`, plus the
`EXTRA_COMMANDS`, with `--seed SEED` appended. Every run is a fresh interpreter in a
temporary directory of its own, so each writes its default report files
there. Per command and seed it prints whether the JSON reports, the CSV
files and the exit codes of the two trees match; with `--keys`, below each
command whose JSON differs, the dotted key paths whose values differ. Before
its verdict it prints the line count of each tree's `src/qpq/*.py`, as
`wc -l` counts them. It exits 0 when every one matches and 1 otherwise.
`bench/processes.py` is parsed, not imported, and nothing under `bench/` is
written.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600.0
# `run -v`, a lossy run, a run of 70,005 raw qubits (an odd count over one
# `protocol.CHUNK`), a k = 1 run whose key holds 8 known bits at seed
# 12345, a memory attack whose pair-announcement contrast (`UsdAlice`'s
# measurement) finds about a third of its first attempts empty, a
# discrimination attack of 65,541 raw qubits (one `protocol.CHUNK` and an odd
# piece) on databases of 9,363 bits, not a whole number of 32-bit words, and
# one of 7 raw qubits, fewer than one 8-byte output, whose trials run in one
# batch of known final bits (`UsdAlice.known_final`), and one of 21 raw
# qubits whose first attempts are mostly empty, so its trials restart round
# by round and a few use up every attempt.
# The two plain runs and `run -v streamed` take the streamed honest attempt:
# at n = 65,536, k = 9 most attempts restart, at n = 70,001 the database
# draw leaves the spare half of an output, where the first attempt's draw
# starts, and the verbose run replays its final attempt for the records.
# The two attack-bob layouts key the known-bit runs' attempt: the honest
# register basis draws Bob's key record as floats, and the bias at phi = 0
# meets `HonestAlice.respond`'s fair-coin path.
# The two `--jobs 2` runs split their trials over two processes, each of
# which seeds the `[seed, t]` streams of its own span in one pass, so they
# check that the reports do not depend on the process count.
EXTRA_COMMANDS = {
    "run -v": ["run", "-v"],
    "run -v lossy": ["run", "-v", "--n", "500", "--k", "2", "--eta", "0.5"],
    "run -v odd": ["run", "-v", "--n", "14001", "--k", "5"],
    "run -v many-known": ["run", "-v", "--n", "40", "--k", "1"],
    "attack-alice bb84 restarts": ["attack-alice", "--strategy", "bb84", "--n", "40", "--k", "3",
                                   "--trials", "200"],
    "attack-alice usd odd": ["attack-alice", "--strategy", "usd", "--n", "9363", "--k", "7",
                             "--trials", "40"],
    "attack-alice usd tiny": ["attack-alice", "--strategy", "usd", "--n", "7", "--k", "1",
                              "--trials", "40"],
    "attack-alice usd restarts": ["attack-alice", "--strategy", "usd", "--n", "7", "--k", "3",
                                  "--trials", "200"],
    "run restarts": ["run", "--n", "65536", "--k", "9"],
    "run odd spare": ["run", "--n", "70001", "--k", "3"],
    "run -v streamed": ["run", "-v", "--n", "65536", "--k", "1"],
    "attack-bob entangle honest": ["attack-bob", "--strategy", "entangle", "--mode",
                                   "honest_basis"],
    "attack-bob bias fair": ["attack-bob", "--strategy", "bias", "--phi", "0"],
    "attack-alice bb84 jobs 2": ["attack-alice", "--strategy", "bb84", "--jobs", "2"],
    "combine jobs 2": ["combine", "--jobs", "2"],
}


def cli_commands(processes: Path = REPO / "bench" / "processes.py") -> dict[str, list[str]]:
    """The benchmark's `CLI_COMMANDS`, read from its source, plus `EXTRA_COMMANDS`."""
    for node in ast.parse(processes.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CLI_COMMANDS" for t in node.targets):
            return {**ast.literal_eval(node.value), **EXTRA_COMMANDS}
    raise ValueError(f"no CLI_COMMANDS in {processes}")


class Outcome(NamedTuple):
    exit_code: int
    files: dict[str, bytes]    # file name -> bytes, for every file the run wrote


def run_tree(tree: Path, argv: list[str], seed: str) -> Outcome:
    """Run `python -m qpq.cli ARGV --seed SEED` on `tree/src` in a fresh directory."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "QPQ_SEED")}
    env["PYTHONPATH"] = str(Path(tree).resolve() / "src")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-m", "qpq.cli", *argv, "--seed", seed],
                              cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir()) if p.is_file()}
    return Outcome(proc.returncode, files)


def _verdict(parent: Outcome, change: Outcome, suffix: str) -> str:
    a = {name: data for name, data in parent.files.items() if name.endswith(suffix)}
    b = {name: data for name, data in change.files.items() if name.endswith(suffix)}
    if not a and not b:
        return "none"
    return "same" if a == b else "DIFF"


def _row(parent: Outcome, change: Outcome) -> dict[str, str]:
    exit_codes = f"{parent.exit_code}/{change.exit_code}"
    return {"json": _verdict(parent, change, ".json"), "csv": _verdict(parent, change, ".csv"),
            "exit": ("same " if parent.exit_code == change.exit_code else "DIFF ") + exit_codes}


def compare(parent_tree: Path, change_tree: Path, argv: list[str], seed: str) -> dict[str, str]:
    """Per kind of output, "same", "DIFF" or (for files neither run wrote) "none"."""
    return _row(run_tree(parent_tree, argv, seed), run_tree(change_tree, argv, seed))


def source_lines(tree: Path) -> int:
    """Newlines in the tree's `src/qpq/*.py`, the total `wc -l` prints."""
    package = Path(tree) / "src" / "qpq"
    return sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))


_MISSING = object()


def _key_paths(a, b, path: str) -> list[str]:
    """Dotted paths below `path` where two JSON values differ; list items by
    index, and a key only one side holds as a difference."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for key in sorted(a.keys() | b.keys(), key=str)
                for p in _key_paths(a.get(key, _MISSING), b.get(key, _MISSING),
                                    f"{path}.{key}" if path else str(key))]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in _key_paths(x, y, f"{path}.{i}" if path else str(i))]
    return [] if type(a) is type(b) and a == b else [path]


def differing_keys(parent: Outcome, change: Outcome) -> list[str]:
    """"FILE: dotted.key" per value that differs between the JSON files of two
    runs; a file only one run wrote is listed by its name alone."""
    a = {name: data for name, data in parent.files.items() if name.endswith(".json")}
    b = {name: data for name, data in change.files.items() if name.endswith(".json")}
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            lines.append(name)
        else:
            lines += [f"{name}: {path}" for path in
                      _key_paths(json.loads(a[name]), json.loads(b[name]), "")]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--seeds", nargs="+", default=["12345", "7"])
    parser.add_argument("--keys", action="store_true",
                        help="list the differing key paths of each differing JSON report")
    args = parser.parse_args(argv)
    all_same = True
    for seed in args.seeds:
        for name, command in cli_commands().items():
            parent = run_tree(args.parent_tree, command, seed)
            change = run_tree(args.change_tree, command, seed)
            row = _row(parent, change)
            all_same &= "DIFF" not in " ".join(row.values())
            print(f"seed {seed:>6}  {name:<26}  json {row['json']:<4}  csv {row['csv']:<4}  "
                  f"exit {row['exit']}", flush=True)
            if args.keys and row["json"] == "DIFF":
                for line in differing_keys(parent, change):
                    print(f"    {line}", flush=True)
    print(f"src/qpq/*.py lines: {source_lines(args.parent_tree)} → "
          f"{source_lines(args.change_tree)}")
    print("all identical" if all_same else "DIFFERENCES FOUND")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
