"""Command-line front end: subcommand dispatch, seeding, report persistence.

Every subcommand writes a JSON report (a failed check is data, not a
crash). Exit codes: 0 success, 1 validation/usage error or a file that
cannot be read or written, 2 when a report's own checks fail. Reports are byte-identical for the same argv and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import adversaries, experiments
from .protocol import ProtocolConfig, RestartLimitExceeded, run_protocol
from .stats import ExperimentReport

DEFAULT_SEED = 12345
SEED_ENV_VAR = "QPQ_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems with exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qpq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, jobs=False):
        p.add_argument("--seed", type=int, default=None,
                       help=f"base seed (fallback: ${SEED_ENV_VAR}, then {DEFAULT_SEED})")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON file with defaults; explicit flags win")
        p.add_argument("--out", "-o", type=Path, default=None,
                       help="JSON report path (default qpq_<command>.json)")
        if jobs:
            p.add_argument("--jobs", type=int, default=None,
                           help="worker processes for trial loops (default: all cores)")

    p = sub.add_parser("run", help="one honest private query")
    common(p)
    p.add_argument("--n", type=int, default=None, help="database size (default 1000)")
    p.add_argument("--k", type=int, default=None, help="folding depth (default 4)")
    p.add_argument("--eta", type=float, default=None, help="detection probability (default 1.0)")
    p.add_argument("--max-restarts", type=int, default=None)
    p.add_argument("--target", type=int, default=None, help="queried index (default 0)")
    p.add_argument("--db", type=Path, default=None,
                   help="file of ASCII 0/1 characters used as the database")
    p.add_argument("--verbose", "-v", action="store_true", default=None,
                   help="include the per-qubit record in the report")

    p = sub.add_parser("table1", help="analytic key statistics for the six reference points")
    common(p)

    p = sub.add_parser("attack-alice", help="user-side attack experiments")
    common(p, jobs=True)
    p.add_argument("--strategy", choices=("usd", "helstrom", "bb84"), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("attack-bob", help="provider-side attack experiments")
    common(p)
    p.add_argument("--strategy", choices=("bias", "entangle"), required=True)
    p.add_argument("--phi", type=float, default=None,
                   help="preparation angle in radians (bias strategy, default pi/8)")
    p.add_argument("--mode", choices=adversaries.ER_MODES, default=None,
                   help="register basis (entangle strategy, default conclusiveness_basis)")
    p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("sweep", help="no-signaling audit over the provider-attack family")
    common(p)
    p.add_argument("--points", type=int, default=None, help="angle grid size (default 181)")
    p.add_argument("--trials-per-point", type=int, default=None)
    p.add_argument("--csv", type=Path, default=None,
                   help="CSV path (default qpq_sweep.csv)")

    p = sub.add_parser("usd-curve", help="joint discrimination bound per folding depth")
    common(p)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--csv", type=Path, default=None,
                   help="CSV path (default qpq_usd_curve.csv)")

    p = sub.add_parser("combine", help="combine several keys with chosen shifts")
    common(p, jobs=True)
    p.add_argument("--m", type=int, default=None, help="strings combined (default 3)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)

    return parser


def _load_config_file(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return doc


def _check_file_value(key: str, value, default) -> None:
    """Raise UsageError unless a config-file value has its default's type.

    An int field takes an int but not a bool, a float field a finite int or
    float, a bool field a bool and a str field a str.
    """
    if isinstance(default, bool):
        ok, want = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
        want = "a finite number"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise UsageError(f"--{key.replace('_', '-')} in the config file must be {want}, "
                         f"got {value!r}")


def _resolve(args: argparse.Namespace, file_cfg: dict, defaults: dict) -> dict:
    """Fill unset flags from the config file, then from built-in defaults."""
    out = {}
    for key, fallback in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = fallback
            if key in file_cfg:
                value = file_cfg[key]
                _check_file_value(key, value, fallback)
        out[key] = value
    return out


def _resolve_jobs(args: argparse.Namespace, file_cfg: dict) -> int:
    """Worker count from --jobs, else the config file, else all cores; at least 1."""
    jobs = _resolve(args, file_cfg, {"jobs": os.cpu_count() or 1})["jobs"]
    if jobs < 1:
        raise UsageError(f"jobs must be an integer >= 1, got {jobs!r}")
    return jobs


def _resolve_seed(args: argparse.Namespace, file_cfg: dict) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in file_cfg:
        _check_file_value("seed", file_cfg["seed"], DEFAULT_SEED)
        return file_cfg["seed"]
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"${SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _load_database(path: Path, n: int) -> np.ndarray:
    text = "".join(path.read_text().split())
    if len(text) != n or set(text) - {"0", "1"}:
        raise UsageError(f"database file must hold exactly {n} ASCII 0/1 characters")
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


def _report_exit(report, out_path: Path, text: str | None = None) -> int:
    doc = report.to_dict()
    _write_json(out_path, doc)
    if text:
        print(text)
    print(f"report written to {out_path}")
    return 0 if report.all_passed() else 2


def _cmd_run(args, file_cfg, seed) -> int:
    opts = _resolve(args, file_cfg, {"n": 1000, "k": 4, "eta": 1.0,
                                     "max_restarts": 20, "target": 0, "verbose": False})
    config = ProtocolConfig(n=opts["n"], k=opts["k"], eta=opts["eta"],
                            max_restarts=opts["max_restarts"], seed=seed)
    rng = np.random.default_rng(seed)
    if args.db is not None:
        database = _load_database(args.db, config.n)
    else:
        database = rng.integers(0, 2, config.n, dtype=np.uint8)
    target = opts["target"]
    out_path = args.out or Path("qpq_run.json")
    start = time.perf_counter()
    try:
        t = run_protocol(config, database, target, rng=rng)
    except RestartLimitExceeded as exc:
        _write_json(out_path, {"config": config.to_dict(), "target_index": target,
                               "error": "restart_limit_exceeded",
                               "attempts": exc.attempts})
        print(f"no known key bit after {exc.attempts} attempts", file=sys.stderr)
        print(f"runtime: {time.perf_counter() - start:.2f}s")
        print(f"report written to {out_path}")
        return 2
    expected = int(database[target])
    doc = t.to_dict(verbose=opts["verbose"])
    doc["retrieval_correct"] = t.retrieved_bit == expected
    _write_json(out_path, doc)
    print(f"n={config.n} k={config.k} eta={config.eta} seed={seed}")
    print(f"restarts={t.restarts} known_bits={len(t.key.alice_known)} "
          f"chosen_j={t.chosen_index} shift={t.shift}")
    print(f"target={target} retrieved={t.retrieved_bit} expected={expected} "
          f"{'OK' if t.retrieved_bit == expected else 'MISMATCH'}")
    print(f"runtime: {time.perf_counter() - start:.2f}s")
    print(f"report written to {out_path}")
    return 0 if t.retrieved_bit == expected else 2


def _cmd_table1(args, file_cfg, seed) -> int:
    rows = experiments.table1()
    lines = [f"{'N':>9} {'k':>3} {'P0':>7} {'n_bar':>7}"]
    for row in rows:
        lines.append(f"{row.n:>9} {row.k:>3} {row.p0_display:>7} {row.n_bar_display:>7}")
    matches = experiments.table1_matches_reference()
    report = ExperimentReport(
        experiment="table1", params={},
        passed={"matches_reference": matches},
        extra={"rows": [{"n": r.n, "k": r.k, "p0": r.stats.p0, "n_bar": r.stats.n_bar,
                         "p0_display": r.p0_display, "n_bar_display": r.n_bar_display,
                         "poisson_approx": r.stats.poisson_approx} for r in rows]},
    )
    return _report_exit(report, args.out or Path("qpq_table1.json"), "\n".join(lines))


def _cmd_attack_alice(args, file_cfg, seed) -> int:
    jobs = _resolve_jobs(args, file_cfg)
    if args.strategy == "usd":
        opts = _resolve(args, file_cfg, {"n": 50_000, "k": 7, "trials": 600})
        report = experiments.usd_attack_experiment(
            n=opts["n"], k=opts["k"], trials=opts["trials"], seed=seed, jobs=jobs)
    elif args.strategy == "helstrom":
        opts = _resolve(args, file_cfg, {"k": 7, "trials": 100_000})
        report = experiments.helstrom_experiment(k=opts["k"], trials=opts["trials"],
                                                 seed=seed)
    else:
        opts = _resolve(args, file_cfg, {"n": 1000, "k": 4, "trials": 50})
        report = experiments.bb84_attack_experiment(
            n=opts["n"], k=opts["k"], trials=opts["trials"], seed=seed)
    out = args.out or Path(f"qpq_attack_alice_{args.strategy}.json")
    return _report_exit(report, out, report.to_text())


def _cmd_attack_bob(args, file_cfg, seed) -> int:
    opts = _resolve(args, file_cfg, {"trials": 200_000, "phi": np.pi / 8,
                                     "mode": "conclusiveness_basis"})
    if args.strategy == "bias":
        phi = opts["phi"]
        if not np.isfinite(phi):
            raise UsageError(f"--phi must be a finite angle in radians, got {phi!r}")
        report = adversaries.biased_attack_report(phi, trials=opts["trials"],
                                                  seed=seed)
    else:
        report = adversaries.entangled_attack_report(opts["mode"], trials=opts["trials"],
                                                     seed=seed)
    out = args.out or Path(f"qpq_attack_bob_{args.strategy}.json")
    return _report_exit(report, out, report.to_text())


def _cmd_sweep(args, file_cfg, seed) -> int:
    opts = _resolve(args, file_cfg, {"points": 181, "trials_per_point": 20_000})
    start = time.perf_counter()
    audit = adversaries.no_signaling_audit(points=opts["points"],
                                           trials_per_point=opts["trials_per_point"],
                                           seed=seed)
    out = args.out or Path("qpq_sweep.json")
    csv_path = args.csv or Path("qpq_sweep.csv")
    _write_json(out, audit.to_dict())
    _write_csv(csv_path, audit.csv_rows(),
               ["phi", "p_c", "p_b", "product", "basis_guess", "ci"])
    print(f"strategies={len(audit.reports)} "
          f"max analytic p_c*p_b={audit.max_product_analytic:.6f} "
          f"({audit.max_product_strategy})")
    print(f"basis guess at 1/2 everywhere: {'yes' if audit.basis_guess_ok else 'NO'}")
    print(f"runtime: {time.perf_counter() - start:.2f}s")
    print(f"report written to {out}; csv written to {csv_path}")
    return 0 if audit.all_passed() else 2


def _cmd_usd_curve(args, file_cfg, seed) -> int:
    opts = _resolve(args, file_cfg, {"kmax": 10})
    report = experiments.usd_curve_experiment(k_max=opts["kmax"])
    csv_path = args.csv or Path("qpq_usd_curve.csv")
    _write_csv(csv_path, [{"k": k, "bound": bound} for k, bound in report.extra["points"]],
               ["k", "bound"])
    lines = [f"k={k:>2}  bound={bound:.9f}" for k, bound in report.extra["points"]]
    status = _report_exit(report, args.out or Path("qpq_usd_curve.json"), "\n".join(lines))
    print(f"csv written to {csv_path}")
    return status


def _cmd_combine(args, file_cfg, seed) -> int:
    opts = _resolve(args, file_cfg, {"m": 3, "n": 10_000, "k": 6, "trials": 200})
    jobs = _resolve_jobs(args, file_cfg)
    report = experiments.multi_string_combine(m=opts["m"], n=opts["n"], k=opts["k"],
                                              trials=opts["trials"], seed=seed, jobs=jobs)
    return _report_exit(report, args.out or Path("qpq_combine.json"), report.to_text())


_COMMANDS = {
    "run": _cmd_run,
    "table1": _cmd_table1,
    "attack-alice": _cmd_attack_alice,
    "attack-bob": _cmd_attack_bob,
    "sweep": _cmd_sweep,
    "usd-curve": _cmd_usd_curve,
    "combine": _cmd_combine,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        file_cfg = _load_config_file(args.config)
        seed = _resolve_seed(args, file_cfg)
        return _COMMANDS[args.command](args, file_cfg, seed)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
