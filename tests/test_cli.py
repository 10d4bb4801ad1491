"""Command-line interface tests: dispatch, exit codes, files, determinism."""

import hashlib
import json
import math
import re

import pytest

from qpq import adversaries, cli, experiments
from qpq.cli import SEED_ENV_VAR, _write_json, main

from conftest import helstrom_measurement_trials_dense, parity_bounds_dense


def run_cli(argv):
    return main(argv)


class TestUsageAndValidation:
    def test_unknown_flag_exits_one(self, capsys, tmp_path):
        assert run_cli(["table1", "--frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self, capsys):
        assert run_cli(["tablesaw"]) == 1

    def test_invalid_parameter_exits_one(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(["run", "--n", "0", "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_env_seed_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QPQ_SEED", "not-a-number")
        assert run_cli(["table1", "--out", str(tmp_path / "t.json")]) == 1

    @pytest.mark.parametrize("argv", [
        ["combine", "--jobs", "0"],
        ["combine", "--jobs", "-2"],
        ["attack-alice", "--strategy", "usd", "--jobs", "0"],
    ])
    def test_jobs_below_one_exits_one(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [0, -1, "two", 1.5])
    def test_jobs_from_config_file_checked(self, jobs, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": jobs}))
        out = tmp_path / "r.json"
        assert run_cli(["combine", "--config", str(cfg), "--out", str(out)]) == 1
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run"], ["table1"], ["attack-bob", "--strategy", "bias"], ["sweep"], ["usd-curve"],
    ])
    def test_jobs_only_where_a_trial_loop_reads_it(self, command, tmp_path):
        assert run_cli(command + ["--jobs", "1", "--out", str(tmp_path / "r.json")]) == 1


class TestTable1:
    def test_prints_six_rows_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert run_cli(["table1", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "0.020" in text and "3.91" in text and "0.047" in text and "3.05" in text
        doc = json.loads(out.read_text())
        assert doc["passed"]["matches_reference"]
        assert len(doc["extra"]["rows"]) == 6


class TestRun:
    def test_honest_query_retrieves_the_target(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        code = run_cli(["run", "--n", "1000", "--k", "4", "--seed", "7",
                        "--target", "42", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["retrieval_correct"] is True
        assert doc["config"] == {"n": 1000, "k": 4, "eta": 1.0, "max_restarts": 20,
                                 "seed": 7, "announcement": "sarg"}
        assert "records" not in doc

    def test_verbose_includes_records(self, tmp_path):
        out = tmp_path / "run.json"
        assert run_cli(["run", "--n", "40", "--k", "2", "--seed", "3",
                        "--target", "1", "-v", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 80

    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run", "--n", "300", "--k", "3", "--seed", "11", "--target", "5"]
        assert run_cli(argv + ["--out", str(a)]) == 0
        assert run_cli(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_database_file_is_used(self, tmp_path):
        db = tmp_path / "db.txt"
        db.write_text("0110\n")
        out = tmp_path / "run.json"
        assert run_cli(["run", "--n", "4", "--k", "2", "--seed", "2",
                        "--target", "2", "--db", str(db), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["retrieved_bit"] == 1

    def test_database_file_must_match_size(self, tmp_path, capsys):
        db = tmp_path / "db.txt"
        db.write_text("01")
        assert run_cli(["run", "--n", "4", "--db", str(db),
                        "--out", str(tmp_path / "r.json")]) == 1


class TestSeedResolution:
    def test_env_seed_is_the_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QPQ_SEED", "21")
        out = tmp_path / "r.json"
        assert run_cli(["run", "--n", "100", "--k", "2", "--target", "0",
                        "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 21

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QPQ_SEED", "21")
        out = tmp_path / "r.json"
        assert run_cli(["run", "--n", "100", "--k", "2", "--seed", "5",
                        "--target", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 5


class TestConfigFile:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 120, "k": 3, "seed": 9, "target": 7}))
        out = tmp_path / "r.json"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["n"] == 120
        assert doc["config"]["seed"] == 9
        assert doc["target_index"] == 7

    def test_flags_override_the_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 120, "k": 3, "target": 7}))
        out = tmp_path / "r.json"
        assert run_cli(["run", "--config", str(cfg), "--k", "2",
                        "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["k"] == 2

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run_cli(["run", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("command,values,flag", [
        (["run"], {"n": "1000"}, "--n"),
        (["run"], {"n": 1000.5}, "--n"),
        (["run"], {"n": True}, "--n"),
        (["run"], {"k": None}, "--k"),
        (["run"], {"max_restarts": 2.0}, "--max-restarts"),
        (["run"], {"eta": "1"}, "--eta"),
        (["run"], {"eta": False}, "--eta"),
        (["run"], {"eta": math.inf}, "--eta"),
        (["combine"], {"trials": "5"}, "--trials"),
        (["attack-bob", "--strategy", "entangle"], {"mode": 3}, "--mode"),
        (["run"], {"verbose": 1}, "--verbose"),
        (["table1"], {"seed": None}, "--seed"),
        (["run"], {"seed": 5.7}, "--seed"),
    ])
    def test_wrong_typed_values_exit_one(self, command, values, flag, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg.write_text(json.dumps(values))
        assert run_cli(command + ["--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {flag} in the config file must be" in err
        assert not out.exists()

    def test_file_values_of_the_right_type_are_used(self, tmp_path):
        """A float field takes an int, and `verbose` is read from the file."""
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg.write_text(json.dumps({"n": 50, "k": 2, "eta": 1, "verbose": True}))
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["eta"] == 1 and len(doc["records"]) == 100


def test_memory_error_exits_one(monkeypatch, tmp_path, capsys):
    def exhausted(args, file_cfg, seed):
        raise MemoryError("Unable to allocate 9.00 GiB")

    monkeypatch.setitem(cli._COMMANDS, "run", exhausted)
    assert run_cli(["run", "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 9.00 GiB\n"


@pytest.mark.parametrize("argv", [
    ["run", "--db", "{missing}/db.txt", "--out", "{tmp}/r.json"],
    ["run", "--out", "{missing}/r.json"],
    ["table1", "--out", "{missing}/t.json"],
    ["usd-curve", "--out", "{tmp}/c.json", "--csv", "{missing}/c.csv"],
    ["sweep", "--points", "3", "--trials-per-point", "200", "--out", "{tmp}/s.json",
     "--csv", "{missing}/s.csv"],
], ids=["run-db", "run-out", "table1-out", "usd-curve-csv", "sweep-csv"])
def test_file_errors_exit_one_with_an_error_line(argv, tmp_path, capsys):
    paths = {"tmp": tmp_path, "missing": tmp_path / "no-such-dir"}
    assert run_cli([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert "Traceback" not in err


class TestAttackCommands:
    def test_attack_alice_usd(self, tmp_path):
        out = tmp_path / "usd.json"
        code = run_cli(["attack-alice", "--strategy", "usd", "--n", "2000",
                        "--k", "3", "--trials", "80", "--seed", "5",
                        "--jobs", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"]["qubit_success_rate"]

    def test_attack_alice_helstrom(self, tmp_path):
        out = tmp_path / "hel.json"
        code = run_cli(["attack-alice", "--strategy", "helstrom", "--k", "3",
                        "--trials", "30000", "--seed", "5", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["passed"]["routes_agree_1e9"]

    def test_attack_alice_bb84(self, tmp_path):
        out = tmp_path / "bb84.json"
        code = run_cli(["attack-alice", "--strategy", "bb84", "--n", "200",
                        "--k", "3", "--trials", "10", "--seed", "5",
                        "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["passed"]["whole_key_known"]

    def test_attack_bob_bias(self, tmp_path):
        out = tmp_path / "bias.json"
        code = run_cli(["attack-bob", "--strategy", "bias", "--phi", "0.3927",
                        "--trials", "40000", "--seed", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["analytic"]["product"] <= 0.5

    def test_attack_bob_entangle(self, tmp_path):
        out = tmp_path / "ent.json"
        code = run_cli(["attack-bob", "--strategy", "entangle", "--mode",
                        "conclusiveness_basis", "--trials", "40000",
                        "--seed", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"]["basis_guess_half"]


class TestSweepCurveCombine:
    def test_sweep_writes_json_and_csv(self, tmp_path, capsys):
        out, csv_path = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--points", "13", "--trials-per-point", "3000",
                        "--seed", "5", "--out", str(out), "--csv", str(csv_path)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["max_product_analytic"] <= 0.5
        assert doc["basis_guess_ok"]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "phi,p_c,p_b,product,basis_guess,ci"
        assert len(lines) == 1 + 13 + 2

    def test_usd_curve_files_and_exit(self, tmp_path):
        out, csv_path = tmp_path / "c.json", tmp_path / "c.csv"
        code = run_cli(["usd-curve", "--kmax", "6", "--out", str(out),
                        "--csv", str(csv_path)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"]["non_increasing"]
        assert len(csv_path.read_text().strip().splitlines()) == 7

    def test_combine_small(self, tmp_path):
        out = tmp_path / "combine.json"
        code = run_cli(["combine", "--m", "2", "--n", "300", "--k", "4",
                        "--trials", "25", "--seed", "5", "--jobs", "1",
                        "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert sum(doc["extra"]["distribution"].values()) == 25

    def test_combine_zero_trials_exits_one(self, tmp_path, capsys):
        out = tmp_path / "combine.json"
        code = run_cli(["combine", "--trials", "0", "--n", "100", "--k", "2",
                        "--jobs", "1", "--out", str(out)])
        assert code == 1
        assert "trial" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["sweep", "--points", "7", "--trials-per-point", "2000", "--seed", "3"]
        assert run_cli(argv + ["--out", str(a), "--csv", str(tmp_path / "a.csv")]) == 0
        assert run_cli(argv + ["--out", str(b), "--csv", str(tmp_path / "b.csv")]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestSizeValidation:
    @pytest.mark.parametrize("argv,name", [
        (["attack-bob", "--strategy", "bias", "--trials", "0"], "trials"),
        (["attack-bob", "--strategy", "entangle", "--trials", "0"], "trials"),
        (["attack-bob", "--strategy", "bias", "--trials", "-5"], "trials"),
        (["attack-bob", "--strategy", "entangle", "--trials", "-5"], "trials"),
        (["sweep", "--trials-per-point", "0"], "trials_per_point"),
        (["sweep", "--points", "0"], "points"),
        (["attack-alice", "--strategy", "helstrom", "--trials", "0"], "trials"),
    ], ids=["bias-0", "entangle-0", "bias-negative", "entangle-negative",
            "sweep-trials-0", "sweep-points-0", "helstrom-0"])
    def test_sizes_below_one_exit_one(self, argv, name, tmp_path, capsys):
        out, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
        extra = ["--csv", str(csv_path)] if argv[0] == "sweep" else []
        assert run_cli(argv + ["--out", str(out), *extra]) == 1
        assert f"{name} must be >= 1" in capsys.readouterr().err
        assert not out.exists() and not csv_path.exists()

    @pytest.mark.parametrize("argv", [
        ["attack-alice", "--strategy", "bb84", "--trials", "1", "--n", "10", "--k", "1"],
        ["attack-alice", "--strategy", "usd", "--trials", "1", "--n", "200", "--k", "2"],
    ], ids=["bb84-1", "usd-1"])
    def test_one_monte_carlo_trial_exits_one(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert "trials must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("phi", ["nan", "inf"])
    def test_non_finite_phi_exits_one(self, phi, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["attack-bob", "--strategy", "bias", "--phi", phi, "--trials", "100"]
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert "--phi" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, "0.3", None])
    def test_phi_from_config_file_checked(self, phi, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg.write_text(json.dumps({"phi": phi}))
        argv = ["attack-bob", "--strategy", "bias", "--trials", "100", "--config", str(cfg)]
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert "--phi" in capsys.readouterr().err
        assert not out.exists()


def key_paths(doc, prefix=""):
    """Every key path of a JSON document; list items share the path segment "*"."""
    if isinstance(doc, dict):
        return {path for key, value in doc.items()
                for path in {f"{prefix}/{key}"} | key_paths(value, f"{prefix}/{key}")}
    if isinstance(doc, list):
        return {path for item in doc for path in key_paths(item, f"{prefix}/*")}
    return set()


PROVIDER_REPORT_PATHS = {
    "/experiment", "/params", "/analytic", "/analytic/p_c", "/analytic/p_b",
    "/analytic/product", "/analytic/bit_error_rate", "/empirical", "/empirical/p_c",
    "/empirical/p_b", "/empirical/product", "/empirical/bit_error_rate",
    "/empirical/basis_guess_rate", "/ci99", "/ci99/basis_guess_rate", "/passed",
    "/passed/basis_guess_half", "/passed/product_bound", "/extra", "/extra/trials",
}
ATTACK_REPORT_PATHS = PROVIDER_REPORT_PATHS | {
    "/analytic/known_bits_mean", "/empirical/known_bits_mean", "/ci99/p_c", "/ci99/p_b",
    "/ci99/known_bits_mean", "/passed/p_c", "/passed/p_b", "/passed/known_mean",
}


class TestReportShape:
    """The attack-bob reports and the sweep entries are `ExperimentReport`s built by
    one helper: both attack reports share one key set, and a refactor that drops or
    renames a field fails here."""

    @pytest.mark.parametrize("strategy,param", [("bias", "/params/phi"),
                                                ("entangle", "/params/mode")],
                             ids=["bias", "entangle"])
    def test_attack_bob_keys(self, strategy, param, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["attack-bob", "--strategy", strategy, "--trials", "2000",
                        "--seed", "5", "--out", str(out)]) in (0, 2)
        doc = json.loads(out.read_text())
        assert key_paths(doc) == ATTACK_REPORT_PATHS | {param}
        assert doc["extra"]["trials"] == 2000

    def test_sweep_keys_and_csv_header(self, tmp_path):
        out, csv_path = tmp_path / "s.json", tmp_path / "s.csv"
        assert run_cli(["sweep", "--points", "3", "--trials-per-point", "500", "--seed", "5",
                        "--out", str(out), "--csv", str(csv_path)]) in (0, 2)
        doc = json.loads(out.read_text())
        assert set(doc) == {"max_product_analytic", "max_product_strategy", "basis_guess_ok",
                            "product_ok", "familywise_confidence", "trials_per_point",
                            "strategies"}
        entry_paths = PROVIDER_REPORT_PATHS | {"/ci99/product"}
        strategies = doc["strategies"]
        assert [rep["experiment"] for rep in strategies] == ["biased"] * 3 + ["entangled"] * 2
        for rep in strategies:
            param = "/params/phi" if rep["experiment"] == "biased" else "/params/mode"
            assert key_paths(rep) == entry_paths | {param}
        assert csv_path.read_text().splitlines()[0] == "phi,p_c,p_b,product,basis_guess,ci"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestReportsWithoutSamples:
    """A rate with no samples is null in the report, never NaN."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("strategy,empty", [("bias", {"p_b", "bit_error_rate", "product"}),
                                                ("entangle", set())])
    def test_one_trial_writes_strict_json(self, strategy, empty, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["attack-bob", "--strategy", strategy, "--trials", "1",
                        "--seed", "12345", "--out", str(out)]) == 2
        doc = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert {key for key, value in doc["empirical"].items() if value is None} == empty
        if empty:
            assert doc["ci99"]["p_b"] is None and doc["passed"]["p_b"] is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_trial_sweep_writes_strict_json(self, tmp_path):
        out, csv_path = tmp_path / "s.json", tmp_path / "s.csv"
        assert run_cli(["sweep", "--points", "3", "--trials-per-point", "1", "--seed", "12345",
                        "--out", str(out), "--csv", str(csv_path)]) == 2
        doc = json.loads(out.read_text(), parse_constant=_reject_constant)
        empty = [rep for rep in doc["strategies"] if rep["empirical"]["p_b"] is None]
        assert len(empty) == 3
        assert all(rep["empirical"]["product"] is None and not rep["passed"]["product_bound"]
                   for rep in empty)
        assert not doc["product_ok"]
        assert "nan" not in csv_path.read_text()

    def test_report_writer_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "r.json", {"p_b": math.nan})


class TestRuntimeLines:
    """Each of these subcommands prints its runtime; no JSON file holds it."""

    @pytest.mark.parametrize("argv", [
        ["run", "--n", "200", "--k", "2"],
        ["attack-bob", "--strategy", "bias", "--trials", "2000"],
        ["attack-bob", "--strategy", "entangle", "--trials", "2000"],
        ["sweep", "--points", "3", "--trials-per-point", "500"],
    ], ids=["run", "attack-bob-bias", "attack-bob-entangle", "sweep"])
    def test_runtime_printed_not_written(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        extra = ["--csv", str(tmp_path / "r.csv")] if argv[0] == "sweep" else []
        assert run_cli(argv + ["--seed", "5", "--out", str(out), *extra]) in (0, 2)
        lines = capsys.readouterr().out.splitlines()
        assert sum(re.fullmatch(r"runtime: \d+\.\d\ds", line) is not None
                   for line in lines) == 1
        assert "runtime" not in out.read_text()


def _diff_reports(plane, dense, path=""):
    """Paths where two report documents differ; floats may differ by 1e-12."""
    if isinstance(plane, dict) and isinstance(dense, dict):
        if plane.keys() != dense.keys():
            return [f"{path}: keys {sorted(plane)} vs {sorted(dense)}"]
        return [d for key in plane for d in _diff_reports(plane[key], dense[key],
                                                          f"{path}/{key}")]
    if isinstance(plane, list) and isinstance(dense, list):
        if len(plane) != len(dense):
            return [f"{path}: length {len(plane)} vs {len(dense)}"]
        return [d for i, (a, b) in enumerate(zip(plane, dense))
                for d in _diff_reports(a, b, f"{path}/{i}")]
    if isinstance(plane, float) and isinstance(dense, float):
        ok = math.isclose(plane, dense, rel_tol=0.0, abs_tol=1e-12)
    else:
        ok = type(plane) is type(dense) and plane == dense
    return [] if ok else [f"{path}: {plane!r} vs {dense!r}"]


class TestGoldenReports:
    """The `parity_bounds` reports against the dense route's, at default argv and seed."""

    @pytest.mark.parametrize("argv,name", [
        (["usd-curve"], "qpq_usd_curve.json"),
        (["attack-alice", "--strategy", "helstrom"], "qpq_attack_alice_helstrom.json"),
    ])
    def test_report_matches_the_dense_route(self, argv, name, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        docs = {}
        for route in ("plane", "dense"):
            workdir = tmp_path / route
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            with monkeypatch.context() as patch:
                if route == "dense":
                    patch.setattr(experiments, "parity_bounds", parity_bounds_dense)
                    patch.setattr(adversaries, "parity_bounds", parity_bounds_dense)
                    patch.setattr(experiments, "helstrom_measurement_trials",
                                  helstrom_measurement_trials_dense)
                assert run_cli(argv) == 0
            docs[route] = json.loads((workdir / name).read_text())
        assert _diff_reports(docs["plane"], docs["dense"]) == []
        if "guess_rate" in docs["plane"]["empirical"]:
            assert docs["plane"]["empirical"]["guess_rate"] == \
                docs["dense"]["empirical"]["guess_rate"]


class TestReportDigests:
    """sha256 of attack, sweep, honest-run and combine reports at fixed argv and seed 12345.

    Pinned from the per-trial round batteries and the per-qubit posterior
    arrays they replaced: a change to any random stream or to the report
    bytes fails here. The attack-bob and sweep digests were re-pinned when
    those reports became `ExperimentReport`s, after checking that every
    earlier number reappears bit-identical under its new key, and again when
    the known-bit runs moved to streams of their own, after checking that
    only the `known_bits_mean` fields changed. The `run -v` digests cover
    the honest engine's per-qubit records with every qubit detected, under
    loss, and over 70,000 qubits, more than one `protocol.CHUNK`; the
    combine digest covers the honest engine driven through several keys.
    The table1, usd-curve and helstrom digests are taken at default argv;
    `TestGoldenReports` compares the last two with the dense route.
    """

    @pytest.mark.parametrize("argv,digest", [
        (["attack-alice", "--strategy", "usd", "--n", "2000", "--k", "3", "--trials", "20",
          "--jobs", "1"],
         "cfe700cc90fe7f9adf6678056ffaf6421593ca706216954d93dd3b04b8a132ff"),
        (["attack-alice", "--strategy", "bb84"],
         "86cdd3c7f4252bac9349f77ecd2f823db55150a7db5c013cfabde50052d7caa2"),
        (["attack-bob", "--strategy", "bias", "--trials", "20000"],
         "2b79204fa3b61f52cc461814b1e55560dcdb0b1798f18b5ec792da1fcca81832"),
        (["attack-bob", "--strategy", "entangle", "--trials", "20000"],
         "85aa257aa26821786918db609312e36ed3424c806c0839dbb3a68dad9d91f7d3"),
        (["sweep", "--points", "7", "--trials-per-point", "2000"],
         "b600280aba7b0361e160ad8f65c9c4908ca1b8342aecc9c0eca1635e6f9a8b4d"),
        (["run", "-v", "--n", "2000", "--k", "3"],
         "9a8fbfc535084f6106123d0c0626605ebe70e2f57d223ee6ab8086b1d20f137e"),
        (["run", "-v", "--n", "500", "--k", "2", "--eta", "0.5"],
         "c0ac96a4bbb0597a8960a850949d00ca3f538e2579be3e222d067bc49cc894cf"),
        (["run", "-v", "--n", "14000", "--k", "5"],
         "3aa92710f6133479028f01c02fca5dac232cbea866aa69781fd005750a659c97"),
        (["combine", "--m", "3", "--n", "2000", "--k", "3", "--trials", "20", "--jobs", "1"],
         "5887db72a51941fc377e039bdbb0763af28a46070c7c9851ae09d88994936d21"),
        (["table1"],
         "981a2b789cd7e4e10f725ce4a306e9395df1fefe3846f704f868a873d22dbfd8"),
        (["usd-curve"],
         "73328b34c103c4cc01e2ab3604cbe505c9db45eb1cc2d4819ff879909daf60e4"),
        (["attack-alice", "--strategy", "helstrom"],
         "d2326e64ec111d17a18b7b979cf44f4e6e67c4f2c57396bd99c4c9175ecb6a71"),
    ], ids=["attack-alice-usd", "attack-alice-bb84", "attack-bob-bias",
            "attack-bob-entangle", "sweep", "run-records", "run-records-lossy",
            "run-records-multi-chunk", "combine", "table1", "usd-curve",
            "attack-alice-helstrom"])
    def test_report_digest(self, argv, digest, tmp_path):
        out = tmp_path / "report.json"
        extra = (["--csv", str(tmp_path / "report.csv")] if argv[0] in ("sweep", "usd-curve")
                 else [])
        run_cli(argv + ["--seed", "12345", "--out", str(out), *extra])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_sweep_csv_digest(self, tmp_path):
        """Pinned before the report fold; the CSV columns kept every byte."""
        csv_path = tmp_path / "sweep.csv"
        run_cli(["sweep", "--points", "7", "--trials-per-point", "2000", "--seed", "12345",
                 "--out", str(tmp_path / "sweep.json"), "--csv", str(csv_path)])
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == \
            "16f55dba8555f01b054f3b8f7b1bc915d171ad509b3472b412e329933cefea8f"

    def test_usd_curve_csv_digest(self, tmp_path):
        csv_path = tmp_path / "curve.csv"
        run_cli(["usd-curve", "--seed", "12345", "--out", str(tmp_path / "curve.json"),
                 "--csv", str(csv_path)])
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == \
            "20510555af05dc94de228d3ca025eb800e828b9401ac20db455b7fc74b18b2d3"
