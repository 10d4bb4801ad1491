"""Command-line interface tests: dispatch, exit codes, files, determinism."""

import hashlib
import json
import math
import re

import pytest

from qpq import adversaries, cli, experiments, stats
from qpq.cli import SEED_ENV_VAR, _write_json, main
from qpq.quantum import K_MAX

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

    @pytest.mark.parametrize("strategy,driver", [
        ("usd", "usd_attack_experiment"), ("bb84", "bb84_attack_experiment")])
    def test_attack_alice_passes_jobs_to_its_trial_loops(self, strategy, driver, tmp_path,
                                                         monkeypatch):
        class Stop(Exception):
            pass

        def stub(**kwargs):
            seen.append(kwargs["jobs"])
            raise Stop

        seen = []
        monkeypatch.setattr(experiments, driver, stub)
        with pytest.raises(Stop):
            run_cli(["attack-alice", "--strategy", strategy, "--jobs", "2",
                     "--out", str(tmp_path / "r.json")])
        assert seen == [2]


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

    @pytest.mark.parametrize("command", [
        ["run"], ["table1"], ["attack-alice", "--strategy", "helstrom"],
        ["attack-bob", "--strategy", "bias"], ["sweep"], ["usd-curve"], ["combine"],
    ], ids=lambda command: command[0])
    def test_negative_flag_seed_names_the_flag(self, command, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(command + ["--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: --seed must be a non-negative integer, got -1" in err
        assert not out.exists()

    def test_negative_file_or_env_seed_names_its_source(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -2}))
        out = tmp_path / "r.json"
        assert run_cli(["table1", "--config", str(cfg), "--out", str(out)]) == 1
        assert ("--seed in the config file must be a non-negative integer, got -2"
                in capsys.readouterr().err)
        monkeypatch.setenv("QPQ_SEED", "-3")
        assert run_cli(["table1", "--out", str(out)]) == 1
        assert "$QPQ_SEED must be a non-negative integer, got -3" in capsys.readouterr().err
        assert not out.exists()


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

    def test_attack_alice_usd_at_k1_passes_its_dispersion_check(self, tmp_path):
        out = tmp_path / "usd.json"
        code = run_cli(["attack-alice", "--strategy", "usd", "--k", "1", "--n", "1000",
                        "--trials", "600", "--seed", "12345", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["analytic"]["run_known_dispersion"] == 1.0 - adversaries.USD_SUCCESS
        assert doc["passed"]["run_known_dispersion"]
        assert code == 0

    # At k = 12 a first attempt knows a bit with chance 4e-4, so every trial
    # exhausts its 21 attempts of 12,000 qubits.
    USD_K12 = ["attack-alice", "--strategy", "usd", "--n", "1000", "--k", "12", "--trials", "20",
               "--jobs", "1", "--seed", "12345"]

    def test_attack_alice_usd_with_no_known_bit_exits_zero(self, tmp_path):
        """Twenty first attempts that all know 0 bits have a zero-width interval;
        the exact test of how many knew a bit passes them."""
        out = tmp_path / "usd.json"
        code = run_cli(self.USD_K12 + ["--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["empirical"]["run_known_mean"] == doc["ci99"]["run_known_mean"] == 0.0
        assert doc["passed"]["run_known_mean"]
        assert code == 0

    def test_failed_trials_enter_the_conclusive_rate(self, tmp_path):
        out = tmp_path / "usd.json"
        run_cli(self.USD_K12 + ["--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["empirical"]["run_restart_fraction"] == 1.0
        qubits = 20 * 21 * 12_000
        assert doc["ci99"]["run_conclusive_rate"] == stats.z_value(0.99) * stats.binomial_sigma(
            adversaries.USD_SUCCESS, qubits)
        assert abs(doc["empirical"]["run_conclusive_rate"] - adversaries.USD_SUCCESS) < 0.002
        assert doc["passed"]["run_conclusive_rate"]

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

    def test_helstrom_depth_above_k_max_exits_one(self, monkeypatch, tmp_path, capsys):
        """k = K_MAX + 1 is rejected before the weight table is built or a
        coin is drawn; both are patched to fail the test if they run."""
        def untouched(*args, **kwargs):
            raise AssertionError("called before k was checked")

        monkeypatch.setattr(adversaries, "helstrom_parity_table", untouched)
        monkeypatch.setattr(adversaries, "_fair_bits", untouched)
        out = tmp_path / "r.json"
        argv = ["attack-alice", "--strategy", "helstrom", "--k", str(K_MAX + 1)]
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert f"k must lie in 1..{K_MAX}, got {K_MAX + 1}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["attack-alice", "--strategy", "bb84", "--trials", "1", "--n", "10", "--k", "1"],
         "trials must be >= 2"),
        (["attack-alice", "--strategy", "usd", "--trials", "1", "--n", "200", "--k", "2"],
         "trials must be >= 2"),
        (["attack-alice", "--strategy", "usd", "--n", "0"], "database size must be >= 1"),
        (["attack-alice", "--strategy", "usd", "--k", "0"], "security parameter must be >= 1"),
    ], ids=["bb84-1", "usd-1", "usd-n-0", "usd-k-0"])
    def test_one_monte_carlo_trial_exits_one(self, argv, message, monkeypatch, tmp_path,
                                             capsys):
        """One trial, or a discrimination attack of size 0, exits 1 before
        its per-qubit coins are drawn."""
        def untouched(*args, **kwargs):
            raise AssertionError("drawn before the sizes were checked")

        monkeypatch.setattr(experiments, "usd_success_trials", untouched)
        out = tmp_path / "r.json"
        assert run_cli(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
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
        ["table1"],
        ["usd-curve", "--kmax", "4"],
    ], ids=["run", "attack-bob-bias", "attack-bob-entangle", "sweep", "table1", "usd-curve"])
    def test_runtime_printed_not_written(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        csv_commands = ("sweep", "usd-curve")
        extra = ["--csv", str(tmp_path / "r.csv")] if argv[0] in csv_commands else []
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
    """sha256 of attack, sweep, honest-run and combine reports at fixed argv and seed.

    Every argv is pinned at seed 12345, and each that reads a seed at seed 7
    as well.

    Pinned from the per-trial round batteries and the per-qubit posterior
    arrays they replaced: a change to any random stream or to the report
    bytes fails here. The attack-bob and sweep digests were re-pinned when
    those reports became `ExperimentReport`s, after checking that every
    earlier number reappears bit-identical under its new key; again when
    the known-bit runs moved to streams of their own, and when they became
    the blocks of one attempt on one stream, both times after checking that
    only the `known_bits_mean` fields changed. The attack-alice-usd digest
    was re-pinned when the dispersion check moved from the Poisson ratio 1
    to the binomial 1 - p_c**k, after checking that only the analytic and
    ci99 `run_known_dispersion` fields changed. The attack-alice-usd and
    attack-alice-bb84 digests were re-pinned when `usd_success_trials` moved
    from one float per coin to the byte-and-tie draw, after checking that
    only values sampled from `UsdAlice` changed (`qubit_success_rate`, the
    `run_*` empirical and ci99 values, `known_mean_sarg`) and every analytic
    value stayed bit-identical. The attack-bob and sweep digests, and the
    sweep CSV digest, were re-pinned when the round batteries moved from
    per-round draws to one multinomial sample of their outcome classes,
    after checking key by key (`tools/compare_cli.py --keys`) that only
    sampled `empirical` values and their `ci99` widths moved and every
    analytic value stayed bit-identical. The `run -v` digests cover the
    honest engine's per-qubit records with every qubit detected, under
    loss, over 70,000 qubits, more than one `protocol.CHUNK`, and at k = 1,
    where the key holds 8 known bits at seed 12345 (5 at seed 7); the
    combine digest covers the honest engine driven through several keys.
    The two `run-streamed` digests, taken while every attempt drew its raw
    arrays, cover the streamed honest attempt: at n = 65,536, k = 9 its
    runs restart (7 times at seed 12345, twice at seed 7), and at n = 70,001
    the database draw leaves the spare half of an output. The
    `run-records-streamed` digests, taken while a transcript kept any final
    attempt but a streamed one whole, cover the records of a streamed
    attempt made again from its start state.
    The table1, usd-curve and first helstrom digests are taken at default
    argv; `TestGoldenReports` compares the last two with the dense route.
    The two attack-bob entangle digests cover both register modes, the
    attack-bob-bias-fair digests the bias at phi = 0, whose known-bit runs
    take `HonestAlice.respond`'s fair-coin path, and the k = 2 helstrom
    digest a sampler run that ends in a short batch. The
    attack-alice-bb84-restarts digests were taken while every `monte_carlo`
    trial whose first attempt knew no bit was rerun from its seed; about a
    third of its `UsdAlice` contrast's first attempts are empty. The
    attack-alice-usd-odd digests were taken while each trial's database came
    from one `rng.integers` call; its 9,363-bit databases end inside a
    32-bit word, and its 65,541 raw qubits fill one `protocol.CHUNK` and an
    odd piece.
    """

    ARGV = {
        "attack-alice-usd": ["attack-alice", "--strategy", "usd", "--n", "2000", "--k", "3",
                             "--trials", "20", "--jobs", "1"],
        "attack-alice-bb84": ["attack-alice", "--strategy", "bb84"],
        "attack-alice-bb84-restarts": ["attack-alice", "--strategy", "bb84", "--n", "40",
                                       "--k", "3", "--trials", "200"],
        "attack-alice-usd-odd": ["attack-alice", "--strategy", "usd", "--n", "9363", "--k", "7",
                                 "--trials", "40"],
        "attack-bob-bias": ["attack-bob", "--strategy", "bias", "--trials", "20000"],
        "attack-bob-bias-fair": ["attack-bob", "--strategy", "bias", "--phi", "0",
                                 "--trials", "20000"],
        "attack-bob-entangle": ["attack-bob", "--strategy", "entangle", "--trials", "20000"],
        "attack-bob-entangle-honest": ["attack-bob", "--strategy", "entangle", "--mode",
                                       "honest_basis", "--trials", "20000"],
        "sweep": ["sweep", "--points", "7", "--trials-per-point", "2000"],
        "run-records": ["run", "-v", "--n", "2000", "--k", "3"],
        "run-records-lossy": ["run", "-v", "--n", "500", "--k", "2", "--eta", "0.5"],
        "run-records-multi-chunk": ["run", "-v", "--n", "14000", "--k", "5"],
        "run-records-many-known": ["run", "-v", "--n", "40", "--k", "1"],
        "run-streamed-restarts": ["run", "--n", "65536", "--k", "9"],
        "run-streamed-odd": ["run", "--n", "70001", "--k", "3"],
        "run-records-streamed": ["run", "-v", "--n", "65536", "--k", "1"],
        "combine": ["combine", "--m", "3", "--n", "2000", "--k", "3", "--trials", "20",
                    "--jobs", "1"],
        "table1": ["table1"],
        "usd-curve": ["usd-curve"],
        "attack-alice-helstrom": ["attack-alice", "--strategy", "helstrom"],
        "attack-alice-helstrom-k2": ["attack-alice", "--strategy", "helstrom", "--k", "2",
                                     "--trials", "5000"],
    }
    SEED_12345 = {
        "attack-alice-usd": "372eab1ec81eb65b3ef111a535f9b55ced335f82357707e2f34b65d308521270",
        "attack-alice-bb84": "d4e4bf4882990f08373e55a07bb6cfbe4bab484ea6dbb21b1421a3fcb497a66a",
        "attack-alice-bb84-restarts":
            "404b98c50d31564d42459d814e658fb6ca0199f63d0bccceb3127fcaadf3e3fd",
        "attack-alice-usd-odd":
            "ab247a05214bf1273e0d535696973847a9612f78af05d13ada04e010b47dc045",
        "attack-bob-bias": "e610843fc02d208b43dbc926fea69254b5c1ca8593a593ed9e000315a4fb8cd8",
        "attack-bob-bias-fair":
            "e492864c17c4a6e860b1e29d404a7e9a5f60bf4e948e7f441b592bdf3c688ee6",
        "attack-bob-entangle":
            "0ce1be3b0aa466505c6ed00abd4b81b8b468b7e3c1f070bbb8c25e7bc07e7a4d",
        "attack-bob-entangle-honest":
            "20c6d1f0d2f8a8490420736a58f59d2c0144b4638a0e6e0ca9d2df552f293218",
        "sweep": "62223a41634ce6bbee59902920c6f2a13084fabc469b51b48d3063908b72657c",
        "run-records": "9a8fbfc535084f6106123d0c0626605ebe70e2f57d223ee6ab8086b1d20f137e",
        "run-records-lossy": "c0ac96a4bbb0597a8960a850949d00ca3f538e2579be3e222d067bc49cc894cf",
        "run-records-multi-chunk":
            "3aa92710f6133479028f01c02fca5dac232cbea866aa69781fd005750a659c97",
        "run-records-many-known":
            "7cdf762e3fe614cda41bb7d7fddb471db849ddc47f07caf2d159c8b511c9fe26",
        "run-streamed-restarts":
            "84cd1ffa470f47ba71fc0c46a1ea8abeb675b96dc1a6938c804773382e586a07",
        "run-streamed-odd": "906b8957dd3ff800b3ad6ba7022c7771e465d1335d4201e9a82fc8a95cd690b4",
        "run-records-streamed":
            "91ec56979da74dcd7a9bfc3d7c93fb479765d79b84910f576842972fe9bfec01",
        "combine": "5887db72a51941fc377e039bdbb0763af28a46070c7c9851ae09d88994936d21",
        "table1": "981a2b789cd7e4e10f725ce4a306e9395df1fefe3846f704f868a873d22dbfd8",
        "usd-curve": "73328b34c103c4cc01e2ab3604cbe505c9db45eb1cc2d4819ff879909daf60e4",
        "attack-alice-helstrom":
            "d2326e64ec111d17a18b7b979cf44f4e6e67c4f2c57396bd99c4c9175ecb6a71",
        "attack-alice-helstrom-k2":
            "ae18d442c2be9fd6a1f78a5c07654d97edd17e82cf83e38528d1c73c2f1c152e",
    }
    # The twins at a second seed, of every argv above that reads one
    # (table1 and usd-curve read none), so byte identity is checked on two
    # random streams.
    SEED_7 = {
        "attack-alice-usd": "20e530c7e2858d18610ddfa24701b5329b5dbdcad45f3fc42703a1098ab19f40",
        "attack-alice-bb84": "f744316be9e6e5e7c2eee15a235b3a4d0ea70ebf8b39d7e43e57731a41d6d50d",
        "attack-alice-bb84-restarts":
            "b4d3b5af76dc5f1b7ab53057f7faac8cecbbdd00bc167ec82cdd95a28757191a",
        "attack-alice-usd-odd":
            "c28d7a6e3092fe1cfa7b2cab4fe6d04ac6932b52c0cce7f0afaf235c7d4e5e07",
        "attack-bob-bias": "11babd947310bc9ba158cd291545659bbb66b5a3e1684621b470437bbb95d2a3",
        "attack-bob-bias-fair":
            "a8444077b4b1e3b734633b440d225fcdaf91dbab1e3a7504c02f9482fb75e01d",
        "attack-bob-entangle":
            "76f49dd7802b3d2f589a038aba869ea5821f791be33043042b39d5c1190b1411",
        "attack-bob-entangle-honest":
            "71f651abc75034544ff4123a7c2b7fca43965fe9c55ccf1dbd6036a74d820e9e",
        "sweep": "2d44f1f0113917d9ec61a01b941d486305ae66fe25cf706647fc8a0cee2301be",
        "run-records": "bff45f541d271ecdb52f14d57c22099f02a48037e67285bddda2a34b42bdfd5e",
        "run-records-lossy": "fa4aca485199ab0898db223abaacc199688f2b5c860d38d45d21aef83541e70e",
        "run-records-multi-chunk":
            "90a804f8cb3745a58d2925e8b5ac74cf6c9f051f378ef4e56d45fcba18c90040",
        "run-records-many-known":
            "2e5cc12cf530dae6077a8fe28fa08dc8b9a2c17cd8c2628991b2885975f0f9a5",
        "run-streamed-restarts":
            "0ccdd773ad19d256669dd85b6ff7fd6b3d23df03f3223ff7830526c19c03da08",
        "run-streamed-odd": "43aaca952d950e1b2f47989bbaad16ef0b2b0f9af7b3917b2230a205981d6ebc",
        "run-records-streamed":
            "6b7b5823052a2aa120f756fd022095b0738ac2f4f76869f326fd636d49774d3d",
        "combine": "6e68d2db32d640686023eda8f1159d66ef7ec401de3a3aca51c3917f46b2db3b",
        "attack-alice-helstrom":
            "906ee5455a7ab271790c8072c179f0f9af0da5e64e341fd207662e9d08811842",
        "attack-alice-helstrom-k2":
            "0a4dfed8b964b662c0df4405aa6b0467da2a06733f2740dd4300b79e14e56c17",
    }

    def _digest(self, name, seed, tmp_path):
        argv = self.ARGV[name]
        out = tmp_path / "report.json"
        extra = (["--csv", str(tmp_path / "report.csv")] if argv[0] in ("sweep", "usd-curve")
                 else [])
        run_cli(argv + ["--seed", seed, "--out", str(out), *extra])
        return hashlib.sha256(out.read_bytes()).hexdigest()

    @pytest.mark.parametrize("name", list(SEED_12345))
    def test_report_digest(self, name, tmp_path):
        assert self._digest(name, "12345", tmp_path) == self.SEED_12345[name]

    @pytest.mark.parametrize("name", list(SEED_7))
    def test_report_digest_seed_7(self, name, tmp_path):
        assert self._digest(name, "7", tmp_path) == self.SEED_7[name]

    def test_sweep_csv_digest(self, tmp_path):
        """Pinned before the report fold, where the CSV columns kept every byte;
        re-pinned with the sweep digests when the batteries became multinomial."""
        csv_path = tmp_path / "sweep.csv"
        run_cli(["sweep", "--points", "7", "--trials-per-point", "2000", "--seed", "12345",
                 "--out", str(tmp_path / "sweep.json"), "--csv", str(csv_path)])
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == \
            "3c812a7053b955246322730d96f19a34bc67858382d71cab120ddf0192eb75c9"

    def test_usd_curve_csv_digest(self, tmp_path):
        csv_path = tmp_path / "curve.csv"
        run_cli(["usd-curve", "--seed", "12345", "--out", str(tmp_path / "curve.json"),
                 "--csv", str(csv_path)])
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == \
            "20510555af05dc94de228d3ca025eb800e828b9401ac20db455b7fc74b18b2d3"
