"""Command-line interface tests: dispatch, exit codes, files, determinism."""

import json
import math

import pytest

from qpq import adversaries, experiments
from qpq.cli import SEED_ENV_VAR, main

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


def key_paths(doc, prefix=""):
    """Every key path of a JSON document; list items share the path segment "*"."""
    if isinstance(doc, dict):
        return {path for key, value in doc.items()
                for path in {f"{prefix}/{key}"} | key_paths(value, f"{prefix}/{key}")}
    if isinstance(doc, list):
        return {path for item in doc for path in key_paths(item, f"{prefix}/*")}
    return set()


ATTACK_REPORT_PATHS = {
    "/strategy", "/params", "/trials", "/p_c", "/p_b", "/product", "/bit_error_rate",
    "/basis_guess_rate", "/known_bits_mean", "/analytic", "/analytic/p_c",
    "/analytic/p_b", "/analytic/product", "/ci99", "/ci99/basis_guess_rate", "/passed",
    "/passed/basis_guess_half", "/passed/product_bound",
}


class TestReportShape:
    """The attack-bob and sweep reports keep every key they have; a refactor
    that drops or renames a field fails here."""

    @pytest.mark.parametrize("strategy,extra", [
        ("bias", {"/params/phi", "/analytic/bit_error_rate", "/analytic/known_bits_mean",
                  "/ci99/p_c", "/ci99/known_bits_mean", "/passed/conclusive_rate",
                  "/passed/known_mean"}),
        ("entangle", {"/params/mode", "/analytic/conclusiveness_guess_bound",
                      "/analytic/known_bits_mean", "/ci99/p_c", "/ci99/p_b",
                      "/ci99/known_bits_mean", "/passed/p_c", "/passed/p_b",
                      "/passed/known_mean"}),
    ])
    def test_attack_bob_keys(self, strategy, extra, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["attack-bob", "--strategy", strategy, "--trials", "2000",
                        "--seed", "5", "--out", str(out)]) in (0, 2)
        doc = json.loads(out.read_text())
        assert key_paths(doc) == ATTACK_REPORT_PATHS | extra

    def test_sweep_keys_and_csv_header(self, tmp_path):
        out, csv_path = tmp_path / "s.json", tmp_path / "s.csv"
        assert run_cli(["sweep", "--points", "3", "--trials-per-point", "500", "--seed", "5",
                        "--out", str(out), "--csv", str(csv_path)]) in (0, 2)
        doc = json.loads(out.read_text())
        assert set(doc) == {"max_product_analytic", "max_product_strategy", "basis_guess_ok",
                            "product_ok", "familywise_confidence", "trials_per_point",
                            "strategies"}
        entry_paths = ATTACK_REPORT_PATHS | {"/ci99/product"}
        strategies = doc["strategies"]
        assert [rep["strategy"] for rep in strategies] == ["biased"] * 3 + ["entangled"] * 2
        for rep in strategies:
            param = "/params/phi" if rep["strategy"] == "biased" else "/params/mode"
            assert key_paths(rep) == entry_paths | {param}
        assert csv_path.read_text().splitlines()[0] == "phi,p_c,p_b,product,basis_guess,ci"


def _diff_reports(block, dense, path=""):
    """Paths where two report documents differ; floats may differ by 1e-12."""
    if isinstance(block, dict) and isinstance(dense, dict):
        if block.keys() != dense.keys():
            return [f"{path}: keys {sorted(block)} vs {sorted(dense)}"]
        return [d for key in block for d in _diff_reports(block[key], dense[key],
                                                          f"{path}/{key}")]
    if isinstance(block, list) and isinstance(dense, list):
        if len(block) != len(dense):
            return [f"{path}: length {len(block)} vs {len(dense)}"]
        return [d for i, (a, b) in enumerate(zip(block, dense))
                for d in _diff_reports(a, b, f"{path}/{i}")]
    if isinstance(block, float) and isinstance(dense, float):
        ok = math.isclose(block, dense, rel_tol=0.0, abs_tol=1e-12)
    else:
        ok = type(block) is type(dense) and block == dense
    return [] if ok else [f"{path}: {block!r} vs {dense!r}"]


class TestGoldenReports:
    """The block route's reports against the dense route's, at default argv and seed."""

    @pytest.mark.parametrize("argv,name", [
        (["usd-curve"], "qpq_usd_curve.json"),
        (["attack-alice", "--strategy", "helstrom"], "qpq_attack_alice_helstrom.json"),
    ])
    def test_report_matches_the_dense_route(self, argv, name, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        docs = {}
        for route in ("block", "dense"):
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
        assert _diff_reports(docs["block"], docs["dense"]) == []
        if "guess_rate" in docs["block"]["empirical"]:
            assert docs["block"]["empirical"]["guess_rate"] == \
                docs["dense"]["empirical"]["guess_rate"]
