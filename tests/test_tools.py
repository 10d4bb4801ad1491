"""Smoke tests of the scripts under tools/."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_compare_cli():
    spec = importlib.util.spec_from_file_location("compare_cli", ROOT / "tools" / "compare_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareCli:
    def test_commands_are_the_benchmark_ones_plus_verbose_run(self):
        """The 10 benchmark commands plus `run -v`, a lossy run, an odd
        multi-chunk run, a run with many known bits, a memory attack whose
        contrast restarts, an odd multi-chunk discrimination attack, one
        shorter than an 8-byte output, three
        streamed runs: one that restarts, one that starts on a spare half and
        a verbose one, whose records replay its final attempt, and two
        provider attacks: the honest register basis and the bias at phi = 0."""
        commands = load_compare_cli().cli_commands()
        assert commands["run -v"] == ["run", "-v"]
        assert commands["run -v lossy"] == ["run", "-v", "--n", "500", "--k", "2", "--eta", "0.5"]
        assert commands["run -v odd"] == ["run", "-v", "--n", "14001", "--k", "5"]
        assert commands["run -v many-known"] == ["run", "-v", "--n", "40", "--k", "1"]
        assert commands["attack-alice bb84 restarts"] == [
            "attack-alice", "--strategy", "bb84", "--n", "40", "--k", "3", "--trials", "200"]
        assert commands["attack-alice usd odd"] == [
            "attack-alice", "--strategy", "usd", "--n", "9363", "--k", "7", "--trials", "40"]
        assert commands["attack-alice usd tiny"] == [
            "attack-alice", "--strategy", "usd", "--n", "7", "--k", "1", "--trials", "40"]
        assert commands["run restarts"] == ["run", "--n", "65536", "--k", "9"]
        assert commands["run odd spare"] == ["run", "--n", "70001", "--k", "3"]
        assert commands["run -v streamed"] == ["run", "-v", "--n", "65536", "--k", "1"]
        assert commands["attack-bob entangle honest"] == [
            "attack-bob", "--strategy", "entangle", "--mode", "honest_basis"]
        assert commands["attack-bob bias fair"] == ["attack-bob", "--strategy", "bias",
                                                    "--phi", "0"]
        assert commands["attack-alice bb84 jobs 2"] == [
            "attack-alice", "--strategy", "bb84", "--jobs", "2"]
        assert commands["combine jobs 2"] == ["combine", "--jobs", "2"]
        assert commands["run"] == ["run"] and commands["combine"] == ["combine"]
        assert len(commands) == 24

    def test_one_command_against_the_same_tree_matches(self):
        """usd-curve writes a JSON report and a CSV file; two fresh runs agree."""
        row = load_compare_cli().compare(ROOT, ROOT, ["usd-curve"], "7")
        assert row == {"json": "same", "csv": "same", "exit": "same 0/0"}

    def test_a_changed_byte_or_a_missing_file_is_a_difference(self):
        tool = load_compare_cli()
        report = tool.Outcome(0, {"qpq_run.json": b"{}"})
        assert tool._verdict(report, report, ".json") == "same"
        assert tool._verdict(report, tool.Outcome(0, {"qpq_run.json": b"{ }"}), ".json") == "DIFF"
        assert tool._verdict(report, tool.Outcome(0, {}), ".json") == "DIFF"
        assert tool._verdict(report, report, ".csv") == "none"

    def test_keys_lists_the_dotted_paths_of_differing_values(self):
        """Nested dicts and lists by index; a key or file only one run wrote is listed."""
        tool = load_compare_cli()
        parent = tool.Outcome(0, {
            "qpq_sweep.json": b'{"ok": true, "strategies": [{"p_c": 0.25, "p_b": 1.0}, '
                              b'{"p_c": 0.5}]}',
            "qpq_run.json": b'{"a": 1}', "qpq_sweep.csv": b"x"})
        change = tool.Outcome(0, {
            "qpq_sweep.json": b'{"ok": true, "strategies": [{"p_c": 0.25, "p_b": 0.5}, '
                              b'{"p_c": 0.5, "n": 2}]}',
            "qpq_bob.json": b"{}", "qpq_sweep.csv": b"y"})
        assert tool.differing_keys(parent, change) == [
            "qpq_bob.json", "qpq_run.json",
            "qpq_sweep.json: strategies.0.p_b", "qpq_sweep.json: strategies.1.n"]
        assert tool.differing_keys(parent, parent) == []

    def test_source_lines_counts_newlines_as_wc_does(self, tmp_path):
        """On this tree, the tool's count equals a line-by-line one; a last
        line without a newline is not counted, as `wc -l` does not."""
        tool = load_compare_cli()
        direct = 0
        for path in (ROOT / "src" / "qpq").glob("*.py"):
            with open(path, "rb") as f:
                direct += sum(line.endswith(b"\n") for line in f)
        assert tool.source_lines(ROOT) == direct > 0
        package = tmp_path / "src" / "qpq"
        package.mkdir(parents=True)
        (package / "a.py").write_bytes(b"x = 1\ny = 2")
        (package / "b.py").write_bytes(b"\n\n")
        (package / "notes.txt").write_bytes(b"\n")
        assert tool.source_lines(tmp_path) == 3
