"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import metrics  # noqa: E402
import processes  # noqa: E402
import qpq  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qpq import adversaries, cli, experiments, protocol  # noqa: E402
from tracing import Tracer, busy_ns, covered_ns, self_times  # noqa: E402


# --------------------------------------------------------------------------
# tail percentile
# --------------------------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 31)]  # 30 samples
    value, level = metrics.tail_percentile(values[::-1])
    assert value == 20.0
    assert sum(v > value for v in values) == 10
    assert level == pytest.approx(20 / 30)


def test_tail_with_the_minimum_sample_count_is_the_smallest_value():
    value, level = metrics.tail_percentile([5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0])
    assert value == 1.0
    assert level == pytest.approx(1 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        metrics.tail_percentile([1.0] * 10)


# --------------------------------------------------------------------------
# span arithmetic
# --------------------------------------------------------------------------

def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 30, 0),
        _span("a.inner", 15, 20, 1),
        _span("b", 50, 70, 0),
    ]
    assert self_times(spans) == [60, 15, 5, 20]


def test_covered_time_is_the_union_clipped_to_the_parent():
    assert covered_ns(0, 100, [(10, 30), (20, 40), (90, 120)]) == 40
    assert covered_ns(0, 100, []) == 0


def test_busy_time_counts_only_outermost_matching_spans():
    spans = [
        _span("x.run", 0, 100, -1),
        _span("x.run", 10, 40, 0),  # nested call of the same name
        _span("x.run", 200, 250, -1),
    ]
    assert busy_ns(spans, lambda s: s == "x.run") == 150


# --------------------------------------------------------------------------
# patching
# --------------------------------------------------------------------------

@pytest.fixture
def installed_tracer():
    extra = types.ModuleType("bench_test_binder")
    extra.run_protocol = protocol.run_protocol
    extra.parity_mixtures = qpq.quantum.parity_mixtures
    sys.modules[extra.__name__] = extra
    tracer = Tracer()
    tracer.plan()
    tracer.install()
    try:
        yield tracer, extra
    finally:
        tracer.uninstall()
        del sys.modules[extra.__name__]


def test_patching_reaches_every_module_that_binds_a_wrapped_name(installed_tracer):
    tracer, extra = installed_tracer
    wrapper = protocol.run_protocol
    assert getattr(wrapper, "__wrapped__", None) is not None
    for module in (qpq, experiments, adversaries, cli, extra):
        assert module.run_protocol is wrapper, module.__name__
    mixtures = qpq.quantum.parity_mixtures
    for module in (qpq, adversaries, experiments, extra):
        assert module.parity_mixtures is mixtures, module.__name__
    assert adversaries.UsdAlice.respond.__wrapped__ is not None
    assert protocol.HonestBob.rounds.__wrapped__ is not None


def test_uninstall_restores_the_originals():
    tracer = Tracer()
    tracer.plan()
    original = experiments.run_protocol
    tracer.install()
    assert experiments.run_protocol is not original
    tracer.uninstall()
    assert experiments.run_protocol is original
    assert not hasattr(protocol.HonestAlice.respond, "__wrapped__")


def test_traced_call_records_parented_spans_and_counts(installed_tracer):
    tracer, _ = installed_tracer
    config = protocol.ProtocolConfig(n=200, k=2, eta=0.5)
    database = np.zeros(200, dtype=np.uint8)
    experiments.run_protocol(config, database, 3, rng=np.random.default_rng(1))
    names = [span[0] for span in tracer.spans]
    assert names[0] == "protocol.run_protocol"
    assert "protocol.HonestBob.rounds" in names
    assert "protocol.HonestAlice.respond" in names
    assert all(span[3] == 0 for span in tracer.spans[1:] if span[0].endswith(".respond"))
    attempts = tracer.counters["protocol.attempts"]
    assert attempts >= 1
    assert tracer.counters["protocol.qubits_detected"] == 400 * attempts
    assert tracer.counters["protocol.qubits_prepared"] > 400 * attempts


def test_layer_metrics_are_given_per_traced_op():
    spans = [_span("protocol.run_protocol", 0, 2_000_000_000, -1),
             _span("protocol.HonestBob.rounds", 0, 500_000_000, 0),
             _span("protocol.run_protocol", 0, 1_000_000_000, -1)]
    counters = Counter({"protocol.qubits_detected": 300, "protocol.qubits_prepared": 600})
    out = metrics.layer_metrics(spans, counters, ops=2)
    assert out["protocol.run_protocol.calls"] == (1.0, "count/op")
    assert out["protocol.run_protocol.busy_s"] == (1.5, "s/op")
    assert out["protocol.run_protocol.self_s"] == (1.25, "s/op")
    assert out["protocol.prepare.busy_s"] == (0.25, "s/op")
    assert out["protocol.detected_ratio"] == (0.5, "ratio")
    assert out["protocol.ns_per_qubit"][0] == pytest.approx(3e9 / 300)


# --------------------------------------------------------------------------
# correctness checks
# --------------------------------------------------------------------------

@pytest.fixture
def small_query():
    rng = np.random.default_rng(7)
    database = rng.integers(0, 2, 500, dtype=np.uint8)
    target = 17
    t = protocol.run_protocol(protocol.ProtocolConfig(n=500, k=2), database, target, rng=rng)
    return t, database, target


def test_checker_accepts_an_honest_transcript(small_query):
    assert workloads.check_transcript(*small_query) == []


@pytest.mark.parametrize("corrupt, flag", [
    (lambda t: setattr(t, "retrieved_bit", 1 - t.retrieved_bit), "retrieved_bit_wrong"),
    (lambda t: setattr(t, "shift", (t.shift + 1) % t.config.n), "shift_inconsistent"),
    (lambda t: t.key.alice_known.update({t.chosen_index: 1 - t.key.alice_known[t.chosen_index]}),
     "known_bits_mismatch"),
    (lambda t: t.key.alice_known.pop(t.chosen_index), "chosen_index_unknown"),
])
def test_checker_flags_a_corrupted_transcript(small_query, corrupt, flag):
    t, database, target = small_query
    corrupt(t)
    assert flag in workloads.check_transcript(t, database, target)


def test_statistical_verdicts_never_fail_an_op():
    result = workloads.OpResult()
    workloads._split_verdicts(result, "mc", {"retrieval_correct": True, "known_mean": False},
                              ("retrieval_correct",))
    assert result.failures == []
    assert result.stat_checks == {"mc.known_mean": False}


def test_inputs_depend_only_on_seed_and_op_index():
    for workload in workloads.WORKLOADS.values():
        a, b = workload.make_inputs(5, 3), workload.make_inputs(5, 3)
        c = workload.make_inputs(6, 3)
        assert a.keys() == b.keys()
        for key in a:
            if isinstance(a[key], np.ndarray):
                assert np.array_equal(a[key], b[key])
                assert not np.array_equal(a[key], c[key])
            elif not isinstance(a[key], np.random.Generator):
                assert a[key] == b[key]


# --------------------------------------------------------------------------
# set-up measurements
# --------------------------------------------------------------------------

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   site
import time:        50 |         50 |       numpy._core
import time:        20 |         20 |         fnmatch
import time:        30 |         50 |       numpy.lib
import time:      1000 |       1100 |     numpy
import time:        40 |         40 |         numpy.fft
import time:        60 |        100 |       scipy._lib
import time:       500 |        600 |     scipy
import time:         5 |          5 |       json.decoder
import time:        10 |         15 |     json
import time:       200 |       1915 |   qpq.quantum
import time:       300 |        300 |   qpq.protocol
import time:         7 |       2222 | qpq
"""


def test_import_split_charges_each_module_to_its_outermost_package():
    split = processes.import_split(IMPORTTIME)
    assert split["import_qpq_s"] == pytest.approx(2222e-6)
    assert split["import_numpy_s"] == pytest.approx(1100e-6)  # fnmatch under numpy counts
    assert split["import_scipy_stats_s"] == pytest.approx(600e-6)  # numpy.fft under scipy
    # the rest of `import qpq` is qpq's own, json included; `site` is outside it
    own = split["import_qpq_s"] - split["import_numpy_s"] - split["import_scipy_stats_s"]
    assert own == pytest.approx((7 + 300 + 200 + 15) * 1e-6)


def test_import_split_of_a_real_import_names_numpy_and_scipy():
    split = {key: value for key, (value, unit) in processes.measure_import_split(ROOT).items()}
    assert 0 < split["setup.import_numpy_s"] < split["setup.import_qpq_s"]
    assert 0 < split["setup.import_scipy_stats_s"] < split["setup.import_qpq_s"]


def _modules_after(code: str) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=60)
    return set(proc.stdout.split("\n")[-2].split())


def test_set_up_probe_imports_nothing_the_program_does_not_import():
    report = "print(' '.join(sorted(sys.modules)))"
    program = _modules_after(f"import runpy, sys; sys.path.insert(0, 'src'); import qpq; {report}")
    probe = _modules_after(
        "import runpy, sys; sys.path.insert(0, 'bench'); "
        "sys.argv = ['setup_probe.py', '.', 'bounds', '1', '0', '0']; "
        f"runpy.run_path('bench/setup_probe.py', run_name='__main__'); {report}")
    assert "qpq" in probe
    assert probe - program == {"workloads"}


def test_sidecar_times_the_kernel_in_its_own_process():
    with calibrate.Sidecar() as sidecar:
        times = [sidecar.time() for _ in range(2)]
        proc = sidecar._proc
    assert all(0 < t < 5 for t in times)
    assert proc.returncode == 0


def test_closed_loop_scales_the_run_by_its_median_kernel_time():
    import worker

    timings = iter([0.04, 0.01] + [0.02] * 20)
    workload = workloads.Workload("toy", lambda seed, i: {"i": i}, lambda i: i,
                                  lambda out, inputs: workloads.OpResult())
    loop = worker.closed_loop(workload, 1, 0.0, lambda: next(timings))
    assert len(loop["ops"]) == metrics.MIN_OPS
    assert loop["scale"] == pytest.approx(calibrate.REFERENCE_S / 0.02)


# --------------------------------------------------------------------------
# the contract with BENCHMARK.json
# --------------------------------------------------------------------------

def test_benchmark_json_names_every_metric_the_runs_emit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert end_to_end == {"setup_s", "peak_rss_mb", *metrics.end_to_end([1.0] * 11, 11, 11.0)}
    per_layer = {m["name"] for m in spec["per_layer"]}
    emitted = set(metrics.layer_metrics([], Counter(), 1))
    emitted |= {f"cli.{cmd}.{field}" for cmd in processes.CLI_COMMANDS
                for field in ("wall_s", "peak_rss_mb", "exit")}
    emitted |= {f"setup.{key}" for key in ("import_numpy_s", "import_scipy_stats_s",
                                           "import_qpq_s")}
    emitted |= {f"experiments.stat_checks_{key}" for key in ("evaluated", "failed")}
    emitted |= {f"trace.{key}" for key in ("ops_traced", "ops_per_s_traced",
                                           "ops_per_s_untraced", "overhead_ops_per_s")}
    assert per_layer == emitted


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bounds", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
