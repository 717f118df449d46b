"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import krylov  # noqa: E402
from krylov.lanczos import ReorthMode  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_counts(fn):
    """Run ``fn(A, sampler)`` on a traced diagonal operator; return the
    result and the per-layer metrics of the spans it left."""
    tracer = tracing.Tracer()
    d = 2000
    A = tracer.operator(krylov.LinearOperator.diagonal(np.geomspace(1.0, 1e4, d)), tracing.OperatorCost.diagonal(d))
    with tracer.patched():
        result = fn(A, tracer.sampler_class()(seed=0))
    return result, tracing.layer_metrics(tracer.spans, wall=1.0)


def _b(d=2000):
    return np.random.default_rng(0).standard_normal(d)


# Matvec counts of the baseline cases; they must repeat exactly.
@pytest.mark.parametrize(
    "case, expected",
    [
        ("lanczos_k200", 200),
        ("cg_tridiagonal_tol0_k200", 400),
        ("two_pass_k200_stride20", 390),
        ("slq_trace_k30_m50", 1500),
    ],
)
def test_baseline_matvec_counts(case, expected):
    calls = {
        "lanczos_k200": lambda A, s: krylov.lanczos(A, _b(), 200, mode=ReorthMode.NONE),
        "cg_tridiagonal_tol0_k200": lambda A, s: krylov.cg(A, _b(), 200, mode=ReorthMode.NONE, tol=0.0),
        "two_pass_k200_stride20": lambda A, s: krylov.two_pass_lanczos_fa(A, _b(), np.sqrt, 200, 20),
        "slq_trace_k30_m50": lambda A, s: krylov.slq_trace(A, np.log, 30, 50, s),
    }
    _, m = traced_counts(calls[case])
    assert m["core.operator.calls"] == expected


def test_layer_counts_split_residual_and_second_pass_matvecs():
    _, m = traced_counts(lambda A, s: krylov.cg(A, _b(), 200, mode=ReorthMode.NONE, tol=0.0))
    assert m["solvers.residual_matvecs"] == 200
    assert m["lanczos.steps"] == 200
    assert m["solvers.useful_step_frac"] == 1.0
    _, m = traced_counts(lambda A, s: krylov.two_pass_lanczos_fa(A, _b(), np.sqrt, 200, 20))
    assert m["matfunc.second_pass_matvecs"] == 190
    _, m = traced_counts(lambda A, s: krylov.slq_trace(A, np.log, 30, 50, s))
    assert m["trace.probe.calls"] == 50
    assert m["trace.probes_dropped"] == 0


def test_low_memory_cg_recurrence_is_not_counted_as_residuals():
    hist, m = traced_counts(
        lambda A, s: krylov.cg(A, _b(), 50, backend="low_memory", mode=ReorthMode.NONE, tol=0.0, keep_iterates=False)
    )
    steps = len(hist.residual_norms)
    assert m["core.operator.calls"] == 2 * steps
    assert m["solvers.residual_matvecs"] == steps


def span(name, parent, start, end):
    info = tracing.OperatorCost(flops=10, bytes=80) if name == tracing.OPERATOR else None
    return [name, parent, start, end, info]


def test_self_time_arithmetic_on_synthetic_tree():
    spans = [
        span("solvers.cg", -1, 0.0, 10.0),
        span("lanczos.lanczos", 0, 1.0, 4.0),
        span("core.operator", 1, 2.0, 2.5),
        span("core.operator", 0, 5.0, 6.0),
        span("core.tridiag_solve", 0, 7.0, 9.0),
        span("core.operator", -1, 11.0, 11.25),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.5, 0.5, 1.0, 2.0, 0.25])
    assert tracing.module_self_times(spans) == pytest.approx(
        {"solvers": 4.0, "lanczos": 2.5, "core.operator": 1.75, "core": 2.0}
    )
    m = tracing.layer_metrics(spans, wall=12.0)
    assert m["core.operator.busy_s"] == pytest.approx(1.75)
    assert m["core.operator.share"] == pytest.approx(1.75 / 12.0)
    assert m["core.operator.overhead_ratio"] == pytest.approx((12.0 - 1.75) / 1.75)
    assert m["core.operator.bytes_computed"] == 240
    assert m["core.operator.flops_per_byte"] == pytest.approx(0.125)
    assert m["solvers.self_s"] == pytest.approx(4.0)
    assert m["core.solve.calls"] == 1


def test_covered_merges_overlaps_and_nesting():
    assert tracing.covered([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == pytest.approx(4.0)
    assert tracing.covered([]) == 0.0
    # A child sticking out of its parent only counts inside the parent.
    spans = [span("trace.slq_trace", -1, 0.0, 1.0), span("core.operator", 0, 0.5, 2.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(0.5)


def _bindings() -> dict:
    return {(mod.__name__, attr): value for mod in tracing.krylov_modules() for attr, value in vars(mod).items()}


def test_patching_restores_every_module_attribute():
    before = _bindings()
    with tracing.Tracer().patched():
        assert krylov.lanczos is not before[("krylov", "lanczos")]
        assert sys.modules["krylov.solvers"].lanczos is krylov.lanczos
    with pytest.raises(RuntimeError):
        with tracing.Tracer().patched():
            raise RuntimeError("a failing traced call")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_and_untraced_passes_give_the_same_digest(tmp_path):
    workload = WORKLOADS["desk"]
    inputs = workload.setup(0, tmp_path)
    before = _bindings()
    traced, spans = bench.traced_pass(workload, inputs)
    traced_digest = bench.digest(traced.results)
    plain = bench.run_pass(workload, bench.plain_context(workload, inputs))
    assert bench.digest(plain.results) == traced_digest
    assert any(sp[tracing.NAME] == tracing.OPERATOR for sp in spans)
    assert any(sp[tracing.NAME] == "experiments.run_experiment" for sp in spans)
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_digest_and_matvecs_repeat_across_processes():
    outs = [_run(ROOT, "--workload", "desk", "--seed", "3", "--seconds", "0.1", "--trace", "0") for _ in range(2)]
    for out in outs:
        assert out.returncode == 0, out.stderr
    digests = [next(ln for ln in o.stdout.splitlines() if ln.startswith("digest:")) for o in outs]
    results = [json.loads(o.stdout.splitlines()[-1]) for o in outs]
    assert digests[0] == digests[1]
    assert results[0]["metrics"]["matvecs"] == results[1]["metrics"]["matvecs"]
    assert all(r["correct"] and r["failed"] == 0 for r in results)


class _StubReference:
    def __init__(self, scales):
        self._scales = iter(scales)

    def sample(self):
        return next(self._scales)


def test_times_are_measured_times_in_reference_seconds(tmp_path):
    # A pass's scale is the geometric mean of the kernel samples taken
    # before its first call and after each call.
    workload = WORKLOADS["desk"]
    inputs = workload.setup(0, tmp_path)
    scales = [2.0 ** (i % 3 - 1) for i in range(len(workload.calls) + 1)]
    res = bench.run_pass(workload, bench.plain_context(workload, inputs), _StubReference(scales))
    assert res.scale == pytest.approx(math.prod(scales) ** (1.0 / len(scales)))
    assert res.wall == pytest.approx(sum(res.call_s.values()))

    out = _run(ROOT, "--workload", "desk", "--seed", "0", "--seconds", "0.1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    lines = dict(ln.split(": ", 1) for ln in out.stdout.splitlines()[:-1] if ": " in ln and ln[0] != "{")
    measured, medians = json.loads(lines["measured_s"]), json.loads(lines["reference_median_s"])
    assert set(medians) == {"small_calls"}
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    assert set(measured) == {"setup_s", "pass_s", "call_geomean_s"}
    assert all(metrics[name]["value"] > 0 for name in measured)


def test_benchmark_json_names_what_the_benchmark_measures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, per_layer = bench.metric_units(ROOT / "BENCHMARK.json")
    assert set(end_to_end) == {"setup_s", "pass_s", "call_geomean_s", "matvecs", "peak_rss_mb"}
    assert set(per_layer) == set(tracing.layer_metrics([], wall=1.0)) | {"tracing.overhead_frac"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_traced_run_reports_every_per_layer_metric():
    out = _run(ROOT, "--workload", "desk", "--seed", "0", "--seconds", "0.1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result["metrics"]) == set(bench.metric_units(ROOT / "BENCHMARK.json")[1])
    assert result["correct"]


def test_fails_without_a_result_when_the_library_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "--workload", "desk", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
