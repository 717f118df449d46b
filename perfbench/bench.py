"""Measurement loop: set-up, one traced reference pass that is checked,
then timed passes until the run's seconds are spent.

End-to-end metrics come from untraced passes only.  A traced run
(``trace=True``) alternates untraced and traced passes, reports the
per-layer metrics as medians over its traced passes, and the tracing
overhead as the ratio of the two pass-time medians.
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
import scipy.linalg

import tracing
from workloads import Context, laplacian_2d

SETUP_REPEATS = 7
SETUP_SECONDS = 1.0
MIN_PASSES = 3
# Median time of each reference kernel where the benchmark was defined
# (2-vCPU Xeon, 105 MiB LLC, numpy 2.4 with OpenBLAS 0.3.31): the unit of
# reference seconds, chosen so that they read close to seconds there.
REFERENCE_NOMINAL_S = {
    "python": 0.0025,
    "vector": 0.0027,
    "blas": 0.0066,
    "small_calls": 0.0025,
    "spmv": 0.0105,
}


class MachineReference:
    """Fixed kernels, independent of krylov, timed around every set-up
    and between the calls of every untraced pass: a pure-Python loop,
    streaming numpy arithmetic in place, BLAS matrix-vector products,
    CSR matrix-vector products, and many small numpy and LAPACK calls.
    The shared machine's speed drifts by up to 2x within seconds, and not
    alike for every kind of work; scaling each pass by kernels that
    resemble its work, timed between its calls, cancels most of that
    drift, while a change to krylov moves only the workload's time."""

    def __init__(self, kernels):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(200_000)
        self._buf = np.empty_like(self._x)
        self._M = rng.standard_normal((10_000, 64))
        self._v = rng.standard_normal(64)
        self._w = np.empty(10_000)
        self._u = np.empty(64)
        self._xs = rng.standard_normal(64)
        self._alpha = rng.standard_normal(40)
        self._beta = rng.random(39) + 0.1
        self._Q = rng.standard_normal((200, 40))
        if "spmv" in kernels:
            # The size of sparse-stream's operator (d = 202,500, CSR
            # 13 MB): a smaller one sits in faster caches and tracks the
            # workload's slowdowns less well.
            self._csr = laplacian_2d(450)
            self._xcsr = rng.standard_normal(self._csr.shape[0])
        self.times = {k: [] for k in kernels}

    def sample(self) -> float:
        """Time every kernel once; return reference seconds per measured
        second at this moment."""
        ratios = []
        for kernel, times in self.times.items():
            t0 = perf_counter()
            getattr(self, f"_{kernel}")()
            times.append(perf_counter() - t0)
            ratios.append(REFERENCE_NOMINAL_S[kernel] / times[-1])
        return math.prod(ratios) ** (1.0 / len(ratios))

    def _python(self):
        acc = 0
        for i in range(30_000):
            acc += i * i % 7

    def _vector(self):
        for _ in range(8):
            np.multiply(self._x, 1.5, out=self._buf)
            np.add(self._buf, self._x, out=self._buf)

    def _spmv(self):
        for _ in range(6):
            self._csr @ self._xcsr

    def _blas(self):
        for _ in range(12):
            np.dot(self._M, self._v, out=self._w)
            np.dot(self._M.T, self._w, out=self._u)

    def _small_calls(self):
        for _ in range(200):
            y = self._xs * 2.0 - self._xs
            float((y / np.linalg.norm(y)) @ self._xs)
        for _ in range(10):
            scipy.linalg.eigh_tridiagonal(self._alpha, self._beta)
        for _ in range(50):
            self._Q.T @ (self._Q @ self._alpha)


def metric_units(spec_path: Path) -> tuple:
    """``({end-to-end name: unit}, {per-layer name: unit})`` as
    BENCHMARK.json defines them."""
    spec = json.loads(spec_path.read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def digest(obj) -> str:
    """Hash of every array's bytes (and every scalar) in a result tree."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if f.name == "csv_path" and value:  # location differs; contents must not
                value = Path(value).read_bytes()
            h.update(f.name.encode())
            _feed(h, value)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for x in obj:
            _feed(h, x)
    elif isinstance(obj, enum.Enum):
        h.update(repr(obj).encode())
    elif isinstance(obj, bytes):
        h.update(b"b%d" % len(obj))
        h.update(obj)
    elif isinstance(obj, (str, bool, int, float, np.generic, type(None))):
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"cannot digest {type(obj)!r}")


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": _llc_bytes(),
        "workload": workload,
        "seed": seed,
    }


def _llc_bytes():
    """Last-level cache size from glibc's sysconf (cpuid; no file read)."""
    import ctypes

    try:
        value = ctypes.CDLL(None).sysconf(194)  # _SC_LEVEL3_CACHE_SIZE
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


@dataclasses.dataclass
class PassResult:
    wall: float  # the calls' times summed
    call_s: dict
    results: dict
    scale: float  # reference seconds per measured second during the pass


def run_pass(workload, ctx: Context, reference=None) -> PassResult:
    """One pass over the workload's calls.  With a ``reference``, its
    kernels are sampled before the first call and after each call,
    outside the timed regions, and the pass's scale is the geometric mean
    of those samples: one sample is noisy (7-10% on the machine this was
    tuned on), and the samples of a pass track its seconds."""
    gc.collect()
    call_s, results = {}, {}
    scales = [reference.sample()] if reference else []
    for call in workload.calls:
        t0 = perf_counter()
        results[call.name] = call.run(ctx)
        call_s[call.name] = perf_counter() - t0
        if reference:
            scales.append(reference.sample())
    return PassResult(sum(call_s.values()), call_s, results, _geomean(scales) if scales else 1.0)


def plain_context(workload, inputs) -> Context:
    from krylov import ProbeSampler

    ops = {name: op for name, (op, _) in inputs.operators.items()}
    return Context(inputs, ops, ProbeSampler)


def traced_pass(workload, inputs) -> tuple:
    tracer = tracing.Tracer()
    ops = {name: tracer.operator(op, cost) for name, (op, cost) in inputs.operators.items()}
    ctx = Context(inputs, ops, tracer.sampler_class())
    with tracer.patched():
        res = run_pass(workload, ctx)
    return res, tracer.spans


@dataclasses.dataclass
class RunOutcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value
    report: dict  # everything else worth printing


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> RunOutcome:
    out_dir.mkdir(parents=True, exist_ok=True)
    # Set up at least SETUP_REPEATS times and for SETUP_SECONDS, so that
    # a set-up of a millisecond still gets a steady median.
    reference = MachineReference(workload.reference)
    setup_times, setup_scales = [], [reference.sample()]
    setup_end = perf_counter() + SETUP_SECONDS
    while len(setup_times) < SETUP_REPEATS or perf_counter() < setup_end:
        t0 = perf_counter()
        inputs = workload.setup(seed, out_dir)
        setup_times.append(perf_counter() - t0)
        setup_scales.append(reference.sample())

    # Reference pass: traced, so it also warms caches and counts matvecs.
    ref, ref_spans = traced_pass(workload, inputs)
    ref_checks = workload.checks(inputs, ref.results)
    checks = list(ref_checks)
    ref_digest = digest(ref.results)
    matvecs = sum(1 for sp in ref_spans if sp[tracing.NAME] == tracing.OPERATOR)
    del ref

    setup_spans = []
    if trace:
        setup_tracer = tracing.Tracer()
        with setup_tracer.patched():
            workload.setup(seed, out_dir)
        setup_spans = setup_tracer.spans

    plain = plain_context(workload, inputs)
    untraced, traced, layer_samples = [], [], []
    # Start another round only if one more (as long as the last) still
    # ends by the deadline, so a run takes ``seconds`` and not up to a
    # round more.
    deadline = perf_counter() + seconds
    last_round = 0.0
    while (
        perf_counter() + last_round <= deadline
        or len(untraced) < MIN_PASSES
        or (trace and len(traced) < MIN_PASSES)
    ):
        round_start = perf_counter()
        # A traced run samples no kernels between calls, so that its
        # untraced and traced passes differ only by the tracer.
        res = run_pass(workload, plain, None if trace else reference)
        checks.append(("untraced_digest_repeats", digest(res.results) == ref_digest, len(untraced)))
        untraced.append((res.wall, res.call_s, res.scale))
        del res
        if len(untraced) == MIN_PASSES:
            # Peak memory after a fixed number of passes: later passes
            # only add chances for the allocator to fragment, so a peak
            # taken at the deadline grows with the number of passes run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            res, spans = traced_pass(workload, inputs)
            checks.append(("traced_digest_repeats", digest(res.results) == ref_digest, len(traced)))
            traced.append(res.wall)
            m = tracing.layer_metrics(spans, res.wall)
            m["matrices.busy_s"] += tracing.layer_busy(setup_spans, "matrices")
            layer_samples.append((m, tracing.module_self_times(spans)))
            del res, spans
        last_round = perf_counter() - round_start

    failed = [c for c in checks if not c[1]]
    call_names = list(untraced[0][1])
    call_medians = {name: statistics.median(u[1][name] for u in untraced) for name in call_names}
    report = {
        "digest": ref_digest,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "call_median_s": call_medians,
        "checks": ref_checks,
        "failed_checks": failed,
    }
    if trace:
        untraced_wall = statistics.median(u[0] for u in untraced)
        metrics = {name: _median([m[name] for m, _ in layer_samples]) for name in layer_samples[0][0]}
        metrics["tracing.overhead_frac"] = statistics.median(traced) / untraced_wall - 1.0
        report["module_self_s"] = {
            k: statistics.median(s.get(k, 0.0) for _, s in layer_samples)
            for k in sorted({k for _, s in layer_samples for k in s})
        }
        report["spans"] = ref_spans_json(ref_spans)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times) * _geomean(setup_scales),
            "pass_s": statistics.median(wall * scale for wall, _, scale in untraced),
            "call_geomean_s": _geomean(
                statistics.median(cs[name] * scale for _, cs, scale in untraced) for name in call_names
            ),
            "matvecs": matvecs,
            "peak_rss_mb": peak_rss_mb,
        }
        report["measured_s"] = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(u[0] for u in untraced),
            "call_geomean_s": _geomean(call_medians.values()),
        }
        report["reference_median_s"] = {k: statistics.median(t) for k, t in reference.times.items()}
    return RunOutcome(not failed, len(checks), len(failed), metrics, report)


def _geomean(values):
    return math.exp(statistics.fmean(math.log(t) for t in values))


def _median(values):
    """Median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def ref_spans_json(spans) -> list:
    return [
        [name, parent, start, end, info if isinstance(info, dict) else None]
        for name, parent, start, end, info in spans
    ]
