"""Span tracing of the krylov layers, recorded from outside the library.

A :class:`Tracer` wraps the operator a workload applies, a probe sampler,
and every public function of each krylov module, at every place a module
binds that function (the defining module, each importing module and the
package namespace).  Each wrapped call appends one span
``[name, parent, start, end, info]`` to an in-memory list; nothing is
written until the benchmark ends.  Patching happens only inside
:meth:`Tracer.patched`, which restores every binding in ``finally``.
Private helpers are never patched, so their time is charged to the
public caller (``_streaming_pass`` to ``lanczos_qf`` or ``slq_density``).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "core",
    "lanczos",
    "orthopoly",
    "solvers",
    "matfunc",
    "trace",
    "matrices",
    "experiments",
)
OPERATOR = "core.operator"
PROBE = "trace.probe"
# Kernels of core reported on their own, by short name.
CORE_KERNELS = {
    "eig": "core.sym_tridiag_eig",
    "solve": "core.tridiag_solve",
    "ftridiag": "core.tridiag_apply_function",
}

# Field of a span record.
NAME, PARENT, START, END, INFO = range(5)


# Counts read off a public call's result, stored on its span.  A solver
# records the number of steps each of its histories used.
ANNOTATORS = {
    "lanczos.lanczos": lambda r: {"steps": r.T.size},
    "lanczos.arnoldi": lambda r: {"steps": r.H.shape[0]},
    "lanczos.block_lanczos": lambda r: {"steps": len(r.block_diag)},
    "solvers.cg": lambda r: {"histories": [len(r.residual_norms)]},
    "solvers.minres": lambda r: {"histories": [len(r.residual_norms)]},
    "solvers.multi_shift_solve": lambda r: {"histories": [len(h.residual_norms) for h in r]},
    "matfunc.two_pass_lanczos_fa": lambda r: {"k_used": r.k_used},
    "trace.slq_trace": lambda r: {"dropped": r.n_skipped},
    "experiments.run_experiment": lambda r: {
        "csv_bytes": os.path.getsize(r.csv_path) if r.csv_path else 0
    },
}


@dataclasses.dataclass(frozen=True)
class OperatorCost:
    """Computed work of one operator application: flops and bytes of the
    stored operator plus the input and output vectors."""

    flops: float
    bytes: float

    @classmethod
    def diagonal(cls, d: int) -> "OperatorCost":
        return cls(flops=d, bytes=3 * 8 * d)

    @classmethod
    def csr(cls, M) -> "OperatorCost":
        arrays = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
        return cls(flops=2 * M.nnz, bytes=arrays + 16 * M.shape[0])


def krylov_modules() -> list:
    """The package namespace and every loaded krylov submodule."""
    importlib.import_module("krylov.experiments")
    return [m for n, m in sorted(sys.modules.items()) if n == "krylov" or n.startswith("krylov.")]


def public_functions() -> dict:
    """``{original function: "layer.name"}`` for each layer's public functions."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"krylov.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[obj] = f"{layer}.{name}"
    return out


class Tracer:
    """Collects spans for one traced pass (or set-up)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._sampler = None

    def _call(self, name, fn, args, kwargs, info=None):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0, info])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            spans[idx][END] = perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        annotate = ANNOTATORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)  # the span this call appends
            result = self._call(name, fn, args, kwargs)
            if annotate is not None:
                self.spans[idx][INFO] = annotate(result)
            return result

        return traced

    def operator(self, op, cost: OperatorCost):
        """A copy of ``op`` whose applications are recorded as spans."""
        from krylov import LinearOperator

        matvec = op.matvec

        def traced_matvec(v):
            return self._call(OPERATOR, matvec, (v,), {}, cost)

        return LinearOperator(op.dim, traced_matvec)

    def sampler_class(self):
        """A ``ProbeSampler`` subclass whose probes are recorded as spans
        (made once, before any patching, so it never subclasses itself)."""
        if self._sampler is None:
            from krylov.trace import ProbeSampler

            tracer = self

            class TimedProbeSampler(ProbeSampler):
                def probe(self, index, d):
                    return tracer._call(PROBE, super().probe, (index, d), {})

            self._sampler = TimedProbeSampler
        return self._sampler

    @contextmanager
    def patched(self):
        """Bind traced versions of the public functions (and a timed
        ``ProbeSampler``) everywhere krylov binds the originals."""
        from krylov.trace import ProbeSampler

        originals = public_functions()
        replacement = {}  # id(original) -> traced stand-in
        for fn, name in originals.items():
            if name == "matrices.generate_operator":
                replacement[id(fn)] = self._traced_generate(fn)
            else:
                replacement[id(fn)] = self.wrap(name, fn)
        replacement[id(ProbeSampler)] = self.sampler_class()
        undo = []
        try:
            for mod in krylov_modules():
                for attr, value in list(vars(mod).items()):
                    new = replacement.get(id(value))
                    if new is not None:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, new)
            yield self
        finally:
            for mod, attr, value in reversed(undo):
                setattr(mod, attr, value)

    def _traced_generate(self, gen):
        traced = self.wrap("matrices.generate_operator", gen)

        # The workloads generate only unrotated spectra: diagonal operators.
        @functools.wraps(gen)
        def generate(spec):
            out = traced(spec)
            op = self.operator(out.operator, OperatorCost.diagonal(out.operator.dim))
            return dataclasses.replace(out, operator=op)

        return generate


# ---------------------------------------------------------------------------
# span arithmetic


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children(spans) -> list:
    kids = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp[PARENT] >= 0:
            kids[sp[PARENT]].append(i)
    return kids


def self_times(spans) -> list:
    """Per span: its duration minus the time its child spans cover."""
    kids = children(spans)
    out = []
    for i, sp in enumerate(spans):
        s, e = sp[START], sp[END]
        inner = covered((max(spans[c][START], s), min(spans[c][END], e)) for c in kids[i])
        out.append((e - s) - inner)
    return out


def busy(spans, names) -> float:
    return covered((sp[START], sp[END]) for sp in spans if sp[NAME] in names)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_busy(spans, layer: str) -> float:
    """Time covered by any span of the layer's public functions."""
    return busy(spans, {sp[NAME] for sp in spans if layer_of(sp[NAME]) == layer} - {OPERATOR, PROBE})


def layer_metrics(spans, wall: float) -> dict:
    """The per-layer metrics of one traced pass that took ``wall`` seconds."""
    selfs = self_times(spans)
    kids = children(spans)
    names = [sp[NAME] for sp in spans]

    def count(pred) -> int:
        return sum(1 for n in names if pred(n))

    def self_of(pred) -> float:
        return sum((t for n, t in zip(names, selfs) if pred(n)), 0.0)

    def info_sum(name, key) -> float:
        return sum(sp[INFO][key] for sp in spans if sp[NAME] == name and sp[INFO])

    def in_layer(layer):
        return lambda n: layer_of(n) == layer and n not in (OPERATOR, PROBE)

    m = {}
    op_costs = [sp[INFO] for sp in spans if sp[NAME] == OPERATOR]
    op_busy = busy(spans, {OPERATOR})
    op_bytes = sum(c.bytes for c in op_costs)
    m["core.operator.calls"] = len(op_costs)
    m["core.operator.busy_s"] = op_busy
    m["core.operator.share"] = op_busy / wall if wall > 0 else 0.0
    m["core.operator.overhead_ratio"] = (wall - op_busy) / op_busy if op_busy > 0 else 0.0
    m["core.operator.bytes_computed"] = op_bytes
    m["core.operator.flops_per_byte"] = sum(c.flops for c in op_costs) / op_bytes if op_bytes else 0.0
    for short, full in CORE_KERNELS.items():
        m[f"core.{short}.calls"] = count(lambda n, full=full: n == full)
        m[f"core.{short}.busy_s"] = busy(spans, {full})

    block_spans = {i for i, n in enumerate(names) if n == "lanczos.block_lanczos"}
    m["lanczos.calls"] = count(in_layer("lanczos"))
    m["lanczos.steps"] = sum(
        info_sum(n, "steps") for n in ("lanczos.lanczos", "lanczos.arnoldi", "lanczos.block_lanczos")
    )
    m["lanczos.self_s"] = self_of(in_layer("lanczos"))
    m["lanczos.block_self_s"] = self_of(lambda n: n == "lanczos.block_lanczos")
    m["lanczos.block_operator_calls"] = sum(
        1 for sp in spans if sp[NAME] == OPERATOR and sp[PARENT] in block_spans
    )

    # Solver accounting: a solver either reads a lanczos run (steps
    # computed = that run's steps) or runs its own recurrence (the
    # low-memory backend: one matvec per reported step).  Operator calls
    # made directly by a solver beyond its own recurrence are residuals.
    used = computed = residual = 0
    iterations = 0
    for i, sp in enumerate(spans):
        if layer_of(sp[NAME]) != "solvers" or not sp[INFO]:
            continue
        histories = sp[INFO]["histories"]
        steps_used = max(histories, default=0)
        lanczos_steps = sum(spans[c][INFO]["steps"] for c in kids[i] if names[c] == "lanczos.lanczos")
        own = 0 if lanczos_steps else steps_used
        direct_ops = sum(1 for c in kids[i] if names[c] == OPERATOR)
        used += steps_used
        computed += lanczos_steps or steps_used
        residual += direct_ops - own
        iterations += sum(histories)
    m["solvers.self_s"] = self_of(in_layer("solvers"))
    m["solvers.residual_matvecs"] = residual
    m["solvers.iterations"] = iterations
    m["solvers.useful_step_frac"] = used / computed if computed else 0.0

    second = 0
    for i, sp in enumerate(spans):
        if sp[NAME] == "matfunc.two_pass_lanczos_fa" and sp[INFO]:
            ops = sum(1 for c in kids[i] if names[c] == OPERATOR)
            second += ops - sp[INFO]["k_used"]
    m["matfunc.self_s"] = self_of(in_layer("matfunc"))
    m["matfunc.second_pass_matvecs"] = second

    m["trace.probe.calls"] = count(lambda n: n == PROBE)
    m["trace.probe.busy_s"] = busy(spans, {PROBE})
    m["trace.self_s"] = self_of(in_layer("trace"))
    m["trace.probes_dropped"] = info_sum("trace.slq_trace", "dropped")

    m["orthopoly.calls"] = count(in_layer("orthopoly"))
    m["orthopoly.busy_s"] = layer_busy(spans, "orthopoly")
    m["experiments.self_s"] = self_of(in_layer("experiments"))
    m["experiments.csv_bytes"] = info_sum("experiments.run_experiment", "csv_bytes")
    m["matrices.busy_s"] = layer_busy(spans, "matrices")
    return m


def module_self_times(spans) -> dict:
    """Self time per krylov module, the operator and probes apart."""
    out = {}
    for sp, t in zip(spans, self_times(spans)):
        key = sp[NAME] if sp[NAME] in (OPERATOR, PROBE) else layer_of(sp[NAME])
        out[key] = out.get(key, 0.0) + t
    return out
