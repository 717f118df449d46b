"""The benchmark's workloads: inputs made from a seed, a fixed list of
public-API calls, and correctness checks against exact references.

Every workload is a closed loop with one caller: the calls of a pass run
one after another in one thread.  Inputs come only from ``--seed``; the
library receives nothing but the generated arrays, operators and probe
samplers.  Checks run after the calls, against the raw matrix or an
analytic spectrum, so they add no operator applications.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.fft
import scipy.sparse
import scipy.sparse.linalg

import krylov
from krylov import cli, experiments, matrices
from krylov.lanczos import ReorthMode

from tracing import OperatorCost


@dataclasses.dataclass(frozen=True)
class Call:
    """One public-API call of a workload's pass."""

    name: str
    run: Callable  # run(ctx) -> result


@dataclasses.dataclass(frozen=True)
class Context:
    """What a pass hands its calls: the operators (raw, or wrapped by the
    tracer) and the probe sampler class (plain, or timed)."""

    inputs: object
    ops: dict
    sampler: type

    def sample(self):
        return self.sampler(seed=self.inputs.seed)


@dataclasses.dataclass
class Inputs:
    seed: int
    operators: dict  # name -> (LinearOperator, OperatorCost)
    data: dict  # vectors, shifts, and exact references


def laplacian_2d(n: int) -> scipy.sparse.csr_matrix:
    """Dirichlet 5-point Laplacian on an n x n grid, d = n^2."""
    T = scipy.sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    eye = scipy.sparse.identity(n)
    return (scipy.sparse.kron(T, eye) + scipy.sparse.kron(eye, T)).tocsr()


def laplacian_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues of :func:`laplacian_2d` on the grid of DST-I modes."""
    t = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    return t[:, None] + t[None, :]


def dst_apply(f, lam: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact f(L) b through the orthonormal DST-I eigenbasis of L."""
    n = lam.shape[0]
    coef = scipy.fft.dstn(b.reshape(n, n), type=1, norm="ortho")
    return scipy.fft.dstn(f(lam) * coef, type=1, norm="ortho").ravel()


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def max_orth_loss(Q: np.ndarray) -> float:
    G = Q.T @ Q
    return float(np.abs(G - np.eye(G.shape[0])).max())


def rel_err(x, ref) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def check(name: str, ok, value) -> tuple:
    return (name, bool(ok), float(value))


class Workload:
    """A named set of inputs and calls; why each one exists is recorded in
    BENCHMARK.json."""

    name: str
    calls: list
    # Machine-reference kernels that resemble the workload's work.
    reference = ("python", "vector", "blas")

    def setup(self, seed: int, out_dir: Path) -> Inputs:
        raise NotImplementedError

    def checks(self, inputs: Inputs, results: dict) -> list:
        raise NotImplementedError


class BasisFull(Workload):
    """Stored-basis recurrences with full reorthogonalization on a
    diagonal operator, where applying A is under 2% of the time."""

    name = "basis-full"
    D, K, BLOCK_M, BLOCK_K = 10_000, 80, 8, 16
    ORTH_TOL = 1e-10

    def setup(self, seed, out_dir):
        vals = np.geomspace(1.0, 1e4, self.D)
        gen = matrices.generate_operator(matrices.ExplicitEigenvalues(tuple(vals)))
        rng = rng_for(seed, 0)
        b = rng.standard_normal(self.D)
        B = rng.standard_normal((self.D, self.BLOCK_M))
        # Lanczos-FA with orthogonal Q errs by at most 2 ||b|| times the
        # best degree-(k-1) approximation of sqrt on [1, 1e4]; the
        # Chebyshev interpolant's error on a fine grid bounds the latter.
        cheb = np.polynomial.Chebyshev.interpolate(np.sqrt, self.K - 1, domain=[1.0, 1e4])
        grid = np.linspace(1.0, 1e4, 200_001)
        fa_bound = 2.0 * np.linalg.norm(b) * float(np.abs(cheb(grid) - np.sqrt(grid)).max())
        data = {"b": b, "B": B, "exact_sqrt": np.sqrt(gen.eigenvalues) * b, "fa_bound": fa_bound}
        return Inputs(seed, {"A": (gen.operator, OperatorCost.diagonal(self.D))}, data)

    calls = [
        Call("lanczos", lambda c: krylov.lanczos(c.ops["A"], c.inputs.data["b"], BasisFull.K, mode=ReorthMode.FULL)),
        Call(
            "lanczos_fa",
            lambda c: krylov.lanczos_fa(c.ops["A"], c.inputs.data["b"], np.sqrt, BasisFull.K, mode=ReorthMode.FULL),
        ),
        Call(
            "block_lanczos",
            lambda c: krylov.block_lanczos(c.ops["A"], c.inputs.data["B"], BasisFull.BLOCK_K, mode=ReorthMode.FULL),
        ),
    ]

    def checks(self, inputs, results):
        d = inputs.data
        dec, blk, fa = results["lanczos"], results["block_lanczos"], results["lanczos_fa"]
        fa_err = float(np.linalg.norm(fa.value - d["exact_sqrt"]))
        return [
            check("lanczos_basis_orthonormal", max_orth_loss(dec.basis) <= self.ORTH_TOL, max_orth_loss(dec.basis)),
            check("lanczos_ran_k_steps", dec.T.size == self.K, dec.T.size),
            check("block_basis_orthonormal", max_orth_loss(blk.basis) <= self.ORTH_TOL, max_orth_loss(blk.basis)),
            check("lanczos_fa_within_apriori_bound", fa_err <= d["fa_bound"], fa_err),
        ]


class SolveSweep(Workload):
    """Linear solves on a 2-D Laplacian without reorthogonalization,
    where small solves and per-step iterate formation dominate."""

    name = "solve-sweep"
    N, K_CAP, TOL, K_SHIFT, N_SHIFTS = 80, 600, 1e-8, 150, 4
    SHIFT_TOL = 1e-8

    def setup(self, seed, out_dir):
        L = laplacian_2d(self.N)
        d = L.shape[0]
        rng = rng_for(seed, 1)
        b = rng.standard_normal(d)
        shifts = -np.sort(rng.uniform(0.05, 1.0, self.N_SHIFTS))
        eye = scipy.sparse.identity(d, format="csc")
        refs = [scipy.sparse.linalg.spsolve((L.tocsc() - z * eye), b) for z in shifts]
        op = krylov.LinearOperator.from_matrix(L)
        return Inputs(seed, {"A": (op, OperatorCost.csr(L))}, {"L": L, "b": b, "shifts": shifts, "refs": refs})

    calls = [
        Call(
            "cg",
            lambda c: krylov.cg(
                c.ops["A"], c.inputs.data["b"], SolveSweep.K_CAP, mode=ReorthMode.NONE, tol=SolveSweep.TOL
            ),
        ),
        Call(
            "minres",
            lambda c: krylov.minres(
                c.ops["A"], c.inputs.data["b"], SolveSweep.K_CAP, mode=ReorthMode.NONE, tol=SolveSweep.TOL
            ),
        ),
        Call(
            "multi_shift_cg",
            lambda c: krylov.multi_shift_solve(
                c.ops["A"], c.inputs.data["b"], c.inputs.data["shifts"], SolveSweep.K_SHIFT,
                method="cg", mode=ReorthMode.NONE,
            ),
        ),
        Call(
            "multi_shift_minres",
            lambda c: krylov.multi_shift_solve(
                c.ops["A"], c.inputs.data["b"], c.inputs.data["shifts"], SolveSweep.K_SHIFT,
                method="minres", mode=ReorthMode.NONE,
            ),
        ),
    ]

    def checks(self, inputs, results):
        d = inputs.data
        L, b = d["L"], d["b"]
        limit = self.TOL * np.linalg.norm(b)
        out = []
        for name in ("cg", "minres"):
            hist = results[name]
            r = float(np.linalg.norm(b - L @ hist.final))
            out.append(check(f"{name}_converged", hist.termination == "converged", len(hist.residual_norms)))
            out.append(check(f"{name}_recomputed_residual", r <= limit, r))
        for name in ("multi_shift_cg", "multi_shift_minres"):
            for i, (hist, ref) in enumerate(zip(results[name], d["refs"])):
                e = rel_err(hist.final, ref)
                out.append(check(f"{name}_shift{i}_vs_spsolve", e <= self.SHIFT_TOL, e))
        return out


def _exp_half(x):
    return np.exp(-0.5 * x)


class SparseStream(Workload):
    """Streaming estimators on a large sparse Laplacian: no call stores
    a basis and applying A is about half of the time."""

    name = "sparse-stream"
    # CSR products alone: a kernel of allocating vector arithmetic ran up
    # to 22% slower in one process than in others while the workload did
    # not, which put that noise into every pass's scale.
    reference = ("spmv",)
    N, SHIFT = 450, 0.1
    SLQ_K, SLQ_M, DENSITY_M, KPM_M = 30, 4, 2, 1
    FA_K, FA_STRIDE, CG_CAP, CG_TOL = 40, 10, 600, 1e-8
    FA_TOL, SLQ_STDERRS, MASS_TOL = 1e-10, 6.0, 1e-12

    def setup(self, seed, out_dir):
        L = laplacian_2d(self.N)
        d = L.shape[0]
        Ls = (L + self.SHIFT * scipy.sparse.identity(d)).tocsr()
        lam = laplacian_eigenvalues(self.N)
        rng = rng_for(seed, 2)
        b_fa = rng.standard_normal(d)
        b_cg = rng.standard_normal(d)
        data = {
            "b_fa": b_fa,
            "b_cg": b_cg,
            "exact_fa": dst_apply(_exp_half, lam, b_fa),
            "exact_mean_log": float(np.log(lam).mean()),
            # Standard error of the mean of m samples b^T log(L) b, b uniform
            # on the unit sphere: Var = 2 (mean f^2 - (mean f)^2) / (d + 2).
            "exact_stderr": float(np.sqrt(2.0 * np.log(lam).var() / (d + 2) / self.SLQ_M)),
        }
        ops = {
            "A": (krylov.LinearOperator.from_matrix(L), OperatorCost.csr(L)),
            "A_shifted": (krylov.LinearOperator.from_matrix(Ls), OperatorCost.csr(Ls)),
        }
        return Inputs(seed, ops, data)

    calls = [
        Call(
            "slq_trace",
            lambda c: krylov.slq_trace(c.ops["A"], np.log, SparseStream.SLQ_K, SparseStream.SLQ_M, c.sample()),
        ),
        Call(
            "slq_density",
            lambda c: krylov.slq_density(c.ops["A"], SparseStream.SLQ_K, SparseStream.DENSITY_M, c.sample()),
        ),
        Call(
            "kpm_density",
            lambda c: krylov.kpm_density(c.ops["A"], SparseStream.SLQ_K, m=SparseStream.KPM_M, sampler=c.sample()),
        ),
        Call(
            "two_pass_lanczos_fa",
            lambda c: krylov.two_pass_lanczos_fa(
                c.ops["A"], c.inputs.data["b_fa"], _exp_half, SparseStream.FA_K, SparseStream.FA_STRIDE
            ),
        ),
        Call(
            "cg_low_memory",
            lambda c: krylov.cg(
                c.ops["A_shifted"], c.inputs.data["b_cg"], SparseStream.CG_CAP, backend="low_memory",
                mode=ReorthMode.NONE, tol=SparseStream.CG_TOL, keep_iterates=False,
            ),
        ),
    ]

    def checks(self, inputs, results):
        d = inputs.data
        est = results["slq_trace"]
        slq_dev = abs(est.estimate - d["exact_mean_log"])
        fa_err = rel_err(results["two_pass_lanczos_fa"].value, d["exact_fa"])
        cg = results["cg_low_memory"]
        # keep_iterates=False leaves no iterate to recompute a residual
        # from, so this reads the explicit residual the solver recomputed.
        cg_res = float(cg.residual_norms[-1])
        return [
            check("two_pass_fa_vs_dst_exact", fa_err <= self.FA_TOL, fa_err),
            check("slq_trace_within_stderrs", slq_dev <= self.SLQ_STDERRS * d["exact_stderr"], slq_dev),
            check("slq_trace_no_probe_dropped", est.n_skipped == 0, est.n_skipped),
            check("slq_density_mass_one", abs(results["slq_density"].mass() - 1.0) <= self.MASS_TOL,
                  results["slq_density"].mass()),
            check("kpm_density_mass_one", abs(results["kpm_density"].mass() - 1.0) <= self.MASS_TOL,
                  results["kpm_density"].mass()),
            check("cg_low_memory_converged", cg.termination == "converged", len(cg.residual_norms)),
            check("cg_low_memory_residual", cg_res <= self.CG_TOL * np.linalg.norm(d["b_cg"]), cg_res),
        ]


class Desk(Workload):
    """The nine named experiments at desk scale (d <= 500), where fixed
    per-call and per-step Python cost sets the time."""

    name = "desk"
    # Thousands of small numpy and LAPACK calls, whose speed drifts unlike
    # bulk arithmetic: over ten 25-second windows the pass time spread 29%,
    # 14% against the bulk kernels and 4% against the small-call kernel.
    reference = ("small_calls",)

    def setup(self, seed, out_dir):
        # Default configs, written and loaded as `krylov run` does
        # (experiment seed 0): --seed does not reach them, because
        # slq-wasserstein's halving gate is a statistical check on 8 probes
        # that some experiment seeds fail.
        csv_dir = out_dir / "desk-csv"
        csv_dir.mkdir(parents=True, exist_ok=True)
        configs = {}
        for name in experiments.list_experiments():
            path = out_dir / f"{name}.ini"
            if not path.exists():  # a user's config files exist before the run
                path.write_text(f"[experiment]\nname = {name}\n\n[output]\nout_dir = {csv_dir}\n")
            configs[name] = cli.load_config(str(path))
        return Inputs(seed, {}, {"configs": configs})

    calls = [
        Call(name, lambda c, name=name: experiments.run_experiment(c.inputs.data["configs"][name]))
        for name in experiments.list_experiments()
    ]

    def checks(self, inputs, results):
        out = []
        for name, report in results.items():
            for a in report.assertions:
                out.append(check(f"{name}:{a.name}", a.passed, a.measured))
            out.append(check(f"{name}:csv_written", report.csv_path and Path(report.csv_path).is_file(), 0))
        return out


WORKLOADS = {w.name: w for w in (BasisFull(), SolveSweep(), SparseStream(), Desk())}
