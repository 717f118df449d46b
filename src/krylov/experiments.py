"""Named experiments exercising the library's quantitative claims at desk
scale, each emitting a deterministic long-format CSV and a set of
pass/fail assertions."""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    _spectral_apply,
    _tridiag_eigenvalues,
    _tridiag_eigh,
    tridiag_apply_function,
)
from .errors import InvalidSpec
from .lanczos import ReorthMode, _Recurrence, lanczos
from .matrices import (
    ClusterPerturbed,
    ExplicitEigenvalues,
    GradedSpectrum,
    _exact_spectrum,
    _to_eigenbasis,
    generate_operator,
)
from .orthopoly import (
    DiscreteMeasure,
    gauss_quadrature,
    jackson_damping,
    modified_moments,
    wasserstein,
)
from .solvers import _shifted_histories, cg, chebyshev_bound
from .trace import DensityApprox, ProbeSampler, _slq_densities, kpm_density

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "AssertionResult",
    "list_experiments",
    "run_experiment",
]


@dataclass(frozen=True)
class AssertionResult:
    """One quantitative gate of an experiment."""

    name: str
    passed: bool
    measured: float
    expected: str


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one named experiment."""

    experiment: str
    matrix: object | None = None  # a matrices.* spec; experiment default if None
    k: int | None = None
    m: int | None = None
    seed: int = 0
    out_dir: str | None = None

    def config_hash(self) -> str:
        payload = repr(
            (
                self.experiment,
                self.matrix,
                self.k,
                self.m,
                self.seed,
            )
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    figure_ref: str
    rows: list  # (series, k, value) triples
    assertions: list  # AssertionResult
    csv_path: str | None = None

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


def _start_vector(d: int) -> np.ndarray:
    """Deterministic all-ones unit start vector (every eigenvector
    component weighted equally on a plain diagonal operator)."""
    return np.ones(d) / np.sqrt(d)


def _ghost_multiplicity(T, lam_max: float) -> int:
    """Number of Ritz values within 1e-6 (scaled) of the top eigenvalue."""
    tol = 1e-6 * max(abs(lam_max), 1.0)
    ritz = _tridiag_eigenvalues(T)
    return int(np.sum(np.abs(ritz - lam_max) <= tol))


def _max_abs_diff(T1, T2) -> float:
    j = min(T1.size, T2.size)
    da = np.abs(T1.alphas[:j] - T2.alphas[:j]).max()
    db = (
        np.abs(T1.betas[: j - 1] - T2.betas[: j - 1]).max() if j > 1 else 0.0
    )
    return float(max(da, db))


def _semicircle_spectrum(d: int) -> np.ndarray:
    """Quantiles of the semicircle distribution on [-1, 1]: a smooth
    spectral density with no hard edges (good 1/k quadrature scaling)."""
    x = np.linspace(-1.0, 1.0, 20_001)
    cdf = 0.5 + (x * np.sqrt(1.0 - x**2) + np.arcsin(x)) / np.pi
    q = (np.arange(d) + 0.5) / d
    return np.interp(q, cdf, x)


# ---------------------------------------------------------------------------
# experiments


def _fp_lanczos(cfg: ExperimentConfig) -> ExperimentReport:
    """Orthogonality loss, tridiagonal divergence and ghost Ritz values of
    the plain Lanczos recurrence on a graded spectrum."""
    spec = cfg.matrix or GradedSpectrum(d=64, lam_min=1e-3, lam_max=1.0, rho=0.8)
    k = cfg.k or 40
    A, vals, _ = _exact_spectrum(spec)
    lam_max = float(vals.max())
    b = _start_vector(A.dim)

    plain = lanczos(A, b, k, mode=ReorthMode.NONE)
    ref = lanczos(A, b, k, mode=ReorthMode.FULL)

    rows = []
    Q = plain.basis
    for j in range(1, plain.T.size + 1):
        G = Q[:, :j].T @ Q[:, :j]
        rows.append(
            ("orth_loss", j, float(np.abs(G - np.eye(j)).max()))
        )
        rows.append(
            (
                "tridiag_divergence",
                j,
                _max_abs_diff(plain.T.principal(j), ref.T.principal(min(j, ref.T.size))),
            )
        )
    mult = _ghost_multiplicity(plain.T, lam_max)
    rows.append(("ghost_multiplicity", plain.T.size, float(mult)))
    assertions = [
        AssertionResult(
            "ghost_ritz_multiplicity", mult >= 2, float(mult), ">= 2"
        )
    ]
    return ExperimentReport(cfg.experiment, "4.1", rows, assertions)


def _nearby_problem(cfg: ExperimentConfig) -> ExperimentReport:
    """The finite-precision recurrence coefficients resemble exact-arithmetic
    coefficients of a nearby problem whose eigenvalues are tight clusters
    around the original ones."""
    base = cfg.matrix or GradedSpectrum(d=32, lam_min=1e-3, lam_max=1.0, rho=0.8)
    k = cfg.k or 30
    gen = generate_operator(base)
    A = gen.operator
    b = _start_vector(A.dim)

    cluster_spec = ClusterPerturbed(base, cluster_size=10, cluster_width=1.2e-13)
    gen_c = generate_operator(cluster_spec)
    b_c = _start_vector(gen_c.operator.dim)

    fp = lanczos(A, b, k, mode=ReorthMode.NONE)
    exact = lanczos(A, b, k, mode=ReorthMode.FULL)
    clustered = lanczos(gen_c.operator, b_c, k, mode=ReorthMode.FULL)

    rows = []
    for coeff in ("alpha", "beta"):
        for run, dec in (("fp", fp), ("exact", exact), ("clustered", clustered)):
            for j, c in enumerate(getattr(dec.T, f"{coeff}s")):
                rows.append((f"{coeff}_{run}", j + 1, float(c)))

    d_exact = _max_abs_diff(fp.T, exact.T)
    d_clustered = _max_abs_diff(fp.T, clustered.T)
    assertions = [
        AssertionResult(
            "clustered_model_closer",
            d_clustered <= d_exact,
            d_clustered,
            f"<= {d_exact:.3e} (distance to exact-arithmetic run)",
        )
    ]
    return ExperimentReport(cfg.experiment, "4.3", rows, assertions)


def _moment_stability(cfg: ExperimentConfig) -> ExperimentReport:
    """Chebyshev moments computed from the finite-precision tridiagonal
    matrix agree with the reorthogonalized reference to near machine
    precision even though the matrices themselves diverge."""
    spec = cfg.matrix or GradedSpectrum(d=64, lam_min=1e-3, lam_max=1.0, rho=0.8)
    k = cfg.k or 40
    A, vals, _ = _exact_spectrum(spec)
    scale = float(np.abs(vals).max())
    if abs(scale - 1.0) > 1e-12:
        raise InvalidSpec("moment-stability expects a spectrum scaled to norm 1")
    b = _start_vector(A.dim)

    plain = lanczos(A, b, k, mode=ReorthMode.NONE)
    ref = lanczos(A, b, k, mode=ReorthMode.FULL)
    interval = (float(vals.min()), float(vals.max()))
    mu_plain = gauss_quadrature(plain.T, 1.0)
    mu_ref = gauss_quadrature(ref.T, 1.0)
    n_mom = 2 * min(plain.T.size, ref.T.size) - 1
    m_plain = modified_moments(mu_plain, n_mom, "T", interval)
    m_ref = modified_moments(mu_ref, n_mom, "T", interval)

    rows = []
    for n in range(n_mom):
        rows.append(("moment_plain", n, float(m_plain[n])))
        rows.append(("moment_ref", n, float(m_ref[n])))
        rows.append(("moment_abs_err", n, float(abs(m_plain[n] - m_ref[n]))))
    t_div = _max_abs_diff(plain.T, ref.T)
    mult = _ghost_multiplicity(plain.T, float(vals.max()))
    moment_err = float(np.abs(m_plain - m_ref).max())

    assertions = [
        AssertionResult("moment_error", moment_err <= 1e-8, moment_err, "<= 1e-8"),
        AssertionResult("tridiag_divergence", t_div >= 1e-2, t_div, ">= 1e-2"),
        AssertionResult("ghost_ritz_multiplicity", mult >= 2, float(mult), ">= 2"),
    ]
    return ExperimentReport(cfg.experiment, "4.4", rows, assertions)


def _cg_bounds(cfg: ExperimentConfig) -> ExperimentReport:
    """Measured CG convergence versus the sharp two-term Chebyshev value
    and the exponential estimate (which can be very pessimistic), on a
    positive definite spectrum (else :class:`InvalidSpec`)."""
    spec = cfg.matrix or GradedSpectrum(d=100, lam_min=1.0, lam_max=1e4, rho=0.9)
    k = cfg.k or 40
    A, vals, vecs = _exact_spectrum(spec)
    lam_min, lam_max = float(vals.min()), float(vals.max())
    if lam_min <= 0.0:
        raise InvalidSpec(
            "cg-bounds needs a positive definite spectrum;"
            f" the smallest eigenvalue is {lam_min:g}"
        )
    b = _start_vector(A.dim)

    # Only the iterates are read, so no residual is computed.
    hist = cg(A, b, k, mode=ReorthMode.FULL, tol=None)
    x_star = _spectral_apply(lambda x: 1.0 / x, vals, vecs, b)

    def a_norm(v):
        c = _to_eigenbasis(vecs, v)
        return float(np.sqrt(max(c @ (vals * c), 0.0)))

    e0 = a_norm(x_star)
    rows = []
    assertions_ok = True
    worst = 0.0
    for j, x in enumerate(hist.iterates, start=1):
        ratio = a_norm(x_star - x) / e0
        two_term = chebyshev_bound(
            "full_interval", {"lam_min": lam_min, "lam_max": lam_max}, j
        )
        expo = 2.0 * np.exp(-2.0 * j / np.sqrt(lam_max / lam_min))
        rows.append(("error_ratio", j, ratio))
        rows.append(("bound_two_term", j, two_term))
        rows.append(("bound_exponential", j, expo))
        if ratio > two_term * (1.0 + 1e-8) + 1e-14:
            assertions_ok = False
        worst = max(worst, ratio - two_term)
    assertions = [
        AssertionResult(
            "two_term_bound_envelope",
            assertions_ok,
            worst,
            "error ratio <= two-term value at every step",
        )
    ]
    return ExperimentReport(cfg.experiment, "5.1", rows, assertions)


def _indefinite(cfg: ExperimentConfig) -> ExperimentReport:
    """CG residual spikes versus MINRES stagnation on an indefinite
    system, with the exact residual-norm identities checked."""
    if cfg.matrix is not None:
        spec = cfg.matrix
    else:
        graded = GradedSpectrum(d=60, lam_min=1.0, lam_max=100.0, rho=0.9)
        spec = ExplicitEigenvalues(tuple(graded.eigenvalues() - 30.0))
    k = cfg.k or 40
    gen = generate_operator(spec)
    A = gen.operator
    b = _start_vector(A.dim)

    # Both histories come off one pass over one run: CG and MINRES are the
    # two solves of the same Givens QR of T (Paige & Saunders 1975), and
    # each is bit-identical to its own solver's.
    rec = _Recurrence(A, b, k, mode=ReorthMode.FULL)
    entries = [(0.0, "cg"), (0.0, "minres")]
    hist_cg, hist_m = _shifted_histories(rec, entries, 0.0, True, A, b)
    r_cg = hist_cg.residual_norms
    r_m = hist_m.residual_norms
    n = min(r_cg.size, r_m.size)

    rows = []
    for j in range(n):
        rows.append(("residual_cg", j + 1, float(r_cg[j])))
        rows.append(("residual_minres", j + 1, float(r_m[j])))

    floor = 1e-8 * hist_m.b_norm
    # Residuals indexed from step 0, where both methods start at x_0 = 0.
    r0 = hist_m.b_norm
    # Harmonic-sum identity between the two residual sequences.
    max_rel_51 = 0.0
    for j in range(n):
        if np.any(np.isnan(r_cg[: j + 1])) or r_m[j] < floor:
            continue
        pred = float(
            (r0**-2.0 + np.sum(r_cg[: j + 1] ** -2.0)) ** -0.5
        )
        max_rel_51 = max(max_rel_51, abs(pred - r_m[j]) / r_m[j])
    # Peak-plateau identity: each CG residual from consecutive MINRES ones.
    max_rel_52 = 0.0
    for j in range(n):
        if np.isnan(r_cg[j]) or r_m[j] < floor:
            continue
        prev = r_m[j - 1] if j > 0 else r0
        ratio2 = (r_m[j] / prev) ** 2
        if 1.0 - ratio2 <= 1e-8:
            continue
        pred = r_m[j] / np.sqrt(1.0 - ratio2)
        max_rel_52 = max(max_rel_52, abs(pred - r_cg[j]) / r_cg[j])
    # Overall bound: best CG residual so far vs scaled MINRES residual.
    bound_ok = True
    worst_53 = 0.0
    for j in range(n):
        valid = r_cg[: j + 1][~np.isnan(r_cg[: j + 1])]
        lhs = float(min(r0, valid.min())) if valid.size else r0
        rhs = float(np.sqrt(j + 2) * r_m[j] * (1.0 + 1e-8))
        if lhs > rhs + 1e-14:
            bound_ok = False
        worst_53 = max(worst_53, lhs - rhs)

    assertions = [
        AssertionResult("harmonic_sum_identity", max_rel_51 <= 1e-6, max_rel_51, "<= 1e-6"),
        AssertionResult("peak_plateau_identity", max_rel_52 <= 1e-6, max_rel_52, "<= 1e-6"),
        AssertionResult("overall_convergence_bound", bound_ok, worst_53, "<= 0"),
    ]
    return ExperimentReport(cfg.experiment, "5.2", rows, assertions)


def _fa_optimality(cfg: ExperimentConfig) -> ExperimentReport:
    """Lanczos matrix-function approximation tracks the unbeatable Krylov
    baseline within a small factor."""
    spec = cfg.matrix or GradedSpectrum(d=100, lam_min=1e-2, lam_max=1.0, rho=0.9)
    k = cfg.k or 40
    A, vals, vecs = _exact_spectrum(spec)
    b = _start_vector(A.dim)
    f = np.sqrt

    target = _spectral_apply(f, vals, vecs, b)

    # The FULL run's basis spans K_j orthonormally, so the optimal error at
    # step j is the norm of target minus its projection on q_1..q_j, each
    # column's projection subtracted once as the basis grows.
    dec = lanczos(A, b, k, mode=ReorthMode.FULL)
    resid = target
    rows = []
    ok = True
    worst = 0.0
    for j, q in enumerate(dec.basis.T, start=1):
        resid = resid - (q @ target) * q
        opt = float(np.linalg.norm(resid))
        coeffs = tridiag_apply_function(dec.T.principal(j), f)
        approx = dec.b_norm * (dec.basis[:, :j] @ coeffs)
        err = float(np.linalg.norm(target - approx))
        rows.append(("fa_error", j, err))
        rows.append(("optimal_error", j, opt))
        gate = 10.0 * max(opt, 1e-13 * np.linalg.norm(target))
        if err > gate:
            ok = False
        worst = max(worst, err / max(gate, 1e-300))
    assertions = [
        AssertionResult("near_optimality", ok, worst, "fa error <= 10x optimal at every step")
    ]
    return ExperimentReport(cfg.experiment, "6.1", rows, assertions)


def _fa_formulas(cfg: ExperimentConfig) -> ExperimentReport:
    """The correct matrix-function formula converges without
    reorthogonalization; the tempting Q f(T) Q^T b variant stalls."""
    spec = cfg.matrix or GradedSpectrum(d=64, lam_min=1e-3, lam_max=1.0, rho=0.8)
    k = cfg.k or 60
    A, vals, vecs = _exact_spectrum(spec)
    b = _start_vector(A.dim)
    f = lambda x: np.exp(-x)

    target = _spectral_apply(f, vals, vecs, b)
    tnorm = float(np.linalg.norm(target))

    dec = lanczos(A, b, k, mode=ReorthMode.NONE)
    Q = dec.basis
    rows = []
    correct_err = pitfall_err = np.nan
    for j in range(1, dec.T.size + 1):
        # One eigendecomposition, one evaluation of f and one product with
        # Q_j feed both formulas: columns ||b|| e1 (correct) and Q_j^T b.
        vals, vecs = _tridiag_eigh(dec.T.principal(j))
        Qj = Q[:, :j]
        rhs = np.zeros((j, 2))
        rhs[0, 0] = dec.b_norm
        rhs[:, 1] = Qj.T @ b
        coeffs = _spectral_apply(f, vals, vecs, rhs)
        correct, pitfall = (Qj @ coeffs).T
        correct_err = float(np.linalg.norm(target - correct)) / tnorm
        pitfall_err = float(np.linalg.norm(target - pitfall)) / tnorm
        rows.append(("rel_error_correct", j, correct_err))
        rows.append(("rel_error_pitfall", j, pitfall_err))

    best_correct = min(v for s, _, v in rows if s == "rel_error_correct")
    assertions = [
        AssertionResult("correct_converges", best_correct <= 1e-6, best_correct, "<= 1e-6"),
        AssertionResult(
            "pitfall_stalls",
            pitfall_err >= 10.0 * correct_err,
            pitfall_err / max(correct_err, 1e-300),
            ">= 10x the correct formula's final error",
        ),
    ]
    return ExperimentReport(cfg.experiment, "6.2", rows, assertions)


def _slq_wasserstein(cfg: ExperimentConfig) -> ExperimentReport:
    """Wasserstein distance between the true spectral density and the SLQ
    estimate roughly halves when the quadrature degree doubles."""
    spec = cfg.matrix or ExplicitEigenvalues(tuple(_semicircle_spectrum(500)))
    m = cfg.m or 8
    A, vals, _ = _exact_spectrum(spec)
    phi = DiscreteMeasure(vals, np.full(vals.size, 1.0 / vals.size))
    sampler = ProbeSampler(seed=cfg.seed)

    ks = (8, 16, 32)
    dists = []
    rows = []
    for k, approx in zip(ks, _slq_densities(A, ks, m, sampler)):
        dw = wasserstein(phi, approx.measure)
        dists.append(dw)
        rows.append(("wasserstein", k, dw))

    assertions = []
    for (k1, k2), (w1, w2) in zip(zip(ks, ks[1:]), zip(dists, dists[1:])):
        ratio = w1 / w2
        assertions.append(
            AssertionResult(
                f"halving_k{k1}_to_k{k2}",
                1.5 <= ratio <= 3.0,
                ratio,
                "in [1.5, 3]",
            )
        )
    return ExperimentReport(cfg.experiment, "8.1", rows, assertions)


def _kpm_density(cfg: ExperimentConfig) -> ExperimentReport:
    """KPM density checks: undamped polynomial exactness, nonnegativity
    under Jackson damping, and agreement of the two coefficient paths."""
    spec = cfg.matrix or ExplicitEigenvalues(
        tuple(np.cos((np.arange(1, 201) - 0.5) * np.pi / 200))
    )
    k = cfg.k or 10
    A, vals, vecs = _exact_spectrum(spec)
    sampler = ProbeSampler(seed=cfg.seed)
    b = sampler.probe(0, A.dim)
    interval = (float(vals.min()) - 0.1, float(vals.max()) + 0.1)

    # Exact single-probe spectral measure: weights are the squared
    # eigenbasis coordinates of the probe.
    psi = DiscreteMeasure(vals, _to_eigenbasis(vecs, b) ** 2)

    plain = kpm_density(
        A, k, interval=interval, damping=None, coeff_method="recurrence", m=1, sampler=sampler
    )
    # What damping="jackson" computes from the same moments.
    damped = DensityApprox(
        form="kpm",
        interval=plain.interval,
        coefficients=plain.coefficients * jackson_damping(k).rho,
    )
    via_lanczos = kpm_density(
        A, k, interval=interval, damping=None, coeff_method="lanczos_qf", m=1, sampler=sampler
    )

    rng = np.random.default_rng(cfg.seed)
    worst_exact = 0.0
    for _ in range(10):
        p = rng.standard_normal(2 * k)  # power-basis coefficients, deg < 2k

        def poly(x, p=p.tolist()):  # Horner's rule, as polyval runs it
            acc = p[-1]
            for coef in p[-2::-1]:
                acc = coef + acc * x
            return acc

        lhs = plain.integrate(poly)
        rhs = float(np.sum(psi.weights * poly(psi.nodes)))
        scale = max(abs(rhs), 1.0)
        worst_exact = max(worst_exact, abs(lhs - rhs) / scale)

    grid = np.linspace(interval[0] + 1e-9, interval[1] - 1e-9, 10_000)
    min_density = float(damped.density(grid).min())
    coeff_gap = float(
        np.abs(plain.coefficients - via_lanczos.coefficients).max()
    )

    rows = [("density_damped", i, float(v)) for i, v in enumerate(damped.density(grid[::100]))]
    rows += [("coefficient", n, float(c)) for n, c in enumerate(plain.coefficients)]

    assertions = [
        AssertionResult("poly_exactness", worst_exact <= 1e-9, worst_exact, "<= 1e-9"),
        AssertionResult("damped_nonnegative", min_density >= -1e-12, min_density, ">= -1e-12"),
        AssertionResult("coeff_paths_agree", coeff_gap <= 1e-8, coeff_gap, "<= 1e-8"),
    ]
    return ExperimentReport(cfg.experiment, "8.2", rows, assertions)


EXPERIMENTS = {
    "fp-lanczos": _fp_lanczos,
    "nearby-problem": _nearby_problem,
    "moment-stability": _moment_stability,
    "cg-bounds": _cg_bounds,
    "indefinite": _indefinite,
    "fa-optimality": _fa_optimality,
    "fa-formulas": _fa_formulas,
    "slq-wasserstein": _slq_wasserstein,
    "kpm-density": _kpm_density,
}


def list_experiments() -> list:
    return sorted(EXPERIMENTS)


def _write_csv(report: ExperimentReport, cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"{cfg.experiment}.csv")
    lines = [
        f"# figure: {report.figure_ref}",
        f"# config: {cfg.config_hash()}",
        "experiment,figure_ref,series,k,value",
    ]
    for series, k, value in report.rows:
        lines.append(
            f"{cfg.experiment},{report.figure_ref},{series},{k},{float(value):.17g}"
        )
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run one named experiment; write its CSV when an output directory is
    configured.  Raises :class:`InvalidSpec` for an unknown experiment, a
    ``k`` or ``m`` below one or a negative ``seed``."""
    if cfg.experiment not in EXPERIMENTS:
        raise InvalidSpec(
            f"unknown experiment {cfg.experiment!r}; see list_experiments()"
        )
    for name in ("k", "m"):  # None selects the experiment's default
        value = getattr(cfg, name)
        if value is not None and value < 1:
            raise InvalidSpec(f"{name} must be at least 1, got {value}")
    if cfg.seed < 0:
        raise InvalidSpec(f"seed must be non-negative, got {cfg.seed}")
    report = EXPERIMENTS[cfg.experiment](cfg)
    if cfg.out_dir is not None:
        path = _write_csv(report, cfg)
        report = replace(report, csv_path=path)
    return report
