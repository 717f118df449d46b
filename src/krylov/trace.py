"""Stochastic estimators: quadratic-form probes, Hutchinson/Girard trace
estimation, stochastic Lanczos quadrature (SLQ) for traces and spectral
densities, and kernel-polynomial (KPM) densities with damping.

Probes are independent work items keyed by (seed, probe index); all
reductions run in probe-index order so results are deterministic under
any execution schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import LinearOperator, _finite_values, sym_tridiag_eig
from .errors import FunctionDomainError, NonFiniteOperator, SpectrumOutsideInterval
from .lanczos import _Recurrence
from .matfunc import lanczos_qf
from .orthopoly import (
    DiscreteMeasure,
    _cheb_rows,
    gauss_quadrature,
    jackson_damping,
    modified_moments,
)

__all__ = [
    "ProbeSampler",
    "TraceEstimate",
    "DensityApprox",
    "hutchinson_trace",
    "slq_trace",
    "slq_density",
    "kpm_density",
    "control_variate_trace",
]


@dataclass(frozen=True)
class ProbeSampler:
    """Deterministic random probe source.

    Probe ``i`` depends only on ``(seed, i)``, so estimates are identical
    under any probe scheduling.  ``unit_sphere`` draws uniform unit
    vectors (normalized Gaussians); ``rademacher`` draws entries
    +-1/sqrt(d).  Both satisfy E[b b^T] = I/d.
    """

    distribution: str = "unit_sphere"
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in ("unit_sphere", "rademacher"):
            raise ValueError("distribution must be 'unit_sphere' or 'rademacher'")

    def probe(self, index: int, d: int) -> np.ndarray:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
        )
        if self.distribution == "unit_sphere":
            g = rng.standard_normal(d)
            return g / np.linalg.norm(g)
        signs = rng.integers(0, 2, size=d) * 2 - 1
        return signs / math.sqrt(d)


@dataclass(frozen=True)
class TraceEstimate:
    """A stochastic estimate of d^{-1} tr(f(A)) with its standard error."""

    estimate: float
    stderr: float
    n_probes: int
    n_skipped: int = 0

    @property
    def flagged(self) -> bool:
        """True when more than 1% of probes were dropped."""
        total = self.n_probes + self.n_skipped
        return total > 0 and self.n_skipped > 0.01 * total


def _check_probes(m: int) -> None:
    if m < 1:
        raise ValueError("need at least one probe")


def _mean_stderr(samples) -> tuple:
    samples = np.asarray(samples, dtype=float)
    m = samples.size
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return mean, stderr


def hutchinson_trace(quad_form, d: int, m: int, sampler: ProbeSampler) -> TraceEstimate:
    """Hutchinson/Girard estimator of d^{-1} tr(M) from a quadratic-form
    evaluator ``quad_form(b) = b^T M b``."""
    _check_probes(m)
    samples = [float(quad_form(sampler.probe(i, d))) for i in range(m)]
    mean, stderr = _mean_stderr(samples)
    return TraceEstimate(estimate=mean, stderr=stderr, n_probes=m)


def slq_trace(
    A: LinearOperator, f, k: int, m: int, sampler: ProbeSampler
) -> TraceEstimate:
    """Stochastic Lanczos quadrature estimate of d^{-1} tr(f(A)):
    Hutchinson probing with each quadratic form replaced by a k-point
    Lanczos quadrature (streaming, no basis storage).

    Probes on which ``f`` is undefined at a Ritz value are dropped and
    counted; the estimate is flagged when more than 1% drop.  A
    non-finite operator output raises :class:`NonFiniteOperator` and is
    never counted as a dropped probe.
    """
    _check_probes(m)
    samples = []
    skipped = 0
    for i in range(m):
        b = sampler.probe(i, A.dim)
        try:
            samples.append(lanczos_qf(A, b, f, k))
        except FunctionDomainError:
            skipped += 1
    if not samples:
        raise FunctionDomainError("every probe was dropped")
    mean, stderr = _mean_stderr(samples)
    return TraceEstimate(
        estimate=mean, stderr=stderr, n_probes=len(samples), n_skipped=skipped
    )


@dataclass(frozen=True)
class DensityApprox:
    """A spectral-density approximation.

    Either a quadrature form (a discrete measure: averaged Gaussian
    quadrature nodes/weights) or a KPM expansion (reference interval plus
    damped coefficients against the orthonormal Chebyshev basis of the
    arcsine weight).
    """

    form: str  # "quadrature" or "kpm"
    measure: DiscreteMeasure | None = None
    interval: tuple | None = None
    coefficients: np.ndarray | None = None  # orthonormal-basis, damped

    def mass(self) -> float:
        if self.form == "quadrature":
            return self.measure.total_mass
        return float(self.coefficients[0])

    def cdf(self, x) -> np.ndarray:
        """Cumulative distribution function of the approximation."""
        if self.form == "quadrature":
            return self.measure.cdf(x)
        a, b = self.interval
        xt = np.clip((2.0 * np.asarray(x, dtype=float) - (a + b)) / (b - a), -1.0, 1.0)
        theta = np.arccos(xt)
        c = self.coefficients
        out = c[0] * (1.0 - theta / np.pi)
        for n in range(1, c.size):
            # integral of sqrt(2) T_n against the arcsine weight up to x
            out = out - c[n] * math.sqrt(2.0) * np.sin(n * theta) / (n * np.pi)
        return out

    def integrate(self, g, n_quad: int | None = None) -> float:
        """Integral of a scalar function against the approximation.

        The KPM form uses a midpoint rule in the Chebyshev angle, which
        is exact when g is a polynomial of sufficiently low degree.
        Raises :class:`FunctionDomainError` if ``g`` is NaN/Inf at a node.
        """
        if self.form == "quadrature":
            vals = _finite_values(g, self.measure.nodes, FunctionDomainError)
            return float(np.sum(self.measure.weights * vals))
        a, b = self.interval
        c = self.coefficients
        if n_quad is None:
            n_quad = 4 * c.size + 64
        theta = (np.arange(n_quad) + 0.5) * np.pi / n_quad
        xt = np.cos(theta)
        x = 0.5 * (b - a) * xt + 0.5 * (a + b)
        gv = _finite_values(g, x, FunctionDomainError)
        return float(np.sum(gv * _kpm_series(c, xt)) / n_quad)

    def density(self, x) -> np.ndarray:
        """Pointwise density (KPM form only)."""
        if self.form != "kpm":
            raise ValueError("pointwise density defined only for the KPM form")
        a, b = self.interval
        x = np.asarray(x, dtype=float)
        xt = (2.0 * x - (a + b)) / (b - a)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = 1.0 / (np.pi * np.sqrt(1.0 - xt**2))
        return _kpm_series(self.coefficients, xt) * v * 2.0 / (b - a)


def _kpm_series(c: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """c_0 + sum_n c_n sqrt(2) T_n(xt): a KPM expansion against the
    orthonormal Chebyshev basis, at points of the unit interval."""
    series = np.full_like(xt, c[0])
    for n, t in enumerate(_cheb_rows("T", c.size, xt)):
        if n:
            series = series + c[n] * math.sqrt(2.0) * t
    return series


def slq_density(
    A: LinearOperator, k: int, m: int, sampler: ProbeSampler
) -> DensityApprox:
    """SLQ spectral-density estimate: the average of the m probes'
    k-point Gaussian quadrature measures."""
    _check_probes(m)
    nodes, weights = [], []
    for i in range(m):
        rec = _Recurrence(A, sampler.probe(i, A.dim), k).run()
        quad = gauss_quadrature(rec.T, rec.b_norm**2)
        nodes.append(quad.nodes)
        weights.append(quad.weights / m)
    measure = DiscreteMeasure(np.concatenate(nodes), np.concatenate(weights))
    return DensityApprox(form="quadrature", measure=measure)


def kpm_density(
    A: LinearOperator,
    k: int,
    interval=None,
    damping: str | None = "jackson",
    coeff_method: str = "recurrence",
    m: int = 1,
    sampler: ProbeSampler | None = None,
) -> DensityApprox:
    """Kernel-polynomial spectral-density estimate of half-degree k.

    The reference density is the arcsine (Chebyshev-T) weight mapped to
    the interval; coefficients 0..2k-1 against its orthonormal polynomial
    basis are quadratic forms b^T q_n(A~) b averaged over probes, computed
    either by the explicit Chebyshev vector recurrence or from a k-step
    Lanczos quadrature (exact for these degrees, and forward-stable even
    without reorthogonalization).  One min(2k, d)-step Lanczos run on
    probe 0 sets the interval from its Ritz values, and the quadrature
    path reuses its first k steps.  A given ``interval`` still costs those
    min(2k, d) matvecs, only to check that it encloses the Ritz values; an
    empty one is rejected before any.  A NaN or Inf moment raises
    :class:`NonFiniteOperator`.
    """
    _check_probes(m)
    if sampler is None:
        sampler = ProbeSampler()
    if coeff_method not in ("recurrence", "lanczos_qf"):
        raise ValueError("coeff_method must be 'recurrence' or 'lanczos_qf'")
    if damping not in (None, "none", "jackson"):
        raise ValueError("damping must be None or 'jackson'")

    if interval is not None and not float(interval[1]) > float(interval[0]):
        raise ValueError("interval must have positive length")
    ritz = _Recurrence(A, sampler.probe(0, A.dim), min(2 * k, A.dim)).run()
    vals = sym_tridiag_eig(ritz.T).eigenvalues
    lo, hi = float(vals[0]), float(vals[-1])
    if interval is None:
        span = max(hi - lo, 1e-300)
        interval = (lo - 0.05 * span, hi + 0.05 * span)
    a, b_right = float(interval[0]), float(interval[1])
    span = b_right - a
    if span <= 0:  # an automatic interval around one Ritz value
        raise ValueError("interval must have positive length")
    if lo < a - 1e-8 * span or hi > b_right + 1e-8 * span:
        raise SpectrumOutsideInterval(
            f"Ritz values [{lo}, {hi}] exit interval [{a}, {b_right}]"
        )

    n_coeffs = 2 * k
    moments = np.zeros(n_coeffs)
    for i in range(m):
        b = sampler.probe(i, A.dim)
        if coeff_method == "recurrence":
            # v_{n+1} = 2 A~ v_n - v_{n-1} on the mapped operator
            def amap(v):
                return (2.0 * A.apply(v) - (a + b_right) * v) / span

            def moment(v):
                mu = float(b @ v)
                if not math.isfinite(mu):
                    raise NonFiniteOperator("non-finite KPM moment")
                return mu

            v_prev = b
            v = amap(b)
            moments[0] += moment(v_prev)
            if n_coeffs > 1:
                moments[1] += moment(v)
            for n in range(2, n_coeffs):
                v, v_prev = 2.0 * amap(v) - v_prev, v
                moments[n] += moment(v)
        else:
            # Probe 0's first k steps are the Ritz run's first k steps.
            rec = ritz if i == 0 and k <= ritz.k else _Recurrence(A, b, k).run()
            T = rec.T.principal(min(k, rec.T.size))
            quad = gauss_quadrature(T, rec.b_norm**2)
            moments += modified_moments(quad, n_coeffs, "T", (a, b_right))
    moments /= m

    # Coefficients against the orthonormal basis q_0 = T_0, q_n = sqrt(2) T_n.
    coeffs = moments.copy()
    coeffs[1:] *= math.sqrt(2.0)
    if damping == "jackson":
        coeffs = coeffs * jackson_damping(k).rho
    return DensityApprox(form="kpm", interval=(a, b_right), coefficients=coeffs)


def control_variate_trace(
    A_func,
    Atilde_trace: float,
    Atilde_func,
    d: int,
    m: int,
    sampler: ProbeSampler,
) -> TraceEstimate:
    """Control-variate trace estimate: the exact trace of an approximation
    plus a Hutchinson estimate of the residual's trace.  The standard
    error comes from the residual probes alone."""
    residual = hutchinson_trace(
        lambda b: float(A_func(b)) - float(Atilde_func(b)), d, m, sampler
    )
    return replace(residual, estimate=Atilde_trace / d + residual.estimate)
