"""Stochastic estimators: quadratic-form probes, Hutchinson/Girard trace
estimation, stochastic Lanczos quadrature (SLQ) for traces and spectral
densities, and kernel-polynomial (KPM) densities with damping.

Probes are independent work items keyed by (seed, probe index); all
reductions run in probe-index order so results are deterministic under
any execution schedule.  The probes of :func:`slq_trace`,
:func:`slq_density` and :func:`kpm_density` run on a thread pool that
each call starts and shuts down, one thread per usable CPU up to one per
probe (so CPU affinity, e.g. ``taskset``, limits the workers), when the
operator dimension is at least ``_POOL_MIN_DIM``: scipy's sparse products
and numpy's vector arithmetic release the interpreter lock, so probes
overlap.  Each probe builds its own recurrence; only ``A``, ``f`` and the
sampler are shared, so ``LinearOperator.apply`` must tolerate concurrent
calls (see ``core``).
Estimates are bit-identical for any number of workers.
:func:`hutchinson_trace` and :func:`control_variate_trace` call user
callables that make no such promise, and stay serial.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import LinearOperator, _finite_values, _tridiag_eigenvalues
from .errors import FunctionDomainError, NonFiniteOperator, SpectrumOutsideInterval
from .lanczos import _Recurrence
from .matfunc import lanczos_qf
from .orthopoly import (
    DiscreteMeasure,
    _cheb_series,
    _interval,
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
    +-1/sqrt(d).  Both satisfy E[b b^T] = I/d.  ``seed`` must be an
    integer >= 0 (a numpy integer too), or ``ValueError`` is raised.
    """

    distribution: str = "unit_sphere"
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in ("unit_sphere", "rademacher"):
            raise ValueError("distribution must be 'unit_sphere' or 'rademacher'")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")

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


# Probe maps over operators of smaller dimension run serially: below it a
# step's Python work, which holds the interpreter lock, outweighs the array
# work that threads overlap.  Measured for slq_trace (m=4, k=30) on 2-D
# Laplacians, 2 threads on 2 vCPUs (crossover table in CHANGES.md): 0.5-0.9x
# up to d=1.3e4, 1.1x at d=1.6e4, 1.3-1.7x from d=2.6e4 to 2e5.
_POOL_MIN_DIM = 16_384

_worker = threading.local()  # ``active`` is set on the probe threads


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _mark_worker() -> None:
    _worker.active = True


def _map_probes(fn, m: int, d: int) -> list:
    """``[fn(0), ..., fn(m - 1)]``, on threads of this call when that can pay.

    Serial with fewer than two usable CPUs or items, below
    ``_POOL_MIN_DIM``, or inside a probe thread (a nested estimator would
    otherwise start threads of its own for every outer probe).  The pool
    lives for this call only.  As in the serial loop, the first item to
    fail in index order raises its own exception; items not yet started
    are cancelled and running ones finish before it does.
    """
    workers = min(m, _usable_cpus())
    if workers < 2 or d < _POOL_MIN_DIM or getattr(_worker, "active", False):
        return [fn(i) for i in range(m)]
    with ThreadPoolExecutor(workers, "krylov-probe", _mark_worker) as pool:
        futures = [pool.submit(fn, i) for i in range(m)]
        try:
            return [f.result() for f in futures]
        finally:
            pool.shutdown(cancel_futures=True)


def _check_probes(m: int, k: int = 1) -> None:
    if m < 1:
        raise ValueError("need at least one probe")
    if k < 1:
        raise ValueError("k must be at least 1")


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
    if d < 1:
        raise ValueError("d must be at least 1")
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
    never counted as a dropped probe.  Probes run concurrently on large
    operators (see the module docstring), with the same result.
    """
    _check_probes(m, k)

    def sample(i):  # None for a dropped probe
        try:
            return lanczos_qf(A, sampler.probe(i, A.dim), f, k)
        except FunctionDomainError:
            return None

    results = _map_probes(sample, m, A.dim)
    samples = [x for x in results if x is not None]
    skipped = m - len(samples)
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

    def integrate(self, g) -> float:
        """Integral of a scalar function against the approximation.

        The KPM form uses a ``4 n + 64``-point midpoint rule in the
        Chebyshev angle for ``n`` coefficients, which is exact when g is a
        polynomial of sufficiently low degree.
        Raises :class:`FunctionDomainError` if ``g`` is NaN/Inf at a node.
        """
        if self.form == "quadrature":
            vals = _finite_values(g, self.measure.nodes, FunctionDomainError)
            return float(np.sum(self.measure.weights * vals))
        a, b = self.interval
        c = self.coefficients
        points = 4 * c.size + 64
        theta = (np.arange(points) + 0.5) * np.pi / points
        xt = np.cos(theta)
        x = 0.5 * (b - a) * xt + 0.5 * (a + b)
        gv = _finite_values(g, x, FunctionDomainError)
        return float(np.sum(gv * _cheb_series(c, xt, math.sqrt(2.0))) / points)

    def density(self, x) -> np.ndarray:
        """Pointwise density (KPM form only)."""
        if self.form != "kpm":
            raise ValueError("pointwise density defined only for the KPM form")
        a, b = self.interval
        x = np.asarray(x, dtype=float)
        xt = (2.0 * x - (a + b)) / (b - a)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = 1.0 / (np.pi * np.sqrt(1.0 - xt**2))
        return _cheb_series(self.coefficients, xt, math.sqrt(2.0)) * v * 2.0 / (b - a)


def slq_density(
    A: LinearOperator, k: int, m: int, sampler: ProbeSampler
) -> DensityApprox:
    """SLQ spectral-density estimate: the average of the m probes'
    k-point Gaussian quadrature measures.  Probes run concurrently on
    large operators (see the module docstring), with the same result."""
    return _slq_densities(A, (k,), m, sampler)[0]


def _slq_densities(A: LinearOperator, ks, m: int, sampler: ProbeSampler) -> list:
    """``[slq_density(A, k, m, sampler) for k in ks]``, bit for bit, from
    one ``max(ks)``-step run per probe."""
    _check_probes(m, min(ks))
    per_probe = _map_probes(lambda i: _quadratures(A, sampler, i, max(ks), ks)[1], m, A.dim)
    out = []
    for quads in zip(*per_probe):  # one degree at a time
        measure = DiscreteMeasure(
            np.concatenate([q.nodes for q in quads]),
            np.concatenate([q.weights / m for q in quads]),
        )
        out.append(DensityApprox(form="quadrature", measure=measure))
    return out


def _quadratures(A: LinearOperator, sampler: ProbeSampler, i: int, steps: int, ks) -> tuple:
    """One ``steps``-step Lanczos run from probe i: its tridiagonal T, and
    for each k in ``ks`` the Gauss quadrature of the leading ``min(k, steps
    run)`` block of T.  A k-step run is the first k steps of a longer one
    from the same start vector, so each is the k-step run's, bit for bit."""
    rec = _Recurrence(A, sampler.probe(i, A.dim), steps).run()
    T, mass = rec.T, rec.b_norm**2
    return T, [gauss_quadrature(T.principal(min(k, T.size)), mass) for k in ks]


def _automatic_interval(T) -> tuple:
    """The hull of the Ritz values of ``T`` widened by 5% each side."""
    vals = _tridiag_eigenvalues(T)
    lo, hi = float(vals[0]), float(vals[-1])
    span = max(hi - lo, 1e-300)
    # Around one Ritz value, the widening can round away.
    return _interval((lo - 0.05 * span, hi + 0.05 * span))


def _chebyshev_moments(A: LinearOperator, b: np.ndarray, k: int, interval) -> np.ndarray:
    """Probe ``b``'s Chebyshev moments mu_0..mu_{2k-1} on ``interval`` from
    the vector recurrence v_{n+1} = 2 A~ v_n - v_{n-1} on the mapped
    operator, run to v_k: k products.  mu_n = b . v_n up to n = k; above k
    the doubling identities give mu_{2j} = 2 v_j . v_j - mu_0 and
    mu_{2j-1} = 2 v_j . v_{j-1} - mu_1, as soon as v_j exists.  ``b`` is
    only read."""
    a, b_right = interval
    span = b_right - a
    n_coeffs = 2 * k

    def amap(v):
        return (2.0 * A.apply(v) - (a + b_right) * v) / span

    mus = np.empty(n_coeffs)

    def record(n, mu):
        if not math.isfinite(mu):
            raise NonFiniteOperator("non-finite KPM moment")
        mus[n] = mu

    v_prev, v = b, amap(b)
    record(0, float(b @ v_prev))
    record(1, float(b @ v))
    for j in range(2, k + 1):
        v, v_prev = 2.0 * amap(v) - v_prev, v
        record(j, float(b @ v))
        if 2 * j - 1 > k:
            record(2 * j - 1, 2.0 * float(v @ v_prev) - mus[1])
        if k < 2 * j < n_coeffs:
            record(2 * j, 2.0 * float(v @ v) - mus[0])
    return mus


def kpm_density(
    A: LinearOperator,
    k: int,
    interval=None,
    damping: str | None = "jackson",
    coeff_method: str = "lanczos_qf",
    m: int = 1,
    sampler: ProbeSampler | None = None,
) -> DensityApprox:
    """Kernel-polynomial spectral-density estimate of half-degree k.

    The reference density is the arcsine (Chebyshev-T) weight mapped to
    the interval; coefficients 0..2k-1 against its orthonormal polynomial
    basis are quadratic forms b^T q_n(A~) b averaged over probes.  With
    ``interval=None``, a min(2k, d)-step Lanczos run of probe 0 (the Ritz
    run) sets the interval: its Ritz hull widened by 5% each side, an
    unchecked heuristic that can miss the spectrum ((-0.604, 0.634) for
    k=1 on ``diagonal(linspace(-1, 1, 400))``; one Ritz value +- 5e-302
    below about 1e-150, where the Ritz run underflows).  An empty or
    infinite ``interval`` is rejected before any operator call; each probe
    checks any other given one on the data its moments come from, at no
    extra call.  The checks are one-sided: :class:`SpectrumOutsideInterval`
    shows that the spectrum exits the interval, and a pass shows nothing.

    The default ``coeff_method="lanczos_qf"`` reads each probe's moments
    off its k-point Lanczos quadrature, which is exact for these degrees
    and forward-stable even without reorthogonalization.  Operator
    applications: m k with a given interval; max(k, min(2k, d)) + (m-1) k
    without, as probe 0's one run is also the Ritz run.  Check: each
    probe's nodes (Ritz values, so inside the spectral hull) lie in the
    interval to within 1e-8 of its length.  It catches an end of the
    spectrum that some probe's k-step run reaches.

    ``coeff_method="recurrence"`` runs the explicit Chebyshev vector
    recurrence instead: it forms v_n = T_n(A~) b for n <= k only and takes
    mu_n = b^T v_n there; above k it uses the product identities
    T_{2j} = 2 T_j^2 - T_0 and T_{2j+1} = 2 T_{j+1} T_j - T_1, so
    mu_{2j} = 2 v_j^T v_j - mu_0 and mu_{2j+1} = 2 v_{j+1}^T v_j - mu_1
    (Weisse, Wellein, Alvermann & Fehske 2006, "The kernel polynomial
    method", Sec. II.C).  Operator applications: m k with a given
    interval; min(2k, d) + m k without, the probes starting after the
    Ritz run.  A NaN or Inf moment, direct or doubled, raises
    :class:`NonFiniteOperator` at its step.  Check, on each probe's
    complete moments: |mu_n| <= mu_0 T_n(1 + 2e-8), as for any measure on
    the interval widened by 1e-8 of its length each side.  It catches
    spectrum outside that holds enough of the probe's weight for some
    T_n, n < 2k, to outgrow the rest; an interval far off the spectrum
    can overflow a moment first (:class:`NonFiniteOperator`).

    Each probe vector is drawn once.  Probes run concurrently on large
    operators (see the module docstring), with the same result: the first
    failing probe in index order raises.
    """
    _check_probes(m, k)
    if sampler is None:
        sampler = ProbeSampler()
    if coeff_method not in ("recurrence", "lanczos_qf"):
        raise ValueError("coeff_method must be 'recurrence' or 'lanczos_qf'")
    if damping not in (None, "jackson"):
        raise ValueError("damping must be None or 'jackson'")

    if interval is not None:
        a, b_right = _interval(interval)
    n_coeffs = 2 * k
    ritz_steps = min(n_coeffs, A.dim)

    if coeff_method == "lanczos_qf":

        def quadrature(i):  # with interval=None, item 0 also returns the interval
            ritz = interval is None and i == 0  # probe 0's run is then the Ritz run too
            T, (q,) = _quadratures(A, sampler, i, max(k, ritz_steps) if ritz else k, (k,))
            if ritz:
                return q, _automatic_interval(T.principal(min(ritz_steps, T.size)))
            if interval is not None:
                lo, hi, pad = float(q.nodes.min()), float(q.nodes.max()), 1e-8 * (b_right - a)
                if lo < a - pad or hi > b_right + pad:
                    raise SpectrumOutsideInterval(
                        f"probe {i}'s quadrature nodes [{lo}, {hi}] exit interval [{a}, {b_right}]"
                    )
            return q, None

        quads = _map_probes(quadrature, m, A.dim)
        if interval is None:
            a, b_right = quads[0][1]
        per_probe = [modified_moments(q, n_coeffs, "T", (a, b_right)) for q, _ in quads]
    else:
        b0 = sampler.probe(0, A.dim) if interval is None else None  # the Ritz run's and probe 0's
        if interval is None:  # the moments need the interval the Ritz run sets
            a, b_right = _automatic_interval(_Recurrence(A, b0, ritz_steps).run().T)
        growth = np.cosh(np.arange(n_coeffs) * math.acosh(1.0 + 2e-8))  # T_n(1 + 2e-8)

        def probe_moments(i):
            b = sampler.probe(i, A.dim) if i or b0 is None else b0
            mus = _chebyshev_moments(A, b, k, (a, b_right))
            if interval is not None and (np.abs(mus) > mus[0] * growth).any():
                raise SpectrumOutsideInterval(
                    f"probe {i}'s moments exceed mu_0 = {mus[0]}: spectrum exits [{a}, {b_right}]"
                )
            return mus

        per_probe = _map_probes(probe_moments, m, A.dim)
    moments = np.zeros(n_coeffs)
    for mu in per_probe:  # in probe order, as the bits require
        moments += mu
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
