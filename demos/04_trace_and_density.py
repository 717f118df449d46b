"""Stochastic traces and spectral densities.

This walkthrough estimates tr(f(A)) and the spectral density of A using
only matrix-vector products:

- Hutchinson probing for traces, with standard errors,
- stochastic Lanczos quadrature (SLQ): each probe's quadratic form is a
  small Gaussian quadrature, and averaging the quadrature measures gives
  a density estimate,
- the kernel polynomial method (KPM): a damped Chebyshev series against
  an arcsine reference weight, giving a smooth nonnegative density,
- control variates: subtracting an approximation with a known trace.

Run with:  python3 demos/04_trace_and_density.py
"""

import numpy as np

from krylov import (
    LinearOperator,
    ProbeSampler,
    control_variate_trace,
    hutchinson_trace,
    kpm_density,
    slq_density,
    slq_trace,
    wasserstein,
)
from krylov.orthopoly import DiscreteMeasure

# Spectrum following the semicircle distribution on [-1, 1].
d = 500
x = np.linspace(-1.0, 1.0, 20_001)
cdf = 0.5 + (x * np.sqrt(1.0 - x**2) + np.arcsin(x)) / np.pi
q = (np.arange(d) + 0.5) / d
vals = np.interp(q, cdf, x)
A = LinearOperator.diagonal(vals)

# ----------------------------------------------------------------------
# Trace of exp(A): SLQ = Hutchinson probing + Lanczos quadrature.
# Probes are keyed by (seed, index), so results do not depend on any
# execution schedule.
# ----------------------------------------------------------------------
truth = np.exp(vals).mean()
print(f"d^-1 tr(exp(A)) exact: {truth:.8f}")
for m in (10, 100, 1000):
    est = slq_trace(A, np.exp, k=12, m=m, sampler=ProbeSampler(seed=0))
    print(
        f"  SLQ m={m:5d}: {est.estimate:.8f}  +- {est.stderr:.2e}"
        f"  (error {abs(est.estimate - truth):.2e})"
    )

# ----------------------------------------------------------------------
# Density estimation: the averaged SLQ quadrature measure approaches the
# true eigenvalue distribution; doubling k roughly halves the
# Wasserstein distance.
# ----------------------------------------------------------------------
phi = DiscreteMeasure(vals, np.full(d, 1.0 / d))
print("\nWasserstein distance of the SLQ density to the true spectrum:")
for k in (8, 16, 32):
    approx = slq_density(A, k=k, m=8, sampler=ProbeSampler(seed=0))
    print(f"  k={k:2d}: {wasserstein(approx.measure, phi):.4e}")

# ----------------------------------------------------------------------
# KPM gives a smooth density.  Jackson damping trades a little blurring
# for guaranteed nonnegativity.  Each probe's Chebyshev moments up to
# degree 2k-1 come from its k-step Lanczos quadrature (exact for these
# degrees), and each probe checks that the interval encloses its
# quadrature nodes: k matvecs per probe.  coeff_method="recurrence"
# computes the same moments with the Chebyshev vector recurrence, also at
# k matvecs per probe.
# ----------------------------------------------------------------------
kpm = kpm_density(A, k=16, interval=(-1.02, 1.02), m=8, sampler=ProbeSampler(seed=0))
xs = np.linspace(-0.95, 0.95, 7)
ref = 2.0 / np.pi * np.sqrt(1.0 - xs**2)  # semicircle density
print("\nKPM density vs the semicircle law:")
for xi, got, want in zip(xs, kpm.density(xs), ref):
    print(f"  x = {xi:6.2f}: estimate {got:.4f}, truth {want:.4f}")
print(f"minimum of the damped density on a fine grid: "
      f"{kpm.density(np.linspace(-1.02, 1.02, 10_000)).min():.2e}")

# ----------------------------------------------------------------------
# Control variates: if an approximation with exactly known trace
# captures most of A, probing only the residual slashes the variance.
# ----------------------------------------------------------------------
rng = np.random.default_rng(3)
u = rng.standard_normal(d)
u /= np.linalg.norm(u)
spike = 50.0
qf = lambda v: float(v @ (vals * v)) + spike * float(u @ v) ** 2
qf_t = lambda v: spike * float(u @ v) ** 2  # rank-1 surrogate, trace known
m = 200
plain = hutchinson_trace(qf, d, m, ProbeSampler(seed=1))
cv = control_variate_trace(qf, spike, qf_t, d, m, ProbeSampler(seed=1))
print(f"\ntrace of spiked matrix, m={m} probes:")
print(f"  plain Hutchinson : {plain.estimate:.6f} +- {plain.stderr:.2e}")
print(f"  control variate  : {cv.estimate:.6f} +- {cv.stderr:.2e}")
