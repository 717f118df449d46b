"""Solving symmetric linear systems: CG, MINRES, shifts, bounds.

This script walks through the solver layer:

- CG and MINRES convergence on a conditioned SPD system,
- the a priori Chebyshev convergence bounds (including the tighter bound
  available when one eigenvalue is a far outlier),
- solving many shifted systems (A - z I) x = b for the price of one
  Krylov basis,
- a posteriori error estimation by iterate lookahead.

Run with:  python3 demos/02_linear_solvers.py
"""

import numpy as np

from krylov import (
    LinearOperator,
    cg,
    chebyshev_bound,
    error_estimate_delay,
    minres,
    multi_shift_solve,
)

rng = np.random.default_rng(1)

# ----------------------------------------------------------------------
# CG vs MINRES on an SPD system with condition number 1e4.
# ----------------------------------------------------------------------
d = 100
vals = np.geomspace(1.0, 1e4, d)
A = LinearOperator.diagonal(vals)
b = rng.standard_normal(d)

k = 60
h_cg = cg(A, b, k, tol=0.0)
h_m = minres(A, b, k, tol=0.0)
print("step   CG residual   MINRES residual")
for j in (0, 9, 19, 39, 59):
    print(f"{j + 1:4d}   {h_cg.residual_norms[j]:.3e}     {h_m.residual_norms[j]:.3e}")

# ----------------------------------------------------------------------
# A priori bounds.  The two-term Chebyshev value is sharp for the worst
# spectrum with the given condition number.
# ----------------------------------------------------------------------
x_star = b / vals
a0 = np.sqrt(x_star @ (vals * x_star))
print("\nstep   measured A-norm ratio   Chebyshev bound")
for j in (4, 9, 19, 39):
    x = h_cg.iterates[j]
    err = x - x_star
    ratio = np.sqrt(err @ (vals * err)) / a0
    bound = chebyshev_bound("full_interval", {"lam_min": 1.0, "lam_max": 1e4}, j + 1)
    print(f"{j + 1:4d}   {ratio:.3e}              {bound:.3e}")

# With one huge outlying eigenvalue, CG effectively removes it after one
# step, and the bound that knows about the outlier is far tighter.
k30 = 30
plain = chebyshev_bound("full_interval", {"lam_min": 1.0, "lam_max": 1000.0}, k30)
aware = chebyshev_bound("top_cluster", {"lam_min": 1.0, "lam_next": 10.0, "ell": 1}, k30)
print(f"\nbounds at k={k30} for spectrum [1,10] + outlier 1000:")
print(f"  interval-only bound : {plain:.3e}")
print(f"  outlier-aware bound : {aware:.3e}  ({plain / aware:.0f}x tighter)")

# ----------------------------------------------------------------------
# Multi-shift: one Lanczos basis serves every shift.  Each shift stops at
# its own first residual below tol * ||b|| (default 1e-10), as cg and
# minres do, and the basis stops growing once the last shift has stopped.
# ----------------------------------------------------------------------
d = 50
vals = np.geomspace(1.0, 50.0, d)
A = LinearOperator.diagonal(vals)
b = rng.standard_normal(d)
shifts = [-0.5, -2.0, -8.0]
hists = multi_shift_solve(A, b, shifts, k=60)
print("\nshifted systems (A - z I) x = b from one shared basis:")
for z, h in zip(shifts, hists):
    x = h.final
    res = np.linalg.norm(b - (vals * x - z * x))
    print(f"  z = {z:6.2f}: {h.termination} after {h.k} steps, residual {res:.3e}")

# ----------------------------------------------------------------------
# A posteriori error estimates: ||x_{j+d} - x_j||_A is a guaranteed
# lower bound on the A-norm error at step j, and sharpens as the
# lookahead d grows.
# ----------------------------------------------------------------------
h = cg(A, b, 30, tol=0.0)
x_star = b / vals
j = 9
err = h.iterates[j] - x_star
true_err = np.sqrt(err @ (vals * err))
print(f"\ntrue A-norm error at step {j + 1}: {true_err:.3e}")
for delay in (1, 4, 12):
    est = error_estimate_delay(h, A, delay)[j]
    print(f"  lookahead {delay:2d}: estimate {est:.3e} ({est / true_err:.3f} of truth)")
