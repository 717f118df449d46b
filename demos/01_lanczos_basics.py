"""Building Krylov bases with Lanczos.

This walkthrough builds tridiagonal decompositions of a symmetric
operator, shows how orthogonality of the basis degrades without
reorthogonalization, and how the Ritz values (eigenvalues of the small
tridiagonal matrix) approximate the spectrum of the big operator.

Run with:  python3 demos/01_lanczos_basics.py
"""

import numpy as np

from krylov import LinearOperator, ReorthMode, lanczos, sym_tridiag_eig
from krylov.matrices import GradedSpectrum, generate_operator

# ----------------------------------------------------------------------
# A graded spectrum: eigenvalues crowd near lam_min with a few stragglers
# near lam_max.  The top eigenvalues converge after a handful of Lanczos
# steps, which is exactly what makes plain Lanczos lose orthogonality.
# ----------------------------------------------------------------------
gen = generate_operator(GradedSpectrum(d=64, lam_min=1e-3, lam_max=1.0, rho=0.8))
A = gen.operator
true_eigs = gen.eigenvalues

rng = np.random.default_rng(0)
b = rng.standard_normal(A.dim)
k = 40

print("=== plain Lanczos (no reorthogonalization) ===")
plain = lanczos(A, b, k, mode=ReorthMode.NONE)
Q = plain.basis
loss = np.abs(Q.T @ Q - np.eye(Q.shape[1])).max()
print(f"max |Q^T Q - I| after {k} steps: {loss:.3e}")

print("\n=== Lanczos with full reorthogonalization ===")
full = lanczos(A, b, k, mode=ReorthMode.FULL)
Qf = full.basis
loss_f = np.abs(Qf.T @ Qf - np.eye(Qf.shape[1])).max()
print(f"max |Q^T Q - I| after {k} steps: {loss_f:.3e}")

# The two runs produce very different tridiagonal matrices ...
t_gap = np.abs(plain.T.to_dense() - full.T.to_dense()).max()
print(f"\nmax |T_plain - T_full| = {t_gap:.3e}")

# ... yet both sets of Ritz values live inside the spectrum's hull, and
# the extreme eigenvalues are located accurately by either run.
for label, dec in (("plain", plain), ("full reorth", full)):
    ritz = sym_tridiag_eig(dec.T).eigenvalues
    print(
        f"{label:12s}: ritz range [{ritz.min():.6f}, {ritz.max():.6f}], "
        f"top-eig error {abs(ritz.max() - true_eigs.max()):.2e}"
    )

# The plain run's tridiagonal matrix develops "ghost" copies of converged
# eigenvalues: several Ritz values collapse onto the same eigenvalue.
ritz = sym_tridiag_eig(plain.T).eigenvalues
top = true_eigs.max()
ghosts = np.sum(np.abs(ritz - top) <= 1e-6)
print(f"\nRitz values within 1e-6 of the top eigenvalue (plain run): {ghosts}")

# Breakdown: starting from an eigenvector, the Krylov space is
# one-dimensional and Lanczos stops immediately with a report.
e1 = np.zeros(A.dim)
e1[0] = 1.0
small = lanczos(LinearOperator.diagonal(true_eigs), e1, 10)
print(
    f"\nstart vector = eigenvector: stopped at step {small.T.size}, "
    f"kind = {small.termination!r}"
)
