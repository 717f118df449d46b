"""Small dense kernels: symmetric tridiagonal eigenproblems and solves,
plus the matrix-free operator contract everything else builds on.

All values are immutable after construction and safe to share across
threads; ``LinearOperator.apply`` must tolerate concurrent calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dstev

from .errors import FunctionDomainError, SingularSystem

__all__ = [
    "LinearOperator",
    "SymTridiagonal",
    "TridiagEig",
    "sym_tridiag_eig",
    "tridiag_apply_function",
    "tridiag_solve",
]

# Relative pivot threshold of a singular small solve, read only by _singular.
SINGULARITY_RTOL = 1e-14


@dataclass(frozen=True)
class LinearOperator:
    """A dimension-``d`` symmetric matrix-free operator.

    Only matrix-vector products are required.  Symmetry is a caller
    contract, probed by tests via random vectors.
    """

    dim: int
    matvec: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("operator dimension must be positive")

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = np.asarray(self.matvec(np.asarray(v)))
        if out.shape != (self.dim,):
            raise ValueError("operator apply changed the vector length")
        return out

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.apply(v)

    @classmethod
    def from_matrix(cls, A) -> "LinearOperator":
        """Wrap a dense or sparse matrix (kept by reference)."""
        d = A.shape[0]
        if A.shape != (d, d):
            raise ValueError("matrix must be square")
        return cls(dim=d, matvec=lambda v: np.asarray(A @ v).reshape(d))

    @classmethod
    def diagonal(cls, diag) -> "LinearOperator":
        diag = np.asarray(diag, dtype=float)
        return cls(dim=diag.size, matvec=lambda v: diag * v)

    def to_dense(self) -> np.ndarray:
        """Materialize the operator by applying it to the identity."""
        d = self.dim
        out = np.empty((d, d))
        e = np.zeros(d)
        for j in range(d):
            e[j] = 1.0
            out[:, j] = self.apply(e)
            e[j] = 0.0
        return out


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix given by diagonal and off-diagonal."""

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))
        object.__setattr__(self, "betas", np.asarray(self.betas, dtype=float))
        if self.alphas.ndim != 1 or self.alphas.size < 1:
            raise ValueError("alphas must be a nonempty 1-d array")
        if self.betas.shape != (self.alphas.size - 1,):
            raise ValueError("betas must have length len(alphas) - 1")

    @property
    def size(self) -> int:
        return self.alphas.size

    def to_dense(self) -> np.ndarray:
        T = np.diag(self.alphas)
        k = self.size
        if k > 1:
            T += np.diag(self.betas, 1) + np.diag(self.betas, -1)
        return T

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.alphas * v
        if self.size > 1:
            out[:-1] += self.betas * v[1:]
            out[1:] += self.betas * v[:-1]
        return out

    def principal(self, j: int) -> "SymTridiagonal":
        """Leading j-by-j principal submatrix."""
        return SymTridiagonal(self.alphas[:j], self.betas[: j - 1])


@dataclass(frozen=True)
class TridiagEig:
    """Eigendecomposition of a symmetric tridiagonal matrix.

    Eigenvalues ascend; eigenvector columns are orthonormal with the first
    nonzero component positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_tridiag_eig(T: SymTridiagonal) -> TridiagEig:
    """Full eigendecomposition of a symmetric tridiagonal matrix.

    Calls LAPACK ``dstev`` (implicit-shift QL/QR) on the (alpha, beta)
    pair directly, the routine ``scipy.linalg.eigh_tridiagonal`` runs with
    ``lapack_driver="stev"``, without its per-call argument checks; no
    dense matrix is formed.  Raises ``ValueError`` if an entry is NaN or
    Inf, and ``numpy.linalg.LinAlgError`` if the QL/QR iteration does not
    converge.
    """
    if T.size == 1:
        vals = np.array([T.alphas[0]])
        vecs = np.array([[1.0]])
        return TridiagEig(vals, vecs)
    vals, vecs = _dstev(T)
    # Deterministic sign convention: first nonzero component positive.
    first = vecs[np.argmax(vecs != 0, axis=0), np.arange(vecs.shape[1])]
    flip = first < 0
    vecs[:, flip] = -vecs[:, flip]
    return TridiagEig(vals, vecs)


def _tridiag_eigenvalues(T: SymTridiagonal) -> np.ndarray:
    """The ascending eigenvalues of ``T`` alone: ``dstev`` without
    eigenvectors (LAPACK's root-free QL/QR ``dsterf``), so no k-by-k
    matrix is formed.  They may differ from :func:`sym_tridiag_eig`'s in
    the last bits.  Raises as :func:`sym_tridiag_eig` does."""
    if T.size == 1:
        return np.array([T.alphas[0]])
    return _dstev(T, compute_v=0)[0]


def _dstev(T: SymTridiagonal, **options) -> tuple:
    """``dstev``'s values and vectors, after the checks both callers share."""
    if not (np.isfinite(T.alphas).all() and np.isfinite(T.betas).all()):
        raise ValueError("array must not contain infs or NaNs")
    vals, vecs, info = dstev(T.alphas, T.betas, **options)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"dstev: {info} off-diagonal elements did not converge to zero"
        )
    return vals, vecs


def _finite_values(f, points: np.ndarray, error: type) -> np.ndarray:
    """``f`` at each point, by one scalar call per point, as a float array.

    Raises ``error`` if any value is NaN or Inf (``f`` off its domain).
    """
    with np.errstate(all="ignore"):
        fvals = np.asarray([f(t) for t in points], dtype=float)
    if not np.all(np.isfinite(fvals)):
        bad = np.asarray(points)[~np.isfinite(fvals)]
        raise error(f"f is not finite at {bad[:3]}")
    return fvals


def _eig_apply_function(eig: TridiagEig, fvals: np.ndarray) -> np.ndarray:
    """``f(T) e_1`` from the eigendecomposition of ``T`` and ``f`` at its
    eigenvalues."""
    return eig.eigenvectors @ (fvals * eig.eigenvectors[0, :])


def tridiag_apply_function(T: SymTridiagonal, f) -> np.ndarray:
    """Return ``f(T) e_1`` via the eigendecomposition of ``T``.

    Raises :class:`FunctionDomainError` if ``f`` is NaN/Inf at any
    eigenvalue of ``T`` (e.g. ``1/x`` with an eigenvalue at zero).
    """
    eig = sym_tridiag_eig(T)
    fvals = _finite_values(f, eig.eigenvalues, FunctionDomainError)
    return _eig_apply_function(eig, fvals)


def _givens(a, b: float):
    """The rotation ``[[c, s], [-conj(s), c]]``, ``c`` real, that maps
    ``(a, b)``, ``b`` real, to ``(r, 0)``.  Returns ``(c, s, r)``, where
    ``s = a b / (|a| rho)`` with no conjugate for a complex ``a``."""
    if a == 0:
        return 0.0, 1.0, b
    abs_a = abs(a)
    rho = math.hypot(abs_a, b)
    phase = a / abs_a
    return abs_a / rho, phase * (b / rho), phase * rho


def _qr_column(rot2, rot1, beta_prev: float, diag, beta: float):
    """One column of the Givens QR of an extended (shifted) tridiagonal
    (Paige & Saunders 1975).

    Column n holds ``beta_prev``, ``diag`` and ``beta`` in rows n-1, n and
    n+1.  Rotating rows (n-2, n-1) by ``rot2`` = G_{n-2} and rows (n-1, n)
    by ``rot1`` = G_{n-1}, each a ``(c, s)`` pair, gives the entries
    ``eps`` and ``delta`` of the triangular factor and ``gbar``, the last
    diagonal of the factor of the square leading block.  Returns
    ``eps, delta, gbar, (c, s, gamma)`` where G_n = ``(c, s)`` annihilates
    ``beta`` against ``gbar`` and ``gamma`` is the final diagonal entry.
    """
    c2, s2 = rot2
    c1, s1 = rot1
    dbar = c2 * beta_prev
    delta = c1 * dbar + s1 * diag
    gbar = c1 * diag - s1.conjugate() * dbar
    return s2 * beta_prev, delta, gbar, _givens(gbar, beta)


def _singular(smallest: float, scale: float) -> bool:
    """The singularity test of every small solve, on Python floats: true
    unless the smallest pivot magnitude is at least ``SINGULARITY_RTOL``
    times ``scale`` (1 if zero), so a NaN pivot is singular."""
    return not smallest >= SINGULARITY_RTOL * (scale or 1.0)


def tridiag_solve(T: SymTridiagonal, rhs: np.ndarray, shift=0.0) -> np.ndarray:
    """Solve ``(T - shift I) x = rhs`` by a Givens QR factorization of the
    extended matrix ``[T - shift I; 0]``, column by column (the rotations
    MINRES uses): rotations need no pivoting and do not square the
    conditioning.  Raises :class:`SingularSystem` when the triangular
    factor's smallest ``|R_ii|`` fails :func:`_singular` against the
    largest ``|alpha_i|``, ``|beta_i|`` or ``|shift|``.
    """
    return _tridiag_solve(T, rhs, shift, 0.0)


def _tridiag_solve(T, rhs, shift, trailing: float) -> np.ndarray:
    """:func:`tridiag_solve` with ``trailing``, the beta after the last
    step of the Lanczos run that made ``T``, in the scale too, so the
    solve is singular exactly where ``cg`` records a gap at that step."""
    if not isinstance(T, SymTridiagonal):
        raise TypeError(f"unsupported tridiagonal type {type(T)!r}")
    if np.shape(rhs) != (T.size,):
        raise ValueError("rhs must have length k")
    k, rhs = T.size, np.append(rhs, 0.0)
    dtype = complex if np.iscomplexobj(np.asarray(shift)) else float
    diag = (T.alphas - shift).tolist()
    betas = T.betas.tolist() + [0.0]
    t = rhs.astype(np.result_type(rhs, dtype)).tolist()
    cols = []  # (eps, delta, gamma): column n of R, on and above its diagonal
    rots = ((1.0, 0.0), (1.0, 0.0))
    for n in range(k):
        beta_prev = betas[n - 1] if n else 0.0
        eps, delta, _, (c, s, gamma) = _qr_column(
            *rots, beta_prev, diag[n], betas[n]
        )
        cols.append((eps, delta, gamma))
        t[n], t[n + 1] = (
            c * t[n] + s * t[n + 1],
            c * t[n + 1] - s.conjugate() * t[n],
        )
        rots = (rots[1], (c, s))
    R = np.array(cols, dtype=dtype).T  # upper-banded storage for solve_banded
    scale = max(np.abs(T.alphas).max(), np.abs(T.betas).max(initial=0.0), trailing, abs(shift))
    if _singular(float(np.abs(R[2]).min()), float(scale)):
        raise SingularSystem("singular shifted tridiagonal system")
    return scipy.linalg.solve_banded((0, 2), R, np.asarray(t[:k]))
