"""Small dense kernels: symmetric tridiagonal eigenproblems and solves,
plus the matrix-free operator contract everything else builds on.

All values are immutable after construction and safe to share across
threads; ``LinearOperator.apply`` must tolerate concurrent calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dstevd

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


# Sparse formats whose compiled vector and multi-vector products add the
# same terms in the same order, so each column of ``A @ X`` is ``A @ x``'s
# bytes.  A dense ``A @ X`` rounds differently from ``A @ x`` (BLAS gemm
# against gemv), and DIA, LIL and DOK products go through other kernels.
_NATIVE_SPARSE_FORMATS = frozenset({"csr", "csc", "coo", "bsr"})


@dataclass(frozen=True)
class LinearOperator:
    """A dimension-``d`` symmetric matrix-free operator.

    Only matrix-vector products are required.  Symmetry is a caller
    contract, probed by tests via random vectors.  ``matmat``, optional,
    applies the operator to a ``d x m`` block at once: column j of its
    C-contiguous ``d x m`` result must be the bytes ``matvec`` gives for
    column j, so a block method gives the same result either way.
    Without it a block is applied column by column.  ``diagonal`` and
    ``from_matrix`` of a CSR, CSC, COO or BSR matrix set one.
    """

    dim: int
    matvec: Callable[[np.ndarray], np.ndarray]
    matmat: Callable[[np.ndarray], np.ndarray] | None = None

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
        import scipy.sparse  # not at module level: most callers never need it

        native = scipy.sparse.issparse(A) and A.format in _NATIVE_SPARSE_FORMATS
        return cls(
            dim=d,
            matvec=lambda v: np.asarray(A @ v).reshape(d),
            matmat=(lambda X: np.asarray(A @ X)) if native else None,
        )

    @classmethod
    def diagonal(cls, diag) -> "LinearOperator":
        diag = np.asarray(diag, dtype=float)
        column = diag[:, None]
        return cls(
            dim=diag.size,
            matvec=lambda v: diag * v,
            matmat=lambda X: np.multiply(column, X, order="C"),
        )

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


def _apply_block(A: LinearOperator, X: np.ndarray) -> np.ndarray:
    """``A`` applied to each column of the ``d x m`` block ``X``, as a
    ``d x m`` array: one ``A.matmat`` call where ``A`` has one, else one
    ``A.apply`` per column, stacked as ``np.column_stack`` does."""
    if A.matmat is None:
        return np.column_stack([A.apply(X[:, j]) for j in range(X.shape[1])])
    out = np.asarray(A.matmat(X))
    if out.shape != X.shape:
        raise ValueError("operator matmat changed the block shape")
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

    Calls LAPACK ``dstevd`` on the (alpha, beta) pair directly, without
    the per-call argument checks of ``scipy.linalg.eigh_tridiagonal``; no
    dense matrix is formed.  ``dstevd`` runs ``dstedc``: implicit QL/QR
    up to order 25, and above that divide and conquer (Cuppen 1981; Gu &
    Eisenstat 1995), which costs O(k^2) plus matrix products, not the
    O(k^3) of QL on the eigenvectors.  Raises ``ValueError`` if an entry
    is NaN or Inf, and ``numpy.linalg.LinAlgError`` if ``dstevd`` does
    not converge.

    The sign convention (first nonzero component of each eigenvector
    positive) holds for callers of this function only.  The library's own
    consumers (:func:`tridiag_apply_function`, ``gauss_quadrature``, the
    pitfall of ``lanczos_fa``) read ``dstevd``'s pair as it is returned:
    they use the vectors only through ``V f(Lambda) V^T r`` and squared
    first components, whose bytes do not depend on the signs.
    """
    vals, vecs = _tridiag_eigh(T)
    first = vecs[np.argmax(vecs != 0, axis=0), np.arange(vecs.shape[1])]
    flip = first < 0
    vecs[:, flip] = -vecs[:, flip]
    return TridiagEig(vals, vecs)


def _tridiag_eigenvalues(T: SymTridiagonal) -> np.ndarray:
    """The ascending eigenvalues of ``T`` alone: ``dstevd`` without
    eigenvectors, which runs LAPACK's root-free QL/QR ``dsterf`` (as
    ``dstev`` does), so no k-by-k matrix is formed.  They may differ from
    :func:`sym_tridiag_eig`'s in the last bits.  Raises as
    :func:`sym_tridiag_eig` does."""
    return _tridiag_eigh(T, compute_v=0)[0]


def _tridiag_eigh(T: SymTridiagonal, **options) -> tuple:
    """``dstevd``'s values and vectors, signs as LAPACK returns them, after
    the checks every caller shares; a 1-by-1 ``T`` is its own
    eigendecomposition (the wrapper takes no empty off-diagonal)."""
    if not (np.isfinite(T.alphas).all() and np.isfinite(T.betas).all()):
        raise ValueError("array must not contain infs or NaNs")
    if T.size == 1:
        return np.array([T.alphas[0]]), np.array([[1.0]])
    vals, vecs, info = dstevd(T.alphas, T.betas, **options)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"dstevd: the eigensolve failed to converge (info={info})"
        )
    return vals, vecs


def _as_real(x, name: str) -> np.ndarray:
    """``x`` as a float array.  Raises ``ValueError`` for a complex ``x``,
    which a float cast would truncate to its real part."""
    if np.iscomplexobj(x):
        raise ValueError(f"{name} must be real, not complex")
    return np.asarray(x, dtype=float)


# A norm in [_NORM_MIN, 1 / _NORM_MIN] = [2^-450, 2^450] was taken from a
# square that neither overflowed nor lost more than rounding to underflow.
_NORM_MIN = 2.0**-450


def _norm(v: np.ndarray) -> float:
    """``||v||`` of a real or complex vector: ``np.linalg.norm(v)`` where
    it lies in ``[_NORM_MIN, 1 / _NORM_MIN]``.  Elsewhere it is the norm
    of ``|v| 2^-e``, e the binary exponent of ``max|v_i|``, scaled back by
    ``2^e`` (Blue 1978): both scalings are exact, so a finite nonzero
    ``v`` has a nonzero norm, infinite only where the norm itself exceeds
    the float range."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if _NORM_MIN <= norm <= 1.0 / _NORM_MIN:
        return norm
    v = np.abs(v)  # a complex entry's modulus is taken without squaring
    big = float(v.max(initial=0.0))
    if big == 0.0 or not math.isfinite(big):
        return norm
    e = math.frexp(big)[1]
    try:
        return math.ldexp(float(np.linalg.norm(np.ldexp(v, -e))), e)
    except OverflowError:
        return math.inf


# Rows in one chunk of a buffered update: 2^14 float64s are 128 KiB, so a
# chunk's operands stay in a core's L2 cache while the chunk is worked on.
_CHUNK = 2**14
# The smallest d at which a recurrence or solver owns its per-step
# d-vectors and updates them chunk by chunk.  Below it the plain numpy
# expressions cost no more: in-process medians on 2-D Laplacians (one BLAS
# thread) had low-memory cg 0.2-7.7% slower buffered at d = 65,536 and
# within 1% at 77,284, and every call faster from d = 90,000 on.
_OWN_MIN = 90_000


def _owns_buffers(d: int) -> bool:
    """Whether a run on ``d`` rows takes the buffered path (``_OWN_MIN``
    is read at call time)."""
    return d >= _OWN_MIN


def _chunks(n: int) -> list:
    """``(rows, m)`` for each chunk of ``range(n)``: a slice of at most
    ``_CHUNK`` rows and its length, the prefix of a scratch it uses."""
    return [(slice(s, s + _CHUNK), min(_CHUNK, n - s)) for s in range(0, n, _CHUNK)]


def _column_norms(R: np.ndarray) -> np.ndarray:
    """``||R[:, j]||`` for each column of a real ``d x m`` block:
    ``np.linalg.norm(R, axis=0)`` where a column's norm lies in
    ``[_NORM_MIN, 1 / _NORM_MIN]``.  Each other column is scaled by
    ``2^-e``, e the binary exponent of its largest ``|entry|``, and its
    norm taken by the same block reduction, then scaled back by ``2^e``:
    a norm that neither underflows nor overflows, infinite only where the
    norm itself exceeds the float range."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(R, axis=0)
        far = ~((norms >= _NORM_MIN) & (norms <= 1.0 / _NORM_MIN))
        if far.any():
            e = np.where(far, np.frexp(np.abs(R).max(axis=0))[1], 0)
            scaled = np.ldexp(np.linalg.norm(np.ldexp(R, -e), axis=0), e)
            norms = np.where(far, scaled, norms)
    return norms


def _scaled_op(y, op, a, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``op(y, a * x)``, ``op`` a binary ufunc such as ``np.subtract``,
    written into ``out`` (which may be ``y``) and returned.  ``a * x`` is
    formed ``_CHUNK`` rows at a time in a scratch of that size, and ``op``
    applied to each chunk, so no d-length temporary is made: the same two
    ufuncs in the same order as the plain expression, so the bytes are
    equal.  ``out`` must have the expression's dtype."""
    assert out.dtype == np.result_type(y, a, x), "out has another dtype than op(y, a * x)"
    scratch = np.empty(min(x.shape[0], _CHUNK), np.result_type(a, x))
    for rows, m in _chunks(x.shape[0]):
        op(y[rows], np.multiply(a, x[rows], out=scratch[:m]), out=out[rows])
    return out


def _finite_values(f, points: np.ndarray, error: type) -> np.ndarray:
    """``f`` at each point, as a float array.

    ``f`` is called once, on a read-only float view of all the points, and
    should act elementwise.  If that call, or converting its result to
    floats, raises ``TypeError`` or ``ValueError`` (a callable that takes
    only scalars, branches on its argument or writes into it), or the
    result's shape is not the points' (a constant), ``f`` is called once
    per point instead.  Raises ``error`` if any value is NaN or Inf (``f``
    off its domain).
    """
    points = np.asarray(points, dtype=float)
    view = points.view()
    view.flags.writeable = False
    with np.errstate(all="ignore"):
        try:
            fvals = np.asarray(f(view), dtype=float)
        except (TypeError, ValueError):
            fvals = None
        if fvals is None or fvals.shape != points.shape:
            fvals = np.asarray([f(t) for t in points], dtype=float)
    if not np.all(np.isfinite(fvals)):
        bad = points[~np.isfinite(fvals)]
        raise error(f"f is not finite at {bad[:3]}")
    return fvals


def _spectral_apply(
    f, vals: np.ndarray, vecs: np.ndarray | None, rhs: np.ndarray
) -> np.ndarray:
    """``V diag(f(vals)) V^T rhs`` for the symmetric matrix with eigenvalues
    ``vals`` and orthonormal eigenvector columns ``vecs`` (``None``: the
    unit vectors, a diagonal matrix), ``rhs`` a vector or an ``n x m``
    block.  Raises :class:`FunctionDomainError` if ``f`` is NaN/Inf at an
    eigenvalue."""
    fvals = _finite_values(f, vals, FunctionDomainError)
    if np.ndim(rhs) == 2:
        fvals = fvals[:, None]
    if vecs is None:
        return fvals * rhs
    return vecs @ (fvals * (vecs.T @ rhs))


def tridiag_apply_function(T: SymTridiagonal, f) -> np.ndarray:
    """Return ``f(T) e_1`` via the eigendecomposition of ``T``.

    The eigenvectors are ``dstevd``'s, without :func:`sym_tridiag_eig`'s
    sign convention: negating a column negates both factors of its term
    of ``V f(Lambda) V^T e_1``, so the result has the same bytes.

    Raises :class:`FunctionDomainError` if ``f`` is NaN/Inf at any
    eigenvalue of ``T`` (e.g. ``1/x`` with an eigenvalue at zero).
    """
    vals, vecs = _tridiag_eigh(T)
    e1 = np.zeros(T.size)
    e1[0] = 1.0
    return _spectral_apply(f, vals, vecs, e1)


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
