"""The best-approximation oracle of the tests: the error of the best
Krylov approximation to ``f(A) b`` at each step, from its own Arnoldi
basis, against which Lanczos-FA's errors are judged."""

import numpy as np

from krylov.core import LinearOperator, _finite_values
from krylov.errors import FunctionDomainError
from krylov.matrices import _dense_eigh


def optimal_ksm_error(A: LinearOperator, b: np.ndarray, f, k: int) -> np.ndarray:
    """Per-step 2-norm distance of f(A) b from the Krylov subspaces:
    the unbeatable baseline for any Krylov method.

    An arbitrary operator has no known eigenpairs, so this materializes it
    (d operator calls) and takes its ``eigh``; the dimension is capped at
    ``DENSE_ORACLE_LIMIT`` (:class:`DimensionTooLarge`).  Raises
    :class:`FunctionDomainError` if ``f`` is NaN/Inf at an eigenvalue.

    The Krylov basis is built by Arnoldi with two modified Gram-Schmidt
    passes and ends once a new vector's norm is at most 1e-12.  The
    residual of ``f(A) b`` against the basis is kept as it grows: each new
    basis vector's projection is subtracted once, in the order a full
    recomputation at every step would subtract it."""
    dense, vals, vecs = _dense_eigh(A)
    b = np.asarray(b, dtype=float)
    # Written out here, not through the library's kernel, so the oracle
    # shares no code with what it judges.
    target = vecs @ (_finite_values(f, vals, FunctionDomainError) * (vecs.T @ b))

    errors = np.empty(k)
    basis: list[np.ndarray] = []
    resid = target
    v = b / np.linalg.norm(b)
    exhausted = False
    for j in range(k):
        if not exhausted:
            w = v.copy()
            for _ in range(2):
                for u in basis:
                    w = w - (u @ w) * u
            nw = np.linalg.norm(w)
            if nw <= 1e-12:
                exhausted = True
            else:
                u = w / nw
                basis.append(u)
                if j + 1 < k:  # the last basis vector needs no successor
                    v = dense @ u
                resid = resid - (u @ target) * u
        errors[j] = np.linalg.norm(resid)
    return errors
