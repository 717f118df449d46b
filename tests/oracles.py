"""Reference implementations the tests judge the library against: the
error of the best Krylov approximation to ``f(A) b`` at each step, from
its own Arnoldi basis, against which Lanczos-FA's errors are judged; the
node-by-node merge of coincident nodes that
``orthopoly.DiscreteMeasure`` must reproduce bit for bit; and ``f(T) e1``,
Gauss quadrature and the Lanczos-FA pitfall from the sign-normalized
eigenvectors of ``sym_tridiag_eig``, whose bytes the library's consumers
of the unnormalized ``dstevd`` pair must reproduce."""

import numpy as np

from krylov.core import LinearOperator, _finite_values, sym_tridiag_eig
from krylov.errors import FunctionDomainError
from krylov.matrices import _dense_eigh
from krylov.orthopoly import DiscreteMeasure


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


def merge_coincident_nodes(nodes, weights, rtol: float):
    """Sort ``nodes`` (stably, carrying ``weights``) and merge each node
    within ``rtol`` times the node span of its group's first node into
    that group, one node at a time.  Returns the groups' first nodes and
    their weights, each group's summed left to right."""
    order = np.argsort(np.asarray(nodes, dtype=float), kind="stable")
    nodes = np.asarray(nodes, dtype=float)[order]
    weights = np.asarray(weights, dtype=float)[order]
    tol = rtol * float(nodes[-1] - nodes[0])
    merged_nodes = [nodes[0]]
    merged_weights = [weights[0]]
    for x, w in zip(nodes[1:], weights[1:]):
        if x - merged_nodes[-1] <= tol:
            merged_weights[-1] += w
        else:
            merged_nodes.append(x)
            merged_weights.append(w)
    return np.asarray(merged_nodes), np.asarray(merged_weights)


def _signed_spectral_apply(f, T, rhs: np.ndarray) -> np.ndarray:
    """``V f(Lambda) V^T rhs`` from ``sym_tridiag_eig(T)``, written out."""
    eig = sym_tridiag_eig(T)
    vals, vecs = eig.eigenvalues, eig.eigenvectors
    return vecs @ (_finite_values(f, vals, FunctionDomainError) * (vecs.T @ rhs))


def signed_apply_function(T, f) -> np.ndarray:
    """``f(T) e1`` from the sign-normalized eigenvectors of ``T``."""
    e1 = np.zeros(T.size)
    e1[0] = 1.0
    return _signed_spectral_apply(f, T, e1)


def signed_gauss_quadrature(M, total_mass: float) -> DiscreteMeasure:
    """Gauss quadrature of the Jacobi matrix ``M`` from its sign-normalized
    eigenvectors: the eigenvalues, weighted by the squared first
    components times ``total_mass``."""
    eig = sym_tridiag_eig(M)
    return DiscreteMeasure(eig.eigenvalues, total_mass * eig.eigenvectors[0, :] ** 2)


def signed_pitfall(Q: np.ndarray, T, b: np.ndarray, f) -> np.ndarray:
    """The Lanczos-FA pitfall ``Q f(T) Q^T b`` of a decomposition ``(Q, T)``,
    from the sign-normalized eigenvectors of ``T``."""
    return Q @ _signed_spectral_apply(f, T, Q.T @ b)
