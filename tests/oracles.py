"""Reference implementations the tests judge the library against: the
error of the best Krylov approximation to ``f(A) b`` at each step, from
its own Arnoldi basis, against which Lanczos-FA's errors are judged; and
the node-by-node merge of coincident nodes that
``orthopoly.DiscreteMeasure`` must reproduce bit for bit."""

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
