"""Builders shared by the test modules: an operator wrapper that counts
its applications, and a dense SPD matrix with a geometric spectrum."""

import threading

import numpy as np

from krylov.core import LinearOperator


def counting(A):
    """A wrapper of ``A`` and a one-element list counting its applications
    (from any number of probe threads)."""
    calls = [0]
    lock = threading.Lock()

    def matvec(v):
        with lock:
            calls[0] += 1
        return A.apply(v)

    return LinearOperator(A.dim, matvec), calls


def spd_matrix(rng, d, lo=1.0, hi=100.0):
    """A d x d SPD matrix with eigenvalues ``geomspace(lo, hi, d)`` in the
    random orthonormal basis of a QR of ``rng``'s d x d Gaussian draw, made
    exactly symmetric; and its eigenvalues."""
    vals = np.geomspace(lo, hi, d)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    M = Q @ np.diag(vals) @ Q.T
    return 0.5 * (M + M.T), vals
