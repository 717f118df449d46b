"""Matrix functions times vectors and quadratic forms: Lanczos-FA (with
the correct and the pitfall formula), two-pass Lanczos-FA, Lanczos-QF,
rational-approximation application, block FA/QF, and an a priori bound.

Every vector entry point is one ``_Recurrence`` run, one small kernel on
its ``T`` (``f(T) e1`` from the eigendecomposition, or
``sum_i w_i (T - z_i I)^{-1} e1`` from shifted tridiagonal solves) and one
accumulation ``||b|| Q c`` by the run's ``combine``, over the stored basis
or a replay of the checkpointed one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LinearOperator,
    _finite_values,
    _spectral_apply,
    _tridiag_eigh,
    _tridiag_solve,
    tridiag_apply_function,
)
from .errors import NonFiniteSample, SingularSystem
from .lanczos import ReorthMode, _Recurrence, block_lanczos
from .orthopoly import cheb_approximant

__all__ = [
    "MatFuncResult",
    "lanczos_fa",
    "two_pass_lanczos_fa",
    "lanczos_qf",
    "rational_apply",
    "block_lanczos_fa",
    "block_lanczos_qf",
    "fa_apriori_bound",
]


@dataclass(frozen=True)
class MatFuncResult:
    """Result of a Lanczos-FA/QF evaluation with basic diagnostics."""

    value: object  # length-d vector (FA) or scalar / m x m matrix (QF)
    k_used: int
    diagnostics: dict


def lanczos_fa(
    A: LinearOperator,
    b: np.ndarray,
    f,
    k: int,
    mode: ReorthMode = ReorthMode.FULL,
    formula: str = "correct",
) -> MatFuncResult:
    """Lanczos approximation to f(A) b.

    ``formula="correct"`` evaluates ||b|| Q f(T) e1.  ``formula="pitfall"``
    evaluates Q f(T) Q^T b instead, which is *not* equivalent once
    orthogonality degrades; it exists only to demonstrate the failure.
    """
    if formula not in ("correct", "pitfall"):
        raise ValueError(f"unknown formula {formula!r}")
    rec = _Recurrence(A, b, k, mode=mode, store_basis=True).run()
    if formula == "correct":
        value = rec.combine(tridiag_apply_function(rec.T, f))
    else:
        Q, (vals, vecs) = rec.basis.rows.T, _tridiag_eigh(rec.T)
        rhs = Q.T @ np.asarray(b, dtype=float)
        value = Q @ _spectral_apply(f, vals, vecs, rhs)
    return MatFuncResult(
        value=value, k_used=len(rec.alphas), diagnostics={"trailing_beta": rec.beta}
    )


def two_pass_lanczos_fa(
    A: LinearOperator,
    b: np.ndarray,
    f,
    k: int,
    checkpoint_stride: int,
) -> MatFuncResult:
    """Low-memory Lanczos-FA: a first pass computes T while keeping only
    checkpoint vector pairs every ``checkpoint_stride`` steps; a second
    pass regenerates the basis segment by segment from the stored
    coefficients (no inner products) and accumulates the result.

    Bit-identical to ``lanczos_fa(mode=ReorthMode.NONE)`` under the
    library's deterministic evaluation order.
    """
    if checkpoint_stride < 1:
        raise ValueError("checkpoint_stride must be at least 1")
    rec = _Recurrence(A, b, k, checkpoint_stride=checkpoint_stride).run()
    value = rec.combine(tridiag_apply_function(rec.T, f))
    return MatFuncResult(
        value=value, k_used=len(rec.alphas), diagnostics={"trailing_beta": rec.beta}
    )


def lanczos_qf(
    A: LinearOperator,
    b: np.ndarray,
    f,
    k: int,
    mode: ReorthMode = ReorthMode.NONE,
) -> float:
    """Lanczos quadratic-form estimate of b^T f(A) b: the k-point Gaussian
    quadrature of the spectral measure of (A, b), evaluated without ever
    touching the basis (O(d) memory when ``mode=ReorthMode.NONE``)."""
    rec = _Recurrence(A, b, k, mode=mode).run()
    coeffs = tridiag_apply_function(rec.T, f)
    return float(rec.b_norm**2 * coeffs[0])


def rational_apply(
    A: LinearOperator,
    b: np.ndarray,
    family,
    k: int,
    mode: ReorthMode = ReorthMode.FULL,
):
    """Apply a rational approximation sum_i w_i (A - z_i I)^{-1} b with a
    single shared Lanczos run: the coefficients c = sum_i w_i
    (T - z_i I)^{-1} e1 come from one shifted small tridiagonal solve per
    shift, and ||b|| Q c is accumulated once.  When shifts come in
    conjugate pairs with conjugate weights the imaginary part of c (checked
    to be negligible) is discarded and the result is real.  Raises
    :class:`SingularSystem` where ``cg`` records a gap at step k (the
    run's last beta joins the solve's scale).  The k-vector
    basis is stored in both modes: replaying it from checkpoints gives the
    same bits in less memory, but its second pass of k products with A
    measured slower (see the README's low-memory paths).
    """
    shifts = np.asarray(family.shifts, dtype=complex)
    weights = np.asarray(family.weights, dtype=complex)
    rec = _Recurrence(A, b, k, mode=mode, store_basis=True).run()
    T = rec.T
    e1 = np.zeros(T.size)
    e1[0] = 1.0
    coeffs = np.zeros(T.size, dtype=complex)
    singular = []
    for w, z in zip(weights, shifts):
        zval = z if z.imag != 0.0 else z.real
        try:
            coeffs = coeffs + w * _tridiag_solve(T, e1, zval, rec.beta)
        except SingularSystem:
            singular.append(z)
    if singular:
        raise SingularSystem(f"singular shifted solves at {singular}")
    scale = float(np.abs(coeffs).max()) or 1.0
    if float(np.abs(coeffs.imag).max()) <= 1e-10 * scale:
        coeffs = coeffs.real
    return rec.combine(coeffs)


def block_lanczos_fa(A: LinearOperator, B: np.ndarray, f, k: int) -> np.ndarray:
    """Block Lanczos approximation to f(A) B."""
    dec = block_lanczos(A, B, k)
    return dec.basis @ _block_coeffs(dec, f)


def block_lanczos_qf(A: LinearOperator, B: np.ndarray, f, k: int) -> np.ndarray:
    """Block Lanczos quadratic form: approximation to B^T f(A) B,
    returned symmetrized."""
    dec = block_lanczos(A, B, k)
    m0 = dec.block_widths[0]
    out = dec.initial_R.T @ _block_coeffs(dec, f)[:m0]
    return 0.5 * (out + out.T)


def _block_coeffs(dec, f) -> np.ndarray:
    """``f(T) E1 R0`` for the block tridiagonal ``T`` of ``dec``, where
    ``E1 R0`` is its ``initial_R`` padded by zero rows to ``T``'s size."""
    vals, vecs = np.linalg.eigh(dec.to_banded_dense())
    rhs = np.zeros((vals.size, dec.initial_R.shape[1]))
    rhs[: dec.block_widths[0]] = dec.initial_R
    return _spectral_apply(f, vals, vecs, rhs)


def fa_apriori_bound(f, interval, k: int, b_norm: float = 1.0) -> float:
    """A priori uniform-approximation bound 2 ||b|| min_{deg p < k}
    ||f - p|| on the interval.  The min is replaced by the sup error, on
    a 10^4-point grid, of the degree-(k-1) Chebyshev approximant
    ``cheb_approximant(f, k - 1, interval)`` (a near-best polynomial, so
    never below the min up to the grid), inflated by a factor 4 of slack
    for the grid and the near-best constant.

    Raises :class:`NonFiniteSample` if ``f`` is NaN/Inf at a sample, and
    ``ValueError``, as :func:`cheb_approximant` does, before any sample
    unless the interval is finite and has positive length."""
    if k < 1:
        raise ValueError("k must be at least 1")
    p = cheb_approximant(f, k - 1, interval)
    a, c = p.interval
    grid = 0.5 * (c - a) * np.linspace(-1.0, 1.0, 10_000) + 0.5 * (a + c)
    fg = _finite_values(f, grid, NonFiniteSample)
    err = float(np.abs(fg - p(grid)).max())
    return 2.0 * b_norm * 4.0 * err
