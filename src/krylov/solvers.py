"""Linear-system solvers on top of the Lanczos recurrence: CG (tridiagonal
and low-memory backends), MINRES and multi-shift solves, all read off one
lockstep loop of per-shift Givens QR updates in which each shift stops at
its own first explicit residual at most ``tol * ||b||`` (and, with
``tol=None``, runs to step k without computing any residual); preconditioned
wrapping, a priori Chebyshev bounds, a posteriori error estimates, and
block CG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    LinearOperator,
    _apply_block,
    _as_real,
    _chunks,
    _column_norms,
    _norm,
    _owns_buffers,
    _qr_column,
    _singular,
)
from .errors import InsufficientIterates, InvalidInterval
from .lanczos import ReorthMode, _Recurrence, block_lanczos, lanczos

__all__ = [
    "IterateHistory",
    "BlockIterateHistory",
    "ShiftFamily",
    "cg",
    "minres",
    "multi_shift_solve",
    "preconditioned_solve",
    "chebyshev_bound",
    "error_estimate_delay",
    "block_cg",
]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class IterateHistory:
    """Per-iteration solver output.

    ``iterates[j]`` is the iterate after j+1 steps, ``None`` at a gap (a
    CG step whose shifted tridiagonal ``T_{j+1} - z I`` is numerically
    singular) and, when retention is off (``keep_iterates=False``), at
    every step but the last one reported, so :attr:`final` is the answer
    either way.  Residual norms are explicitly recomputed as
    ``||b - A x||`` (NaN at gaps).  A solve called with ``tol=None`` has no
    stopping test and computes no residual: every entry of
    ``residual_norms`` is NaN.  ``termination`` is "converged", or else
    the kind the Lanczos run recorded at its last step.
    """

    iterates: list
    residual_norms: np.ndarray
    termination: str  # "max_iter", "converged", or "breakdown"
    b_norm: float

    @property
    def k(self) -> int:
        return len(self.iterates)

    @property
    def final(self) -> np.ndarray:
        """Last successfully computed iterate."""
        for x in reversed(self.iterates):
            if x is not None:
                return x
        raise InsufficientIterates("no successful iterate in history")


@dataclass(frozen=True)
class BlockIterateHistory:
    """Block solver output: per-step iterate matrices and column residuals."""

    iterates: list  # list of d x m matrices (or None)
    residual_norms: np.ndarray  # k x m columnwise ||B_j - A X_j||
    termination: str
    deflation_widths: list


@dataclass(frozen=True)
class ShiftFamily:
    """Shifts and weights of a rational approximation sum w_i/(x - z_i)."""

    shifts: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        shifts = np.asarray(self.shifts, dtype=complex).ravel()
        weights = np.asarray(self.weights, dtype=complex).ravel()
        if shifts.shape != weights.shape:
            raise ValueError("shifts and weights must have matching length")
        if not (np.isfinite(shifts).all() and np.isfinite(weights).all()):
            raise ValueError("shifts and weights must be finite")
        if np.unique(shifts).size != shifts.size:
            raise ValueError("shifts must be distinct")
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "weights", weights)


def _residual_norm(A: LinearOperator, b: np.ndarray, x: np.ndarray, shift=0.0):
    """Explicitly recomputed residual norm for (A - shift I) x = b, taken
    by ``core._norm`` so that it neither underflows nor overflows."""
    Ax = _apply(A, x)
    r = b - Ax if shift == 0 else b - (Ax - shift * x)
    return _norm(r)


def _apply(A: LinearOperator, x: np.ndarray) -> np.ndarray:
    """``A x``, for a complex ``x`` as ``A Re x + i A Im x``."""
    if np.iscomplexobj(x):
        return np.asarray(A.apply(x.real), dtype=complex) + 1j * A.apply(x.imag)
    return A.apply(x)


class _Directions:
    """One entry's d-vectors in :func:`_shifted_histories`: the MINRES
    iterate ``x_m`` and the directions ``w1 = w_{n-1}``, ``w2 = w_{n-2}``,
    all zero at the start, advanced by plain numpy expressions."""

    def __init__(self, d: int, dtype, method: str):
        self.x_m = self.w1 = self.w2 = np.zeros(d, dtype)

    def step(self, q, delta, eps, f, gamma, g):
        """``u = q - delta w1 - eps w2``; returns the CG point
        ``x_m + f u`` (``None`` for ``f=None``), then, unless gamma = 0,
        moves to ``w1 = u / gamma``, ``w2 = w1`` and ``x_m = x_m + g w1``."""
        u = q - delta * self.w1
        u -= eps * self.w2
        x = None if f is None else self.x_m + f * u
        if gamma != 0:
            u /= gamma
            self.w1, self.w2 = u, self.w1
            self.x_m = self.x_m + g * self.w1
        return x

    def residual_norm(self, A, b, x, shift):
        return _residual_norm(A, b, x, shift)


class _OwnedDirections(_Directions):
    """:class:`_Directions` on owned buffers, from ``core._OWN_MIN`` rows
    on: ``u``, ``w1`` and ``w2`` rotate through three d-vectors, a CG
    entry updates ``x_m`` in place (a MINRES entry's is a fresh array, as
    it is reported as an iterate, and so is a CG point), and the residual
    is formed in a buffer of its own.  Each step runs the plain path's
    ufuncs in its order, chunk by chunk, so the bytes are the same."""

    def __init__(self, d: int, dtype, method: str):
        self.x_m, self.w1, self.w2, self.u = (np.zeros(d, dtype) for _ in range(4))
        self._fresh_x_m = method == "minres"
        self._chunks = _chunks(d)
        self._scratch = np.empty(self._chunks[0][1], dtype)
        self._r = None

    def step(self, q, delta, eps, f, gamma, g):
        x_m, w1, w2, u = self.x_m, self.w1, self.w2, self.u
        x = None if f is None else np.empty_like(x_m)
        new_x_m = np.empty_like(x_m) if self._fresh_x_m and gamma != 0 else x_m
        for rows, m in self._chunks:
            t = self._scratch[:m]
            ur = np.subtract(q[rows], np.multiply(delta, w1[rows], out=t), out=u[rows])
            np.subtract(ur, np.multiply(eps, w2[rows], out=t), out=ur)
            if x is not None:
                np.add(x_m[rows], np.multiply(f, ur, out=t), out=x[rows])
            if gamma != 0:
                np.divide(ur, gamma, out=ur)
                np.add(x_m[rows], np.multiply(g, ur, out=t), out=new_x_m[rows])
        if gamma != 0:
            self.u, self.w1, self.w2, self.x_m = w2, u, w1, new_x_m
        return x

    def residual_norm(self, A, b, x, shift):
        """``_residual_norm``'s bytes, formed in the entry's own buffer."""
        if self._r is None:
            self._r = np.empty_like(x)
        Ax, r = _apply(A, x), self._r
        if shift == 0:
            return _norm(np.subtract(b, Ax, out=r))
        t = np.empty(self._chunks[0][1], np.result_type(shift, x))
        for rows, m in self._chunks:
            r_rows = np.subtract(Ax[rows], np.multiply(shift, x[rows], out=t[:m]), out=r[rows])
            np.subtract(b[rows], r_rows, out=r_rows)
        return _norm(r)


def _shifted_histories(run, entries, tol, keep_iterates, A, b, M=None):
    """One history per ``(z, method)`` entry: the per-step ``method``
    ("cg" or "minres") history of ``(A - z I) x = b``, all from one pass
    over the Lanczos steps ``(q_n, alpha_n, beta_n)`` of ``run``, the
    :class:`_Recurrence` of ``(A, b)`` (of ``(M A M, M b)`` given a
    preconditioner M), pulled one step at a time.  ``run`` may instead be
    a stored ``lanczos(A, b, k)``, read column by column, whose only
    caller is ``cg(backend="tridiagonal")``.

    Each entry keeps its own Givens QR of the extended shifted tridiagonal
    ``[T_n - z I; beta_n e_n^T]``, one column per step (Paige & Saunders
    1975), even when another entry has the same shift: two rotations,
    ``phibar``, the directions w_{n-1}, w_{n-2} and the MINRES iterate
    ``x^M_n = x^M_{n-1} + tau_n w_n``.  The CG (Galerkin) point is
    ``x^C_n = x^M_{n-1} + phibar_n u_n / gbar_n``, with
    ``u_n = q_n - delta_n w_{n-1} - eps_n w_{n-2}`` and ``gbar_n`` the last
    diagonal of the triangular factor of ``T_n - z I``; it is a gap
    (``None``, NaN residual) when ``|gbar_n| < SINGULARITY_RTOL *
    max(|alpha_i|, beta_i, |z|)`` over every coefficient up to beta_n.
    Every other step's point y is reported as x = y (x = M y given M)
    with its explicitly recomputed ``||b - (A - z I) x||``; an entry stops
    once that is at most ``tol * ||b||``, and no step is pulled once every
    entry has stopped.  ``tol=None`` is no stopping test: no residual is
    computed (NaN norms) and every entry runs until the steps end.  An
    entry still running then takes ``run.termination``, the kind the
    recurrence recorded at its last step.  ``keep_iterates=False`` keeps
    only each entry's last reported iterate.
    """
    if isinstance(run, _Recurrence):
        steps = run.steps()
    else:  # a stored decomposition: its columns are the recurrence's steps
        betas = run.T.betas.tolist() + [run.trailing_beta]
        steps = zip(run.basis.T, run.T.alphas.tolist(), betas)
    b_norm = run.b_norm if M is None else _norm(b)
    kind = _OwnedDirections if _owns_buffers(A.dim) else _Directions
    dirs = [kind(A.dim, complex if isinstance(z, complex) else float, m) for z, m in entries]
    states = [(((1.0, 0.0), (1.0, 0.0)), run.b_norm, abs(z)) for z, _ in entries]
    b = np.asarray(b)
    iterates, res = [[] for _ in entries], [[] for _ in entries]
    termination, kept = [None] * len(entries), [None] * len(entries)
    live, beta_prev = range(len(entries)), 0.0
    for q, alpha, beta in steps:
        for i in live:
            z, method = entries[i]
            rots, phibar, scale = states[i]  # per entry: rotations, phibar, scale
            scale = max(scale, abs(alpha), beta)
            eps, delta, gbar, (c, s, gamma) = _qr_column(
                *rots, beta_prev, alpha - z, beta
            )
            f = None if method != "cg" or _singular(abs(gbar), scale) else phibar / gbar
            # gamma = 0 only when beta_n = 0 (the last step) and T_n - z I is
            # singular; x^M_{n-1} is then a least-squares solution (tau_n = 0).
            x = dirs[i].step(q, delta, eps, f, gamma, c * phibar)
            if method == "minres":
                x = dirs[i].x_m
            phibar = -s.conjugate() * phibar
            states[i] = (rots[1], (c, s)), phibar, scale
            if x is None:
                iterates[i].append(None)
                res[i].append(np.nan)
                continue
            if M is not None:
                x = M.apply(x)
            if tol is None:  # no stopping test, so no residual to pay for
                rnorm = np.nan
            else:
                rnorm = dirs[i].residual_norm(A, b, x, z)
                if rnorm <= tol * b_norm:
                    termination[i] = "converged"
            if not keep_iterates and kept[i] is not None:
                iterates[i][kept[i]] = None  # only the last one is kept
            kept[i] = len(iterates[i])
            iterates[i].append(x)
            res[i].append(rnorm)
        beta_prev = beta
        live = [i for i in live if termination[i] is None]
        if not live:
            break
    for i in live:  # the steps ran out
        termination[i] = run.termination
    return [
        IterateHistory(xs, np.asarray(r), t, b_norm)
        for xs, r, t in zip(iterates, res, termination)
    ]


def cg(
    A: LinearOperator,
    b: np.ndarray,
    k: int,
    backend: str = "tridiagonal",
    mode: ReorthMode = ReorthMode.FULL,
    tol: float = DEFAULT_TOL,
    keep_iterates: bool = True,
) -> IterateHistory:
    """Conjugate gradient.

    Each iterate is the Galerkin point of a Givens QR of the Lanczos
    tridiagonal ``T``, updated one column per step (Paige & Saunders
    1975) at O(d) cost per step.  A step whose ``T_n`` is numerically
    singular (last diagonal of its triangular factor below
    ``SINGULARITY_RTOL`` times the largest Lanczos coefficient so far) is
    recorded as a gap (NaN residual) and later steps are unaffected, so
    indefinite problems still produce a full trace.  ``termination`` is
    ``"converged"`` at the first residual at most ``tol * ||b||``, and
    otherwise the Lanczos run's own kind: ``"breakdown"`` when it breaks
    down, at step k too, and ``"max_iter"`` when it runs to step k
    without.  Each reported step costs one explicit residual matvec on
    top of the recurrence's one per step.
    ``tol=None`` is no stopping test: no residual is computed
    (``residual_norms`` is all NaN), each iterate is the ``tol=0.0``
    call's bit for bit, and the call applies ``A`` exactly k times (fewer
    only at a breakdown).

    Both backends return bit-identical histories.
    ``backend="tridiagonal"`` runs all k steps of one stored Lanczos
    decomposition first.  ``backend="low_memory"`` runs the recurrence
    step by step and stops applying ``A`` at convergence; it keeps a
    constant number of length-d vectors only with ``mode=ReorthMode.NONE``
    and ``keep_iterates=False``, which keeps the last reported iterate
    alone (the default ``mode=ReorthMode.FULL`` stores the basis).
    """
    if backend == "tridiagonal":
        run = lanczos(A, b, k, mode=mode)
    elif backend == "low_memory":
        run = _Recurrence(A, b, k, mode=mode)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return _shifted_histories(run, [(0.0, "cg")], tol, keep_iterates, A, b)[0]


def minres(
    A: LinearOperator,
    b: np.ndarray,
    k: int,
    mode: ReorthMode = ReorthMode.FULL,
    tol: float = DEFAULT_TOL,
    keep_iterates: bool = True,
) -> IterateHistory:
    """MINRES: per step, the minimum-residual iterate over the Krylov
    space, i.e. the least-squares solution of the extended tridiagonal
    system of one Lanczos run, updated incrementally by Givens rotations
    (Paige & Saunders 1975) at O(d) cost per step.  Each step's residual
    is recomputed explicitly, one matvec.  The recurrence runs step by
    step and stops applying ``A`` at convergence; ``termination`` is
    otherwise the Lanczos run's kind, as in :func:`cg`, and
    ``keep_iterates=False`` keeps only the last iterate.  ``tol=None`` is
    no stopping test: no residual is computed (``residual_norms`` is all
    NaN), each iterate is the ``tol=0.0`` call's bit for bit, and the call
    applies ``A`` exactly k times (fewer only at a breakdown)."""
    rec = _Recurrence(A, b, k, mode=mode)
    return _shifted_histories(rec, [(0.0, "minres")], tol, keep_iterates, A, b)[0]


def multi_shift_solve(
    A: LinearOperator,
    b: np.ndarray,
    shifts,
    k: int,
    method: str = "cg",
    mode: ReorthMode = ReorthMode.FULL,
    keep_iterates: bool = True,
    tol: float = DEFAULT_TOL,
) -> list:
    """Solve (A - z_i I) x = b for every shift from one shared Lanczos run.

    Shift invariance of Krylov subspaces makes the per-shift iterate equal
    to the single-shift solver's: each step of the one recurrence updates
    every shift's own incremental Givens QR of ``T - z_i I`` (complex for
    complex shifts), so each history is bit-identical to a call with that
    shift alone.  ``method="cg"`` records a gap where ``T_n - z_i I`` is
    numerically singular.  ``mode=ReorthMode.NONE`` with
    ``keep_iterates=False`` keeps O(#shifts) length-d vectors for any k.

    Each shift stops on its own, as :func:`cg` and :func:`minres` do: its
    history is ``"converged"`` at its first explicitly recomputed residual
    at most ``tol * ||b||``, and a stopped shift costs no further vector
    update or residual matvec.  The recurrence stops applying ``A`` once
    every shift has stopped.  A shift still running when the steps end
    records the recurrence's kind: ``"breakdown"`` if it broke down, at
    step k too, and ``"max_iter"`` otherwise.  With ``keep_iterates=False``
    each shift keeps only its last reported iterate, so :attr:`final`
    still works.  An empty ``shifts``, or one with a NaN or Inf, raises
    ``ValueError`` before any operator call.  ``tol=0.0`` runs every shift
    to step k unless its residual is exactly zero.  ``tol=None`` is no
    stopping test: every shift runs to step k with no residual computed
    (``residual_norms`` is all NaN) and the ``tol=0.0`` call's iterates
    bit for bit, so the call applies ``A`` exactly k times for any number
    of shifts (fewer only at a breakdown).  Returns one
    :class:`IterateHistory` per shift.
    """
    if method not in ("cg", "minres"):
        raise ValueError(f"unknown method {method!r}")
    shifts = [z if z.imag else z.real for z in map(complex, np.ravel(shifts))]
    if not shifts:
        raise ValueError("need at least one shift")
    if not np.isfinite(shifts).all():
        raise ValueError("shifts must be finite")
    rec = _Recurrence(A, b, k, mode=mode)
    entries = [(z, method) for z in shifts]
    return _shifted_histories(rec, entries, tol, keep_iterates, A, b)


def preconditioned_solve(
    A: LinearOperator,
    M: LinearOperator,
    b: np.ndarray,
    k: int,
    method: str = "cg",
    mode: ReorthMode = ReorthMode.FULL,
) -> IterateHistory:
    """Solve A x = b through the symmetric wrapping M A M y = M b,
    x = M y, for a symmetric preconditioning operator M.

    ``method`` ("cg" or "minres") runs on one Lanczos recurrence of the
    wrapped system, step by step.  Each step forms ``x = M y`` once and
    recomputes the residual once, on the *original* system; the history
    is ``"converged"`` at the first residual at most
    ``DEFAULT_TOL * ||b||``, and no step runs past it.  Costs one product
    with A and two with M per step, plus one with A and one with M per
    reported iterate and one with M for ``M b``.
    """
    if method not in ("cg", "minres"):
        raise ValueError(f"unknown method {method!r}")
    b = _as_real(b, "b")
    wrapped = LinearOperator(A.dim, lambda v: M.apply(A.apply(M.apply(v))))
    rec = _Recurrence(wrapped, M.apply(b), k, mode=mode)
    return _shifted_histories(rec, [(0.0, method)], DEFAULT_TOL, True, A, b, M)[0]


def chebyshev_bound(kind: str, params: dict, k: int) -> float:
    """A priori Chebyshev convergence bounds for CG's A-norm error ratio.

    - ``full_interval``: the sharp two-term Chebyshev value on
      [lam_min, lam_max] (not the exponential upper estimate).
    - ``top_cluster``: after placing a root at each of the ell outlying
      top eigenvalues, the exponential bound with degree k - ell on
      [lam_min, lam_next].
    - ``two_interval``: the symmetric two-interval exponential bound for
      intervals [a, b] union [c, d] of equal width with b < 0 < c.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if kind == "full_interval":
        lmin, lmax = params["lam_min"], params["lam_max"]
        if not 0 < lmin <= lmax:
            raise InvalidInterval("need 0 < lam_min <= lam_max")
        if lmin == lmax:
            return 0.0 if k >= 1 else 1.0
        kappa = lmax / lmin
        r = (math.sqrt(kappa) + 1.0) / (math.sqrt(kappa) - 1.0)
        return 2.0 / (r**k + r**-k)
    if kind == "top_cluster":
        lmin, lnext, ell = params["lam_min"], params["lam_next"], params["ell"]
        if not 0 < lmin <= lnext:
            raise InvalidInterval("need 0 < lam_min <= lam_next")
        if k <= ell:
            return 1.0
        return 2.0 * math.exp(-2.0 * (k - ell) / math.sqrt(lnext / lmin))
    if kind == "two_interval":
        a, b_, c, d = params["a"], params["b"], params["c"], params["d"]
        if not (a <= b_ < 0.0 < c <= d):
            raise InvalidInterval("need a <= b < 0 < c <= d")
        if abs((b_ - a) - (d - c)) > 1e-10 * max(abs(a), abs(d)):
            raise InvalidInterval("intervals must have equal width")
        return 2.0 * math.exp(-2.0 * (k // 2) / math.sqrt(abs(a * d) / abs(b_ * c)))
    raise ValueError(f"unknown bound kind {kind!r}")


def error_estimate_delay(
    history: IterateHistory, A: LinearOperator, d: int
) -> np.ndarray:
    """A posteriori CG error estimate by lookahead: estimate[j] =
    ||x_{j+d} - x_j||_A, a guaranteed lower bound on the A-norm error at
    step j in exact arithmetic.  Raises ``ValueError`` for a lookahead
    ``d`` below one, and for complex iterates (a solve with a complex
    shift), whose A-norm this estimate does not define; both before any
    operator call."""
    if d < 1:
        raise ValueError(f"lookahead d must be at least 1, got {d}")
    xs = history.iterates
    if any(x is None for x in xs):
        raise InsufficientIterates("history does not retain all iterates")
    if any(np.iscomplexobj(x) for x in xs):
        raise ValueError("error_estimate_delay needs real iterates, not complex")
    if len(xs) <= d:
        raise InsufficientIterates("history shorter than the lookahead")
    out = np.empty(len(xs) - d)
    for j in range(len(xs) - d):
        delta = xs[j + d] - xs[j]
        out[j] = math.sqrt(max(float(delta @ A.apply(delta)), 0.0))
    return out


def block_cg(
    A: LinearOperator,
    B: np.ndarray,
    k: int,
    mode: ReorthMode = ReorthMode.FULL,
) -> BlockIterateHistory:
    """Block CG: X_j = Q_j T_j^{-1} E_1 R_0 from block Lanczos, whose
    ``termination`` ("max_iter" or "breakdown") the history keeps.  A step
    is a gap (``None``, NaN residuals) when the QR of T_j has a ``|R_ii|``
    below ``SINGULARITY_RTOL`` times the largest entry of T_j and B_j."""
    B = _as_real(B, "B")
    dec = block_lanczos(A, B, k, mode=mode)
    T = dec.to_banded_dense()
    widths = dec.block_widths
    offs = np.concatenate(([0], np.cumsum(widths))).astype(int)
    m = B.shape[1]

    iterates, res = [], []
    for j, Bj in enumerate(dec.block_offdiag, 1):
        nj = int(offs[j])
        Tj = T[:nj, :nj]
        QT, RT = np.linalg.qr(Tj)
        scale = max(np.abs(Tj).max(), np.abs(Bj).max(initial=0.0))
        if _singular(float(np.abs(np.diag(RT)).min()), float(scale)):
            iterates.append(None)
            res.append(np.full(m, np.nan))
            continue
        Y = scipy.linalg.solve_triangular(RT, QT[: widths[0]].T @ dec.initial_R)
        X = dec.basis[:, :nj] @ Y
        R = B - _apply_block(A, X)
        iterates.append(X)
        res.append(_column_norms(R))
    return BlockIterateHistory(
        iterates=iterates,
        residual_norms=np.asarray(res),
        termination=dec.termination,
        deflation_widths=list(widths),
    )
