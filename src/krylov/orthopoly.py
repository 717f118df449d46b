"""Orthogonal-polynomial layer: Chebyshev evaluation and approximation,
the Stieltjes procedure, Jacobi-matrix/Gaussian-quadrature conversion,
modified moments, Jackson damping, CDFs and Wasserstein distance.

All functions are pure and operate on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LinearOperator, SymTridiagonal, _finite_values, _tridiag_eigh
from .errors import InsufficientSupport, MassMismatch, NonFiniteSample

__all__ = [
    "DiscreteMeasure",
    "ChebyshevExpansion",
    "JacksonWeights",
    "CdfComparison",
    "cheb_eval",
    "cheb_approximant",
    "stieltjes",
    "gauss_quadrature",
    "modified_moments",
    "jackson_damping",
    "wasserstein",
    "cdf_compare",
]

MERGE_RTOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """A nonnegative discrete measure: ascending nodes with weights.

    Construction sorts the nodes and merges coincident ones (within
    ``1e-12`` of the node span), summing their weights.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if nodes.size == 0 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be nonempty, same length")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise ValueError("nodes and weights must be finite")
        order = np.argsort(nodes, kind="stable")
        nodes, weights = nodes[order], weights[order]
        tol = MERGE_RTOL * float(nodes[-1] - nodes[0])
        # A group of coincident nodes is kept as its first node.  A node
        # more than tol above its predecessor always starts a group; one
        # within tol starts a group only if it is more than tol above the
        # group's first node, so only those nodes are walked.
        close = np.flatnonzero(np.diff(nodes) <= tol) + 1
        if close.size:
            starts = np.ones(nodes.size, dtype=bool)
            starts[close] = False
            first = previous = -1
            for i, x in zip(close.tolist(), nodes[close].tolist()):
                if i - 1 != previous:  # node i - 1 was not walked: it starts a group
                    first = i - 1
                if x - nodes[first] > tol:
                    starts[i], first = True, i
                previous = i
            # Each group's weights summed left to right, in index order.
            merged = weights[starts]
            np.add.at(merged, np.cumsum(starts)[~starts] - 1, weights[~starts])
            nodes, weights = nodes[starts], merged
        if np.any(weights < -1e-12 * max(weights.sum(), 1.0)):
            raise ValueError("weights must be nonnegative")
        weights = np.maximum(weights, 0.0)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    def cdf(self, x) -> np.ndarray:
        """Right-continuous cumulative distribution function."""
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(self.nodes, np.asarray(x, dtype=float), side="right")
        out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        return out

    def moment(self, degree: int) -> float:
        """Raw moment: sum of weight * node**degree."""
        return float(np.sum(self.weights * self.nodes**degree))


def _cheb_rows(kind: str, n: int, x):
    """Yield the Chebyshev polynomials P_0(x), ..., P_{n-1}(x) of kind
    ``"T"`` or ``"U"`` by the forward three-term recurrence: the one
    recurrence every Chebyshev evaluation in the library runs."""
    if kind not in ("T", "U"):
        raise ValueError("kind must be 'T' or 'U'")
    x = np.asarray(x, dtype=float)
    # T_1 is a copy of x, so no caller's result aliases its input.
    p_prev, p = np.ones_like(x), (x.copy() if kind == "T" else 2.0 * x)
    yield from (p_prev, p)[:n]
    for _ in range(n - 2):
        p, p_prev = 2.0 * x * p - p_prev, p
        yield p


def _cheb_series(c: np.ndarray, xt, scale: float):
    """c_0 + scale * sum_{n>=1} c_n T_n(xt), summed in degree order: the
    one Chebyshev-T series loop, for the classical expansion (scale 2) and
    the orthonormal KPM basis (scale sqrt(2))."""
    out = np.full_like(np.asarray(xt, dtype=float), c[0])
    for n, t in enumerate(_cheb_rows("T", c.size, xt)):
        if n:
            out = out + (scale * c[n]) * t
    return out


def cheb_eval(kind: str, n: int, x):
    """Evaluate the Chebyshev polynomial T_n or U_n by the forward
    three-term recurrence."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    for p in _cheb_rows(kind, n + 1, x):
        pass
    return p if p.ndim else float(p)


def _interval(interval) -> tuple:
    """``(a, b)`` as floats: the one check of every interval the polynomial
    layer takes, that it is finite and has positive length."""
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b) and b > a):
        raise ValueError("interval must be finite and have positive length")
    return a, b


def _to_unit(x, interval):
    a, b = _interval(interval)
    return (2.0 * np.asarray(x, dtype=float) - (a + b)) / (b - a)


@dataclass(frozen=True)
class ChebyshevExpansion:
    """A Chebyshev-T expansion p(x) = c0 + 2 sum_{n>=1} c_n T_n(x~)
    on an interval, with x~ the affinely mapped variable."""

    coefficients: np.ndarray
    interval: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", np.asarray(self.coefficients, dtype=float)
        )
        object.__setattr__(self, "interval", _interval(self.interval))

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def __call__(self, x):
        return _cheb_series(self.coefficients, _to_unit(x, self.interval), 2.0)


def cheb_approximant(f, degree: int, interval=(-1.0, 1.0)) -> ChebyshevExpansion:
    """Degree-k Chebyshev approximant of f on an interval.

    Coefficients are Gauss-Chebyshev quadratures of f against the T
    polynomials with 2(k+1) nodes, exact whenever f is a polynomial of
    degree <= k; the expansion is then the best approximation in the
    Chebyshev weighted L2 norm.  Raises ``ValueError`` before ``f`` is
    sampled unless the interval is finite and has positive length.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    a, b = _interval(interval)
    N = 2 * (degree + 1)
    theta = (np.arange(N) + 0.5) * np.pi / N
    xt = np.cos(theta)
    x = 0.5 * (b - a) * xt + 0.5 * (a + b)
    fv = _finite_values(f, x, NonFiniteSample)
    n = np.arange(degree + 1)
    # c_n = (1/N) sum_j f(x_j) cos(n theta_j)
    coeffs = (np.cos(np.outer(n, theta)) @ fv) / N
    return ChebyshevExpansion(coeffs, (a, b))


def stieltjes(measure: DiscreteMeasure, k: int) -> SymTridiagonal:
    """Recurrence coefficients of the orthonormal polynomials of the
    normalized measure, by running fully reorthogonalized Lanczos on the
    diagonal operator of the nodes with start vector sqrt(weights/mass).

    Raises :class:`InsufficientSupport` when k exceeds the number of nodes,
    or when the run breaks down before step k (a node whose weight is
    negligible against the others counts for none)."""
    from .lanczos import ReorthMode, lanczos

    if measure.total_mass <= 0:
        raise ValueError("measure must have positive total mass")
    if k > measure.n_nodes:
        raise InsufficientSupport(
            f"k={k} exceeds the {measure.n_nodes} support points"
        )
    A = LinearOperator.diagonal(measure.nodes)
    start = np.sqrt(measure.weights / measure.total_mass)
    T = lanczos(A, start, k, mode=ReorthMode.FULL).T
    if T.size < k:
        raise InsufficientSupport(f"k={k}: the Lanczos run broke down at step {T.size}")
    return T


def gauss_quadrature(M: SymTridiagonal, total_mass: float = 1.0) -> DiscreteMeasure:
    """Gaussian quadrature of the measure represented by a Jacobi matrix:
    nodes are the eigenvalues, weights the scaled squared first eigenvector
    components (Golub & Welsch 1969).  The eigenvectors are ``dstevd``'s
    without ``sym_tridiag_eig``'s sign convention, which a square cannot
    see."""
    vals, vecs = _tridiag_eigh(M)
    return DiscreteMeasure(vals, total_mass * vecs[0, :] ** 2)


def modified_moments(
    measure: DiscreteMeasure,
    count: int,
    kind: str = "T",
    interval=(-1.0, 1.0),
) -> np.ndarray:
    """Modified moments m_j = sum_i w_i q_j(x_i) for j < count, with q_j
    the Chebyshev polynomials of kind ``"T"`` or ``"U"`` mapped to the
    interval."""
    if count < 1:
        raise ValueError("count must be positive")
    rows = _cheb_rows(kind, count, _to_unit(measure.nodes, interval))
    return np.asarray([float(np.sum(measure.weights * q)) for q in rows])


@dataclass(frozen=True)
class JacksonWeights:
    """Damping factors rho_0..rho_{2k-1} for a half-degree-k expansion."""

    rho: np.ndarray


def jackson_damping(k: int) -> JacksonWeights:
    """Jackson damping coefficients for Chebyshev expansions of degree
    < 2k; rho_0 = 1 and the factors decrease monotonically, rendering the
    damped kernel nonnegative."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = np.arange(2 * k, dtype=float)
    denom = 2.0 * k + 1.0
    rho = (
        (2.0 * k - n + 1.0) * np.cos(n * np.pi / denom)
        + np.sin(n * np.pi / denom) / np.tan(np.pi / denom)
    ) / denom
    return JacksonWeights(rho)


def wasserstein(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> float:
    """1-Wasserstein distance: the exact integral of the absolute CDF
    difference (piecewise constant, so a finite sum)."""
    if abs(mu1.total_mass - mu2.total_mass) > 1e-8:
        raise MassMismatch(
            f"total masses differ: {mu1.total_mass} vs {mu2.total_mass}"
        )
    grid = np.union1d(mu1.nodes, mu2.nodes)
    if grid.size < 2:
        return 0.0
    diff = np.abs(mu1.cdf(grid[:-1]) - mu2.cdf(grid[:-1]))
    return float(np.sum(diff * np.diff(grid)))


@dataclass(frozen=True)
class CdfComparison:
    """Result of comparing a measure's CDF with its Gaussian quadrature's."""

    straddle_ok: np.ndarray  # one boolean per quadrature node
    sign_changes: int

    @property
    def all_straddle(self) -> bool:
        return bool(np.all(self.straddle_ok))


def cdf_compare(mu: DiscreteMeasure, quad: DiscreteMeasure) -> CdfComparison:
    """Check the CDF straddle property at every quadrature node -- the
    quadrature CDF passes from below the measure CDF to above it -- and
    count sign changes of the CDF difference on the merged grid."""
    mass = max(mu.total_mass, quad.total_mass)
    tol = 1e-12 * max(mass, 1.0)

    cum = np.concatenate(([0.0], np.cumsum(quad.weights)))
    ok = np.empty(quad.n_nodes, dtype=bool)
    for i, theta in enumerate(quad.nodes):
        left = cum[i]  # limit from below at the node
        right = cum[i + 1]  # value just past the node
        m = float(mu.cdf(theta))
        ok[i] = (left <= m + tol) and (m <= right + tol)

    grid = np.union1d(mu.nodes, quad.nodes)
    diff = mu.cdf(grid) - quad.cdf(grid)
    signs = np.sign(np.where(np.abs(diff) <= tol, 0.0, diff))
    signs = signs[signs != 0]
    changes = int(np.sum(signs[1:] != signs[:-1])) if signs.size else 0
    return CdfComparison(straddle_ok=ok, sign_changes=changes)
