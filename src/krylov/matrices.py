"""Test-matrix generation and ingestion: synthetic spectra (optionally
hidden behind a random orthogonal similarity) with their exact
eigenpairs, Matrix Market loading, and the best-approximation oracle."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse

from .core import LinearOperator, _finite_values
from .errors import (
    DimensionTooLarge,
    FunctionDomainError,
    InvalidSpec,
    NotSymmetric,
    ParseError,
)

__all__ = [
    "ExplicitEigenvalues",
    "GradedSpectrum",
    "TwoIntervalSpectrum",
    "ClusterPerturbed",
    "MatrixMarketFile",
    "GeneratedOperator",
    "generate_operator",
    "load_matrix_market",
    "optimal_ksm_error",
    "parse_matrix_spec",
]

DENSE_ORACLE_LIMIT = 2000


@dataclass(frozen=True)
class ExplicitEigenvalues:
    """An operator with exactly the given eigenvalues."""

    values: tuple
    rotation_seed: int | None = None


@dataclass(frozen=True)
class GradedSpectrum:
    """Exponentially graded spectrum on [lam_min, lam_max]:
    lam_i = lam_min + (i-1)/(d-1) * (lam_max - lam_min) * rho^(d-i).

    A standard construction that makes plain Lanczos lose orthogonality
    rapidly (large outlying eigenvalues converge early).
    """

    d: int
    lam_min: float
    lam_max: float
    rho: float = 0.9
    rotation_seed: int | None = None

    def eigenvalues(self) -> np.ndarray:
        d = self.d
        if d < 2:
            raise InvalidSpec("graded spectrum needs d >= 2")
        i = np.arange(1, d + 1, dtype=float)
        return self.lam_min + (i - 1.0) / (d - 1.0) * (
            self.lam_max - self.lam_min
        ) * self.rho ** (d - i)


@dataclass(frozen=True)
class TwoIntervalSpectrum:
    """Eigenvalues split evenly between [a, b] and [c, d_right]
    (equally spaced within each interval); useful for indefinite tests."""

    d: int
    a: float
    b: float
    c: float
    d_right: float
    rotation_seed: int | None = None

    def eigenvalues(self) -> np.ndarray:
        if not (self.a <= self.b < self.c <= self.d_right):
            raise InvalidSpec("need a <= b < c <= d_right")
        n1 = self.d // 2
        n2 = self.d - n1
        return np.concatenate(
            (np.linspace(self.a, self.b, n1), np.linspace(self.c, self.d_right, n2))
        )


@dataclass(frozen=True)
class ClusterPerturbed:
    """Each base eigenvalue replaced by ``cluster_size`` equally spaced
    eigenvalues spanning ``cluster_width`` centered on it."""

    base: object
    cluster_size: int
    cluster_width: float
    rotation_seed: int | None = None


@dataclass(frozen=True)
class MatrixMarketFile:
    """An operator backed by a Matrix Market coordinate file."""

    path: str


@dataclass(frozen=True)
class GeneratedOperator:
    """A generated operator with its exact eigenpairs when known.

    ``eigenvalues`` are sorted ascending; both fields are ``None`` for a
    Matrix Market file.  ``eigenvectors`` is ``None`` for a diagonal
    operator, whose eigenvectors are the unit vectors, and the orthogonal
    rotation ``Q`` of a rotated spec, with A = Q diag(eigenvalues) Q^T.
    """

    operator: LinearOperator
    eigenvalues: np.ndarray | None
    eigenvectors: np.ndarray | None = None


def _spec_eigenvalues(spec) -> np.ndarray:
    if isinstance(spec, ExplicitEigenvalues):
        vals = np.asarray(spec.values, dtype=float)
        if vals.size < 1:
            raise InvalidSpec("need at least one eigenvalue")
        return vals
    if isinstance(spec, (GradedSpectrum, TwoIntervalSpectrum)):
        return spec.eigenvalues()
    if isinstance(spec, ClusterPerturbed):
        if spec.cluster_size < 1 or spec.cluster_width < 0:
            raise InvalidSpec("invalid cluster parameters")
        base = _spec_eigenvalues(spec.base)
        if spec.cluster_size == 1:
            return base
        offsets = np.linspace(
            -spec.cluster_width / 2.0, spec.cluster_width / 2.0, spec.cluster_size
        )
        return (base[:, None] + offsets[None, :]).ravel()
    raise InvalidSpec(f"unsupported spec {type(spec)!r}")


def generate_operator(spec) -> GeneratedOperator:
    """Build the operator a spec describes.

    Synthetic kinds produce a diagonal operator, conjugated by a seeded
    random orthogonal matrix ``Q`` when ``rotation_seed`` is set.  They
    carry their exact eigenvalues and eigenvectors (``None`` when
    diagonal, else ``Q``), so references built from them need no dense
    operator and no dimension cap.  A Matrix Market file carries neither.
    Raises :class:`InvalidSpec` for an eigenvalue that is NaN or Inf and
    for a negative ``rotation_seed``.
    """
    if isinstance(spec, MatrixMarketFile):
        return GeneratedOperator(load_matrix_market(spec.path), None)
    with np.errstate(all="ignore"):  # an infinite parameter gives NaN or Inf
        vals = np.sort(_spec_eigenvalues(spec))
    if not np.isfinite(vals).all():
        raise InvalidSpec("eigenvalues must be finite")
    seed = getattr(spec, "rotation_seed", None)
    if seed is not None and seed < 0:
        raise InvalidSpec(f"rotation_seed must be non-negative, got {seed}")
    if seed is None:
        return GeneratedOperator(LinearOperator.diagonal(vals), vals)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((vals.size, vals.size)))
    op = LinearOperator(vals.size, lambda v: Q @ (vals * (Q.T @ v)))
    return GeneratedOperator(op, vals, Q)


def _to_eigenbasis(vecs: np.ndarray | None, v: np.ndarray) -> np.ndarray:
    """Coordinates of ``v`` in the eigenbasis ``vecs`` (``None``: the unit
    vectors, as for a diagonal operator)."""
    return v if vecs is None else vecs.T @ v


def _from_eigenbasis(vecs: np.ndarray | None, c: np.ndarray) -> np.ndarray:
    """The vector with coordinates ``c`` in the eigenbasis ``vecs``."""
    return c if vecs is None else vecs @ c


def _dense_eigh(A: LinearOperator):
    """``(dense, vals, vecs)``: the materialized operator (d operator
    calls) and its ``eigh``.  Raises :class:`DimensionTooLarge` above
    ``DENSE_ORACLE_LIMIT``."""
    if A.dim > DENSE_ORACLE_LIMIT:
        raise DimensionTooLarge(f"dim {A.dim} exceeds {DENSE_ORACLE_LIMIT}")
    dense = A.to_dense()
    vals, vecs = np.linalg.eigh(dense)
    return dense, vals, vecs


def load_matrix_market(path: str) -> LinearOperator:
    """Load a real symmetric sparse matrix in Matrix Market format.

    Asymmetry within ``1e-12`` (relative) is symmetrized with a warning;
    anything worse raises :class:`NotSymmetric`.  A NaN or Inf entry
    raises :class:`ParseError`.
    """
    try:
        A = scipy.io.mmread(path)
    except (ValueError, OSError, TypeError) as exc:
        raise ParseError(f"cannot read Matrix Market file {path!r}: {exc}") from exc
    A = scipy.sparse.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ParseError("matrix must be square")
    if np.iscomplexobj(A):
        raise ParseError("matrix must be real")
    if not np.isfinite(A.data).all():
        raise ParseError("matrix entries must be finite")
    scale = abs(A).max() or 1.0
    asym = abs(A - A.T).max()
    if asym > 1e-12 * scale:
        raise NotSymmetric(f"asymmetry {asym} exceeds 1e-12 * {scale}")
    if asym > 0:
        warnings.warn("input mildly asymmetric; symmetrized as (A + A^T)/2")
        A = (A + A.T) * 0.5
        A = scipy.sparse.csr_matrix(A)
    return LinearOperator.from_matrix(A)


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
    fvals = _finite_values(f, vals, FunctionDomainError)
    target = vecs @ (fvals * (vecs.T @ b))

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


def parse_matrix_spec(text: str):
    """Parse a compact matrix spec string, e.g.
    ``graded:d=48,lam_min=0.001,lam_max=1000,rho=0.9``,
    ``explicit:1,2,3``, ``two_interval:d=40,a=-3,b=-1,c=1,d_right=3``,
    or ``mm:path/to/file.mtx``.  A key the kind does not take raises
    :class:`InvalidSpec`, as a missing key or a bad number does."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "mm":
        return MatrixMarketFile(rest.strip())
    if kind == "explicit":
        try:
            vals = tuple(float(t) for t in rest.split(",") if t.strip())
        except ValueError as exc:
            raise InvalidSpec(f"bad eigenvalue list {rest!r}") from exc
        return ExplicitEigenvalues(vals)
    kv = {}
    for item in rest.split(","):
        if not item.strip():
            continue
        key, _, val = item.partition("=")
        kv[key.strip()] = val.strip()
    try:
        rs = kv.pop("rotation_seed", None)
        rotation_seed = int(rs) if rs is not None else None
        if kind == "graded":
            spec = GradedSpectrum(
                d=int(kv.pop("d")),
                lam_min=float(kv.pop("lam_min")),
                lam_max=float(kv.pop("lam_max")),
                rho=float(kv.pop("rho", "0.9")),
                rotation_seed=rotation_seed,
            )
        elif kind == "two_interval":
            spec = TwoIntervalSpectrum(
                d=int(kv.pop("d")),
                a=float(kv.pop("a")),
                b=float(kv.pop("b")),
                c=float(kv.pop("c")),
                d_right=float(kv.pop("d_right")),
                rotation_seed=rotation_seed,
            )
        else:
            raise InvalidSpec(f"unknown matrix kind {kind!r}")
    except KeyError as exc:
        raise InvalidSpec(f"missing key {exc} for kind {kind!r}") from exc
    except ValueError as exc:
        raise InvalidSpec(f"bad value for kind {kind!r}: {exc}") from exc
    if kv:
        raise InvalidSpec(f"unknown keys {sorted(kv)} for kind {kind!r}")
    return spec
