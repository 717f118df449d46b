"""Test-matrix generation and ingestion: synthetic spectra (optionally
hidden behind a random orthogonal similarity) with their exact
eigenpairs, and Matrix Market loading."""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse

from .core import LinearOperator
from .errors import (
    DimensionTooLarge,
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
    "parse_matrix_spec",
]

DENSE_ORACLE_LIMIT = 2000


@dataclass(frozen=True)
class ExplicitEigenvalues:
    """An operator with exactly the given eigenvalues."""

    values: tuple
    rotation_seed: int | None = None

    def eigenvalues(self) -> np.ndarray:
        if len(self.values) == 0:
            raise InvalidSpec("need at least one eigenvalue")
        return np.asarray(self.values, dtype=float)


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
        if self.d < 1 or not (self.a <= self.b < self.c <= self.d_right):
            raise InvalidSpec("need d >= 1 and a <= b < c <= d_right")
        n1 = self.d // 2
        n2 = self.d - n1
        return np.concatenate(
            (np.linspace(self.a, self.b, n1), np.linspace(self.c, self.d_right, n2))
        )


@dataclass(frozen=True)
class ClusterPerturbed:
    """Each base eigenvalue replaced by ``cluster_size`` equally spaced
    eigenvalues spanning ``cluster_width`` centered on it (an unrotated base)."""

    base: object
    cluster_size: int
    cluster_width: float
    rotation_seed: int | None = None

    def eigenvalues(self) -> np.ndarray:
        if self.cluster_size < 1 or self.cluster_width < 0:
            raise InvalidSpec("invalid cluster parameters")
        if getattr(self.base, "rotation_seed", None) is not None:
            raise InvalidSpec("a cluster's base cannot set rotation_seed")
        base = _eigenvalues_of(self.base)
        if self.cluster_size == 1:
            return base
        offsets = np.linspace(
            -self.cluster_width / 2.0, self.cluster_width / 2.0, self.cluster_size
        )
        return (base[:, None] + offsets[None, :]).ravel()


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


def _eigenvalues_of(spec) -> np.ndarray:
    """A synthetic spec's eigenvalues; :class:`InvalidSpec` for any other."""
    if not callable(getattr(spec, "eigenvalues", None)):
        raise InvalidSpec(
            "a synthetic spectrum (graded, two_interval or explicit) is needed,"
            f" not {type(spec).__name__}"
        )
    return spec.eigenvalues()


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
        vals = np.sort(_eigenvalues_of(spec))
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


def _exact_spectrum(spec):
    """``(A, vals, vecs)``: the operator a spec describes and its exact
    eigenpairs, from which every reference of an experiment is computed.

    A generated spec carries them (``vecs`` is ``None`` for a diagonal
    operator), so no reference needs the dense operator or a dimension
    cap.  A Matrix Market file does not: its eigenpairs are ``eigh`` of
    the dense operator, d operator calls, and a dimension above
    ``DENSE_ORACLE_LIMIT`` raises :class:`DimensionTooLarge`."""
    gen = generate_operator(spec)
    if gen.eigenvalues is not None:
        return gen.operator, gen.eigenvalues, gen.eigenvectors
    _, vals, vecs = _dense_eigh(gen.operator)
    return gen.operator, vals, vecs


def _to_eigenbasis(vecs: np.ndarray | None, v: np.ndarray) -> np.ndarray:
    """Coordinates of ``v`` in the eigenbasis ``vecs`` (``None``: the unit
    vectors, as for a diagonal operator)."""
    return v if vecs is None else vecs.T @ v


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


# The spec class of each matrix kind; its fields are the kind's keys.
_KINDS = {
    "graded": GradedSpectrum,
    "two_interval": TwoIntervalSpectrum,
    "explicit": ExplicitEigenvalues,
    "mm": MatrixMarketFile,
}

# How a field's text is read, by its declared type (a string in this module).
_FIELD_READERS = {
    "int": int,
    "float": float,
    "int | None": int,
    "tuple": lambda text: tuple(float(t) for t in text.split(",") if t.strip()),
    "str": str,
}


def _spec_from_fields(kind: str, fields: dict):
    """The spec of ``kind`` (case-insensitive) built from ``fields``, a map
    of key to text, as spec strings and ``[matrix]`` sections give it.  An
    unknown kind, a key the kind does not take, a missing key and a bad
    value raise :class:`InvalidSpec`."""
    kind = kind.strip().lower()
    if kind not in _KINDS:
        raise InvalidSpec(f"unknown matrix kind {kind!r}")
    declared = {f.name: f for f in dataclasses.fields(_KINDS[kind])}
    unknown = fields.keys() - declared.keys()
    if unknown:
        raise InvalidSpec(f"unknown keys {sorted(unknown)} for kind {kind!r}")
    args = {}
    for name, field in declared.items():
        if name in fields:
            text = fields[name].strip()
            try:
                args[name] = _FIELD_READERS[field.type](text)
            except ValueError:
                raise InvalidSpec(f"bad value for kind {kind!r}: {name}={text!r}") from None
        elif field.default is dataclasses.MISSING:
            raise InvalidSpec(f"missing key {name!r} for kind {kind!r}")
    return _KINDS[kind](**args)


def parse_matrix_spec(text: str):
    """Parse a compact matrix spec string, e.g.
    ``graded:d=48,lam_min=0.001,lam_max=1000,rho=0.9``,
    ``explicit:1,2,3``, ``two_interval:d=40,a=-3,b=-1,c=1,d_right=3``,
    or ``mm:path/to/file.mtx``: the rest is ``key=value`` pairs, but all
    of it is the path of ``mm`` and the items of ``explicit`` without ``=``
    its ``values``.  The fields are read as a ``[matrix]`` section's are;
    a key given twice also raises :class:`InvalidSpec`."""
    kind, _, rest = text.partition(":")
    if kind.strip().lower() == "mm":
        return _spec_from_fields(kind, {"path": rest})
    explicit = kind.strip().lower() == "explicit"
    fields, values = {}, []
    for item in filter(str.strip, rest.split(",")):
        key, eq, value = item.partition("=")
        if explicit and not eq:
            values.append(item)
        elif key.strip() in fields:
            raise InvalidSpec(f"key {key.strip()!r} given twice")
        else:
            fields[key.strip()] = value
    if explicit:
        if values and "values" in fields:
            raise InvalidSpec("key 'values' given twice")
        fields.setdefault("values", ",".join(values))
    return _spec_from_fields(kind, fields)
