"""Properties of the shared Lanczos recurrence on random spectra drawn by
hypothesis (profile in ``conftest.py``): bit identities between callers,
orthonormality of the reorthogonalized basis, the polynomial exactness of
Lanczos-FA and Gauss quadrature, stochastic estimates that do not
depend on probe scheduling, the tridiagonal eigensolver against scipy's,
multi-degree SLQ densities against one-degree calls, and the doubled KPM
moments against the plain Chebyshev recurrence."""

import math

import numpy as np
import pytest
import scipy.linalg

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from krylov.core import (  # noqa: E402
    LinearOperator,
    SymTridiagonal,
    _tridiag_eigenvalues,
    sym_tridiag_eig,
)
from krylov.lanczos import ReorthMode, lanczos  # noqa: E402
from krylov.matfunc import lanczos_fa, lanczos_qf, two_pass_lanczos_fa  # noqa: E402
from krylov.solvers import cg, multi_shift_solve  # noqa: E402
from krylov.trace import (  # noqa: E402
    ProbeSampler,
    _slq_densities,
    kpm_density,
    slq_density,
    slq_trace,
)

spectra = st.lists(
    st.floats(-10.0, 10.0, allow_subnormal=False), min_size=2, max_size=30
)
start_seeds = st.integers(0, 2**32 - 1)
shift_values = st.one_of(
    st.floats(-5.0, 5.0, allow_subnormal=False),
    st.builds(complex, st.floats(-5.0, 5.0), st.floats(0.1, 5.0)),
)
modes = st.sampled_from([ReorthMode.NONE, ReorthMode.FULL])
polynomials = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=10)
# Bound on the rounding error of a polynomial's value, relative to
# sum_j |c_j| rho^j ||b|| (||b||^2 for a quadratic form), rho the spectral
# radius; 1500 drawn examples stayed below 6e-14.
EXACTNESS_RTOL = 1e-11


def start_vector(seed, d):
    return np.random.default_rng(seed).standard_normal(d)


def assert_same_history(a, b):
    assert a.termination == b.termination
    assert a.b_norm == b.b_norm
    assert np.array_equal(a.residual_norms, b.residual_norms, equal_nan=True)
    assert len(a.iterates) == len(b.iterates)
    for x, y in zip(a.iterates, b.iterates):
        assert (x is None and y is None) or (
            x.dtype == y.dtype and np.array_equal(x, y)
        )


@given(
    spectra,
    start_seeds,
    st.lists(shift_values, min_size=1, max_size=4).flatmap(st.permutations),
    st.integers(1, 40),
    st.sampled_from(["cg", "minres"]),
    modes,
)
def test_multi_shift_histories_do_not_couple(vals, seed, shifts, k, method, mode):
    # Each shift's history from one lockstep call equals, bit for bit, the
    # history of a call with that shift alone, whatever the shift order.
    A = LinearOperator.diagonal(vals)
    b = start_vector(seed, len(vals))
    together = multi_shift_solve(A, b, shifts, k, method=method, mode=mode)
    for z, hist in zip(shifts, together):
        (alone,) = multi_shift_solve(A, b, [z], k, method=method, mode=mode)
        assert_same_history(hist, alone)


@given(
    spectra,
    start_seeds,
    st.integers(1, 40),
    st.sampled_from([0.0, 1e-8, None]),
    modes,
)
def test_cg_backends_are_bit_identical(vals, seed, k, tol, mode):
    A = LinearOperator.diagonal(vals)
    b = start_vector(seed, len(vals))
    kw = dict(mode=mode, tol=tol)
    assert_same_history(
        cg(A, b, k, backend="tridiagonal", **kw),
        cg(A, b, k, backend="low_memory", **kw),
    )


@given(
    st.lists(st.floats(0.0, 3.0), min_size=2, max_size=30),
    start_seeds,
    st.integers(1, 16),
)
def test_two_pass_fa_is_bit_identical_for_every_stride(vals, seed, k):
    A = LinearOperator.diagonal(vals)
    b = start_vector(seed, len(vals))
    ref = lanczos_fa(A, b, np.exp, k, mode=ReorthMode.NONE)
    for stride in range(1, k + 1):
        two = two_pass_lanczos_fa(A, b, np.exp, k, checkpoint_stride=stride)
        assert np.array_equal(two.value, ref.value)
        assert two.k_used == ref.k_used


def rotated(vals, seed):
    """A dense symmetric matrix with spectrum ``vals`` in a random basis."""
    U, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(vals),) * 2))
    return (U * np.asarray(vals)) @ U.T


def polynomial_scale(coeffs, vals):
    rho = float(np.abs(vals).max())
    return sum(abs(c) * rho**j for j, c in enumerate(coeffs))


@given(spectra, start_seeds, st.integers(1, 40))
def test_full_lanczos_basis_is_orthonormal(vals, seed, k):
    A = LinearOperator.diagonal(vals)
    Q = lanczos(A, start_vector(seed, len(vals)), k, mode=ReorthMode.FULL).basis
    assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-13


@given(spectra, start_seeds, polynomials, st.integers(0, 5))
def test_full_lanczos_fa_is_exact_below_degree_k(vals, seed, coeffs, extra):
    k = len(coeffs) + extra  # degree len(coeffs) - 1 < k
    M = rotated(vals, seed)
    b = start_vector(seed, len(vals))
    w, X = np.linalg.eigh(M)
    exact = X @ (np.polynomial.polynomial.polyval(w, coeffs) * (X.T @ b))
    got = lanczos_fa(
        LinearOperator.from_matrix(M),
        b,
        lambda x: np.polynomial.polynomial.polyval(x, coeffs),
        k,
        mode=ReorthMode.FULL,
    ).value
    scale = polynomial_scale(coeffs, vals) * np.linalg.norm(b)
    assert np.linalg.norm(got - exact) <= EXACTNESS_RTOL * scale


@given(spectra, start_seeds, polynomials, st.integers(0, 5))
def test_lanczos_qf_is_exact_below_degree_2k(vals, seed, coeffs, extra):
    k = (len(coeffs) + 1) // 2 + extra  # degree len(coeffs) - 1 < 2k
    M = rotated(vals, seed)
    b = start_vector(seed, len(vals))
    w, X = np.linalg.eigh(M)
    exact = float((X.T @ b) ** 2 @ np.polynomial.polynomial.polyval(w, coeffs))
    got = lanczos_qf(
        LinearOperator.from_matrix(M),
        b,
        lambda x: np.polynomial.polynomial.polyval(x, coeffs),
        k,
        mode=ReorthMode.FULL,
    )
    scale = polynomial_scale(coeffs, vals) * float(b @ b)
    assert abs(got - exact) <= EXACTNESS_RTOL * scale


def estimator_outcomes(A, k, m, sampler):
    """The bytes of every SLQ and KPM estimate, or the exception raised."""
    vals = A.to_dense().diagonal()
    lo, hi = float(vals.min()), float(vals.max())
    calls = {
        # drops the probes with a Ritz value below -8
        "slq_trace": lambda: slq_trace(A, lambda x: np.log(x + 8.0), k, m, sampler),
        "slq_density": lambda: slq_density(A, k, m, sampler).measure,
    }
    intervals = {"auto": None, "wide": (lo - 1.0, hi + 1.0), "narrow": (lo + 0.5, hi)}
    for method in ("recurrence", "lanczos_qf"):
        for name, interval in intervals.items():
            calls[f"kpm {method} {name}"] = lambda method=method, interval=interval: (
                kpm_density(A, k, interval, coeff_method=method, m=m, sampler=sampler)
            )
    out = {}
    for name, call in calls.items():
        try:
            r = call()
        except Exception as e:  # the outcome compared is the exception itself
            out[name] = (type(e), str(e))
        else:
            out[name] = tuple(
                np.asarray(v).tobytes() if isinstance(v, np.ndarray) else v
                for v in vars(r).values()
            )
    return out


@given(
    vals=spectra,
    seed=start_seeds,
    k=st.integers(1, 12),
    m=st.sampled_from([1, 2, 7]),
    distribution=st.sampled_from(["unit_sphere", "rademacher"]),
)
def test_estimates_do_not_depend_on_probe_scheduling(
    probe_pool, vals, seed, k, m, distribution
):
    # Bit for bit with the probes serial and on a 3-thread pool, dropped
    # probes and raised errors (SpectrumOutsideInterval) included.
    A = LinearOperator.diagonal(vals)
    sampler = ProbeSampler(distribution, seed)
    with probe_pool(1):
        serial = estimator_outcomes(A, k, m, sampler)
    with probe_pool(3):
        pooled = estimator_outcomes(A, k, m, sampler)
    assert pooled == serial


tridiagonal_entries = st.integers(1, 60).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=n, max_size=n),
        st.lists(
            st.floats(-1e3, 1e3, allow_subnormal=False), min_size=n - 1, max_size=n - 1
        ),
    )
)


@given(tridiagonal_entries)
def test_sym_tridiag_eig_is_scipy_stev(entries):
    # LAPACK dstev called directly gives the bytes of scipy's
    # eigh_tridiagonal(lapack_driver="stev") under the sign convention
    # (first nonzero component of each eigenvector positive).
    T = SymTridiagonal(*entries)
    vals, vecs = scipy.linalg.eigh_tridiagonal(T.alphas, T.betas, lapack_driver="stev")
    first = vecs[np.argmax(vecs != 0, axis=0), np.arange(vecs.shape[1])]
    vecs[:, first < 0] *= -1.0
    eig = sym_tridiag_eig(T)
    assert eig.eigenvalues.tobytes() == vals.tobytes()
    assert eig.eigenvectors.tobytes() == vecs.tobytes()


@given(tridiagonal_entries)
def test_tridiag_eigenvalues_are_scipy_stev_values(entries):
    # The eigenvalues-only dstev call gives the bytes of scipy's
    # eigh_tridiagonal(eigvals_only=True, lapack_driver="stev").
    T = SymTridiagonal(*entries)
    want = scipy.linalg.eigh_tridiagonal(
        T.alphas, T.betas, eigvals_only=True, lapack_driver="stev"
    )
    assert _tridiag_eigenvalues(T).tobytes() == want.tobytes()


def plain_kpm_coefficients(A, k, interval, m, sampler):
    """Undamped KPM coefficients from the plain three-term recurrence:
    2k - 1 operator applications per probe, every mu_n = b . v_n."""
    a, b_right = interval
    span = b_right - a

    def amap(v):
        return (2.0 * A.apply(v) - (a + b_right) * v) / span

    moments = np.zeros(2 * k)
    for i in range(m):
        b = sampler.probe(i, A.dim)
        v_prev, v = b, amap(b)
        mus = [float(b @ v_prev), float(b @ v)]
        for _ in range(2, 2 * k):
            v, v_prev = 2.0 * amap(v) - v_prev, v
            mus.append(float(b @ v))
        moments += np.asarray(mus)
    moments /= m
    moments[1:] *= math.sqrt(2.0)
    return moments


@given(
    vals=spectra,
    seed=start_seeds,
    k=st.integers(1, 40),
    m=st.sampled_from([1, 2, 3]),
    pads=st.tuples(st.floats(1e-3, 5.0), st.floats(1e-3, 5.0)),
)
def test_kpm_doubled_moments_match_the_plain_recurrence(vals, seed, k, m, pads):
    # Degrees 0..k are b . v_n as before, bit for bit; degrees k+1..2k-1
    # come from the doubling identities, within rounding of mu_0.
    A = LinearOperator.diagonal(vals)
    interval = (min(vals) - pads[0], max(vals) + pads[1])
    sampler = ProbeSampler(seed=seed)
    got = kpm_density(A, k, interval, damping=None, m=m, sampler=sampler).coefficients
    want = plain_kpm_coefficients(A, k, interval, m, sampler)
    assert got[: k + 1].tobytes() == want[: k + 1].tobytes()
    assert np.abs(got[k + 1 :] - want[k + 1 :]).max(initial=0.0) <= 1e-12 * want[0]


def assert_densities_match_one_degree_calls(A, ks, m, sampler):
    together = _slq_densities(A, ks, m, sampler)
    assert len(together) == len(ks)
    for k, approx in zip(ks, together):
        alone = slq_density(A, k, m, sampler)
        assert approx.measure.nodes.tobytes() == alone.measure.nodes.tobytes()
        assert approx.measure.weights.tobytes() == alone.measure.weights.tobytes()
    return together


# At most three distinct eigenvalues: every probe breaks down by step 3.
few_distinct = st.lists(st.sampled_from([-2.0, 0.5, 3.0]), min_size=2, max_size=30)


@given(
    vals=st.one_of(spectra, few_distinct),
    seed=start_seeds,
    ks=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    m=st.sampled_from([1, 2, 7]),
)
def test_slq_densities_equal_one_degree_calls(probe_pool, vals, seed, ks, m):
    # Each degree read off one max(ks)-step run per probe has the bytes of
    # its own slq_density call, with the probes serial and on a pool.
    A = LinearOperator.diagonal(vals)
    sampler = ProbeSampler(seed=seed)
    with probe_pool(1):
        serial = assert_densities_match_one_degree_calls(A, ks, m, sampler)
    with probe_pool(3):
        pooled = assert_densities_match_one_degree_calls(A, ks, m, sampler)
    for a, b in zip(serial, pooled):
        assert a.measure.nodes.tobytes() == b.measure.nodes.tobytes()
        assert a.measure.weights.tobytes() == b.measure.weights.tobytes()


def test_slq_densities_after_early_breakdown(pooled):
    # Three distinct eigenvalues: each probe stops at step 3 of 16, so
    # degrees 5 and 16 both put every probe's nodes on the spectrum.
    A = LinearOperator.diagonal(np.repeat([1.0, 2.0, 4.0], 20))
    ks, m = (2, 16, 5), 7
    out = assert_densities_match_one_degree_calls(A, ks, m, ProbeSampler(seed=3))
    assert out[0].measure.nodes.size == 2 * m
    for approx in out[1:]:  # coincident nodes merge across probes
        np.testing.assert_allclose(approx.measure.nodes, [1.0, 2.0, 4.0], rtol=1e-12)
