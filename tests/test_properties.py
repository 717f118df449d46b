"""Properties of the shared Lanczos recurrence on random spectra drawn by
hypothesis (profile in ``conftest.py``): bit identities between callers,
multi-shift histories that stop early as bit-identical prefixes, shifted
solves that are singular exactly where CG records a gap, the
CG-MINRES residual identities on indefinite spectra, one end rule for
decompositions and solver histories, orthonormality of the
reorthogonalized basis, the exact equivariance of Lanczos and of the
solvers under power-of-two scaling, the polynomial exactness of
Lanczos-FA and Gauss quadrature, stochastic estimates that do not
depend on probe scheduling, the tridiagonal eigensolver against
LAPACK's (and its accuracy on Lanczos tridiagonals that lost
orthogonality), the bytes of its sign-free consumers against the
sign-normalized path, the merge of
coincident measure nodes against the node-by-node loop, multi-degree
SLQ densities against one-degree calls, the doubled KPM moments against
the plain Chebyshev recurrence, the default (Lanczos
quadrature) KPM coefficients against the recurrence's and against each
probe's own quadrature, the operator calls of KPM with a given interval,
and the default KPM path's peak memory against k."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dstevd

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from krylov.core import (  # noqa: E402
    LinearOperator,
    SymTridiagonal,
    _tridiag_eigenvalues,
    sym_tridiag_eig,
    tridiag_apply_function,
    tridiag_solve,
)
from krylov.errors import FunctionDomainError, SingularSystem  # noqa: E402
from krylov.lanczos import ReorthMode, block_lanczos, lanczos  # noqa: E402
from krylov.matrices import GradedSpectrum  # noqa: E402
from krylov.matfunc import (  # noqa: E402
    lanczos_fa,
    lanczos_qf,
    rational_apply,
    two_pass_lanczos_fa,
)
from krylov.orthopoly import (  # noqa: E402
    MERGE_RTOL,
    DiscreteMeasure,
    gauss_quadrature,
    modified_moments,
)
from krylov.solvers import (  # noqa: E402
    DEFAULT_TOL,
    IterateHistory,
    ShiftFamily,
    _shifted_histories,
    block_cg,
    cg,
    minres,
    multi_shift_solve,
)
from krylov.trace import (  # noqa: E402
    ProbeSampler,
    _slq_densities,
    kpm_density,
    slq_density,
    slq_trace,
)
from helpers import counting  # noqa: E402
from oracles import (  # noqa: E402
    merge_coincident_nodes,
    signed_apply_function,
    signed_gauss_quadrature,
    signed_pitfall,
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
methods = st.sampled_from(["cg", "minres"])
shift_lists = st.lists(shift_values, min_size=1, max_size=4).flatmap(st.permutations)
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
    shift_lists,
    st.integers(1, 40),
    methods,
    modes,
    st.sampled_from([None, 0.0, 1e-8, DEFAULT_TOL]),
)
def test_multi_shift_histories_do_not_couple(vals, seed, shifts, k, method, mode, tol):
    # Each shift's history from one lockstep call equals, bit for bit, the
    # history of a call with that shift alone, whatever the shift order and
    # whenever the other shifts stop.
    A = LinearOperator.diagonal(vals)
    b = start_vector(seed, len(vals))
    kw = dict(method=method, mode=mode, tol=tol)
    together = multi_shift_solve(A, b, shifts, k, **kw)
    for z, hist in zip(shifts, together):
        (alone,) = multi_shift_solve(A, b, [z], k, **kw)
        assert_same_history(hist, alone)


@given(
    spectra,
    start_seeds,
    shift_lists,
    st.integers(1, 40),
    methods,
    modes,
    st.sampled_from([DEFAULT_TOL, 1e-8, 1e-4, 0.1]),
)
def test_multi_shift_stops_each_shift_at_its_first_small_residual(
    vals, seed, shifts, k, method, mode, tol
):
    # Stopping only cuts a history short: each one is a bit-identical
    # prefix of its tol=0.0 history, ending at its first residual at most
    # tol * ||b|| ("converged"), or else at step k or at a breakdown.
    A = LinearOperator.diagonal(vals)
    b = start_vector(seed, len(vals))
    kw = dict(method=method, mode=mode)
    stopped = multi_shift_solve(A, b, shifts, k, tol=tol, **kw)
    full = multi_shift_solve(A, b, shifts, k, tol=0.0, **kw)
    for hist, ref in zip(stopped, full):
        small = np.flatnonzero(ref.residual_norms <= tol * ref.b_norm)
        if small.size:
            n, termination = small[0] + 1, "converged"
        else:
            n, termination = ref.k, ref.termination
        prefix = IterateHistory(
            ref.iterates[:n], ref.residual_norms[:n], termination, ref.b_norm
        )
        assert_same_history(hist, prefix)


@given(
    spectra,
    start_seeds,
    st.integers(1, 40),
    methods,
    modes,
    st.sampled_from([None, 0.0, 1e-8, DEFAULT_TOL]),
)
def test_multi_shift_at_zero_is_the_single_solver(vals, seed, k, method, mode, tol):
    # One stopping rule: the shift-0 history is cg's or minres's, bit for
    # bit, at every tol.
    A = LinearOperator.diagonal(vals)
    b = start_vector(seed, len(vals))
    single = cg if method == "cg" else minres
    (hist,) = multi_shift_solve(A, b, [0.0], k, method=method, mode=mode, tol=tol)
    assert_same_history(hist, single(A, b, k, mode=mode, tol=tol))


@given(
    spectra,
    start_seeds,
    st.integers(1, 40),
    st.sampled_from([0.0, 1e-8, None]),
    modes,
)
def test_cg_backends_are_bit_identical(vals, seed, k, tol, mode):
    # A stored decomposition's columns are the streamed recurrence's steps:
    # cg's two backends agree, and MINRES read off the stored columns is
    # streamed minres, so one lanczos() run serves both methods.
    A = LinearOperator.diagonal(vals)
    b = start_vector(seed, len(vals))
    kw = dict(mode=mode, tol=tol)
    assert_same_history(
        cg(A, b, k, backend="tridiagonal", **kw),
        cg(A, b, k, backend="low_memory", **kw),
    )
    dec = lanczos(A, b, k, mode=mode)
    assert_same_history(
        _shifted_histories(dec, [(0.0, "minres")], tol, True, A, b)[0],
        minres(A, b, k, **kw),
    )


def raises_singular(solve) -> bool:
    try:
        solve()
    except SingularSystem:
        return True
    return False


@given(
    spectra,
    start_seeds,
    st.integers(1, 30),
    st.integers(0, 29),
    st.floats(1e-16, 1e-12),
    st.sampled_from([-1.0, 1.0]),
    modes,
)
# z just below lambda = 2, the top Ritz value of T_2: judged against
# ||T_2||_inf, not its largest coefficient, the solve used to raise.
@example([1.0, 2.0], 4, 2, 1, 1e-14, -1.0, ReorthMode.FULL)
def test_shifted_solves_are_singular_where_cg_records_a_gap(
    vals, seed, k, which, rel, sign, mode
):
    # One singularity test.  With z within 1e-16 to 1e-12 (relative) of a
    # Ritz value of T_k, the solve on T_k - z I raises exactly where cg
    # records a gap at step k: rational_apply's, judged by the run's
    # coefficients with beta_k, always; tridiag_solve's, which sees T_k
    # alone, wherever beta_k is not the largest of them.
    A = LinearOperator.diagonal(vals)
    b = start_vector(seed, len(vals))
    dec = lanczos(A, b, k, mode=mode)
    ritz = _tridiag_eigenvalues(dec.T)
    z = float(ritz[which % ritz.size] * (1.0 + sign * rel))
    (hist,) = multi_shift_solve(A, b, [z], k, method="cg", mode=mode, tol=None)
    gap = hist.iterates[-1] is None
    family = ShiftFamily([z], [1.0])
    assert raises_singular(lambda: rational_apply(A, b, family, k, mode=mode)) == gap
    T, e1 = dec.T, np.eye(dec.k)[0]
    if dec.trailing_beta <= max(np.abs(T.alphas).max(), T.betas.max(initial=0.0), abs(z)):
        assert raises_singular(lambda: tridiag_solve(T, e1, shift=z)) == gap


# Indefinite diagonal spectra, |lambda| in [0.1, 10] with both signs
# present (5-59 values), and a step cap k of up to twice the dimension.
@st.composite
def indefinite_problems(draw):
    magnitudes = st.floats(0.1, 10.0)
    neg = draw(st.lists(magnitudes, min_size=1, max_size=29))
    pos = draw(st.lists(magnitudes, min_size=4, max_size=30))
    vals = [-x for x in neg] + pos
    return vals, draw(st.integers(1, 2 * len(vals)))


# Bounds on the relative deviation of the explicit residuals from the
# CG-MINRES identities, with the skip rules of the acceptance tests: no
# comparison at or below a MINRES residual of 1e-8 ||b||, at a CG gap, or
# (peak-plateau) where 1 - (r^M_n / r^M_{n-1})^2 <= 1e-8.  Over 7500
# uniform draws of such problems (30% with repeated eigenvalues) and
# 5500 hypothesis examples, each NONE and FULL, the worst were 2.9e-8
# (harmonic sum) and 4.1e-6 (peak-plateau, whose prediction amplifies
# rounding by 1 / (1 - ratio^2)).
HARMONIC_RTOL = 1e-6
PEAK_PLATEAU_RTOL = 1e-4
IDENTITY_FLOOR = 1e-8


def cg_minres_residuals(problem, seed, mode):
    """Explicit CG and MINRES residual norms of one problem, over the steps
    both histories have, and ||b||."""
    vals, k = problem
    A = LinearOperator.diagonal(vals)
    b = start_vector(seed, len(vals))
    r_cg = cg(A, b, k, mode=mode, tol=0.0, keep_iterates=False).residual_norms
    h_m = minres(A, b, k, mode=mode, tol=0.0, keep_iterates=False)
    n = min(r_cg.size, h_m.residual_norms.size)
    return r_cg[:n], h_m.residual_norms[:n], h_m.b_norm


@given(indefinite_problems(), start_seeds, modes)
def test_cg_minres_harmonic_sum_identity(problem, seed, mode):
    # ||r^M_n||^-2 = ||b||^-2 + sum_{j<=n} ||r^CG_j||^-2 over the CG steps
    # that exist (Paige & Saunders 1975: two readings of one run).
    r_cg, r_m, r0 = cg_minres_residuals(problem, seed, mode)
    acc = r0**-2.0
    for n in range(r_m.size):
        if np.isfinite(r_cg[n]):
            acc += r_cg[n] ** -2.0
        if r_m[n] <= IDENTITY_FLOOR * r0:
            break
        assert abs(acc**-0.5 - r_m[n]) <= HARMONIC_RTOL * r_m[n]


@given(indefinite_problems(), start_seeds, modes)
def test_cg_minres_peak_plateau_identity(problem, seed, mode):
    # ||r^CG_n|| = ||r^M_n|| / sqrt(1 - (||r^M_n|| / ||r^M_{n-1}||)^2):
    # CG peaks exactly where MINRES plateaus.
    r_cg, r_m, r0 = cg_minres_residuals(problem, seed, mode)
    for n in range(r_m.size):
        denom = 1.0 - (r_m[n] / (r_m[n - 1] if n else r0)) ** 2
        if denom <= 1e-8 or not np.isfinite(r_cg[n]) or r_m[n] <= IDENTITY_FLOOR * r0:
            continue
        assert abs(r_m[n] / math.sqrt(denom) - r_cg[n]) <= PEAK_PLATEAU_RTOL * r_cg[n]


# Up to 10 eigenvalues, each repeated 1-3 times, so runs break down early.
repeated_spectra = st.lists(
    st.tuples(st.floats(-10.0, 10.0, allow_subnormal=False), st.integers(1, 3)),
    min_size=1,
    max_size=10,
).map(lambda pairs: [x for x, times in pairs for _ in range(times)])


def assert_termination(kind, steps, k):
    """``"max_iter"`` only at the step cap; any other end is a breakdown."""
    assert steps == k if kind == "max_iter" else kind == "breakdown" and 1 <= steps <= k


@given(repeated_spectra, start_seeds, st.integers(1, 35), st.integers(1, 3), modes, shift_lists)
def test_every_run_reports_one_termination_vocabulary(vals, seed, k, m, mode, shifts):
    # Decompositions and histories share the kinds "converged", "max_iter"
    # and "breakdown", and the step a decomposition stopped at is its length.
    A = LinearOperator.diagonal(vals)
    rng = np.random.default_rng(seed)
    b, B = rng.standard_normal(len(vals)), rng.standard_normal((len(vals), m))
    dec = lanczos(A, b, k, mode=mode)
    assert_termination(dec.termination, dec.T.size, k)
    if dec.termination == "breakdown":  # detected at the cap, it stays one
        capped = lanczos(A, b, dec.T.size, mode=mode)
        assert capped.termination == "breakdown" and capped.T.size == dec.T.size
    blk = block_lanczos(A, B, k, mode=mode)
    assert_termination(blk.termination, len(blk.block_diag), k)
    assert len(blk.block_offdiag) == len(blk.block_diag)  # the trailing block
    assert block_cg(A, B, k, mode=mode).termination == blk.termination
    hists = [cg(A, b, k, mode=mode), minres(A, b, k, mode=mode)]
    hists += multi_shift_solve(A, b, shifts, k, mode=mode)
    assert {h.termination for h in hists} <= {"converged", "max_iter", "breakdown"}
    # With no stopping test a history ends where its run ended, as it says.
    kw = dict(mode=mode, tol=None)
    unstopped = [cg(A, b, k, **kw), cg(A, b, k, backend="low_memory", **kw)]
    unstopped += [minres(A, b, k, **kw), *multi_shift_solve(A, b, shifts, k, **kw)]
    assert {h.termination for h in unstopped} == {dec.termination}


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


# Positive definite, so every run keeps its scaled entries normal floats.
spd_spectra = st.lists(st.floats(0.1, 10.0), min_size=2, max_size=80)


@given(spd_spectra, start_seeds, st.integers(1, 40), modes, st.integers(-900, 900))
@example([1.0 + 0.18 * i for i in range(50)], 0, 20, ReorthMode.NONE, -540)
@example([1.0, 2.0], 0, 2, ReorthMode.FULL, -486)  # the DGKS test's squares
@example(list(np.linspace(1, 10, 50)), 0, 20, ReorthMode.NONE, 520)  # squares overflow
@example(list(np.linspace(1, 10, 50)), 0, 20, ReorthMode.FULL, 520)
def test_lanczos_is_equivariant_under_power_of_two_scaling(vals, seed, k, mode, s):
    # 2^s A scales every coefficient by 2^s and leaves the basis alone, bit
    # for bit: a beta whose square underflows must not end the run, and one
    # whose square overflows must not raise.
    b = start_vector(seed, len(vals))
    ref = lanczos(LinearOperator.diagonal(vals), b, k, mode=mode)
    dec = lanczos(LinearOperator.diagonal(np.ldexp(vals, s)), b, k, mode=mode)
    assert dec.termination == ref.termination
    assert dec.basis.tobytes() == ref.basis.tobytes()
    assert dec.T.alphas.tobytes() == np.ldexp(ref.T.alphas, s).tobytes()
    assert dec.T.betas.tobytes() == np.ldexp(ref.T.betas, s).tobytes()
    assert dec.trailing_beta == math.ldexp(ref.trailing_beta, s)


@given(spd_spectra, start_seeds, st.integers(1, 40), methods, modes, st.integers(-900, 900))
@example([1.0 + 0.18 * i for i in range(50)], 0, 40, "cg", ReorthMode.NONE, -560)
@example([1.0 + 0.18 * i for i in range(50)], 0, 40, "minres", ReorthMode.FULL, 900)
def test_solvers_are_equivariant_under_power_of_two_scaling(vals, seed, k, method, mode, t):
    # A right-hand side 2^t b scales every iterate and residual norm by 2^t
    # and keeps the termination: no residual norm may underflow to a false
    # convergence or overflow to a false miss.
    A = LinearOperator.diagonal(vals)
    b = start_vector(seed, len(vals))
    solve = cg if method == "cg" else minres
    ref = solve(A, b, k, mode=mode, tol=1e-8)
    hist = solve(A, np.ldexp(b, t), k, mode=mode, tol=1e-8)
    assert hist.termination == ref.termination
    assert hist.b_norm == math.ldexp(ref.b_norm, t)
    assert hist.residual_norms.tobytes() == np.ldexp(ref.residual_norms, t).tobytes()
    assert len(hist.iterates) == len(ref.iterates)
    for x, y in zip(hist.iterates, ref.iterates):
        assert (x is None and y is None) or x.tobytes() == np.ldexp(y, t).tobytes()


@given(spd_spectra, start_seeds, st.integers(1, 12), st.integers(1, 3), modes, st.integers(-900, 900))
@example([1.0 + 0.18 * i for i in range(50)], 0, 20, 2, ReorthMode.FULL, -560)
@example([1.0 + 0.18 * i for i in range(50)], 0, 20, 2, ReorthMode.FULL, 560)
def test_block_cg_is_equivariant_under_power_of_two_scaling(vals, seed, k, m, mode, t):
    # 2^t B scales every iterate and column residual norm by 2^t: no norm
    # may underflow to zero or overflow with a RuntimeWarning.
    A = LinearOperator.diagonal(vals)
    B = np.random.default_rng(seed).standard_normal((len(vals), m))
    ref = block_cg(A, B, k, mode=mode)
    hist = block_cg(A, np.ldexp(B, t), k, mode=mode)
    assert hist.termination == ref.termination
    assert hist.residual_norms.tobytes() == np.ldexp(ref.residual_norms, t).tobytes()
    for x, y in zip(hist.iterates, ref.iterates, strict=True):
        assert (x is None and y is None) or x.tobytes() == np.ldexp(y, t).tobytes()


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
def test_sym_tridiag_eig_is_lapack_dstevd(entries):
    # The bytes of LAPACK dstevd under the sign convention (first nonzero
    # component of each eigenvector positive).
    T = SymTridiagonal(*entries)
    if T.size == 1:
        vals, vecs = T.alphas.copy(), np.ones((1, 1))
    else:
        vals, vecs, info = dstevd(T.alphas, T.betas)
        assert info == 0
    first = vecs[np.argmax(vecs != 0, axis=0), np.arange(vecs.shape[1])]
    vecs[:, first < 0] *= -1.0
    eig = sym_tridiag_eig(T)
    assert eig.eigenvalues.tobytes() == vals.tobytes()
    assert eig.eigenvectors.tobytes() == vecs.tobytes()


# tridiagonal_entries with some betas (or all: a diagonal T) exactly zero,
# and the 1-by-1 case.
sign_free_entries = st.one_of(
    tridiagonal_entries,
    tridiagonal_entries.flatmap(
        lambda e: st.lists(st.booleans(), min_size=len(e[1]), max_size=len(e[1])).map(
            lambda keep: (e[0], [b if kept else 0.0 for b, kept in zip(e[1], keep)])
        )
    ),
    st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=1, max_size=1).map(
        lambda a: (a, [])
    ),
)
SIGN_FREE_FUNCTIONS = [np.exp, np.cos, lambda x: 0.0 * x]


def _outcome(fn, *args):
    """The bytes ``fn(*args)`` returns, or None if ``f`` was off its domain."""
    try:
        return np.asarray(fn(*args)).tobytes()
    except FunctionDomainError:
        return None


@given(sign_free_entries, start_seeds, st.integers(1, 60), modes)
@example(([2.0], []), 0, 1, ReorthMode.NONE)
@example(([1.0, -2.0, 3.0, -2.0], [0.0, 0.0, 0.0]), 0, 4, ReorthMode.FULL)
@example(([1.0, -2.0, 3.0, -2.0], [0.5, 0.0, -1.5]), 1, 4, ReorthMode.NONE)
def test_sign_free_consumers_match_signed_eigenvectors(entries, seed, k, mode):
    # f(T) e1, Gauss quadrature and the Lanczos-FA pitfall read dstevd's
    # eigenvectors without the sign convention; negating a column negates
    # both factors of each term they use, so their bytes are the signed
    # path's.  exp overflows on large entries: then both sides raise.
    T = SymTridiagonal(*entries)
    for f in SIGN_FREE_FUNCTIONS:
        assert _outcome(tridiag_apply_function, T, f) == _outcome(signed_apply_function, T, f)
    got, want = gauss_quadrature(T, 2.5), signed_gauss_quadrature(T, 2.5)
    assert got.nodes.tobytes() == want.nodes.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()
    A, b = LinearOperator(T.size, T.matvec), start_vector(seed, T.size)
    dec = lanczos(A, b, k, mode=mode)
    for f in SIGN_FREE_FUNCTIONS:
        pitfall = lambda: lanczos_fa(A, b, f, k, mode=mode, formula="pitfall").value
        assert _outcome(pitfall) == _outcome(signed_pitfall, dec.basis, dec.T, b, f)


# Bounds, in units of eps * ||T||_2 (eps for the orthogonality, eps times
# the mass for the mass), on the eigendecomposition of a plain-Lanczos T
# that lost orthogonality.  A sweep of 1900 such T (graded spectra, d 30-120,
# k = 1.5 d) stayed below 14.3 (residual), 23.9 (orthogonality), 11.4
# (mass) and 20.5 (against the eigenvalues-only path).
EIGH_RESIDUAL_EPS = 32
EIGH_ORTHOGONALITY_EPS = 48
EIGH_MASS_EPS = 32
EIGH_VALUES_EPS = 48


@given(
    st.integers(30, 120),
    st.floats(0.6, 0.95),
    st.floats(-3.0, -0.5),
    st.floats(0.0, 3.0),
    start_seeds,
    st.floats(0.1, 10.0),
)
def test_sym_tridiag_eig_is_accurate_after_orthogonality_is_lost(
    d, rho, log_min, log_max, seed, mass
):
    # Graded spectra make plain Lanczos converge its outlying Ritz values
    # early and then repeat them (ghosts); k = 1.5 d steps leave a basis
    # far from orthonormal and a T with near-multiple eigenvalues.
    vals = GradedSpectrum(d, 10.0**log_min, 10.0**log_max, rho).eigenvalues()
    k = 3 * d // 2
    dec = lanczos(LinearOperator.diagonal(vals), start_vector(seed, d), k, mode=ReorthMode.NONE)
    Q, T = dec.basis, dec.T
    assert np.linalg.norm(Q.T @ Q - np.eye(T.size), 2) >= 0.5
    eps = np.finfo(float).eps
    eig = sym_tridiag_eig(T)
    lam, V = eig.eigenvalues, eig.eigenvectors
    t_norm = float(np.abs(lam).max())
    residual = np.linalg.norm(T.to_dense() @ V - V * lam, 2)
    assert residual <= EIGH_RESIDUAL_EPS * eps * t_norm
    assert np.linalg.norm(V.T @ V - np.eye(T.size), 2) <= EIGH_ORTHOGONALITY_EPS * eps
    total = gauss_quadrature(T, mass).total_mass
    assert abs(total - mass) <= EIGH_MASS_EPS * eps * mass
    assert np.abs(lam - _tridiag_eigenvalues(T)).max() <= EIGH_VALUES_EPS * eps * t_norm


@given(tridiagonal_entries)
def test_tridiag_eigenvalues_are_scipy_stev_values(entries):
    # The eigenvalues-only dstev call gives the bytes of scipy's
    # eigh_tridiagonal(eigvals_only=True, lapack_driver="stev").
    T = SymTridiagonal(*entries)
    want = scipy.linalg.eigh_tridiagonal(
        T.alphas, T.betas, eigvals_only=True, lapack_driver="stev"
    )
    assert _tridiag_eigenvalues(T).tobytes() == want.tobytes()


@st.composite
def coincident_nodes(draw):
    """Nodes with exact ties and chains of near-coincident nodes, spaced
    by up to 1.5 times the merge tolerance, in shuffled order, with
    nonnegative weights."""
    base = draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=1, max_size=30))
    tol = MERGE_RTOL * (max(base) - min(base))
    nodes = list(base)
    for x in draw(st.lists(st.sampled_from(base), max_size=8)):
        steps = draw(st.lists(st.sampled_from([0.0, 0.4, 0.6, 1.0, 1.5]), min_size=1, max_size=6))
        nodes += (x + np.cumsum(steps) * tol).tolist()
    nodes = draw(st.permutations(nodes))
    weights = draw(st.lists(st.floats(0.0, 10.0), min_size=len(nodes), max_size=len(nodes)))
    return nodes, weights


@given(coincident_nodes())
@example(([0.0, 0.6e-12, 1.2e-12, 1.0], [1.0, 2.0, 3.0, 4.0]))
@example(([0.0] * 20 + [1.0], [1.0] + [1e-16] * 19 + [1.0]))
def test_measure_merge_is_the_node_by_node_merge(nodes_weights):
    # Bit for bit the one-node-at-a-time merge: a chain 0, 0.6 tol,
    # 1.2 tol splits at its third node, and a group's weights are summed
    # left to right (a pairwise sum keeps the nineteen 1e-16 terms).
    nodes, weights = nodes_weights
    want_nodes, want_weights = merge_coincident_nodes(nodes, weights, MERGE_RTOL)
    mu = DiscreteMeasure(nodes, weights)
    assert mu.nodes.tobytes() == want_nodes.tobytes()
    assert mu.weights.tobytes() == np.maximum(want_weights, 0.0).tobytes()


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
    got = kpm_density(
        A, k, interval, damping=None, coeff_method="recurrence", m=m, sampler=sampler
    ).coefficients
    want = plain_kpm_coefficients(A, k, interval, m, sampler)
    assert got[: k + 1].tobytes() == want[: k + 1].tobytes()
    assert np.abs(got[k + 1 :] - want[k + 1 :]).max(initial=0.0) <= 1e-12 * want[0]


kpm_pads = st.tuples(st.floats(1e-3, 5.0), st.floats(1e-3, 5.0))
# Sizes drawn evenly up to 40, so that k <= d as often as k > d.
sized_spectra = st.integers(2, 40).flatmap(
    lambda n: st.lists(st.floats(-10.0, 10.0, allow_subnormal=False), min_size=n, max_size=n)
)


@given(
    vals=sized_spectra,
    seed=start_seeds,
    k=st.integers(1, 40),
    m=st.sampled_from([1, 2, 3]),
    pads=st.one_of(st.none(), kpm_pads),
)
def test_kpm_default_matches_the_recurrence(vals, seed, k, m, pads):
    # The default reads the moments off Lanczos quadratures; they are the
    # recurrence's moments within rounding of mu_0, with an automatic
    # interval (pads None) or a given one.  Below 1e-150 the squares in the
    # Ritz run underflow and the automatic interval can miss the spectrum,
    # on either path alike; those spectra get a given interval only.
    assume(pads is not None or all(v == 0.0 or abs(v) >= 1e-150 for v in vals))
    A = LinearOperator.diagonal(vals)
    interval = None if pads is None else (min(vals) - pads[0], max(vals) + pads[1])
    sampler = ProbeSampler(seed=seed)

    def outcome(**method):
        try:
            return kpm_density(A, k, interval, damping=None, m=m, sampler=sampler, **method)
        except ValueError as e:  # an automatic interval that rounds to one point
            return str(e)

    got, want = outcome(), outcome(coeff_method="recurrence")
    if isinstance(want, str):
        assert got == want
        return
    assert got.interval == want.interval
    # Worst of about 4500 draws: 3.3e-11 with k <= d; 1.6e-10 with k > d,
    # where the Lanczos run goes on past an invariant subspace on rounding.
    rtol = 1e-10 if k <= len(vals) else 1e-9
    assert np.abs(got.coefficients - want.coefficients).max() <= rtol * abs(
        want.coefficients[0]
    )


def quadrature_kpm_coefficients(A, k, interval, m, sampler):
    """Undamped KPM coefficients from each probe's k-step Lanczos
    quadrature, summed in probe order."""
    moments = np.zeros(2 * k)
    for i in range(m):
        dec = lanczos(A, sampler.probe(i, A.dim), k, ReorthMode.NONE)
        quadrature = gauss_quadrature(dec.T, dec.b_norm**2)
        moments += modified_moments(quadrature, 2 * k, "T", interval)
    moments /= m
    moments[1:] *= math.sqrt(2.0)
    return moments


# Distinct eigenvalues at least 0.01 apart, and k <= d: no probe's run
# breaks down before step k.
spread_spectra_and_k = (
    st.lists(st.integers(-1000, 1000), min_size=2, max_size=40, unique=True)
    .map(lambda xs: [x / 100 for x in xs])
    .flatmap(lambda vals: st.tuples(st.just(vals), st.integers(1, len(vals))))
)


@given(
    vals_k=spread_spectra_and_k,
    seed=start_seeds,
    m=st.sampled_from([1, 2, 3]),
    pads=kpm_pads,
    distribution=st.sampled_from(["unit_sphere", "rademacher"]),
)
def test_kpm_given_interval_checks_on_the_probes_own_runs(vals_k, seed, m, pads, distribution):
    # An interval around the spectrum passes every probe's check, which
    # costs no operator call beyond the probes' k each; the default
    # path's coefficients are each probe's own quadrature's, bit for bit.
    vals, k = vals_k
    D = LinearOperator.diagonal(vals)
    A, calls = counting(D)
    interval = (min(vals) - pads[0], max(vals) + pads[1])
    sampler = ProbeSampler(distribution, seed)
    for method in ("lanczos_qf", "recurrence"):
        calls[0] = 0
        got = kpm_density(A, k, interval, damping=None, coeff_method=method, m=m, sampler=sampler)
        assert calls[0] == m * k
        assert got.interval == interval
    want = quadrature_kpm_coefficients(D, k, interval, m, sampler)
    got = kpm_density(D, k, interval, damping=None, m=m, sampler=sampler)
    assert got.coefficients.tobytes() == want.tobytes()


# Each example makes up to 480 operator calls at d = 2e4 under tracemalloc.
@settings(max_examples=10)
@given(
    seed=start_seeds,
    m=st.sampled_from([1, 2]),
    given_interval=st.booleans(),
    distribution=st.sampled_from(["unit_sphere", "rademacher"]),
)
def test_kpm_default_peak_does_not_grow_with_k(
    probe_pool, seed, m, given_interval, distribution
):
    # Each probe keeps the current Lanczos vectors and its tridiagonal, and
    # the quadrature's k x k eigenvectors stay below one d-vector at k = 160:
    # eight times the steps may not cost one more d-vector.  Serial, so the
    # peak does not depend on how the probes overlap.
    d = 20_000
    A = LinearOperator.diagonal(np.linspace(1.0, 10.0, d))
    interval = (0.5, 10.5) if given_interval else None
    sampler = ProbeSampler(distribution, seed)
    peaks = []
    with probe_pool(1):
        for k in (20, 160):
            tracemalloc.start()
            try:
                kpm_density(A, k, interval, m=m, sampler=sampler)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] - peaks[0] < 8 * d


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
