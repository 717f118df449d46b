"""End-to-end acceptance checks: one test (or test group) per shipped
capability, with pinned tolerances.  These run at desk scale and are the
gate for the library as a whole."""

import numpy as np
import pytest

from krylov.core import LinearOperator
from krylov.experiments import ExperimentConfig, run_experiment
from krylov.lanczos import ReorthMode, block_lanczos, lanczos
from krylov.matfunc import (
    block_lanczos_qf,
    lanczos_fa,
    lanczos_qf,
    two_pass_lanczos_fa,
)
from krylov.matrices import ExplicitEigenvalues, GradedSpectrum, generate_operator
from krylov.orthopoly import (
    DiscreteMeasure,
    cdf_compare,
    cheb_eval,
    gauss_quadrature,
    stieltjes,
    wasserstein,
)
from krylov.solvers import block_cg, cg, chebyshev_bound, minres, multi_shift_solve
from krylov.trace import (
    ProbeSampler,
    control_variate_trace,
    hutchinson_trace,
    kpm_density,
    slq_density,
)
from helpers import spd_matrix


def semicircle_eigenvalues(d):
    x = np.linspace(-1.0, 1.0, 20_001)
    cdf = 0.5 + (x * np.sqrt(1.0 - x**2) + np.arcsin(x)) / np.pi
    q = (np.arange(d) + 0.5) / d
    return np.interp(q, cdf, x)


class TestCriterion01PolynomialExactness:
    def test_fa_exact_below_degree_k(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            d = int(rng.integers(10, 40))
            k = int(rng.integers(2, 8))
            M, _ = spd_matrix(rng, d, 0.5, 4.0)
            A = LinearOperator.from_matrix(M)
            b = rng.standard_normal(d)
            coeffs = rng.uniform(-1, 1, k)  # degree k-1 < k

            def p(x):
                return np.polynomial.polynomial.polyval(x, coeffs)

            exact = np.zeros(d)
            acc = b.copy()
            for c in coeffs:
                exact = exact + c * acc
                acc = M @ acc
            got = lanczos_fa(A, b, p, k).value
            assert np.linalg.norm(got - exact) <= 1e-9 * max(
                np.linalg.norm(exact), 1.0
            )

    def test_qf_exact_below_degree_2k(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            d = int(rng.integers(10, 40))
            k = int(rng.integers(2, 6))
            M, _ = spd_matrix(rng, d, 0.5, 4.0)
            A = LinearOperator.from_matrix(M)
            b = rng.standard_normal(d)
            coeffs = rng.uniform(-1, 1, 2 * k)  # degree 2k-1 < 2k

            def p(x):
                return np.polynomial.polynomial.polyval(x, coeffs)

            exact = 0.0
            acc = b.copy()
            for c in coeffs:
                exact += c * float(b @ acc)
                acc = M @ acc
            got = lanczos_qf(A, b, p, k, mode=ReorthMode.FULL)
            assert abs(got - exact) <= 1e-9 * max(abs(exact), 1.0)


class TestCriterion02QuadratureMoments:
    def test_roundtrip_moments_and_straddle(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            nodes = np.sort(rng.uniform(-1, 1, 50))
            weights = rng.uniform(0.1, 1.0, 50)
            mu = DiscreteMeasure(nodes, weights / weights.sum())
            k = int(rng.integers(3, 9))
            quad = gauss_quadrature(stieltjes(mu, k), mu.total_mass)
            for deg in range(2 * k - 1):
                m_exact = mu.moment(deg)
                assert abs(quad.moment(deg) - m_exact) <= 1e-10 * max(
                    abs(m_exact), 1e-3
                )
            rep = cdf_compare(mu, quad)
            assert rep.all_straddle


class TestCriterion03SolverOptimality:
    def test_cg_matches_projection_oracle(self):
        rng = np.random.default_rng(104)
        d = 60
        for _ in range(10):
            M, _ = spd_matrix(rng, d, 1.0, 100.0)
            A = LinearOperator.from_matrix(M)
            b = rng.standard_normal(d)
            hist = cg(A, b, 10, tol=0.0)
            cols = [b]
            for _ in range(9):
                cols.append(M @ cols[-1])
            for j, x in enumerate(hist.iterates, start=1):
                Q, _ = np.linalg.qr(np.column_stack(cols[:j]))
                opt = Q @ np.linalg.solve(Q.T @ M @ Q, Q.T @ b)
                assert np.linalg.norm(x - opt) <= 1e-8 * max(
                    np.linalg.norm(opt), 1.0
                )

    def test_minres_matches_least_squares_oracle(self):
        rng = np.random.default_rng(105)
        d = 60
        for _ in range(10):
            vals = rng.uniform(-5, 5, d)
            Q0, _ = np.linalg.qr(rng.standard_normal((d, d)))
            M = Q0 @ np.diag(vals) @ Q0.T
            M = 0.5 * (M + M.T)
            A = LinearOperator.from_matrix(M)
            b = rng.standard_normal(d)
            hist = minres(A, b, 10, tol=0.0)
            cols = [b]
            for _ in range(9):
                cols.append(M @ cols[-1])
            for j, x in enumerate(hist.iterates, start=1):
                Q, _ = np.linalg.qr(np.column_stack(cols[:j]))
                y, *_ = np.linalg.lstsq(M @ Q, b, rcond=None)
                opt = Q @ y
                assert np.linalg.norm(x - opt) <= 1e-8 * max(
                    np.linalg.norm(opt), 1.0
                )


class TestCriterion04ResidualIdentities:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        vals = GradedSpectrum(60, 1.0, 100.0, 0.9).eigenvalues() - 30.0
        A = LinearOperator.diagonal(vals)
        b = rng.standard_normal(60)
        k = 40
        h_cg = cg(A, b, k, tol=0.0, keep_iterates=False)
        h_m = minres(A, b, k, tol=0.0, keep_iterates=False)
        return h_cg, h_m

    def test_harmonic_sum_identity(self):
        # ||r_k^M||^{-2} = ||b||^{-2} + sum_{n<=k} ||r_n^CG||^{-2}
        # (over the CG steps that exist; identity holds to 1e-6).
        h_cg, h_m = self._setup(106)
        r_cg = h_cg.residual_norms
        r_m = h_m.residual_norms
        k = min(len(r_cg), len(r_m))
        floor = 1e-8 * h_m.b_norm
        acc = h_m.b_norm ** -2.0
        for n in range(k):
            if np.isfinite(r_cg[n]):
                acc += r_cg[n] ** -2.0
            if r_m[n] <= floor:
                break  # converged past the meaningful range
            pred = acc ** -0.5
            assert abs(pred - r_m[n]) <= 1e-6 * r_m[n]

    def test_peak_plateau_identity(self):
        # ||r_k^CG|| = ||r_k^M|| / sqrt(1 - (r^M_k / r^M_{k-1})^2), where
        # the ratio is bounded away from one.
        h_cg, h_m = self._setup(107)
        r_cg = h_cg.residual_norms
        r_m = h_m.residual_norms
        r0 = h_m.b_norm
        k = min(len(r_cg), len(r_m))
        floor = 1e-8 * h_m.b_norm
        for n in range(k):
            prev = r_m[n - 1] if n > 0 else r0
            ratio = r_m[n] / prev
            denom = 1.0 - ratio**2
            if denom <= 1e-8 or not np.isfinite(r_cg[n]) or r_m[n] <= floor:
                continue
            pred = r_m[n] / np.sqrt(denom)
            assert abs(pred - r_cg[n]) <= 1e-6 * r_cg[n]

    def test_min_cg_residual_bound(self):
        # min over steps of the CG residual never exceeds
        # sqrt(k+1) times the MINRES residual at step k.
        h_cg, h_m = self._setup(108)
        r_cg = h_cg.residual_norms
        r_m = h_m.residual_norms
        r0 = h_m.b_norm
        k = min(len(r_cg), len(r_m))
        for n in range(k):
            finite = [r0] + [r for r in r_cg[: n + 1] if np.isfinite(r)]
            best = min(finite)
            assert best <= np.sqrt(n + 2) * r_m[n] * (1 + 1e-10)


class TestCriterion05ForwardStabilityOfMoments:
    def test_moments_stable_while_tridiagonals_diverge(self):
        report = run_experiment(ExperimentConfig(experiment="moment-stability"))
        by_name = {a.name: a for a in report.assertions}
        assert by_name["moment_error"].measured <= 1e-8
        assert by_name["tridiag_divergence"].measured >= 1e-2
        assert by_name["ghost_ritz_multiplicity"].measured >= 2
        assert report.passed


class TestCriterion06FormulaPitfall:
    def test_correct_formula_converges_pitfall_stagnates(self):
        gen = generate_operator(GradedSpectrum(64, 1e-3, 1.0, 0.8))
        vals = gen.eigenvalues
        A = gen.operator
        rng = np.random.default_rng(109)
        b = rng.standard_normal(64)
        f = lambda x: np.exp(-x)
        exact = np.exp(-vals) * b
        scale = np.linalg.norm(exact)
        k = 60
        good = lanczos_fa(A, b, f, k, mode=ReorthMode.NONE, formula="correct")
        bad = lanczos_fa(A, b, f, k, mode=ReorthMode.NONE, formula="pitfall")
        err_good = np.linalg.norm(good.value - exact) / scale
        err_bad = np.linalg.norm(bad.value - exact) / scale
        assert err_good <= 1e-6
        assert err_bad >= 10 * err_good


class TestCriterion07TwoPassBitIdentity:
    def test_byte_identical_on_ten_problems(self):
        rng = np.random.default_rng(110)
        for _ in range(10):
            d = int(rng.integers(20, 80))
            k = int(rng.integers(5, 40))
            vals = np.sort(rng.uniform(0.1, 2.0, d))
            A = LinearOperator.diagonal(vals)
            b = rng.standard_normal(d)
            ref = lanczos_fa(A, b, np.exp, k, mode=ReorthMode.NONE)
            two = two_pass_lanczos_fa(A, b, np.exp, k, checkpoint_stride=k)
            assert ref.value.tobytes() == two.value.tobytes()


class TestCriterion08MultiShiftEquivalence:
    def test_matches_independent_runs_for_five_real_shifts(self):
        rng = np.random.default_rng(111)
        d, k = 50, 25
        M, _ = spd_matrix(rng, d, 1.0, 50.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        shifts = [-0.5, -2.0, -8.0, -30.0, 0.25]
        hists = multi_shift_solve(A, b, shifts, k, method="cg")
        for z, hist in zip(shifts, hists):
            shifted = LinearOperator.from_matrix(M - z * np.eye(d))
            single = cg(shifted, b, k, tol=0.0)
            for j in range(min(hist.k, single.k)):
                x_ref = single.iterates[j]
                assert np.linalg.norm(
                    hist.iterates[j] - x_ref
                ) <= 1e-12 * max(np.linalg.norm(x_ref), 1.0)


class TestCriterion09TraceEstimation:
    def test_hutchinson_within_three_stderr(self):
        d, m = 100, 2000
        rng = np.random.default_rng(112)
        vals = np.sort(rng.uniform(0.0, 2.0, d))
        for f in (lambda x: x, np.exp):
            fv = np.array([f(v) for v in vals])
            truth = fv.mean()
            est = hutchinson_trace(
                lambda b: float(b @ (fv * b)), d, m, ProbeSampler(seed=1)
            )
            assert abs(est.estimate - truth) <= 3 * est.stderr

    def test_control_variate_halves_stderr_on_spiked_matrix(self):
        d, m = 100, 200
        rng = np.random.default_rng(113)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        base = np.linspace(1.0, 2.0, d)
        spike = 100.0
        qf = lambda b: float(b @ (base * b)) + spike * float(u @ b) ** 2
        qf_t = lambda b: spike * float(u @ b) ** 2
        s = ProbeSampler(seed=2)
        plain = hutchinson_trace(qf, d, m, s)
        cv = control_variate_trace(qf, spike, qf_t, d, m, s)
        assert cv.stderr * 2 <= plain.stderr
        truth = (base.sum() + spike) / d
        assert abs(cv.estimate - truth) <= 3 * max(cv.stderr, 1e-12)


class TestCriterion10SlqDensityScaling:
    def test_wasserstein_ratio_per_doubling(self):
        d, m = 500, 8
        vals = semicircle_eigenvalues(d)
        A = LinearOperator.diagonal(vals)
        truth = DiscreteMeasure(vals, np.full(d, 1.0 / d))
        s = ProbeSampler(seed=0)
        dw = {}
        for k in (8, 16, 32):
            approx = slq_density(A, k, m, s)
            dw[k] = wasserstein(approx.measure, truth)
        for a, b in ((8, 16), (16, 32)):
            ratio = dw[a] / dw[b]
            assert 1.5 <= ratio <= 3.0


class TestCriterion11Kpm:
    def _operator(self, d=200):
        theta = (np.arange(d) + 0.5) * np.pi / d
        return LinearOperator.diagonal(np.cos(theta))

    def test_undamped_polynomial_integration(self):
        d, k = 150, 8
        A = self._operator(d)
        s = ProbeSampler(seed=3)
        approx = kpm_density(A, k, interval=(-1.1, 1.1), damping=None, sampler=s)
        rng = np.random.default_rng(114)
        b = s.probe(0, d)
        vals = A.to_dense().diagonal()
        for _ in range(10):
            coeffs = rng.uniform(-1, 1, 2 * k)  # degree 2k-1 < 2k

            def p(x):
                return np.polynomial.polynomial.polyval(x, coeffs)

            exact = float(b @ (p(vals) * b))
            assert abs(approx.integrate(p) - exact) <= 1e-9 * max(abs(exact), 1)

    def test_jackson_damped_density_nonnegative(self):
        A = self._operator(250)
        approx = kpm_density(A, 16, interval=(-1.05, 1.05))
        xs = np.linspace(-1.05, 1.05, 10_000)
        assert approx.density(xs).min() >= -1e-12

    def test_coefficient_paths_agree(self):
        A = self._operator(150)
        kw = dict(interval=(-1.1, 1.1), damping=None, sampler=ProbeSampler(seed=4))
        a = kpm_density(A, 12, coeff_method="recurrence", **kw)
        b = kpm_density(A, 12, coeff_method="lanczos_qf", **kw)
        assert np.abs(a.coefficients - b.coefficients).max() <= 1e-8


class TestCriterion12ChebyshevBoundEnvelope:
    def test_two_term_value_bounds_cg_ratio(self):
        rng = np.random.default_rng(115)
        d = 60
        cases = [(1.0, 1e2), (1.0, 1e4), (1.0, 1e6)]
        trials = 0
        for lo, hi in cases:
            for _ in range(4):
                if trials >= 10:
                    break
                trials += 1
                M, _ = spd_matrix(rng, d, lo, hi)
                A = LinearOperator.from_matrix(M)
                b = rng.standard_normal(d)
                x_star = np.linalg.solve(M, b)
                a0 = np.sqrt(x_star @ M @ x_star)
                hist = cg(A, b, 25, mode=ReorthMode.FULL, tol=0.0)
                params = {"lam_min": lo, "lam_max": hi}
                for j, x in enumerate(hist.iterates, start=1):
                    err = x - x_star
                    ratio = np.sqrt(max(err @ M @ err, 0.0)) / a0
                    bound = chebyshev_bound("full_interval", params, j)
                    assert ratio <= bound * (1 + 1e-6) + 1e-14
        assert trials == 10

    def test_outlier_aware_bound_beats_plain_bound(self):
        k = 30
        plain = chebyshev_bound(
            "full_interval", {"lam_min": 1.0, "lam_max": 1000.0}, k
        )
        aware = chebyshev_bound(
            "top_cluster", {"lam_min": 1.0, "lam_next": 10.0, "ell": 1}, k
        )
        assert aware * 10 <= plain
        # and the outlier-aware bound still bounds the measured run
        rng = np.random.default_rng(116)
        d = 60
        vals = np.concatenate([np.linspace(1.0, 10.0, d - 1), [1000.0]])
        A = LinearOperator.diagonal(vals)
        b = rng.standard_normal(d)
        x_star = b / vals
        a0 = np.sqrt(x_star @ (vals * x_star))
        hist = cg(A, b, k, tol=0.0)
        err = hist.iterates[min(k, hist.k) - 1] - x_star
        ratio = np.sqrt(err @ (vals * err)) / a0
        assert ratio <= aware * (1 + 1e-6) + 1e-14


class TestCriterion13BlockMethods:
    def test_block_cg_no_worse_than_single(self):
        rng = np.random.default_rng(117)
        d, m, k = 50, 4, 10
        M, _ = spd_matrix(rng, d, 1.0, 100.0)
        A = LinearOperator.from_matrix(M)
        B = rng.standard_normal((d, m))
        X_star = np.linalg.solve(M, B)
        blk = block_cg(A, B, k)
        for c in range(m):
            single = cg(A, B[:, c], k, tol=0.0)
            e_b = blk.iterates[k - 1][:, c] - X_star[:, c]
            e_s = single.iterates[min(k, single.k) - 1] - X_star[:, c]
            a_b = np.sqrt(max(e_b @ M @ e_b, 0.0))
            a_s = np.sqrt(max(e_s @ M @ e_s, 0.0))
            assert a_b <= a_s * (1 + 1e-8) + 1e-12

    def test_block_qf_polynomial_exactness(self):
        rng = np.random.default_rng(118)
        d, m, k = 40, 3, 4
        M, _ = spd_matrix(rng, d, 0.5, 3.0)
        A = LinearOperator.from_matrix(M)
        B = rng.standard_normal((d, m))
        coeffs = rng.uniform(-1, 1, 2 * k)

        def p(x):
            return np.polynomial.polynomial.polyval(x, coeffs)

        exact = np.zeros((m, m))
        acc = B.copy()
        for c in coeffs:
            exact = exact + c * (B.T @ acc)
            acc = M @ acc
        exact = 0.5 * (exact + exact.T)
        got = block_lanczos_qf(A, B, p, k)
        assert np.abs(got - exact).max() <= 1e-9 * max(np.abs(exact).max(), 1)

    def test_gaussian_block_full_rank_on_low_multiplicity_spectrum(self):
        rng = np.random.default_rng(119)
        d, m, k = 24, 3, 4
        vals = np.repeat(np.arange(1.0, d // 3 + 1), 3)  # multiplicity 3 <= m
        A = LinearOperator.diagonal(vals)
        B = rng.standard_normal((d, m))
        dec = block_lanczos(A, B, k)
        assert dec.total_width == m * k
        cols = [B]
        for _ in range(k - 1):
            cols.append(vals[:, None] * cols[-1])
        K = np.column_stack(cols)
        assert np.linalg.svd(K, compute_uv=False).min() >= 1e-10


class TestCriterion14ChebyshevScalarLayer:
    def test_cosine_identity_through_degree_200(self):
        theta = np.linspace(0.0, np.pi, 257)
        x = np.cos(theta)
        for k in range(201):
            assert np.abs(cheb_eval("T", k, x) - np.cos(k * theta)).max() <= 1e-12

    def test_bounded_by_two_on_extended_interval(self):
        for k in (1, 5, 20, 100, 200):
            ext = 1 + 1 / (2 * k**2)
            xs = np.linspace(-ext, ext, 4001)
            assert np.abs(cheb_eval("T", k, xs)).max() <= 2.0 + 1e-12

    def test_value_just_outside_interval(self):
        for k in (500, 1000, 5000):
            val = cheb_eval("T", k, 1 + 1 / (2 * k**2))
            assert 1.4 <= val <= 1.7
