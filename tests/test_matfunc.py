import math

import numpy as np
import pytest

from krylov.core import (
    LinearOperator,
    SymTridiagonal,
    sym_tridiag_eig,
    tridiag_apply_function,
    tridiag_solve,
)
from krylov.errors import FunctionDomainError
from krylov.lanczos import ReorthMode, lanczos
from krylov.matfunc import (
    block_lanczos_fa,
    block_lanczos_qf,
    fa_apriori_bound,
    lanczos_fa,
    lanczos_qf,
    rational_apply,
    two_pass_lanczos_fa,
)
from krylov.solvers import ShiftFamily, cg, multi_shift_solve
from helpers import counting, spd_matrix


def dense_f(M, f, b):
    vals, vecs = np.linalg.eigh(M)
    return vecs @ (np.array([f(v) for v in vals]) * (vecs.T @ b))


class TestLanczosFA:
    def test_identity_function(self):
        rng = np.random.default_rng(0)
        A = LinearOperator.diagonal([1.0, 2.0, 3.0])
        b = rng.standard_normal(3)
        res = lanczos_fa(A, b, lambda x: 1.0, 2)
        np.testing.assert_allclose(res.value, b, atol=1e-12)

    def test_linear_function(self):
        rng = np.random.default_rng(1)
        d = 20
        M, _ = spd_matrix(rng, d)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        res = lanczos_fa(A, b, lambda x: x, 2)
        np.testing.assert_allclose(res.value, M @ b, atol=1e-9 * np.abs(M @ b).max())

    def test_polynomial_exactness(self):
        # Degree < k polynomials are reproduced exactly.
        rng = np.random.default_rng(2)
        d, k = 25, 6
        M, _ = spd_matrix(rng, d, 0.5, 5.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        coeffs = rng.uniform(-1, 1, k)

        def p(x):
            return np.polynomial.polynomial.polyval(x, coeffs)

        exact = b.copy() * 0
        acc = b.copy()
        for c in coeffs:
            exact = exact + c * acc
            acc = M @ acc
        res = lanczos_fa(A, b, p, k)
        assert np.abs(res.value - exact).max() <= 1e-9 * max(
            np.abs(exact).max(), 1.0
        )

    def test_inverse_matches_cg(self):
        # f(x) = 1/x reproduces the CG iterate at every k.
        rng = np.random.default_rng(3)
        d = 30
        M, _ = spd_matrix(rng, d, 1.0, 50.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        for k in (3, 7, 12):
            res = lanczos_fa(A, b, lambda x: 1.0 / x, k)
            hist = cg(A, b, k, tol=0.0)
            x_cg = hist.iterates[k - 1]
            assert np.abs(res.value - x_cg).max() <= 1e-10 * np.abs(x_cg).max()

    def test_exp_converges(self):
        rng = np.random.default_rng(4)
        d = 40
        M, _ = spd_matrix(rng, d, 0.01, 1.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        exact = dense_f(M, np.exp, b)
        res = lanczos_fa(A, b, np.exp, 15)
        assert np.abs(res.value - exact).max() <= 1e-10 * np.abs(exact).max()

    def test_interpolation_characterization(self):
        # The FA output equals p(A) b for the polynomial interpolating f
        # at the Ritz values.
        rng = np.random.default_rng(5)
        d, k = 30, 8
        M, _ = spd_matrix(rng, d, 1.0, 8.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        f = np.exp
        dec_res = lanczos_fa(A, b, f, k)
        from krylov.core import sym_tridiag_eig
        from krylov.lanczos import lanczos

        T = lanczos(A, b, k).T
        ritz = sym_tridiag_eig(T).eigenvalues
        # interpolating polynomial in Newton form via numpy polyfit on the
        # exact nodes (degree k-1 through k points is interpolation)
        coeffs = np.polynomial.polynomial.polyfit(ritz, f(ritz), k - 1)
        px = b * 0
        acc = b.copy()
        for c in coeffs:
            px = px + c * acc
            acc = M @ acc
        assert np.abs(dec_res.value - px).max() <= 1e-7 * np.abs(px).max()

    def test_pitfall_formula_agrees_with_full_reorth(self):
        rng = np.random.default_rng(6)
        d = 25
        M, _ = spd_matrix(rng, d, 1.0, 10.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        good = lanczos_fa(A, b, np.exp, 10, formula="correct")
        alt = lanczos_fa(A, b, np.exp, 10, formula="pitfall")
        # With full reorthogonalization the two formulas coincide.
        assert np.abs(good.value - alt.value).max() <= 1e-8 * np.abs(
            good.value
        ).max()

    def test_domain_error(self):
        A = LinearOperator.diagonal([-1.0, 1.0])
        with pytest.raises(FunctionDomainError):
            lanczos_fa(A, np.ones(2), np.sqrt, 2)

    def test_unknown_formula_is_rejected_before_any_matvec(self):
        op, calls = counting(LinearOperator.diagonal([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="unknown formula"):
            lanczos_fa(op, np.ones(3), np.exp, 3, formula="exact")
        assert calls[0] == 0


class TestTwoPass:
    @pytest.mark.parametrize("stride", [1, 8, 100])
    def test_bit_identical_to_single_pass(self, stride):
        rng = np.random.default_rng(7)
        d, k = 60, 30
        vals = np.geomspace(1e-3, 1.0, d)
        A = LinearOperator.diagonal(vals)
        b = rng.standard_normal(d)
        ref = lanczos_fa(A, b, np.exp, k, mode=ReorthMode.NONE)
        two = two_pass_lanczos_fa(A, b, np.exp, k, checkpoint_stride=stride)
        assert np.array_equal(ref.value, two.value)
        assert ref.k_used == two.k_used

    def test_breakdown_handled(self):
        A = LinearOperator.diagonal([2.0, 3.0, 5.0])
        b = np.array([1.0, 0.0, 0.0])
        res = two_pass_lanczos_fa(A, b, np.exp, 5, checkpoint_stride=2)
        assert res.k_used == 1
        np.testing.assert_allclose(res.value, np.exp(2.0) * b, atol=1e-12)

    def test_invalid_stride(self):
        A = LinearOperator.diagonal([1.0, 2.0])
        with pytest.raises(ValueError):
            two_pass_lanczos_fa(A, np.ones(2), np.exp, 2, checkpoint_stride=0)


class TestLanczosQF:
    def test_constant(self):
        rng = np.random.default_rng(8)
        A = LinearOperator.diagonal([1.0, 2.0, 3.0])
        b = rng.standard_normal(3)
        assert lanczos_qf(A, b, lambda x: 1.0, 2) == pytest.approx(b @ b)

    def test_linear(self):
        rng = np.random.default_rng(9)
        d = 20
        M, _ = spd_matrix(rng, d)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        got = lanczos_qf(A, b, lambda x: x, 3)
        assert got == pytest.approx(b @ M @ b, rel=1e-12)

    def test_polynomial_exactness_degree_2k_minus_1(self):
        # k-point Gaussian quadrature integrates degree <= 2k-1 exactly.
        rng = np.random.default_rng(10)
        d, k = 25, 4
        M, _ = spd_matrix(rng, d, 0.5, 3.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        coeffs = rng.uniform(-1, 1, 2 * k)  # degree 2k-1

        def p(x):
            return np.polynomial.polynomial.polyval(x, coeffs)

        exact = 0.0
        acc = b.copy()
        for c in coeffs:
            exact += c * float(b @ acc)
            acc = M @ acc
        got = lanczos_qf(A, b, p, k)
        assert abs(got - exact) <= 1e-10 * max(abs(exact), 1.0)

    def test_matches_fa_inner_product_with_full_reorth(self):
        rng = np.random.default_rng(11)
        d, k = 30, 10
        M, _ = spd_matrix(rng, d, 1.0, 10.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        qf = lanczos_qf(A, b, np.exp, k, mode=ReorthMode.FULL)
        fa = lanczos_fa(A, b, np.exp, k, mode=ReorthMode.FULL)
        assert abs(qf - float(b @ fa.value)) <= 1e-11 * abs(qf)

    def test_streaming_matches_basis_mode(self):
        rng = np.random.default_rng(12)
        d, k = 40, 15
        vals = np.geomspace(1.0, 100.0, d)
        A = LinearOperator.diagonal(vals)
        b = rng.standard_normal(d)
        s = lanczos_qf(A, b, np.log, k, mode=ReorthMode.NONE)
        # the streaming path and an in-memory run share the arithmetic
        from krylov.lanczos import lanczos
        from krylov.core import tridiag_apply_function

        dec = lanczos(A, b, k, mode=ReorthMode.NONE)
        ref = dec.b_norm**2 * tridiag_apply_function(dec.T, np.log)[0]
        assert s == ref


class TestRationalApply:
    def test_single_pole(self):
        rng = np.random.default_rng(13)
        d, k = 25, 25
        M, _ = spd_matrix(rng, d, 1.0, 20.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        fam = ShiftFamily([-2.0], [1.0])
        got = rational_apply(A, b, fam, k)
        exact = np.linalg.solve(M + 2.0 * np.eye(d), b)
        assert np.abs(got - exact).max() <= 1e-8 * np.abs(exact).max()

    def test_partial_fractions_inverse(self):
        # 1/((x+1)(x+2)) = 1/(x+1) - 1/(x+2) applied via the family.
        rng = np.random.default_rng(14)
        d, k = 30, 30
        M, _ = spd_matrix(rng, d, 1.0, 10.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        fam = ShiftFamily([-1.0, -2.0], [1.0, -1.0])
        got = rational_apply(A, b, fam, k)
        exact = np.linalg.solve(
            (M + np.eye(d)) @ (M + 2 * np.eye(d)), b
        )
        assert np.abs(got - exact).max() <= 1e-8 * np.abs(exact).max()

    def test_conjugate_pair_returns_real(self):
        rng = np.random.default_rng(15)
        d, k = 20, 20
        M, _ = spd_matrix(rng, d, 1.0, 5.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        z = -1.0 + 2.0j
        w = 0.5 - 0.25j
        fam = ShiftFamily([z, np.conj(z)], [w, np.conj(w)])
        got = rational_apply(A, b, fam, k)
        assert np.isrealobj(got)
        exact = (
            w * np.linalg.solve(M - z * np.eye(d), b.astype(complex))
            + np.conj(w)
            * np.linalg.solve(M - np.conj(z) * np.eye(d), b.astype(complex))
        )
        assert np.abs(got - exact.real).max() <= 1e-8 * np.abs(exact).max()

    def test_methods_agree(self):
        rng = np.random.default_rng(16)
        d, k = 20, 15
        M, _ = spd_matrix(rng, d, 1.0, 10.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        fam = ShiftFamily([-0.5, -3.0], [2.0, 1.0])
        a1 = rational_apply(A, b, fam, k)
        hists = multi_shift_solve(A, b, fam.shifts, k, method="cg")
        a2 = sum(w * h.final for w, h in zip(fam.weights, hists))
        assert np.abs(a1 - a2).max() <= 1e-9 * np.abs(a1).max()

    def test_near_singular_shift_is_judged_as_cg_judges_it(self):
        # z is 1.2e-14 below the top eigenvalue 1 + sqrt(2) of T.  The last
        # pivot, 2.42e-14, passes against the largest coefficient or shift
        # (|z|) but failed against ||T||_inf = 3, the scale tridiag_solve
        # used.  Every path solves, and to the same bits.
        T = SymTridiagonal([1.0, 1.0, 1.0], [1.0, 1.0])
        A = LinearOperator.from_matrix(T.to_dense())
        b = np.array([1.0, 0.0, 0.0])
        z = 2.4142135623730829
        (hist,) = multi_shift_solve(A, b, [z], 3, method="cg", tol=None)
        x = tridiag_solve(T, b, shift=z)
        assert np.isfinite(x).all() and np.abs(x).max() > 1e13
        np.testing.assert_array_equal(hist.iterates[2], x)
        np.testing.assert_array_equal(rational_apply(A, b, ShiftFamily([z], [1.0]), 3), x)

    def test_error_plateau_bounded_by_slowest_pole(self):
        # The overall error is at most the sum of per-pole solve errors.
        rng = np.random.default_rng(17)
        d, k = 40, 12
        M, _ = spd_matrix(rng, d, 1.0, 1e3)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        shifts = [-0.1, -10.0]
        weights = [1.0, 1.0]
        fam = ShiftFamily(shifts, weights)
        got = rational_apply(A, b, fam, k)
        exact = sum(
            w * np.linalg.solve(M - z * np.eye(d), b)
            for z, w in zip(shifts, weights)
        )
        per_pole = 0.0
        hists = multi_shift_solve(A, b, shifts, k)
        for z, w, h in zip(shifts, weights, hists):
            xz = np.linalg.solve(M - z * np.eye(d), b)
            per_pole += abs(w) * np.linalg.norm(h.final - xz)
        assert np.linalg.norm(got - exact) <= per_pole * (1 + 1e-6) + 1e-12


def test_rational_apply_holds_one_real_basis():
    # NONE mode stores the k-vector basis once; summing the shifts on T
    # and accumulating ||b|| Q c once adds no complex copy of it.
    import tracemalloc

    d, k = 20_000, 40
    A = LinearOperator.diagonal(np.geomspace(1.0, 100.0, d))
    b = np.random.default_rng(19).standard_normal(d)
    z, w = -1.0 + 2.0j, 0.5 - 0.25j
    fam = ShiftFamily([-0.5, z, np.conj(z), -3.0], [1.0, w, np.conj(w), 2.0])
    tracemalloc.start()
    try:
        got = rational_apply(A, b, fam, k, mode=ReorthMode.NONE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isrealobj(got)
    assert peak < 2 * k * d * 8


class TestPinnedBitsAndCalls:
    """Each vector entry point returns, bit for bit, ||b|| sum_n c_n q_n
    summed left to right over the basis of ``lanczos(A, b, k, mode)``,
    with c from the small kernel on its T.  A one-pass call makes one
    operator call per step; a two-pass call adds a second pass that
    skips the product at each checkpoint."""

    def problem(self, d=60):
        rng = np.random.default_rng(23)
        M, _ = spd_matrix(rng, d, 1.0, 100.0)
        return LinearOperator.from_matrix(M), rng.standard_normal(d)

    @staticmethod
    def left_to_right(dec, c):
        res = None
        for n, q in enumerate(dec.basis.T):
            term = (dec.b_norm * c[n]) * q
            res = term if res is None else res + term
        return res

    @pytest.mark.parametrize("mode", [ReorthMode.NONE, ReorthMode.FULL])
    def test_lanczos_fa_correct(self, mode):
        A, b = self.problem()
        counted, calls = counting(A)
        got = lanczos_fa(counted, b, np.exp, 30, mode=mode)
        dec = lanczos(A, b, 30, mode=mode)
        ref = self.left_to_right(dec, tridiag_apply_function(dec.T, np.exp))
        assert np.array_equal(got.value, ref)
        assert got.k_used == dec.T.size == 30
        assert got.diagnostics["trailing_beta"] == dec.trailing_beta
        assert calls[0] == 30

    @pytest.mark.parametrize("mode", [ReorthMode.NONE, ReorthMode.FULL])
    def test_lanczos_fa_pitfall(self, mode):
        A, b = self.problem()
        counted, calls = counting(A)
        got = lanczos_fa(counted, b, np.exp, 30, mode=mode, formula="pitfall")
        dec = lanczos(A, b, 30, mode=mode)
        Q, eig = dec.basis, sym_tridiag_eig(dec.T)
        fvals = np.array([np.exp(t) for t in eig.eigenvalues])
        ref = Q @ (eig.eigenvectors @ (fvals * (eig.eigenvectors.T @ (Q.T @ b))))
        assert np.array_equal(got.value, ref)
        assert got.k_used == 30
        assert calls[0] == 30

    @pytest.mark.parametrize("mode", [ReorthMode.NONE, ReorthMode.FULL])
    def test_rational_apply(self, mode):
        A, b = self.problem()
        counted, calls = counting(A)
        z, w = -1.0 + 2.0j, 0.5 - 0.25j
        fam = ShiftFamily([-0.5, z, np.conj(z), -3.0], [1.0, w, np.conj(w), 2.0])
        got = rational_apply(counted, b, fam, 30, mode=mode)
        dec = lanczos(A, b, 30, mode=mode)
        e1 = np.zeros(dec.T.size)
        e1[0] = 1.0
        c = np.zeros(dec.T.size, dtype=complex)
        for wi, zi in zip(fam.weights, fam.shifts):
            zi = complex(zi)
            c = c + complex(wi) * tridiag_solve(dec.T, e1, shift=zi if zi.imag else zi.real)
        assert np.abs(c.imag).max() <= 1e-10 * np.abs(c).max()
        ref = self.left_to_right(dec, c.real)
        assert np.isrealobj(got)
        assert np.array_equal(got, ref)
        assert calls[0] == 30

    @pytest.mark.parametrize("stride, expected", [(1, 30), (7, 55), (30, 59), (100, 59)])
    def test_two_pass(self, stride, expected):
        A, b = self.problem()
        counted, calls = counting(A)
        got = two_pass_lanczos_fa(counted, b, np.exp, 30, checkpoint_stride=stride)
        dec = lanczos(A, b, 30, mode=ReorthMode.NONE)
        ref = self.left_to_right(dec, tridiag_apply_function(dec.T, np.exp))
        assert np.array_equal(got.value, ref)
        assert got.k_used == 30
        assert calls[0] == expected == 2 * 30 - math.ceil(30 / stride)

    @pytest.mark.parametrize("stride, expected", [(1, 2), (2, 3)])
    def test_breakdown(self, stride, expected):
        # b has weight on two eigenvalues only: the run breaks down at step 2.
        A = LinearOperator.diagonal([2.0, 3.0, 5.0])
        b = np.array([1.0, 1.0, 0.0])
        dec = lanczos(A, b, 5, mode=ReorthMode.NONE)
        ref = self.left_to_right(dec, tridiag_apply_function(dec.T, np.exp))
        counted, calls = counting(A)
        one = lanczos_fa(counted, b, np.exp, 5, mode=ReorthMode.NONE)
        assert np.array_equal(one.value, ref)
        assert one.k_used == 2 and calls[0] == 2
        counted, calls = counting(A)
        two = two_pass_lanczos_fa(counted, b, np.exp, 5, checkpoint_stride=stride)
        assert np.array_equal(two.value, ref)
        assert two.k_used == 2 and calls[0] == expected


class TestBlockMatFunc:
    def test_fa_polynomial_exactness(self):
        rng = np.random.default_rng(18)
        d, m, k = 25, 3, 4
        M, _ = spd_matrix(rng, d, 0.5, 4.0)
        A = LinearOperator.from_matrix(M)
        B = rng.standard_normal((d, m))
        coeffs = rng.uniform(-1, 1, k)

        def p(x):
            return np.polynomial.polynomial.polyval(x, coeffs)

        exact = np.zeros_like(B)
        acc = B.copy()
        for c in coeffs:
            exact = exact + c * acc
            acc = M @ acc
        got = block_lanczos_fa(A, B, p, k)
        assert np.abs(got - exact).max() <= 1e-9 * np.abs(exact).max()

    def test_fa_width_one_matches_vector(self):
        rng = np.random.default_rng(19)
        d, k = 25, 8
        M, _ = spd_matrix(rng, d, 1.0, 10.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        blk = block_lanczos_fa(A, b[:, None], np.exp, k)
        vec = lanczos_fa(A, b, np.exp, k)
        assert np.abs(blk[:, 0] - vec.value).max() <= 1e-10 * np.abs(
            vec.value
        ).max()

    def test_qf_symmetric_and_converges(self):
        rng = np.random.default_rng(20)
        d, m, k = 30, 2, 15
        M, _ = spd_matrix(rng, d, 1.0, 10.0)
        A = LinearOperator.from_matrix(M)
        B = rng.standard_normal((d, m))
        got = block_lanczos_qf(A, B, np.exp, k)
        assert np.abs(got - got.T).max() == 0.0
        vals, vecs = np.linalg.eigh(M)
        fM = (vecs * np.exp(vals)) @ vecs.T
        exact = B.T @ fM @ B
        assert np.abs(got - exact).max() <= 1e-8 * np.abs(exact).max()

    def test_qf_domain_error(self):
        A = LinearOperator.diagonal([-1.0, 1.0, 2.0])
        B = np.eye(3)[:, :2]
        with pytest.raises(FunctionDomainError):
            block_lanczos_qf(A, B, np.sqrt, 3)


class TestAprioriBound:
    def test_positive_and_decreasing(self):
        vals = [fa_apriori_bound(np.exp, (0.0, 1.0), k) for k in range(1, 12)]
        assert all(v > 0 for v in vals)
        assert all(b <= a * (1 + 1e-12) for a, b in zip(vals[:-1], vals[1:]))

    def test_exact_for_low_degree(self):
        # A degree-2 polynomial is matched exactly at k >= 3.
        def p(x):
            return 1.0 + 2.0 * x - 0.5 * x**2

        assert fa_apriori_bound(p, (-1.0, 2.0), 3) <= 1e-12

    def test_scales_with_b_norm(self):
        a = fa_apriori_bound(np.exp, (0.0, 1.0), 4, b_norm=1.0)
        b = fa_apriori_bound(np.exp, (0.0, 1.0), 4, b_norm=3.0)
        assert b == pytest.approx(3.0 * a)

    def test_bounds_actual_fa_error(self):
        rng = np.random.default_rng(21)
        d = 40
        vals = np.linspace(0.1, 1.0, d)
        A = LinearOperator.diagonal(vals)
        b = rng.standard_normal(d)
        exact = np.exp(vals) * b
        for k in (2, 4, 8):
            res = lanczos_fa(A, b, np.exp, k)
            err = np.linalg.norm(res.value - exact)
            bound = fa_apriori_bound(
                np.exp, (0.1, 1.0), k, b_norm=float(np.linalg.norm(b))
            )
            assert err <= bound

    @pytest.mark.parametrize("k", [0, -1])
    def test_fewer_than_one_step_rejected_before_f_is_sampled(self, k):
        samples = []
        with pytest.raises(ValueError, match="k must be at least 1"):
            fa_apriori_bound(lambda x: samples.append(x) or np.exp(x), (0.0, 1.0), k)
        assert samples == []

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            fa_apriori_bound(np.exp, (1.0, 1.0), 3)
        # Rejected before f is sampled: the interval is at fault, so no
        # NonFiniteSample that blames f(inf).
        samples = []
        for interval in [(0.0, np.inf), (1.0, 0.0), (np.nan, 1.0)]:
            with pytest.raises(ValueError, match="finite and have positive length"):
                fa_apriori_bound(lambda x: samples.append(x) or np.exp(x), interval, 3)
        assert samples == []
