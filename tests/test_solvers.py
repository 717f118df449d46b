import tracemalloc

import numpy as np
import pytest

import krylov.core
from krylov.core import LinearOperator
from krylov.errors import InsufficientIterates, InvalidInterval, NonFiniteOperator
from krylov.lanczos import ReorthMode, block_lanczos, lanczos
from krylov.solvers import (
    DEFAULT_TOL,
    ShiftFamily,
    block_cg,
    cg,
    chebyshev_bound,
    error_estimate_delay,
    minres,
    multi_shift_solve,
    preconditioned_solve,
)
from helpers import counting, spd_matrix


def krylov_basis(M, b, j):
    cols = [b]
    for _ in range(j - 1):
        cols.append(M @ cols[-1])
    Q, _ = np.linalg.qr(np.column_stack(cols))
    return Q


class TestCG:
    def test_identity_converges_in_one_step(self):
        A = LinearOperator.diagonal(np.ones(5))
        b = np.arange(1.0, 6.0)
        hist = cg(A, b, 5)
        assert hist.termination == "converged"
        np.testing.assert_allclose(hist.final, b, atol=1e-12)

    def test_two_distinct_eigenvalues_two_steps(self):
        A = LinearOperator.diagonal([1.0, 1.0, 4.0])
        b = np.array([1.0, 2.0, 3.0])
        hist = cg(A, b, 3)
        assert hist.k <= 2
        np.testing.assert_allclose(hist.final, b / np.array([1, 1, 4.0]), atol=1e-10)

    def test_optimality_a_norm(self):
        # Per step, the CG iterate minimizes the A-norm error over the
        # Krylov space; compare against a dense projected solve.
        rng = np.random.default_rng(0)
        d = 30
        M, _ = spd_matrix(rng, d)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        x_star = np.linalg.solve(M, b)
        hist = cg(A, b, 10, tol=0.0)
        for j, x in enumerate(hist.iterates, start=1):
            Q = krylov_basis(M, b, j)
            y = np.linalg.solve(Q.T @ M @ Q, Q.T @ b)
            opt = Q @ y
            err = x - x_star
            err_opt = opt - x_star
            anorm = np.sqrt(err @ M @ err)
            anorm_opt = np.sqrt(err_opt @ M @ err_opt)
            assert anorm <= anorm_opt * (1 + 1e-8) + 1e-10

    def test_backends_agree(self):
        # Both backends feed the same Lanczos steps to the same small
        # solve, so their histories are bit-identical.
        rng = np.random.default_rng(1)
        d = 40
        M, _ = spd_matrix(rng, d, 1.0, 1e3)
        problems = [
            (LinearOperator.from_matrix(M), rng.standard_normal(d), 15),
            (LinearOperator.diagonal([-1.0, 2.0, 3.0]), np.ones(3), 3),
        ]
        for A, b, k in problems:
            for mode in (ReorthMode.NONE, ReorthMode.FULL):
                h1 = cg(A, b, k, backend="tridiagonal", mode=mode, tol=0.0)
                h2 = cg(A, b, k, backend="low_memory", mode=mode, tol=0.0)
                assert h1.k == h2.k == k
                assert h1.termination == h2.termination
                assert np.array_equal(h1.residual_norms, h2.residual_norms)
                for x1, x2 in zip(h1.iterates, h2.iterates):
                    assert np.array_equal(x1, x2)
        # Indefinite: T_3 is the whole operator, so step 3 is exact.
        np.testing.assert_allclose(h2.iterates[2], [-1.0, 0.5, 1 / 3], atol=1e-14)
        for backend in ("tridiagonal", "low_memory"):
            with pytest.raises(ValueError):
                cg(A, b, 0, backend=backend)

    def test_direction_conjugacy(self):
        rng = np.random.default_rng(2)
        d = 25
        M, _ = spd_matrix(rng, d)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        for backend in ("tridiagonal", "low_memory"):
            hist = cg(A, b, 12, backend=backend, tol=0.0)
            # The steps x_n - x_{n-1} (x_{-1} = 0) are the search directions.
            P = np.diff(np.column_stack([np.zeros(d), *hist.iterates]), axis=1)
            G = P.T @ M @ P
            off = G - np.diag(np.diag(G))
            assert np.abs(off).max() <= 1e-8 * np.abs(np.diag(G)).max()

    def test_breakdown_is_recorded(self):
        # Two distinct eigenvalues: the recurrence breaks down at step 2.
        A = LinearOperator.diagonal([1.0, 1.0, 4.0])
        b = np.array([1.0, 2.0, 3.0])
        hists = [
            cg(A, b, 3, tol=0.0),
            cg(A, b, 3, backend="low_memory", tol=0.0),
            minres(A, b, 3, tol=0.0),
            *multi_shift_solve(A, b, [-1.0, 0.5 + 1.0j], 3, tol=0.0),
        ]
        for hist in hists:
            assert hist.k == 2
            assert hist.termination == "breakdown"

    @pytest.mark.parametrize("mode", [ReorthMode.NONE, ReorthMode.FULL])
    def test_breakdown_at_the_cap_is_one(self, mode):
        # Three distinct eigenvalues and k = 3: the run breaks down at its
        # last step, and every reader of it reports the kind it recorded.
        A = LinearOperator.diagonal([1.0, 2.0, 3.0])
        b = np.ones(3)
        kw = dict(mode=mode, tol=None)
        kinds = [
            lanczos(A, b, 3, mode=mode).termination,
            cg(A, b, 3, **kw).termination,
            cg(A, b, 3, backend="low_memory", **kw).termination,
            minres(A, b, 3, **kw).termination,
            *(h.termination for h in multi_shift_solve(A, b, [0.5, 1j], 3, **kw)),
            block_lanczos(A, b[:, None], 3, mode=mode).termination,
            block_cg(A, b[:, None], 3, mode=mode).termination,
        ]
        assert kinds == ["breakdown"] * 8

    def test_residual_error_sandwich(self):
        # sqrt(1/lam_max) ||r|| <= ||x - x*||_A <= sqrt(1/lam_min) ||r||.
        rng = np.random.default_rng(3)
        d = 30
        M, vals = spd_matrix(rng, d, 2.0, 50.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        x_star = np.linalg.solve(M, b)
        hist = cg(A, b, 8, tol=0.0)
        for x, rnorm in zip(hist.iterates, hist.residual_norms):
            err = x - x_star
            anorm = np.sqrt(err @ M @ err)
            assert rnorm / np.sqrt(vals.max()) <= anorm * (1 + 1e-8) + 1e-12
            assert anorm <= rnorm / np.sqrt(vals.min()) * (1 + 1e-8) + 1e-12

    def test_singular_step_leaves_later_steps_intact(self):
        # T_1 = [0] is singular; T_2 is not, so step 2 is the exact solve.
        A = LinearOperator.diagonal([-1.0, 1.0])
        hist = cg(A, np.ones(2), 2, tol=0.0)
        assert hist.iterates[0] is None
        assert np.isnan(hist.residual_norms[0])
        np.testing.assert_allclose(hist.iterates[1], [-1.0, 1.0], atol=1e-12)

    def test_monotone_a_norm_error(self):
        rng = np.random.default_rng(4)
        d = 30
        M, _ = spd_matrix(rng, d)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        x_star = np.linalg.solve(M, b)
        hist = cg(A, b, 12, tol=0.0)
        anorms = [
            np.sqrt((x - x_star) @ M @ (x - x_star)) for x in hist.iterates
        ]
        for prev, cur in zip(anorms[:-1], anorms[1:]):
            assert cur <= prev * (1 + 1e-10) + 1e-12


class TestMinres:
    def test_identity(self):
        A = LinearOperator.diagonal(np.ones(4))
        b = np.ones(4)
        hist = minres(A, b, 4)
        assert hist.termination == "converged"
        np.testing.assert_allclose(hist.final, b, atol=1e-12)

    def test_optimality_residual_norm(self):
        rng = np.random.default_rng(5)
        d = 25
        vals = np.linspace(-5, 5, d)  # indefinite
        Q0, _ = np.linalg.qr(rng.standard_normal((d, d)))
        M = Q0 @ np.diag(vals) @ Q0.T
        M = 0.5 * (M + M.T)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        hist = minres(A, b, 10, tol=0.0)
        for j, x in enumerate(hist.iterates, start=1):
            Q = krylov_basis(M, b, j)
            y, *_ = np.linalg.lstsq(M @ Q, b, rcond=None)
            r_opt = np.linalg.norm(b - M @ (Q @ y))
            r = np.linalg.norm(b - M @ x)
            assert r <= r_opt * (1 + 1e-8) + 1e-10

    def test_ill_conditioned_indefinite_matches_least_squares(self):
        rng = np.random.default_rng(21)
        vals = np.array([-2.0, -1.0, -1e-9, 1e-9, 0.5, 1.0, 3.0, 4.0])
        Q0, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        M = Q0 @ np.diag(vals) @ Q0.T
        M = 0.5 * (M + M.T)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(8)
        hist = minres(A, b, 8, tol=0.0)
        assert hist.residual_norms[-1] <= 1e-5 * np.linalg.norm(b)
        Q = lanczos(A, b, 8).basis
        for j, x in enumerate(hist.iterates, start=1):
            y, *_ = np.linalg.lstsq(M @ Q[:, :j], b, rcond=None)
            opt = Q[:, :j] @ y
            assert np.linalg.norm(x - opt) <= 1e-5 * np.linalg.norm(opt)

    def test_monotone_residuals(self):
        rng = np.random.default_rng(6)
        d = 30
        M, _ = spd_matrix(rng, d)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        hist = minres(A, b, 12, tol=0.0)
        r = hist.residual_norms
        assert np.all(np.diff(r) <= 1e-10 * r[0])

    def test_minres_below_cg_residual(self):
        rng = np.random.default_rng(7)
        d = 30
        M, _ = spd_matrix(rng, d)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        h_m = minres(A, b, 10, tol=0.0)
        h_c = cg(A, b, 10, tol=0.0)
        n = min(h_m.k, h_c.k)
        for j in range(n):
            assert h_m.residual_norms[j] <= h_c.residual_norms[j] * (1 + 1e-8)


class TestMultiShift:
    def test_matches_single_shift_solves(self):
        rng = np.random.default_rng(8)
        d, k = 40, 25
        M, _ = spd_matrix(rng, d, 1.0, 50.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        shifts = [-1.0, -5.0, -20.0, 0.5, -0.3]
        hists = multi_shift_solve(A, b, shifts, k, method="cg")
        for z, hist in zip(shifts, hists):
            # Per step, the shared-basis iterate equals the iterate of a
            # dedicated CG run on the shifted system.
            shifted = LinearOperator.from_matrix(M - z * np.eye(d))
            single = cg(shifted, b, k, tol=0.0)
            for j in range(min(hist.k, single.k)):
                scale = max(np.linalg.norm(single.iterates[j]), 1.0)
                assert (
                    np.abs(hist.iterates[j] - single.iterates[j]).max()
                    <= 1e-12 * scale
                )

    def test_complex_shift(self):
        rng = np.random.default_rng(9)
        d, k = 20, 20
        M, _ = spd_matrix(rng, d, 1.0, 10.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        z = 0.5 + 2.0j
        (hist,) = multi_shift_solve(A, b, [z], k)
        x_direct = np.linalg.solve(M - z * np.eye(d), b.astype(complex))
        assert np.abs(hist.final - x_direct).max() <= 1e-9 * np.linalg.norm(
            x_direct
        )

    def test_minres_variant(self):
        rng = np.random.default_rng(10)
        d, k = 25, 25
        M, _ = spd_matrix(rng, d, 1.0, 20.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        hists = multi_shift_solve(A, b, [-1.0, -2.0], k, method="minres")
        for z, hist in zip([-1.0, -2.0], hists):
            x_direct = np.linalg.solve(M - z * np.eye(d), b)
            assert (
                np.abs(hist.final - x_direct).max()
                <= 1e-9 * np.linalg.norm(x_direct)
            )

    def test_singular_shifted_step_is_only_a_gap(self):
        # T_1 - 2 = 0 exactly: step 1 is a gap, step 2 the exact solve.
        A = LinearOperator.diagonal([1.0, 3.0])
        (hist,) = multi_shift_solve(A, np.ones(2), [2.0], 2, method="cg")
        assert hist.iterates[0] is None
        assert np.isnan(hist.residual_norms[0])
        np.testing.assert_allclose(hist.iterates[1], [-1.0, 1.0], atol=1e-12)

    def test_empty_shift_list_rejected(self):
        op, calls = counting(LinearOperator.diagonal([1.0, 2.0]))
        with pytest.raises(ValueError, match="at least one shift"):
            multi_shift_solve(op, np.ones(2), [], 2)
        assert calls[0] == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
    def test_non_finite_shift_rejected(self, bad):
        # Not k steps and their residual matvecs ending in NaN norms.
        op, calls = counting(LinearOperator.diagonal([1.0, 2.0]))
        with pytest.raises(ValueError, match="shifts must be finite"):
            multi_shift_solve(op, np.ones(2), [-1.0, bad], 2)
        assert calls[0] == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_shift_family_rejects_non_finite(self, bad):
        for shifts, weights in (([bad, 1.0], [0.5, 0.5]), ([-1.0, 1.0], [0.5, bad])):
            with pytest.raises(ValueError, match="must be finite"):
                ShiftFamily(shifts, weights)

    def test_shift_family_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ShiftFamily([1.0, 1.0], [0.5, 0.5])

    def test_shift_family_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="matching length"):
            ShiftFamily([1.0, 2.0], [0.5])


class TestOperatorCalls:
    # One Lanczos matvec per step plus one explicit residual per reported
    # step and shift; nothing else may apply the operator.
    K = 15

    def _problem(self):
        rng = np.random.default_rng(22)
        M, _ = spd_matrix(rng, 40, 1.0, 1e3)
        return LinearOperator.from_matrix(M), rng.standard_normal(40)

    @pytest.mark.parametrize(
        "solve, message",
        [
            (lambda A, b: cg(A, b, 3, backend="dense"), "unknown backend 'dense'"),
            (lambda A, b: multi_shift_solve(A, b, [1.0], 3, method="gmres"),
             "unknown method 'gmres'"),
            (lambda A, b: preconditioned_solve(A, A, b, 3, method="gmres"),
             "unknown method 'gmres'"),
        ],
        ids=["cg-backend", "multi-shift-method", "preconditioned-method"],
    )
    def test_unknown_option_rejected_before_any_call(self, solve, message):
        A, b = self._problem()
        op, calls = counting(A)
        with pytest.raises(ValueError, match=message):
            solve(op, b)
        assert calls[0] == 0

    def test_cg_and_minres(self):
        A, b = self._problem()
        for solve in (cg, minres):
            op, calls = counting(A)
            hist = solve(op, b, self.K, tol=0.0)
            assert hist.k == self.K
            assert calls[0] == 2 * self.K

    def test_multi_shift(self):
        A, b = self._problem()
        op, calls = counting(A)
        for method in ("cg", "minres"):
            calls[0] = 0
            multi_shift_solve(op, b, [-0.5, -2.0, -8.0], self.K, method=method)
            assert calls[0] == self.K + 3 * self.K

    def test_multi_shift_stops_each_shift_at_convergence(self):
        # A converged shift costs no further residual, and no Lanczos step
        # runs past the last shift to converge (no gaps: SPD, shifts < 0).
        A, b = self._problem()
        op, calls = counting(A)
        for method in ("cg", "minres"):
            for mode in (ReorthMode.NONE, ReorthMode.FULL):
                calls[0] = 0
                hists = multi_shift_solve(
                    op, b, [-0.5, -2.0, -8.0], self.K, method=method,
                    mode=mode, tol=0.5,
                )
                ks = [h.k for h in hists]
                assert all(h.termination == "converged" for h in hists)
                assert max(ks) < self.K
                assert calls[0] == max(ks) + sum(ks)

    def test_low_memory_cg(self):
        A, b = self._problem()
        op, calls = counting(A)
        hist = cg(
            op, b, self.K, backend="low_memory", mode=ReorthMode.NONE, tol=0.0
        )
        assert hist.k == self.K
        assert calls[0] == 2 * self.K
        # Converged at step j < K: no Lanczos step past j is computed.
        calls[0] = 0
        hist = cg(
            op, b, self.K, backend="low_memory", mode=ReorthMode.NONE, tol=0.5
        )
        assert hist.termination == "converged" and hist.k < self.K
        assert calls[0] == 2 * hist.k

    def test_minres_stops_at_convergence(self):
        A, b = self._problem()
        op, calls = counting(A)
        for mode in (ReorthMode.NONE, ReorthMode.FULL):
            calls[0] = 0
            hist = minres(op, b, self.K, mode=mode, tol=0.5)
            assert hist.termination == "converged" and hist.k < self.K
            assert calls[0] == 2 * hist.k

    SOLVES = {
        "cg": lambda op, b, k, **kw: [cg(op, b, k, **kw)],
        "cg-low-memory": lambda op, b, k, **kw: [cg(op, b, k, backend="low_memory", **kw)],
        "minres": lambda op, b, k, **kw: [minres(op, b, k, **kw)],
        "multi-shift-cg": lambda op, b, k, **kw: multi_shift_solve(
            op, b, [-0.5, -2.0, -8.0], k, method="cg", **kw
        ),
        "multi-shift-minres": lambda op, b, k, **kw: multi_shift_solve(
            op, b, [-0.5, -2.0, -8.0], k, method="minres", **kw
        ),
    }

    @pytest.mark.parametrize("mode", [ReorthMode.NONE, ReorthMode.FULL])
    @pytest.mark.parametrize("name", list(SOLVES))
    def test_tol_none_computes_no_residual(self, name, mode):
        # No stopping test: k calls for any number of shifts, NaN residual
        # norms, and the tol=0.0 call's iterates bit for bit.
        A, b = self._problem()
        op, calls = counting(A)
        hists = self.SOLVES[name](op, b, self.K, mode=mode, tol=None)
        assert calls[0] == self.K
        refs = self.SOLVES[name](op, b, self.K, mode=mode, tol=0.0)
        assert len(hists) == len(refs)
        for hist, ref in zip(hists, refs):
            assert hist.termination == "max_iter" and hist.k == ref.k == self.K
            assert np.isnan(hist.residual_norms).all()
            for x, y in zip(hist.iterates, ref.iterates):
                assert x.dtype == y.dtype and np.array_equal(x, y)


class TestNonFiniteOperator:
    # Raised, not reported as "max_iter" with all-NaN residuals.
    def _op(self, nan_after, after):
        return nan_after(LinearOperator.diagonal(np.linspace(1.0, 2.0, 10)), after)

    @pytest.mark.parametrize("backend", ["tridiagonal", "low_memory"])
    def test_cg(self, nan_after, backend):
        for after in (0, 3):
            with pytest.raises(NonFiniteOperator):
                cg(self._op(nan_after, after), np.ones(10), 6, backend=backend)

    def test_minres(self, nan_after):
        with pytest.raises(NonFiniteOperator):
            minres(self._op(nan_after, 0), np.ones(10), 6)

    @pytest.mark.parametrize("method", ["cg", "minres"])
    def test_multi_shift(self, nan_after, method):
        with pytest.raises(NonFiniteOperator):
            multi_shift_solve(
                self._op(nan_after, 0), np.ones(10), [-1.0, 1j], 6, method=method
            )


class TestMultiShiftMemory:
    @pytest.mark.parametrize(
        "d, chunked", [(20_000, False), (2 * krylov.core._CHUNK + 3, True)], ids=["whole", "chunked"]
    )
    def test_peak_does_not_grow_with_k(self, d, chunked, monkeypatch):
        # Without reorthogonalization or kept iterates, the shifts' lockstep
        # Givens QR states are the only long vectors besides the recurrence,
        # on whole-vector updates and, with the gate lowered, on chunked ones.
        if chunked:
            monkeypatch.setattr(krylov.core, "_OWN_MIN", d)
        A = LinearOperator.diagonal(np.linspace(1.0, 10.0, d))
        b = np.ones(d)
        peaks = []
        for k in (20, 80):
            tracemalloc.start()
            try:
                multi_shift_solve(
                    A, b, [-0.5, -1.0, 0.5j, -2.0], k,
                    mode=ReorthMode.NONE, keep_iterates=False, tol=0.0,
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 60 more steps may not cost even two more length-d vectors.
        assert peaks[1] - peaks[0] < 2 * 8 * d


class TestLowMemoryFinal:
    # keep_iterates=False keeps each shift's last reported iterate only, so
    # the O(1)-memory solve still returns its answer.
    def _problem(self):
        rng = np.random.default_rng(23)
        vals = np.concatenate([np.linspace(-3.0, -0.5, 10), np.linspace(0.5, 4.0, 30)])
        return LinearOperator.diagonal(vals), rng.standard_normal(40)

    def test_history_of_gaps_has_no_final(self):
        # T_1 = [alpha_1] with alpha_1 a rounding error: the one step is a gap.
        hist = cg(LinearOperator.diagonal([-1.0, 1.0]), np.ones(2), 1)
        assert hist.iterates == [None]
        with pytest.raises(InsufficientIterates, match="no successful iterate"):
            hist.final

    @pytest.mark.parametrize("mode", [ReorthMode.NONE, ReorthMode.FULL])
    @pytest.mark.parametrize("tol", [1e-8, 0.0, None])
    def test_cg_final_is_the_stored_backends(self, mode, tol):
        A, b = self._problem()
        low = cg(A, b, 30, backend="low_memory", mode=mode, tol=tol, keep_iterates=False)
        ref = cg(A, b, 30, mode=mode, tol=tol)
        assert sum(x is not None for x in low.iterates) == 1
        assert np.array_equal(low.final, ref.final)
        np.testing.assert_array_equal(low.residual_norms, ref.residual_norms)

    @pytest.mark.parametrize("mode", [ReorthMode.NONE, ReorthMode.FULL])
    @pytest.mark.parametrize("method", ["cg", "minres"])
    def test_multi_shift_finals_are_the_kept_ones(self, mode, method):
        A, b = self._problem()
        shifts = [0.0, 0.25, -1.0 + 0.5j]
        kw = dict(method=method, mode=mode, tol=1e-6)
        low = multi_shift_solve(A, b, shifts, 30, keep_iterates=False, **kw)
        ref = multi_shift_solve(A, b, shifts, 30, **kw)
        for h, r in zip(low, ref):
            assert h.termination == r.termination and h.k == r.k
            assert np.array_equal(h.final, r.final)

    def test_delay_estimate_still_needs_every_iterate(self):
        A, b = self._problem()
        hist = cg(A, b, 20, backend="low_memory", tol=0.0, keep_iterates=False)
        with pytest.raises(InsufficientIterates):
            error_estimate_delay(hist, A, 1)


class TestPreconditioned:
    def test_perfect_preconditioner_one_step(self):
        vals = np.array([1.0, 4.0, 9.0, 16.0])
        A = LinearOperator.diagonal(vals)
        M = LinearOperator.diagonal(1.0 / np.sqrt(vals))
        b = np.ones(4)
        hist = preconditioned_solve(A, M, b, 4)
        assert hist.k == 1
        np.testing.assert_allclose(hist.final, b / vals, atol=1e-12)

    def test_original_system_residuals(self):
        rng = np.random.default_rng(11)
        d = 30
        vals = np.geomspace(1.0, 1e4, d)
        A = LinearOperator.diagonal(vals)
        M = LinearOperator.diagonal(1.0 / np.sqrt(vals + 1.0))
        b = rng.standard_normal(d)
        hist = preconditioned_solve(A, M, b, 20)
        for x, r in zip(hist.iterates, hist.residual_norms):
            assert abs(np.linalg.norm(b - vals * x) - r) <= 1e-10 * hist.b_norm

    def test_preconditioning_accelerates(self):
        rng = np.random.default_rng(12)
        d = 80
        vals = np.geomspace(1.0, 1e4, d)
        A = LinearOperator.diagonal(vals)
        M = LinearOperator.diagonal(1.0 / np.sqrt(vals + 1.0))
        b = rng.standard_normal(d)
        k = 12
        plain = cg(A, b, k, tol=0.0)
        prec = preconditioned_solve(A, M, b, k)
        assert prec.residual_norms[-1] < plain.residual_norms[-1] * 0.1


    @pytest.mark.parametrize("method", ["cg", "minres"])
    def test_operator_calls(self, method):
        # Per step one product with A and two with M in the recurrence,
        # then M y and one residual on the original system; plus M b once.
        # The wrapped system's own residuals are never formed.
        vals = np.geomspace(1.0, 1e4, 40)
        A, a_calls = counting(LinearOperator.diagonal(vals))
        M, m_calls = counting(LinearOperator.diagonal(vals**-0.25))
        b = np.random.default_rng(13).standard_normal(40)
        hist = preconditioned_solve(A, M, b, 10, method=method)
        assert hist.termination == "max_iter" and hist.k == 10
        assert (a_calls[0], m_calls[0]) == (20, 31)

    @pytest.mark.parametrize("method", ["cg", "minres"])
    def test_converged_on_original_residuals(self, method):
        vals = np.geomspace(1.0, 1e4, 60)
        A = LinearOperator.diagonal(vals)
        M = LinearOperator.diagonal(vals**-0.25)
        b = np.random.default_rng(14).standard_normal(60)
        hist = preconditioned_solve(A, M, b, 60, method=method)
        tol = DEFAULT_TOL * hist.b_norm
        assert hist.termination == "converged"
        assert hist.residual_norms[-1] <= tol
        assert (hist.residual_norms[:-1] > tol).all()


class TestChebyshevBound:
    def test_kappa_one_is_zero(self):
        assert chebyshev_bound("full_interval", {"lam_min": 2.0, "lam_max": 2.0}, 3) == 0.0

    def test_k_zero_is_one(self):
        assert chebyshev_bound("full_interval", {"lam_min": 1.0, "lam_max": 9.0}, 0) == pytest.approx(1.0)

    def test_two_term_below_exponential_estimate(self):
        for kappa in (10.0, 100.0, 1e4):
            rho = (np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)
            for k in (1, 5, 20, 50):
                sharp = chebyshev_bound(
                    "full_interval", {"lam_min": 1.0, "lam_max": kappa}, k
                )
                assert sharp <= 2 * rho**k + 1e-300

    def test_full_interval_bounds_cg(self):
        # ||x_k - x*||_A / ||x*||_A is bounded by the Chebyshev value.
        rng = np.random.default_rng(13)
        d = 60
        M, vals = spd_matrix(rng, d, 1.0, 100.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        x_star = np.linalg.solve(M, b)
        a0 = np.sqrt(x_star @ M @ x_star)
        hist = cg(A, b, 15, tol=0.0)
        params = {"lam_min": vals.min(), "lam_max": vals.max()}
        for j, x in enumerate(hist.iterates, start=1):
            err = x - x_star
            ratio = np.sqrt(err @ M @ err) / a0
            assert ratio <= chebyshev_bound("full_interval", params, j) * (1 + 1e-8)

    def test_top_cluster_bounds_cg_with_outlier(self):
        rng = np.random.default_rng(14)
        d = 60
        vals = np.concatenate([np.linspace(1.0, 10.0, d - 1), [1e4]])
        A = LinearOperator.diagonal(vals)
        b = rng.standard_normal(d)
        x_star = b / vals
        a0 = np.sqrt(x_star @ (vals * x_star))
        hist = cg(A, b, 25, tol=0.0)
        params = {"lam_min": 1.0, "lam_next": 10.0, "ell": 1}
        for j, x in enumerate(hist.iterates, start=1):
            err = x - x_star
            ratio = np.sqrt(err @ (vals * err)) / a0
            assert ratio <= chebyshev_bound("top_cluster", params, j) * (1 + 1e-8)

    def test_top_cluster_short_degree_is_one(self):
        params = {"lam_min": 1.0, "lam_next": 10.0, "ell": 3}
        assert chebyshev_bound("top_cluster", params, 2) == 1.0

    def test_two_interval_validation(self):
        with pytest.raises(InvalidInterval):
            chebyshev_bound(
                "two_interval", {"a": -3.0, "b": -1.0, "c": 1.0, "d": 4.0}, 5
            )
        val = chebyshev_bound(
            "two_interval", {"a": -3.0, "b": -1.0, "c": 1.0, "d": 3.0}, 10
        )
        assert 0.0 < val < 2.0

    def test_two_interval_bounds_minres_error(self):
        rng = np.random.default_rng(15)
        half = 40
        pos = np.linspace(1.0, 3.0, half)
        vals = np.concatenate([-pos, pos])
        A = LinearOperator.diagonal(vals)
        b = rng.standard_normal(2 * half)
        x_star = b / vals
        a_sq = np.abs(vals)
        a0 = np.sqrt(x_star @ (a_sq * x_star))
        hist = minres(A, b, 20, tol=0.0)
        params = {"a": -3.0, "b": -1.0, "c": 1.0, "d": 3.0}
        for j, x in enumerate(hist.iterates, start=1):
            err = x - x_star
            ratio = np.sqrt(err @ (a_sq * err)) / a0
            assert ratio <= chebyshev_bound("two_interval", params, j) * (1 + 1e-6)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            chebyshev_bound("nope", {}, 1)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            chebyshev_bound("full_interval", {"lam_min": 1.0, "lam_max": 9.0}, -1)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("full_interval", {"lam_min": 0.0, "lam_max": 9.0}, "0 < lam_min <= lam_max"),
            ("full_interval", {"lam_min": 9.0, "lam_max": 1.0}, "0 < lam_min <= lam_max"),
            ("top_cluster", {"lam_min": 5.0, "lam_next": 2.0, "ell": 1},
             "0 < lam_min <= lam_next"),
            ("two_interval", {"a": -3.0, "b": 1.0, "c": 2.0, "d": 3.0}, "a <= b < 0 < c <= d"),
        ],
    )
    def test_invalid_interval_rejected(self, kind, params, message):
        with pytest.raises(InvalidInterval, match=message):
            chebyshev_bound(kind, params, 5)


class TestErrorEstimateDelay:
    def test_lower_bound_on_a_norm_error(self):
        rng = np.random.default_rng(16)
        d = 40
        M, _ = spd_matrix(rng, d, 1.0, 1e3)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        x_star = np.linalg.solve(M, b)
        hist = cg(A, b, 20, tol=0.0)
        delay = 4
        est = error_estimate_delay(hist, A, delay)
        for j, e in enumerate(est):
            err = hist.iterates[j] - x_star
            anorm = np.sqrt(err @ M @ err)
            assert e <= anorm * (1 + 1e-8) + 1e-12

    def test_ratio_approaches_one_with_delay(self):
        rng = np.random.default_rng(17)
        d = 40
        M, _ = spd_matrix(rng, d, 1.0, 1e3)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        x_star = np.linalg.solve(M, b)
        hist = cg(A, b, 25, tol=0.0)
        j = 5
        err = hist.iterates[j] - x_star
        anorm = np.sqrt(err @ M @ err)
        small = error_estimate_delay(hist, A, 1)[j] / anorm
        large = error_estimate_delay(hist, A, 19)[j] / anorm
        assert large > small
        assert large >= 0.99

    def test_requires_enough_iterates(self):
        A = LinearOperator.diagonal([1.0, 2.0])
        hist = cg(A, np.ones(2), 2, tol=0.0)
        with pytest.raises(InsufficientIterates):
            error_estimate_delay(hist, A, 5)

    @pytest.mark.parametrize("delay", [0, -1])
    def test_lookahead_below_one_rejected(self, delay):
        A = LinearOperator.diagonal([1.0, 2.0, 3.0])
        hist = cg(A, np.ones(3), 3, tol=0.0)
        op, calls = counting(A)
        with pytest.raises(ValueError, match="at least 1"):
            error_estimate_delay(hist, op, delay)
        assert calls[0] == 0

    def test_complex_iterates_rejected(self):
        # Not the real part of a complex quadratic form, with a ComplexWarning.
        A = LinearOperator.diagonal([1.0, 2.0, 3.0])
        (hist,) = multi_shift_solve(A, np.ones(3), [1 + 1j], 3, tol=0.0)
        op, calls = counting(A)
        with pytest.raises(ValueError, match="real iterates"):
            error_estimate_delay(hist, op, 1)
        assert calls[0] == 0


class TestBlockCG:
    def test_width_one_matches_cg(self):
        rng = np.random.default_rng(18)
        d = 25
        M, _ = spd_matrix(rng, d, 1.0, 50.0)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        blk = block_cg(A, b[:, None], 8)
        single = cg(A, b, 8, tol=0.0)
        for j in range(min(len(blk.iterates), single.k)):
            assert (
                np.abs(blk.iterates[j][:, 0] - single.iterates[j]).max()
                <= 1e-8 * np.linalg.norm(single.iterates[j])
            )
        # Indefinite, T_1 = [alpha_1] ~ 1e-16: a gap at step 1 in both, not
        # a block iterate of norm 1.7e15.
        A = LinearOperator.diagonal([-1.0, 1.0 + 1e-15, 2.0, 3.0])
        b = np.array([1.0, 1.0, 0.0, 0.0])
        blk = block_cg(A, b[:, None], 2)
        single = cg(A, b, 2, tol=None)
        assert blk.iterates[0] is None and single.iterates[0] is None
        assert np.isnan(blk.residual_norms[0]).all()
        np.testing.assert_allclose(blk.iterates[1][:, 0], single.iterates[1], rtol=1e-12)

    def test_block_no_worse_than_single(self):
        # Each column of the block iterate is at least as accurate in the
        # A-norm as the single-vector CG iterate for that column.
        rng = np.random.default_rng(19)
        d, m, k = 40, 3, 8
        M, _ = spd_matrix(rng, d, 1.0, 100.0)
        A = LinearOperator.from_matrix(M)
        B = rng.standard_normal((d, m))
        X_star = np.linalg.solve(M, B)
        blk = block_cg(A, B, k)
        for c in range(m):
            single = cg(A, B[:, c], k, tol=0.0)
            err_s = single.iterates[k - 1] - X_star[:, c]
            err_b = blk.iterates[k - 1][:, c] - X_star[:, c]
            a_s = np.sqrt(err_s @ M @ err_s)
            a_b = np.sqrt(err_b @ M @ err_b)
            assert a_b <= a_s * (1 + 1e-8) + 1e-12

    def test_converges(self):
        rng = np.random.default_rng(20)
        d, m = 20, 2
        M, _ = spd_matrix(rng, d, 1.0, 10.0)
        A = LinearOperator.from_matrix(M)
        B = rng.standard_normal((d, m))
        blk = block_cg(A, B, 12)
        assert blk.residual_norms[-1].max() <= 1e-8 * np.linalg.norm(B)

    def test_breakdown_is_recorded(self):
        # span{e1, e2} is invariant: block Lanczos stops after one step.
        A = LinearOperator.diagonal([1.0, 2.0, 3.0, 4.0])
        blk = block_cg(A, np.eye(4)[:, :2], 5)
        assert len(blk.iterates) == 1
        assert blk.termination == "breakdown"
        assert blk.residual_norms[-1].max() <= 1e-14
