import sys

import numpy as np
import pytest

from krylov.core import LinearOperator
from krylov.errors import NonFiniteOperator, ZeroStartBlock, ZeroStartVector
from krylov.lanczos import (
    BREAKDOWN_RTOL,
    ReorthMode,
    _Basis,
    _Recurrence,
    block_lanczos,
    krylov_grade,
    lanczos,
)
from krylov.matfunc import (
    block_lanczos_fa,
    block_lanczos_qf,
    lanczos_fa,
    lanczos_qf,
    two_pass_lanczos_fa,
)
from krylov.orthopoly import DiscreteMeasure, stieltjes
from krylov.solvers import block_cg, cg, minres, multi_shift_solve, preconditioned_solve
from helpers import counting


def random_symmetric(rng, d):
    M = rng.standard_normal((d, d))
    return 0.5 * (M + M.T)


class TestLanczos:
    @pytest.mark.parametrize("mode", [ReorthMode.NONE, ReorthMode.FULL])
    @pytest.mark.parametrize("after", [0, 3])
    def test_nan_operator_raises(self, nan_after, mode, after):
        # Raised, not reported as "max_iter" with a NaN basis.
        A = nan_after(LinearOperator.diagonal(np.linspace(1.0, 2.0, 10)), after)
        with pytest.raises(NonFiniteOperator):
            lanczos(A, np.ones(10), 6, mode=mode)

    def test_zero_start(self):
        A = LinearOperator.diagonal([1.0, 2.0])
        with pytest.raises(ZeroStartVector):
            lanczos(A, np.zeros(2), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_rejected_before_any_matvec(self, bad):
        # A ValueError on b, not NonFiniteOperator after one call.
        op, calls = counting(LinearOperator.diagonal([1.0, 2.0, 3.0]))
        b = np.array([1.0, bad, 1.0])
        for run in (lanczos, cg):
            with pytest.raises(ValueError, match="starting vector norm is not finite"):
                run(op, b, 3)
        assert calls[0] == 0

    def test_eigenvector_start_breaks_down(self):
        A = LinearOperator.diagonal([4.0, 2.0, 1.0])
        e1 = np.array([1.0, 0.0, 0.0])
        dec = lanczos(A, e1, 3)
        assert dec.T.alphas[0] == pytest.approx(4.0)
        assert dec.termination == "breakdown" and dec.T.size == 1
        assert dec.next_vector is None

    def test_alpha0_is_rayleigh_quotient(self):
        A = LinearOperator.diagonal([0.0, 1.0, 2.0])
        b = np.ones(3) / np.sqrt(3)
        dec = lanczos(A, b, 2)
        assert dec.T.alphas[0] == pytest.approx(1.0, abs=1e-14)

    def test_beta0_derived(self):
        # beta_0 = ||(A - alpha_0 I) q_0|| = sqrt(2/3) for this 3-point
        # spectral measure (independently via the Stieltjes recurrence).
        A = LinearOperator.diagonal([0.0, 1.0, 2.0])
        b = np.ones(3) / np.sqrt(3)
        dec = lanczos(A, b, 2)
        assert dec.T.betas[0] == pytest.approx(np.sqrt(2 / 3), abs=1e-14)

    def test_full_reorth_invariants(self):
        rng = np.random.default_rng(0)
        d, k = 40, 15
        M = random_symmetric(rng, d)
        A = LinearOperator.from_matrix(M)
        b = rng.standard_normal(d)
        dec = lanczos(A, b, k, mode=ReorthMode.FULL)
        Q = dec.basis
        assert np.abs(Q.T @ Q - np.eye(k)).max() <= 1e-10
        R = M @ Q - Q @ dec.T.to_dense()
        R[:, -1] -= dec.trailing_beta * dec.next_vector
        assert np.abs(R).max() <= 1e-10 * np.linalg.norm(M, 2)
        assert np.abs(np.linalg.norm(Q, axis=0) - 1).max() <= 1e-12

    def test_unit_columns_without_reorth(self):
        rng = np.random.default_rng(1)
        d = 60
        vals = np.geomspace(1e-3, 1.0, d)
        A = LinearOperator.diagonal(vals)
        b = rng.standard_normal(d)
        dec = lanczos(A, b, 40, mode=ReorthMode.NONE)
        assert np.abs(np.linalg.norm(dec.basis, axis=0) - 1).max() <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        d = 25
        M = random_symmetric(rng, d)
        b = rng.standard_normal(d)
        z = 0.7
        dec = lanczos(LinearOperator.from_matrix(M), b, 10)
        dec_s = lanczos(LinearOperator.from_matrix(M - z * np.eye(d)), b, 10)
        assert np.abs(dec.T.alphas - z - dec_s.T.alphas).max() <= 1e-12
        assert np.abs(dec.T.betas - dec_s.T.betas).max() <= 1e-12
        assert np.abs(dec.basis - dec_s.basis).max() <= 1e-10

    def test_stieltjes_consistency(self):
        # Lanczos coefficients equal the recurrence coefficients of the
        # discrete spectral measure built from a dense eigendecomposition.
        rng = np.random.default_rng(3)
        d, k = 30, 8
        M = random_symmetric(rng, d)
        b = rng.standard_normal(d)
        b /= np.linalg.norm(b)
        dec = lanczos(LinearOperator.from_matrix(M), b, k)

        vals, vecs = np.linalg.eigh(M)
        weights = (vecs.T @ b) ** 2
        psi = DiscreteMeasure(vals, weights)
        T_st = stieltjes(psi, k)
        assert np.abs(dec.T.alphas - T_st.alphas).max() <= 1e-10
        assert np.abs(dec.T.betas - T_st.betas).max() <= 1e-10
        assert dec.T.betas.min() > 1e-6

    def test_orthogonal_transform_invariance(self):
        rng = np.random.default_rng(4)
        d = 20
        M = random_symmetric(rng, d)
        b = rng.standard_normal(d)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        dec1 = lanczos(LinearOperator.from_matrix(M), b, 8)
        dec2 = lanczos(LinearOperator.from_matrix(Q @ M @ Q.T), Q @ b, 8)
        assert np.abs(dec1.T.alphas - dec2.T.alphas).max() <= 1e-10
        assert np.abs(dec1.T.betas - dec2.T.betas).max() <= 1e-10

    def test_basis_growth_under_a_profile_hook(self):
        # A profile hook holds references that make ndarray.resize refuse
        # to grow the basis in place; the store must still grow, to the
        # same bits.
        import sys

        A = LinearOperator.diagonal(np.linspace(1.0, 2.0, 200))
        b = np.ones(200)
        plain = lanczos(A, b, 40, mode=ReorthMode.FULL)
        hook = sys.getprofile()
        sys.setprofile(lambda *args: None)
        try:
            hooked = lanczos(A, b, 40, mode=ReorthMode.FULL)
        finally:
            sys.setprofile(hook)
        assert np.array_equal(hooked.basis, plain.basis)
        assert np.array_equal(hooked.T.alphas, plain.T.alphas)
        assert np.array_equal(hooked.T.betas, plain.T.betas)

    def test_ritz_containment(self):
        from krylov.core import sym_tridiag_eig

        d = 60
        vals = np.geomspace(1e-3, 1.0, d)
        A = LinearOperator.diagonal(vals)
        b = np.ones(d) / np.sqrt(d)
        for mode, eta in ((ReorthMode.FULL, 1e-12), (ReorthMode.NONE, 1e-8)):
            dec = lanczos(A, b, 40, mode=mode)
            ritz = sym_tridiag_eig(dec.T).eigenvalues
            norm = vals.max()
            assert ritz.min() >= vals.min() - eta * norm
            assert ritz.max() <= vals.max() + eta * norm


class TestReorthogonalize:
    # One classical Gram-Schmidt pass, and a second only where the first
    # left less than 0.717 of a column's norm (the DGKS test).
    D, N = 50, 6

    def _basis(self, rng):
        V, _ = np.linalg.qr(rng.standard_normal((self.D, self.N)))
        basis = _Basis(self.D, self.N)
        basis.append(V.T)
        return basis, V

    def _near_span(self, rng, V):
        # Within 1e-8 of span(V): one pass leaves an error of about
        # 1e-16 * ||z|| on a remainder of about 1e-8 * ||z||.
        return V @ rng.standard_normal(self.N) + 1e-8 * rng.standard_normal(self.D)

    def test_cancelled_vector_gets_a_second_pass(self):
        rng = np.random.default_rng(30)
        basis, V = self._basis(rng)
        z, ss = basis.reorthogonalize(self._near_span(rng, V))
        assert ss == z @ z
        assert np.abs(V.T @ z).max() <= 1e-14 * np.linalg.norm(z)

    def test_one_cancelled_column_repeats_the_pass_for_the_block(self):
        rng = np.random.default_rng(31)
        basis, V = self._basis(rng)
        Z = rng.standard_normal((self.D, 3))
        Z[:, 1] = self._near_span(rng, V)
        Z, ss = basis.reorthogonalize(Z)
        assert np.array_equal(ss, np.einsum("ij,ij->j", Z, Z))
        assert (np.abs(V.T @ Z).max(axis=0) <= 1e-14 * np.sqrt(ss)).all()

    def test_full_lanczos_makes_one_pass_per_step(self, monkeypatch):
        # Each pass is two products with the stored basis, V @ z and
        # V^T @ (V @ z); count them through a wrapped basis store.
        products = [0]

        class CountingRows(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                products[0] += ufunc is np.matmul
                inputs = [np.asarray(x) for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        class CountingBasis(_Basis):
            @property
            def rows(self):
                return super().rows.view(CountingRows)

        monkeypatch.setattr(sys.modules["krylov.lanczos"], "_Basis", CountingBasis)
        A = LinearOperator.diagonal(np.geomspace(1.0, 1e4, 2000))
        b = np.random.default_rng(32).standard_normal(2000)
        dec = lanczos(A, b, 40, mode=ReorthMode.FULL)
        assert dec.termination == "max_iter" and dec.T.size == 40
        assert products[0] == 2 * 40


class TestRecurrence:
    # _Recurrence.steps() is the one routine that advances a run: each
    # pulled step applies A once, and the last sets the termination kind.

    @pytest.mark.parametrize("mode", [ReorthMode.NONE, ReorthMode.FULL])
    def test_each_pulled_step_applies_A_once(self, mode):
        A, calls = counting(LinearOperator.diagonal(np.linspace(1.0, 2.0, 30)))
        k = 8
        rec = _Recurrence(A, np.ones(30), k, mode=mode)
        steps = rec.steps()
        for j in range(1, k):
            next(steps)
            assert calls[0] == j and rec.termination is None
        next(steps)
        assert calls[0] == k and rec.termination == "max_iter"
        assert next(steps, None) is None and calls[0] == k
        assert len(rec.alphas) == k and len(rec.betas) == k - 1

    @pytest.mark.parametrize("mode", [ReorthMode.NONE, ReorthMode.FULL])
    def test_breakdown_ends_the_steps(self, mode):
        # Three distinct eigenvalues: the Krylov space is full after 3 steps.
        A, calls = counting(LinearOperator.diagonal([1.0, 2.0, 3.0, 3.0, 2.0]))
        rec = _Recurrence(A, np.ones(5), 10, mode=mode)
        got = list(rec.steps())
        assert len(got) == 3 and calls[0] == 3
        assert rec.termination == "breakdown"
        scale = max(np.abs(rec.alphas).max(), *rec.betas)
        assert got[-1][2] <= BREAKDOWN_RTOL * scale

    @pytest.mark.parametrize("stride", [3, 4, 7])
    def test_replay_regenerates_the_stored_basis(self, stride):
        rng = np.random.default_rng(33)
        A = LinearOperator.diagonal(np.geomspace(1e-3, 1.0, 60))
        b, k = rng.standard_normal(60), 11
        stored = _Recurrence(A, b, k, store_basis=True).run()
        rec = _Recurrence(A, b, k, checkpoint_stride=stride).run()
        assert [start for *_, start in rec.checkpoints] == list(range(0, k, stride))
        assert rec.alphas == stored.alphas and rec.betas == stored.betas
        replayed = list(rec.replay())
        assert len(replayed) == k
        for q, row in zip(replayed, stored.basis.rows):
            assert np.array_equal(q, row)


class TestBlockLanczos:
    def test_nan_operator_raises(self, nan_after):
        A = nan_after(LinearOperator.diagonal(np.linspace(1.0, 2.0, 10)), 4)
        B = np.eye(10)[:, :2] + 1.0
        with pytest.raises(NonFiniteOperator):
            block_lanczos(A, B, 4)

    def test_zero_start_block(self):
        A = LinearOperator.diagonal([1.0, 2.0, 3.0])
        with pytest.raises(ZeroStartBlock):
            block_lanczos(A, np.zeros((3, 2)), 2)

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize(
        "call",
        [
            lambda A, B, k: block_lanczos(A, B, k),
            lambda A, B, k: block_lanczos_fa(A, B, np.exp, k),
            lambda A, B, k: block_lanczos_qf(A, B, np.exp, k),
            lambda A, B, k: block_cg(A, B, k),
        ],
        ids=["block_lanczos", "block_lanczos_fa", "block_lanczos_qf", "block_cg"],
    )
    def test_fewer_than_one_step(self, call, k):
        # Not exp(0) B, B^T B or an empty history: rejected before any
        # operator call.
        op, calls = counting(LinearOperator.diagonal(np.linspace(1.0, 2.0, 6)))
        B = np.random.default_rng(17).standard_normal((6, 2))
        with pytest.raises(ValueError, match="k must be at least 1"):
            call(op, B, k)
        assert calls[0] == 0

    @pytest.mark.parametrize("shape", [(6,), (6, 0), (6, 2, 1)])
    def test_start_block_not_d_by_m_rejected(self, shape):
        op, calls = counting(LinearOperator.diagonal(np.linspace(1.0, 2.0, 6)))
        with pytest.raises(ValueError, match="B must be a d x m matrix"):
            block_lanczos(op, np.ones(shape), 3)
        assert calls[0] == 0

    def test_width_one_reduces_to_lanczos(self):
        rng = np.random.default_rng(7)
        d, k = 20, 6
        M = random_symmetric(rng, d)
        b = rng.standard_normal(d)
        A = LinearOperator.from_matrix(M)
        blk = block_lanczos(A, b[:, None], k)
        lan = lanczos(A, b, k)
        alphas = np.array([float(Aj[0, 0]) for Aj in blk.block_diag])
        betas = np.array([float(Bj[0, 0]) for Bj in blk.block_offdiag[: k - 1]])
        assert np.abs(alphas - lan.T.alphas).max() <= 1e-14 * max(abs(M).max(), 1)
        assert np.abs(betas - lan.T.betas).max() <= 1e-13
        # One threshold: a start component of 1e-11 (beta_2 ~ 1e-11 of the
        # scale) ends both runs at step 3.
        A = LinearOperator.diagonal([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.0, 1.0, 1.0, 1e-11])
        for mode in (ReorthMode.NONE, ReorthMode.FULL):
            blk = block_lanczos(A, b[:, None], 4, mode=mode)
            lan = lanczos(A, b, 4, mode=mode)
            assert (len(blk.block_diag), blk.termination) == (3, "breakdown")
            assert (lan.T.size, lan.termination) == (3, "breakdown")

    def test_invariant_subspace_terminates(self):
        A = LinearOperator.diagonal([1.0, 2.0, 3.0, 4.0])
        B = np.zeros((4, 2))
        B[0, 0] = 1.0
        B[1, 1] = 1.0  # spans an invariant 2-dim eigenspace
        dec = block_lanczos(A, B, 3)
        assert dec.total_width == 2
        assert dec.termination == "breakdown" and len(dec.block_diag) == 1

    def test_rotated_invariant_subspace_is_a_breakdown(self):
        # A start block spanning two eigenvectors of a rotated operator:
        # the step-0 residual block is rounding noise against the running
        # coefficient scale, so the run stops there, as lanczos does.
        rng = np.random.default_rng(12)
        d = 8
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        M = U @ np.diag(np.arange(1.0, d + 1)) @ U.T
        A = LinearOperator.from_matrix(0.5 * (M + M.T))
        B = U[:, :2] @ rng.standard_normal((2, 2))
        dec = block_lanczos(A, B, 3)
        assert dec.termination == "breakdown" and len(dec.block_diag) == 1
        assert dec.total_width == 2
        single = lanczos(A, B[:, 0], 3)
        assert single.termination == "breakdown" and single.T.size == 2

    def test_blocks_reconstruct_their_inputs(self):
        # B = Q_0 R_0 and Z_n = A Q_n - Q_n A_n - Q_{n-1} B_{n-1}^T =
        # Q_{n+1} B_n to rounding, also where the start block and a later
        # step deflate (an eigenvector in the start block leaves step 1
        # one column short).
        rng = np.random.default_rng(13)
        d, k = 12, 4
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        M = U @ np.diag(np.geomspace(1.0, 50.0, d)) @ U.T
        M = 0.5 * (M + M.T)
        w = rng.standard_normal(d)
        B = np.column_stack([U[:, 0], w, U[:, 0] + w])
        dec = block_lanczos(LinearOperator.from_matrix(M), B, k)
        assert dec.block_widths == [2, 1, 1, 1]
        offs = np.concatenate(([0], np.cumsum(dec.block_widths)))
        Qs = [dec.basis[:, offs[j] : offs[j + 1]] for j in range(k)]
        tol = 1e-13 * np.linalg.norm(M, 2)
        assert np.abs(B - Qs[0] @ dec.initial_R).max() <= 1e-14 * np.abs(B).max()
        for n in range(k - 1):
            Z = M @ Qs[n] - Qs[n] @ dec.block_diag[n]
            if n:
                Z -= Qs[n - 1] @ dec.block_offdiag[n - 1].T
            assert np.abs(Z - Qs[n + 1] @ dec.block_offdiag[n]).max() <= tol

    def test_one_factorization_per_block(self, monkeypatch):
        import scipy.linalg

        calls = [0]
        qr = scipy.linalg.qr

        def counted(*args, **kwargs):
            calls[0] += 1
            return qr(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("no SVD, 2-norm or second QR")

        rng = np.random.default_rng(14)
        A = LinearOperator.from_matrix(random_symmetric(rng, 30))
        B = rng.standard_normal((30, 3))
        monkeypatch.setattr(scipy.linalg, "qr", counted)
        for name in ("norm", "svd", "qr"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        dec = block_lanczos(A, B, 5)
        assert dec.termination == "max_iter" and len(dec.block_diag) == 5
        # One QR for the start block and one per step, the last included.
        assert calls[0] == len(dec.block_diag) + 1 == 6

    def test_none_mode_matches_full_for_a_few_steps(self):
        # Over a few steps the plain block recurrence has not yet lost
        # orthogonality: its A_n blocks are FULL's to rounding.
        rng = np.random.default_rng(15)
        d, m, k = 60, 3, 4
        M = random_symmetric(rng, d)
        A = LinearOperator.from_matrix(M)
        B = rng.standard_normal((d, m))
        full = block_lanczos(A, B, k, mode=ReorthMode.FULL)
        none = block_lanczos(A, B, k, mode=ReorthMode.NONE)
        assert none.block_widths == full.block_widths == [m] * k
        for An, Af in zip(none.block_diag, full.block_diag, strict=True):
            assert np.abs(An - Af).max() <= 1e-12 * np.linalg.norm(M, 2)

    def test_none_mode_never_reorthogonalizes(self, monkeypatch):
        def forbidden(self, z):
            raise AssertionError("NONE mode reorthogonalized")

        monkeypatch.setattr(_Basis, "reorthogonalize", forbidden)
        rng = np.random.default_rng(16)
        A = LinearOperator.from_matrix(random_symmetric(rng, 30))
        B = rng.standard_normal((30, 3))
        dec = block_lanczos(A, B, 5, mode=ReorthMode.NONE)
        assert dec.termination == "max_iter" and len(dec.block_diag) == 5
        assert len(block_cg(A, B, 5, mode=ReorthMode.NONE).iterates) == 5

    def test_full_rank_with_probability_one(self):
        # Gaussian start block on a spectrum with eigenvalue multiplicity
        # <= block width: the Krylov matrix [B, AB] has full rank.
        rng = np.random.default_rng(8)
        A = LinearOperator.diagonal([1.0, 1.0, 2.0, 2.0])
        B = rng.standard_normal((4, 2))
        dec = block_lanczos(A, B, 2)
        assert dec.total_width == 4
        K = np.column_stack([B, np.diag([1.0, 1.0, 2.0, 2.0]) @ B])
        assert np.linalg.svd(K, compute_uv=False).min() >= 1e-10

    def test_orthonormal_and_reconstruction(self):
        rng = np.random.default_rng(9)
        d, m, k = 30, 3, 5
        M = random_symmetric(rng, d)
        B = rng.standard_normal((d, m))
        dec = block_lanczos(LinearOperator.from_matrix(M), B, k)
        Q = dec.basis
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-8
        T = dec.to_banded_dense()
        R = M @ Q - Q @ T
        # The residual lives only in the trailing block columns.
        w_last = dec.block_widths[-1]
        assert np.abs(R[:, : Q.shape[1] - w_last]).max() <= 1e-8 * np.linalg.norm(M, 2)

    def test_deflation_drops_dependent_columns(self):
        rng = np.random.default_rng(10)
        d = 12
        vals = np.arange(1.0, d + 1)
        A = LinearOperator.diagonal(vals)
        B = rng.standard_normal((d, 2))
        B = np.column_stack([B, B[:, 0] + B[:, 1]])  # rank 2 out of 3
        dec = block_lanczos(A, B, 2)
        assert dec.block_widths[0] == 2

    def test_krylov_nesting(self):
        # Every block basis vector of a run started inside K_{k+1}(A, w)
        # lies in the span of the larger Krylov space K_{k+t}(A, w).
        rng = np.random.default_rng(11)
        d, k, t = 20, 3, 3
        M = random_symmetric(rng, d)
        A = LinearOperator.from_matrix(M)
        w = rng.standard_normal(d)
        start = np.column_stack(
            [w, M @ w, M @ (M @ w)]
        )  # columns inside K_{k+1}(A, w), k = 2
        dec = block_lanczos(A, start, t)
        # dense Krylov basis of K_{k+t}(A, w)
        cols = [w]
        for _ in range(k + t - 1):
            cols.append(M @ cols[-1])
        K, _ = np.linalg.qr(np.column_stack(cols))
        resid = dec.basis - K @ (K.T @ dec.basis)
        assert np.abs(resid).max() <= 1e-8


class TestKrylovGrade:
    def test_identity(self):
        A = LinearOperator.diagonal(np.ones(5))
        assert krylov_grade(A, np.ones(5)) == 1

    def test_distinct_eigenvalues(self):
        A = LinearOperator.diagonal([1.0, 2.0, 3.0])
        assert krylov_grade(A, np.array([1.0, 1.0, 1.0])) == 3

    def test_repeated_eigenvalue(self):
        A = LinearOperator.diagonal([1.0, 1.0, 2.0])
        assert krylov_grade(A, np.ones(3) / np.sqrt(3)) == 2

    def test_basis_storage_grows_with_steps_not_with_k(self):
        # krylov_grade asks for k = dim steps; the basis store must grow
        # with the steps taken, not allocate k x d up front.
        import tracemalloc

        d = 20_000
        A = LinearOperator.diagonal(np.geomspace(1.0, 10.0, d))
        b = np.zeros(d)
        b[[0, d // 2, d - 1]] = 1.0
        tracemalloc.start()
        try:
            grade = krylov_grade(A, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grade == 3
        assert peak < 100 * d * 8  # d^2 * 8 bytes would be 3.2 GB


# Every entry point that takes a start vector b or block B, as
# (A, b, B) -> call; preconditioned_solve gets A as its M too.
COMPLEX_START_CALLS = {
    "_Recurrence": lambda A, b, B: _Recurrence(A, b, 3).run(),
    "lanczos": lambda A, b, B: lanczos(A, b, 3),
    "cg": lambda A, b, B: cg(A, b, 3),
    "cg_low_memory": lambda A, b, B: cg(A, b, 3, backend="low_memory"),
    "minres": lambda A, b, B: minres(A, b, 3),
    "multi_shift_solve": lambda A, b, B: multi_shift_solve(A, b, [0.5, 1j], 3),
    "lanczos_fa": lambda A, b, B: lanczos_fa(A, b, np.exp, 3),
    "lanczos_fa_pitfall": lambda A, b, B: lanczos_fa(A, b, np.exp, 3, formula="pitfall"),
    "two_pass_lanczos_fa": lambda A, b, B: two_pass_lanczos_fa(A, b, np.exp, 3, 2),
    "lanczos_qf": lambda A, b, B: lanczos_qf(A, b, np.exp, 3),
    "preconditioned_solve": lambda A, b, B: preconditioned_solve(A, A, b, 3),
    "block_lanczos": lambda A, b, B: block_lanczos(A, B, 2),
    "block_cg": lambda A, b, B: block_cg(A, B, 2),
    "block_lanczos_fa": lambda A, b, B: block_lanczos_fa(A, B, np.exp, 2),
    "block_lanczos_qf": lambda A, b, B: block_lanczos_qf(A, B, np.exp, 2),
}


@pytest.mark.parametrize("call", COMPLEX_START_CALLS.values(), ids=COMPLEX_START_CALLS.keys())
def test_complex_start_rejected_before_any_operator_call(call):
    # A float cast would run on the real part (with only a ComplexWarning).
    A, calls = counting(LinearOperator.diagonal(np.linspace(1.0, 2.0, 20)))
    b = np.ones(20) + 1j * np.arange(20)
    with pytest.raises(ValueError, match="must be real"):
        call(A, b, np.column_stack([b, np.ones(20)]))
    assert calls[0] == 0
