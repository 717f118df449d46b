import math
import os
import subprocess
import sys

import numpy as np
import pytest

import krylov.core
from krylov.core import (
    LinearOperator,
    SymTridiagonal,
    _CHUNK,
    _apply_block,
    _column_norms,
    _finite_values,
    _norm,
    _scaled_op,
    _spectral_apply,
    _tridiag_eigenvalues,
    sym_tridiag_eig,
    tridiag_apply_function,
    tridiag_solve,
)
from krylov.errors import FunctionDomainError, NonFiniteSample, SingularSystem
from krylov.orthopoly import DiscreteMeasure, cheb_approximant
from krylov.trace import DensityApprox


def random_tridiag(rng, k, positive_betas=True):
    alphas = rng.uniform(-1, 1, k)
    betas = rng.uniform(0.1, 1, k - 1) if positive_betas else rng.uniform(-1, 1, k - 1)
    return SymTridiagonal(alphas, betas)


class TestSymTridiagEig:
    def test_1x1(self):
        eig = sym_tridiag_eig(SymTridiagonal([3.0], []))
        assert eig.eigenvalues[0] == 3.0
        assert eig.eigenvectors[0, 0] == 1.0

    def test_2x2_antidiagonal(self):
        eig = sym_tridiag_eig(SymTridiagonal([0.0, 0.0], [1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(np.abs(eig.eigenvectors), s, atol=1e-14)

    def test_toeplitz_3(self):
        # Brute-force characteristic polynomial oracle:
        # det(xI - T) for T = tridiag(-1, 2, -1), k = 3.
        T = SymTridiagonal([2.0, 2.0, 2.0], [-1.0, -1.0])
        roots = np.sort(np.roots(np.poly(T.to_dense())))
        eig = sym_tridiag_eig(T)
        np.testing.assert_allclose(eig.eigenvalues, roots, atol=1e-10)
        np.testing.assert_allclose(
            eig.eigenvalues, [2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)], atol=1e-12
        )

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(0)
        for k in (1, 2, 5, 20):
            T = random_tridiag(rng, max(k, 1))
            eig = sym_tridiag_eig(T)
            S = eig.eigenvectors
            assert np.abs(S.T @ S - np.eye(T.size)).max() <= 1e-12
            R = S @ np.diag(eig.eigenvalues) @ S.T
            row_sum = np.abs(T.to_dense()).sum(axis=1).max()
            assert np.abs(R - T.to_dense()).max() <= 1e-10 * max(row_sum, 1)

    def test_ascending_and_sign_convention(self):
        rng = np.random.default_rng(1)
        T = random_tridiag(rng, 8)
        eig = sym_tridiag_eig(T)
        assert np.all(np.diff(eig.eigenvalues) >= 0)
        for j in range(8):
            col = eig.eigenvectors[:, j]
            assert col[np.nonzero(col)[0][0]] > 0

    def test_interlacing(self):
        # Eigenvalues of the leading principal submatrix strictly
        # interlace those of the full matrix when all betas > 0.
        rng = np.random.default_rng(2)
        T = random_tridiag(rng, 9)
        full = sym_tridiag_eig(T).eigenvalues
        sub = sym_tridiag_eig(T.principal(8)).eigenvalues
        for i in range(8):
            assert full[i] < sub[i] < full[i + 1]

    def test_eigenvector_polynomial_structure(self):
        # Column for root theta is proportional to the orthonormal
        # polynomial values [p_0(theta), ..., p_{k-1}(theta)] evaluated by
        # the three-term recurrence.
        rng = np.random.default_rng(3)
        T = random_tridiag(rng, 6)
        eig = sym_tridiag_eig(T)
        a, b = T.alphas, T.betas
        for j, theta in enumerate(eig.eigenvalues):
            p = np.empty(6)
            p[0] = 1.0
            p[1] = (theta - a[0]) / b[0]
            for n in range(1, 5):
                p[n + 1] = ((theta - a[n]) * p[n] - b[n - 1] * p[n - 1]) / b[n]
            p /= np.linalg.norm(p)
            col = eig.eigenvectors[:, j]
            assert min(
                np.abs(col - p).max(), np.abs(col + p).max()
            ) <= 1e-8

    @pytest.mark.parametrize("where", ["alphas", "betas"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, where, bad):
        T = random_tridiag(np.random.default_rng(5), 6)
        entries = {"alphas": T.alphas.copy(), "betas": T.betas.copy()}
        entries[where][2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            sym_tridiag_eig(SymTridiagonal(**entries))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("solve", [sym_tridiag_eig, _tridiag_eigenvalues])
    def test_non_finite_1x1_raises(self, solve, bad):
        # The 1-by-1 shortcut runs after the finiteness check, as dstev does.
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(SymTridiagonal([bad], []))

    def test_no_convergence_raises(self, monkeypatch):
        # dstevd's info > 0: the eigensolve failed to converge.
        monkeypatch.setattr(
            krylov.core, "dstevd", lambda d, e: (d.copy(), np.eye(d.size), 2)
        )
        with pytest.raises(np.linalg.LinAlgError):
            sym_tridiag_eig(random_tridiag(np.random.default_rng(6), 4))

    def test_same_bytes_for_any_blas_thread_count(self):
        # Above order 25 dstevd divides and conquers, and multiplies its
        # eigenvector blocks with BLAS-3 dgemm, which OpenBLAS shares out
        # among its threads.
        script = (
            "import hashlib, numpy as np\n"
            "from krylov.core import SymTridiagonal, sym_tridiag_eig\n"
            "rng = np.random.default_rng(7)\n"
            "T = SymTridiagonal(rng.uniform(-1, 1, 300), rng.uniform(0.1, 1, 299))\n"
            "eig = sym_tridiag_eig(T)\n"
            "data = eig.eigenvalues.tobytes() + eig.eigenvectors.tobytes()\n"
            "print(hashlib.sha256(data).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.append(proc.stdout)
        assert digests[0] == digests[1]


class TestTridiagApplyFunction:
    def test_identity_function(self):
        rng = np.random.default_rng(4)
        T = random_tridiag(rng, 7)
        e1 = np.zeros(7)
        e1[0] = 1.0
        np.testing.assert_allclose(
            tridiag_apply_function(T, lambda x: 1.0), e1, atol=1e-13
        )

    def test_linear_function_gives_first_column(self):
        rng = np.random.default_rng(5)
        T = random_tridiag(rng, 5)
        expected = np.zeros(5)
        expected[0] = T.alphas[0]
        expected[1] = T.betas[0]
        np.testing.assert_allclose(
            tridiag_apply_function(T, lambda x: x), expected, atol=1e-12
        )

    def test_square_of_antidiagonal(self):
        T = SymTridiagonal([0.0, 0.0], [1.0])
        np.testing.assert_allclose(
            tridiag_apply_function(T, lambda x: x**2), [1.0, 0.0], atol=1e-14
        )

    def test_polynomial_matches_horner(self):
        rng = np.random.default_rng(6)
        k = 8
        T = random_tridiag(rng, k)
        coeffs = rng.uniform(-1, 1, k)  # degree k-1

        def p(x):
            return np.polynomial.polynomial.polyval(x, coeffs)

        e1 = np.zeros(k)
        e1[0] = 1.0
        # Horner on the matrix: p(T) e1 by repeated tridiagonal products.
        acc = np.zeros(k)
        for c in coeffs[::-1]:
            acc = T.matvec(acc) + c * e1
        got = tridiag_apply_function(T, p)
        assert np.linalg.norm(got - acc) <= 1e-10 * max(np.linalg.norm(acc), 1)

    def test_domain_error(self):
        T = SymTridiagonal([0.0, 0.0], [1.0])  # eigenvalues -1, 1
        with pytest.raises(FunctionDomainError):
            tridiag_apply_function(T, np.sqrt)

    @pytest.mark.parametrize("k", [1, 2, 7, 30])
    def test_bits_of_first_row_product(self, k):
        # V^T e1 is V's first row bit for bit, so the kernel's f(T) e1 is
        # the product with that row.
        T = random_tridiag(np.random.default_rng(k), k)
        eig = sym_tridiag_eig(T)
        V = eig.eigenvectors
        fvals = np.array([np.exp(t) for t in eig.eigenvalues])
        want = V @ (fvals * V[0, :])
        assert tridiag_apply_function(T, np.exp).tobytes() == want.tobytes()


class TestSpectralApply:
    @pytest.mark.parametrize("shape", [(6,), (6, 3)])
    def test_no_vectors_is_the_identity_basis(self, shape):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0.5, 2.0, 6)
        rhs = rng.standard_normal(shape)
        diagonal = _spectral_apply(np.log, vals, None, rhs)
        assert diagonal.shape == shape
        np.testing.assert_array_equal(diagonal, _spectral_apply(np.log, vals, np.eye(6), rhs))

    def test_nan_at_an_eigenvalue_raises(self):
        vals = np.array([1.0, 2.0, 3.0])
        V = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))[0]
        f = lambda x: np.nan if x == 2.0 else x
        with pytest.raises(FunctionDomainError, match=r"not finite at \[2\.\]"):
            _spectral_apply(f, vals, V, np.ones(3))


def horner(x, p=(0.3, -1.2, 0.7, 2.0, -0.4, 1.1)):
    # Horner's rule on a list of coefficients, as kpm-density's test
    # polynomials are written.
    acc = p[-1]
    for coef in p[-2::-1]:
        acc = coef + acc * x
    return acc


def writes_into(x):
    x *= 2.0
    return x


class TestFiniteValues:
    def test_elementwise_f_is_called_once_per_spectrum(self):
        calls = [0]

        def f(x):
            calls[0] += 1
            return np.exp(x)

        tridiag_apply_function(random_tridiag(np.random.default_rng(30), 30), f)
        assert calls[0] == 1

    @pytest.mark.parametrize(
        "f",
        [np.exp, np.log, np.sqrt, lambda x: np.exp(-x), lambda x: 1.0 / x, horner],
        ids=["exp", "log", "sqrt", "exp_neg", "reciprocal", "horner"],
    )
    def test_array_call_is_the_per_point_values_bit_for_bit(self, f):
        rng = np.random.default_rng(31)
        for n in range(1, 41):
            points = rng.uniform(0.01, 5.0, n)
            want = np.asarray([f(t) for t in points], dtype=float)
            assert _finite_values(f, points, FunctionDomainError).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "f",
        [math.log, lambda x: -1.0 if x < 1.0 else x, lambda x: 1.0, writes_into],
        ids=["math_log", "branching", "constant", "writes_into"],
    )
    def test_scalar_only_callables_are_called_per_point(self, f):
        for points in (np.array([0.5]), np.linspace(0.5, 3.0, 7)):
            kept = points.copy()
            want = np.asarray([f(t) for t in kept], dtype=float)
            assert _finite_values(f, points, FunctionDomainError).tobytes() == want.tobytes()
            assert points.tobytes() == kept.tobytes()
        measure = DiscreteMeasure([0.5, 1.5, 2.5], [0.2, 0.3, 0.5])
        nodes = measure.nodes.copy()
        got = DensityApprox("quadrature", measure).integrate(f)
        assert got == float(np.sum(measure.weights * [f(t) for t in nodes]))
        assert measure.nodes.tobytes() == nodes.tobytes()

    @pytest.mark.parametrize("f", [np.log, lambda x: math.inf if x < 0 else x])
    def test_non_finite_values_still_raise(self, f):
        # On the array path (np.log) and the per-point path.
        with pytest.raises(FunctionDomainError, match="not finite"):
            _spectral_apply(f, np.array([-1.0, 2.0]), None, np.ones(2))
        with pytest.raises(NonFiniteSample, match="not finite"):
            cheb_approximant(f, 5, (-1.0, 1.0))


class TestTridiagSolve:
    def test_identity(self):
        T = SymTridiagonal([1.0], [])
        np.testing.assert_allclose(tridiag_solve(T, np.array([1.0])), [1.0])

    def test_2x2(self):
        T = SymTridiagonal([2.0, 2.0], [1.0])
        x = tridiag_solve(T, np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [2 / 3, -1 / 3], atol=1e-14)
        # Zero diagonal, eigenvalues +-1: elimination without pivoting fails.
        T = SymTridiagonal([0.0, 0.0], [1.0])
        x = tridiag_solve(T, np.array([1.0, 2.0]))
        np.testing.assert_allclose(x, [2.0, 1.0], atol=1e-14)

    def test_ill_conditioned_matches_dense(self):
        # cond(T) ~ 4e8: normal equations would square it past 1/eps.
        T = SymTridiagonal([1.0, 1.0 + 1e-8], [1.0])
        rhs = np.array([1.0, 2.0])
        expected = np.linalg.solve(T.to_dense(), rhs)
        x = tridiag_solve(T, rhs)
        assert np.abs(x - expected).max() <= 1e-6 * np.abs(expected).max()
        for shift in (0.5, 0.3 + 2.0j):
            expected = np.linalg.solve(T.to_dense() - shift * np.eye(2), rhs)
            x = tridiag_solve(T, rhs, shift=shift)
            assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_complex_shift(self):
        T = SymTridiagonal([1.0], [])
        x = tridiag_solve(T, np.array([1.0]), shift=1j)
        np.testing.assert_allclose(x, [1 / (1 - 1j)], atol=1e-14)

    def test_singular_raises(self):
        T = SymTridiagonal([1.0, 1.0], [1e-30])
        with pytest.raises(SingularSystem):
            tridiag_solve(T, np.array([1.0, 0.0]), shift=1.0 + 1e-30)

    def test_shifted_solve_matches_dense(self):
        rng = np.random.default_rng(8)
        T = random_tridiag(rng, 10)
        rhs = rng.standard_normal(10)
        for shift in (0.0, 0.3, 2.0 + 0.5j):
            x = tridiag_solve(T, rhs, shift=shift)
            expected = np.linalg.solve(
                T.to_dense().astype(complex) - shift * np.eye(10), rhs
            )
            assert np.abs(x - expected).max() <= 1e-9

    def test_wrong_type_or_rhs_length_rejected(self):
        T = SymTridiagonal([2.0, 2.0], [1.0])
        with pytest.raises(TypeError, match="unsupported tridiagonal type"):
            tridiag_solve(T.to_dense(), np.ones(2))
        for rhs in (np.ones(3), np.ones((2, 1))):
            with pytest.raises(ValueError, match="rhs must have length k"):
                tridiag_solve(T, rhs)


class TestSymTridiagonal:
    @pytest.mark.parametrize(
        "alphas, betas, message",
        [
            ([], [], "nonempty 1-d"),
            ([[1.0, 2.0]], [1.0], "nonempty 1-d"),
            ([1.0, 2.0], [], r"len\(alphas\) - 1"),
            ([1.0, 2.0], [1.0, 1.0], r"len\(alphas\) - 1"),
            ([1.0], [[]], r"len\(alphas\) - 1"),
        ],
    )
    def test_bad_shape_rejected(self, alphas, betas, message):
        with pytest.raises(ValueError, match=message):
            SymTridiagonal(alphas, betas)


class TestLinearOperator:
    def test_symmetry_probe(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((20, 20))
        M = 0.5 * (M + M.T)
        A = LinearOperator.from_matrix(M)
        u = rng.standard_normal(20)
        v = rng.standard_normal(20)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        Av = A.apply(v)
        assert abs(u @ Av - v @ A.apply(u)) <= 1e-12 * np.linalg.norm(Av)

    def test_length_contract(self):
        A = LinearOperator(3, lambda v: v[:2])
        with pytest.raises(ValueError):
            A.apply(np.ones(3))

    def test_diagonal_and_dense(self):
        A = LinearOperator.diagonal([1.0, 2.0, 3.0])
        np.testing.assert_allclose(A.to_dense(), np.diag([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_below_one_rejected(self, dim):
        with pytest.raises(ValueError, match="dimension must be positive"):
            LinearOperator(dim, lambda v: v)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_non_square_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="matrix must be square"):
            LinearOperator.from_matrix(np.ones(shape))


def _column_loop(A, X):
    return np.column_stack([A.apply(X[:, j]) for j in range(X.shape[1])])


class TestMatmat:
    # A native block product is only a shortcut: its columns are apply's
    # bytes, in a C-contiguous d x m array as np.column_stack gives.
    D, M = 60, 5

    def _blocks(self):
        rng = np.random.default_rng(40)
        X = rng.standard_normal((self.D, self.M))
        wide = rng.standard_normal((self.D, 2 * self.M))
        return {"C": X, "F": np.asfortranarray(X), "strided": wide[:, ::2]}

    def _symmetric_sparse(self):
        import scipy.sparse

        S = scipy.sparse.random(self.D, self.D, density=0.1, random_state=41)
        return (S + S.T).tocsr()

    def _assert_native(self, A):
        assert A.matmat is not None
        for X in self._blocks().values():
            out = _apply_block(A, X)
            assert out.flags.c_contiguous and out.shape == X.shape
            assert out.tobytes() == _column_loop(A, X).tobytes()

    def test_diagonal_is_native(self):
        vals = np.random.default_rng(42).standard_normal(self.D)
        self._assert_native(LinearOperator.diagonal(vals))

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo", "bsr"])
    @pytest.mark.parametrize("container", ["matrix", "array"])
    def test_sparse_is_native(self, fmt, container):
        import scipy.sparse

        S = self._symmetric_sparse().asformat(fmt)
        if container == "array":
            S = getattr(scipy.sparse, f"{fmt}_array")(S)
        self._assert_native(LinearOperator.from_matrix(S))

    @pytest.mark.parametrize("fmt", ["dense", "dia", "lil", "dok"])
    def test_other_matrices_loop(self, fmt):
        import scipy.sparse

        off = np.random.default_rng(45).standard_normal(self.D - 1)
        S = scipy.sparse.diags([off, np.full(self.D, 3.0), off], [-1, 0, 1])
        S = S.toarray() if fmt == "dense" else S.asformat(fmt)
        A = LinearOperator.from_matrix(S)
        assert A.matmat is None
        X = self._blocks()["F"]
        assert _apply_block(A, X).tobytes() == _column_loop(A, X).tobytes()

    def test_plain_operator_loops_one_call_per_column(self):
        calls = []
        A = LinearOperator(self.D, lambda v: calls.append(1) or 2.0 * v)
        assert A.matmat is None
        X = self._blocks()["C"]
        assert np.array_equal(_apply_block(A, X), 2.0 * X)
        assert len(calls) == self.M

    def test_block_shape_contract(self):
        A = LinearOperator(self.D, lambda v: v, matmat=lambda X: X[:, :1])
        with pytest.raises(ValueError, match="matmat changed the block shape"):
            _apply_block(A, self._blocks()["C"])


class TestNorm:
    # np.linalg.norm's bytes wherever its square is safe; elsewhere the
    # norm of a power-of-two rescaling, scaled back exactly.

    def test_ordinary_vectors_keep_their_bits(self):
        rng = np.random.default_rng(43)
        for v in (rng.standard_normal(50), rng.standard_normal((50, 3))[:, 1], np.array([3.0])):
            assert _norm(v) == np.linalg.norm(v)

    @pytest.mark.parametrize("e", [520, 1000, -560, -1000])
    def test_power_of_two_scaling_is_exact(self, e):
        v = np.random.default_rng(44).uniform(0.5, 2.0, 50)
        assert _norm(np.ldexp(v, e)) == math.ldexp(np.linalg.norm(v), e)

    @pytest.mark.parametrize("e", [0, 1000, -1000])
    def test_complex_vectors(self, e):
        # In range np.linalg.norm's bytes; out of it the moduli's norm.
        rng = np.random.default_rng(45)
        v = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        if e == 0:
            assert _norm(v) == np.linalg.norm(v)
        else:
            scaled = np.ldexp(v.real, e) + 1j * np.ldexp(v.imag, e)
            assert _norm(scaled) == pytest.approx(math.ldexp(np.linalg.norm(v), e), rel=1e-15)

    def test_edges(self):
        assert _norm(np.zeros(3)) == 0.0
        assert _norm(np.array([5e-324, 0.0])) == 5e-324
        assert _norm(np.array([1e200, 1e200, 1.0])) == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
        # A norm beyond the float range is Inf, without a warning.
        assert _norm(np.full(4, 1.7e308)) == math.inf
        assert math.isnan(_norm(np.array([np.nan, 1.0])))
        assert _norm(np.array([np.inf, 1.0])) == math.inf


class TestColumnNorms:
    def test_in_range_columns_keep_numpys_bytes(self):
        R = np.random.default_rng(5).standard_normal((40, 3))
        assert _column_norms(R).tobytes() == np.linalg.norm(R, axis=0).tobytes()

    @pytest.mark.parametrize("e", [-560, 560, -1000, 1000])
    def test_out_of_range_columns_scale_exactly(self, e):
        # Only the second column is scaled; its norm neither underflows to
        # zero nor overflows (no RuntimeWarning), and is the unscaled one's.
        R = np.random.default_rng(6).standard_normal((40, 3))
        ref = np.linalg.norm(R, axis=0)
        R[:, 1] = np.ldexp(R[:, 1], e)
        got = _column_norms(R)
        assert got[[0, 2]].tobytes() == ref[[0, 2]].tobytes()
        assert got[1] == math.ldexp(ref[1], e)

    def test_zero_nan_and_inf_columns(self):
        R = np.array([[0.0, np.nan, np.inf, 1.0], [0.0, 1.0, 1.0, 1.0]])
        got = _column_norms(R)
        assert got[0] == 0.0 and math.isnan(got[1]) and got[2] == math.inf
        assert got[3] == math.sqrt(2.0)


class TestScaledOp:
    # op(y, a * x) chunk by chunk must be numpy's op(y, a * x), byte for byte.
    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
    @pytest.mark.parametrize("a", [-0.3718, 1.0 / 3.0 - 2.5j])
    @pytest.mark.parametrize("op", [np.subtract, np.add])
    def test_bytes_equal_numpys_expression(self, n, a, op):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        for y in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            ref = op(y, a * x)
            out = np.empty_like(ref)
            assert _scaled_op(y, op, a, x, out) is out
            assert out.tobytes() == ref.tobytes()
            if y.dtype == ref.dtype:  # in place: out aliases y
                y = y.copy()
                assert _scaled_op(y, op, a, x, y) is y
                assert y.tobytes() == ref.tobytes()

    def test_out_of_another_dtype_is_refused(self):
        # Callers allocate out with the expression's dtype; any other is a bug.
        x, y = np.arange(5.0), np.ones(5)
        out = np.zeros(5)
        with pytest.raises(AssertionError):
            _scaled_op(y, np.subtract, 2j, x, out)
        assert not out.any()
