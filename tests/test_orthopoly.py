import numpy as np
import pytest

from krylov.core import SymTridiagonal, sym_tridiag_eig
from krylov.errors import InsufficientSupport, MassMismatch, NonFiniteSample
from krylov.orthopoly import (
    DiscreteMeasure,
    cdf_compare,
    cheb_approximant,
    cheb_eval,
    gauss_quadrature,
    jackson_damping,
    modified_moments,
    stieltjes,
    wasserstein,
)


def random_measure(rng, n, lo=-1.0, hi=1.0):
    nodes = np.sort(rng.uniform(lo, hi, n))
    weights = rng.uniform(0.1, 1.0, n)
    return DiscreteMeasure(nodes, weights / weights.sum())


class TestChebEval:
    def test_t2(self):
        assert cheb_eval("T", 2, 0.5) == pytest.approx(-0.5)

    def test_cosine_identity(self):
        theta = np.pi / 7
        assert cheb_eval("T", 5, np.cos(theta)) == pytest.approx(np.cos(5 * theta))

    def test_just_outside_interval(self):
        k = 1000
        val = cheb_eval("T", k, 1 + 1 / (2 * k**2))
        assert 1.0 < val <= 2.0
        assert val == pytest.approx((np.e + 1 / np.e) / 2, abs=0.01)

    def test_closed_forms_on_interval(self):
        theta = np.linspace(1e-3, np.pi - 1e-3, 101)
        x = np.cos(theta)
        for k in (1, 3, 10, 37):
            np.testing.assert_allclose(
                cheb_eval("T", k, x), np.cos(k * theta), atol=1e-12
            )
            np.testing.assert_allclose(
                cheb_eval("U", k, x),
                np.sin((k + 1) * theta) / np.sin(theta),
                atol=1e-9,
            )

    def test_boundedness(self):
        x = np.linspace(-1, 1, 1001)
        for k in (2, 7, 25):
            assert np.abs(cheb_eval("T", k, x)).max() <= 1.0 + 1e-12
            assert np.abs(cheb_eval("U", k, x)).max() <= k + 1 + 1e-9
        for k in (5, 50, 500):
            ext = 1 + 1 / (2 * k**2)
            xs = np.linspace(-ext, ext, 1001)
            assert np.abs(cheb_eval("T", k, xs)).max() <= 2.0

    def test_result_is_a_new_array(self):
        # Writing into any degree's result leaves the input unchanged.
        x = np.linspace(-1.0, 1.0, 5)
        for kind in ("T", "U"):
            for n in range(3):
                out = cheb_eval(kind, n, x)
                out[:] = 7.0
                np.testing.assert_array_equal(x, np.linspace(-1.0, 1.0, 5))

    def test_extremality(self):
        # Among polynomials bounded by 1 on [-1, 1], T_k grows fastest
        # outside the interval.
        rng = np.random.default_rng(0)
        k = 8
        grid = np.linspace(-1, 1, 2001)
        outside = np.array([-10.0, -2.0, -1.1, 1.1, 2.0, 10.0])
        Tk_out = np.abs(cheb_eval("T", k, outside))
        for _ in range(50):
            coeffs = rng.uniform(-1, 1, k + 1)
            vals = np.polynomial.chebyshev.chebval(grid, coeffs)
            sup = np.abs(vals).max()
            p_out = np.abs(np.polynomial.chebyshev.chebval(outside, coeffs)) / sup
            assert np.all(p_out <= Tk_out + 1e-9)


class TestChebApproximant:
    def test_t3_coefficient(self):
        exp = cheb_approximant(lambda x: cheb_eval("T", 3, x), 5)
        c = exp.coefficients
        assert c[3] == pytest.approx(0.5, abs=1e-13)
        others = np.delete(c, 3)
        assert np.abs(others).max() <= 1e-13

    def test_constant(self):
        exp = cheb_approximant(lambda x: 7.0, 4)
        assert exp.coefficients[0] == pytest.approx(7.0)
        assert np.abs(exp.coefficients[1:]).max() <= 1e-13

    def test_abs_projection_near_grid_oracle(self):
        # Compare against a dense weighted-least-squares projection onto
        # the Chebyshev basis on a fine grid.
        deg = 9
        exp = cheb_approximant(abs, deg)
        theta = (np.arange(20000) + 0.5) * np.pi / 20000
        x = np.cos(theta)
        oracle = np.empty(deg + 1)
        for n in range(deg + 1):
            oracle[n] = np.mean(np.abs(x) * np.cos(n * theta))
        resid_exp = np.sqrt(
            np.mean((np.abs(x) - exp(x)) ** 2)
        )
        p_oracle = oracle[0] + 2 * sum(
            oracle[n] * np.cos(n * theta) for n in range(1, deg + 1)
        )
        resid_oracle = np.sqrt(np.mean((np.abs(x) - p_oracle) ** 2))
        assert resid_exp <= resid_oracle * 1.1

    def test_interval_mapping(self):
        exp = cheb_approximant(lambda x: x**2, 3, interval=(2.0, 6.0))
        xs = np.linspace(2, 6, 17)
        np.testing.assert_allclose(exp(xs), xs**2, atol=1e-10)

    def test_nonfinite(self):
        with pytest.raises(NonFiniteSample):
            cheb_approximant(lambda x: 1.0 / (x - x), 3)

    @pytest.mark.parametrize(
        "interval", [(1.0, 0.0), (1.0, 1.0), (0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan)]
    )
    def test_interval_rejected_before_f_is_sampled(self, interval):
        # Not an expansion whose every call raises, and not a
        # NonFiniteSample that blames f for an infinite end.
        samples = []
        with pytest.raises(ValueError, match="finite and have positive length"):
            cheb_approximant(lambda x: samples.append(x) or np.exp(x), 4, interval)
        assert samples == []


class TestStieltjes:
    def test_single_node(self):
        mu = DiscreteMeasure([2.5], [1.0])
        T = stieltjes(mu, 1)
        assert T.alphas[0] == pytest.approx(2.5)

    def test_two_point_symmetric(self):
        mu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        T = stieltjes(mu, 2)
        np.testing.assert_allclose(T.alphas, [0.0, 0.0], atol=1e-14)
        assert T.betas[0] == pytest.approx(1.0)

    def test_chebyshev_weight_coefficients(self):
        # Discretized arcsine measure: alpha ~ 0, beta_0 ~ 1/sqrt(2),
        # beta_n ~ 1/2 (the known Chebyshev-T recurrence coefficients).
        n = 64
        theta = (np.arange(n) + 0.5) * np.pi / n
        mu = DiscreteMeasure(np.cos(theta), np.full(n, 1.0 / n))
        T = stieltjes(mu, 5)
        assert np.abs(T.alphas).max() <= 1e-10
        assert T.betas[0] == pytest.approx(1 / np.sqrt(2), abs=1e-10)
        np.testing.assert_allclose(T.betas[1:], 0.5, atol=1e-10)

    def test_insufficient_support(self):
        mu = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(InsufficientSupport):
            stieltjes(mu, 3)
        # Three nodes, but the middle weight is negligible: the run breaks
        # down at step 2, and a 2x2 T is not the 3x3 one asked for.
        mu = DiscreteMeasure([1.0, 2.0, 3.0], [1.0, 1e-30, 1.0])
        with pytest.raises(InsufficientSupport, match="step 2"):
            stieltjes(mu, 3)
        assert stieltjes(mu, 2).size == 2


class TestGaussQuadrature:
    def test_single(self):
        mu = gauss_quadrature(SymTridiagonal([1.5], []), 1.0)
        np.testing.assert_allclose(mu.nodes, [1.5])
        np.testing.assert_allclose(mu.weights, [1.0])

    def test_antidiagonal(self):
        mu = gauss_quadrature(SymTridiagonal([0.0, 0.0], [1.0]), 1.0)
        np.testing.assert_allclose(mu.nodes, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(mu.weights, [0.5, 0.5], atol=1e-14)

    def test_moment_matching_roundtrip(self):
        rng = np.random.default_rng(1)
        mu = random_measure(rng, 50)
        for k in (2, 4, 7):
            quad = gauss_quadrature(stieltjes(mu, k), mu.total_mass)
            for deg in range(2 * k):
                m_exact = mu.moment(deg)
                m_quad = quad.moment(deg)
                scale = max(abs(m_exact), 1e-3)
                assert abs(m_quad - m_exact) <= 1e-10 * scale

    def test_nodes_within_support_hull(self):
        rng = np.random.default_rng(2)
        mu = random_measure(rng, 30, 2.0, 5.0)
        quad = gauss_quadrature(stieltjes(mu, 6), mu.total_mass)
        assert quad.nodes.min() >= mu.nodes.min() - 1e-12
        assert quad.nodes.max() <= mu.nodes.max() + 1e-12

    def test_at_most_one_node_per_gap(self):
        rng = np.random.default_rng(3)
        mu = random_measure(rng, 30)
        quad = gauss_quadrature(stieltjes(mu, 8), mu.total_mass)
        # count quadrature nodes strictly inside each support gap
        for left, right in zip(mu.nodes[:-1], mu.nodes[1:]):
            inside = np.sum((quad.nodes > left) & (quad.nodes < right))
            assert inside <= 1

    def test_characteristic_polynomial_proportionality(self):
        # The k-th orthonormal polynomial by the three-term recurrence is
        # proportional to det(xI - M_k).
        rng = np.random.default_rng(4)
        mu = random_measure(rng, 20)
        k = 5
        T = stieltjes(mu, k + 1)
        a, b = T.alphas, T.betas
        xs = rng.uniform(-1.5, 1.5, 20)

        def p_rec(x):
            p_prev, p = 0.0, 1.0
            for n in range(k):
                p, p_prev = ((x - a[n]) * p - (b[n - 1] if n else 0.0) * p_prev) / b[n], p
            return p

        Mk = T.principal(k).to_dense()
        char = np.array([np.linalg.det(x * np.eye(k) - Mk) for x in xs])
        rec = np.array([p_rec(x) for x in xs])
        ratio = rec / char
        assert np.abs(ratio - ratio[0]).max() <= 1e-6 * abs(ratio[0])


class TestModifiedMoments:
    def test_mass(self):
        rng = np.random.default_rng(5)
        mu = random_measure(rng, 10)
        m = modified_moments(mu, 1)
        assert m[0] == pytest.approx(mu.total_mass)

    def test_point_mass_at_cosine(self):
        mu = DiscreteMeasure([np.cos(np.pi / 3)], [1.0])
        m = modified_moments(mu, 6)
        np.testing.assert_allclose(
            m, [np.cos(j * np.pi / 3) for j in range(6)], atol=1e-14
        )

    def test_brute_force(self):
        rng = np.random.default_rng(6)
        mu = random_measure(rng, 10)
        for kind in ("T", "U"):
            m = modified_moments(mu, 6, kind)
            for j in range(6):
                direct = np.sum(mu.weights * cheb_eval(kind, j, mu.nodes))
                assert m[j] == direct

    @pytest.mark.parametrize("interval", [(0.0, np.inf), (1.0, -1.0)])
    def test_invalid_interval(self, interval):
        # Not [1, nan, nan] from an infinite end.
        mu = DiscreteMeasure([0.25, 0.5], [0.5, 0.5])
        for kind in ("T", "U"):
            with pytest.raises(ValueError, match="finite and have positive length"):
                modified_moments(mu, 3, kind, interval)


class TestJacksonDamping:
    def test_rho0_is_one(self):
        for k in (1, 2, 10, 64):
            assert jackson_damping(k).rho[0] == pytest.approx(1.0)

    def test_monotone_decreasing_in_unit_interval(self):
        for k in range(1, 65):
            rho = jackson_damping(k).rho
            assert np.all(np.diff(rho) < 0)
            assert np.all(rho > 0)
            assert np.all(rho <= 1.0 + 1e-15)

    def test_damped_point_measure_nonnegative(self):
        # The damped kernel against a point mass stays nonnegative.
        k = 12
        rho = jackson_damping(k).rho
        x0 = 0.3
        grid = np.linspace(-0.999, 0.999, 10_000)
        series = np.full_like(grid, rho[0])
        for n in range(1, 2 * k):
            series += 2 * rho[n] * cheb_eval("T", n, x0) * cheb_eval("T", n, grid)
        assert series.min() >= -1e-12


class TestWasserstein:
    def test_identical(self):
        mu = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        assert wasserstein(mu, mu) == 0.0

    def test_unit_transport(self):
        d0 = DiscreteMeasure([0.0], [1.0])
        d1 = DiscreteMeasure([1.0], [1.0])
        assert wasserstein(d0, d1) == pytest.approx(1.0)

    def test_split_mass(self):
        mu1 = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        mu2 = DiscreteMeasure([0.5], [1.0])
        assert wasserstein(mu1, mu2) == pytest.approx(0.5)

    def test_one_shared_node(self):
        mu1 = DiscreteMeasure([0.5], [1.0])
        mu2 = DiscreteMeasure([0.5, 0.5], [0.25, 0.75])  # merged to one node
        assert wasserstein(mu1, mu2) == 0.0

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            wasserstein(
                DiscreteMeasure([0.0], [1.0]), DiscreteMeasure([0.0], [0.5])
            )


class TestCdfCompare:
    def test_exact_quadrature_recovers_measure(self):
        rng = np.random.default_rng(7)
        mu = random_measure(rng, 6)
        quad = gauss_quadrature(stieltjes(mu, 6), mu.total_mass)
        rep = cdf_compare(mu, quad)
        assert rep.all_straddle
        assert wasserstein(mu, quad) <= 1e-10

    def test_straddle_on_random_measure(self):
        rng = np.random.default_rng(8)
        mu = random_measure(rng, 50)
        k = 6
        quad = gauss_quadrature(stieltjes(mu, k), mu.total_mass)
        rep = cdf_compare(mu, quad)
        assert rep.all_straddle

    def test_sign_change_count(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            mu = random_measure(rng, 40)
            k = 5
            quad = gauss_quadrature(stieltjes(mu, k), mu.total_mass)
            rep = cdf_compare(mu, quad)
            assert rep.sign_changes <= 2 * k - 1


class TestDiscreteMeasure:
    def test_merge_coincident(self):
        mu = DiscreteMeasure([0.0, 0.0, 1.0], [0.25, 0.25, 0.5])
        assert mu.n_nodes == 2
        np.testing.assert_allclose(mu.weights, [0.5, 0.5])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([0.0, 1.0], [0.5, -0.5])

    @pytest.mark.parametrize(
        "nodes, weights",
        [
            ([1.0, np.nan, 2.0], [1.0, 1.0, 1.0]),  # not a mass of 3.0
            ([1.0, np.inf], [1.0, 1.0]),
            ([1.0, 3.0, 2.0], [1.0, np.nan, 1.0]),  # not a NaN mass
            ([1.0, 2.0], [1.0, np.inf]),
        ],
    )
    def test_nonfinite_rejected(self, nodes, weights):
        with pytest.raises(ValueError, match="must be finite"):
            DiscreteMeasure(nodes, weights)

    @pytest.mark.parametrize(
        "nodes, weights", [([], []), ([1.0, 2.0], [1.0]), ([1.0], [0.5, 0.5])]
    )
    def test_empty_or_mismatched_rejected(self, nodes, weights):
        with pytest.raises(ValueError, match="nonempty, same length"):
            DiscreteMeasure(nodes, weights)


class TestRejectedArguments:
    def test_unknown_kind(self):
        mu = DiscreteMeasure([0.25, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="kind must be 'T' or 'U'"):
            cheb_eval("V", 2, 0.5)
        with pytest.raises(ValueError, match="kind must be 'T' or 'U'"):
            modified_moments(mu, 3, "V")

    def test_negative_degree(self):
        samples = []
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            cheb_eval("T", -1, 0.5)
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            cheb_approximant(lambda x: samples.append(x) or np.exp(x), -1)
        assert samples == []

    def test_zero_mass(self):
        with pytest.raises(ValueError, match="positive total mass"):
            stieltjes(DiscreteMeasure([1.0, 2.0], [0.0, 0.0]), 1)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one(self, count):
        mu = DiscreteMeasure([0.25, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="count must be positive"):
            modified_moments(mu, count)

    @pytest.mark.parametrize("k", [0, -1])
    def test_jackson_damping_below_one(self, k):
        with pytest.raises(ValueError, match="k must be at least 1"):
            jackson_damping(k)

