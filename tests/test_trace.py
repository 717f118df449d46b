import math
import multiprocessing
import sys
import threading
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

import krylov.trace
from krylov.core import LinearOperator
from krylov.errors import (
    FunctionDomainError,
    NonFiniteOperator,
    SpectrumOutsideInterval,
)
from krylov.orthopoly import ChebyshevExpansion, DiscreteMeasure, cheb_eval, wasserstein
from krylov.trace import (
    ProbeSampler,
    control_variate_trace,
    hutchinson_trace,
    kpm_density,
    slq_density,
    slq_trace,
)
from helpers import counting
from oracles import optimal_ksm_error


@dataclass(frozen=True)
class CountingSampler(ProbeSampler):
    """A :class:`ProbeSampler` that records the index of every draw."""

    draws: list = field(default_factory=list, compare=False)

    def probe(self, index, d):
        self.draws.append(index)
        return super().probe(index, d)


class TestRejectedBeforeAnyMatvec:
    def test_no_probes(self):
        op, calls = counting(LinearOperator.diagonal(np.linspace(1.0, 2.0, 10)))
        s = ProbeSampler(seed=1)
        for estimate in (
            lambda: slq_trace(op, np.log, 4, 0, s),
            lambda: slq_density(op, 4, 0, s),
            lambda: kpm_density(op, 4, interval=(0.0, 3.0), m=0, sampler=s),
            lambda: kpm_density(op, 4, m=-1, sampler=s),
        ):
            with pytest.raises(ValueError, match="need at least one probe"):
                estimate()
        assert calls[0] == 0

    @pytest.mark.parametrize("k", [0, -1])
    def test_fewer_than_one_step(self, k):
        op, calls = counting(LinearOperator.diagonal(np.linspace(1.0, 2.0, 10)))
        s = ProbeSampler(seed=1)
        estimates = [
            lambda: slq_trace(op, np.log, k, 2, s),
            lambda: slq_density(op, k, 2, s),
        ] + [
            lambda method=method, interval=interval: kpm_density(
                op, k, interval, coeff_method=method, m=2, sampler=s
            )
            for method in ("recurrence", "lanczos_qf")
            for interval in (None, (0.0, 3.0))
        ]
        for estimate in estimates:
            with pytest.raises(ValueError, match="k must be at least 1"):
                estimate()
        assert calls[0] == 0

    @pytest.mark.parametrize(
        "option, match",
        [
            ({"damping": "none"}, "damping must be None or 'jackson'"),
            ({"damping": "Jackson"}, "damping must be None or 'jackson'"),
            ({"coeff_method": "exact"}, "coeff_method must be"),
        ],
    )
    def test_unknown_kpm_option(self, option, match):
        # "none" is not a second spelling of damping=None.
        op, calls = counting(LinearOperator.diagonal(np.linspace(1.0, 2.0, 10)))
        with pytest.raises(ValueError, match=match):
            kpm_density(op, 4, interval=(0.0, 3.0), sampler=ProbeSampler(seed=1), **option)
        assert calls[0] == 0

    @pytest.mark.parametrize(
        "interval", [(5.0, 1.0), (1.0, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 1.0)]
    )
    def test_empty_kpm_interval(self, interval):
        # Rejected before any operator call, not after probe 0's run, and
        # an infinite end not turned into NaN coefficients.
        op, calls = counting(LinearOperator.diagonal(np.linspace(1.0, 2.0, 40)))
        for method in ("recurrence", "lanczos_qf"):
            with pytest.raises(ValueError, match="positive length"):
                kpm_density(op, 10, interval=interval, coeff_method=method)
        assert calls[0] == 0


class TestNonFiniteOperator:
    def _op(self, nan_after, after):
        return nan_after(LinearOperator.diagonal(np.linspace(1.0, 2.0, 10)), after)

    def test_slq_trace_raises_and_drops_nothing(self, nan_after):
        # With after=4, probe 0 runs its 4 steps and probe 1 meets the NaN.
        # A non-finite operator is never a dropped probe.
        for after in (0, 4):
            with pytest.raises(NonFiniteOperator):
                slq_trace(self._op(nan_after, after), np.log, 4, 3, ProbeSampler())

    @pytest.mark.parametrize("coeff_method", ["recurrence", "lanczos_qf"])
    def test_kpm_density(self, nan_after, coeff_method):
        with pytest.raises(NonFiniteOperator):
            kpm_density(self._op(nan_after, 0), 4, coeff_method=coeff_method)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "first_bad, value, interval, error",
        [
            (1, np.nan, (0.0, 3.0), NonFiniteOperator),
            (4, np.nan, (0.0, 3.0), NonFiniteOperator),
            (3, 1e200, (0.0, 3.0), SpectrumOutsideInterval),
            (11, 1e200, None, NonFiniteOperator),
        ],
        ids=["direct-step-1", "direct-step-4", "doubled-step-3", "doubled-unbounded-step-11"],
    )
    def test_kpm_moment(self, first_bad, value, interval, error):
        # From call `first_bad` on, the operator returns `value` everywhere,
        # and the Chebyshev recurrence (k = 4 products) raises at that step.
        # With a given interval no Ritz run precedes the probe (calls 1-4);
        # without one, the 8-step Ritz run makes calls 1-8 and the probe
        # 9-12.  NaN makes the direct mu_j = b . v_j NaN.  1e200 at the
        # probe's step 3 makes mu_3 finite but far past mu_0 T_3(1 + 2e-8),
        # the bound of a given interval; with none, mu_3 and mu_5 pass and
        # the doubled mu_6 = 2 v_3 . v_3 - mu_0 overflows.
        D = LinearOperator.diagonal(np.linspace(1.0, 2.0, 10))
        calls = [0]

        def matvec(v):
            calls[0] += 1
            return np.full(D.dim, value) if calls[0] >= first_bad else D.apply(v)

        with pytest.raises(error, match="moment"):
            kpm_density(
                LinearOperator(D.dim, matvec), 4, interval=interval, coeff_method="recurrence"
            )
        assert calls[0] == first_bad


class TestProbeSampler:
    def test_deterministic_and_schedule_independent(self):
        s = ProbeSampler(seed=3)
        a = s.probe(7, 10)
        # drawing other indices in between does not change probe 7
        s.probe(0, 10)
        s.probe(12, 10)
        b = s.probe(7, 10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, ProbeSampler(seed=4).probe(7, 10))

    def test_unit_sphere_norm(self):
        s = ProbeSampler("unit_sphere", seed=0)
        for i in range(5):
            assert np.linalg.norm(s.probe(i, 20)) == pytest.approx(1.0)

    def test_rademacher_entries(self):
        d = 16
        s = ProbeSampler("rademacher", seed=0)
        v = s.probe(0, d)
        np.testing.assert_allclose(np.abs(v), 1 / np.sqrt(d))
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            ProbeSampler("gaussian")

    def test_seed_must_be_a_non_negative_integer(self):
        for seed in (-1, 1.5, "3", None, np.int64(-2)):
            with pytest.raises(ValueError, match="seed"):
                ProbeSampler(seed=seed)
        a = ProbeSampler(seed=np.int64(3)).probe(0, 5)
        assert np.array_equal(a, ProbeSampler(seed=3).probe(0, 5))

    @pytest.mark.parametrize("dist", ["unit_sphere", "rademacher"])
    def test_second_moment_is_scaled_identity(self, dist):
        d, m = 4, 10_000
        s = ProbeSampler(dist, seed=1)
        acc = np.zeros((d, d))
        for i in range(m):
            v = s.probe(i, d)
            acc += np.outer(v, v)
        acc /= m
        assert np.abs(acc - np.eye(d) / d).max() <= 5 / np.sqrt(m * d)


class TestHutchinson:
    def test_identity_exact(self):
        s = ProbeSampler(seed=0)
        est = hutchinson_trace(lambda b: float(b @ b), 10, 20, s)
        assert est.estimate == pytest.approx(1.0)
        assert est.stderr <= 1e-15
        assert not est.flagged

    def test_diagonal_within_three_stderr(self):
        d = 50
        vals = np.linspace(1.0, 5.0, d)
        s = ProbeSampler(seed=2)
        est = hutchinson_trace(lambda b: float(b @ (vals * b)), d, 500, s)
        truth = vals.mean()
        assert abs(est.estimate - truth) <= 3 * est.stderr

    def test_requires_probe(self):
        with pytest.raises(ValueError):
            hutchinson_trace(lambda b: 0.0, 5, 0, ProbeSampler())

    @pytest.mark.parametrize("d", [0, -1])
    def test_requires_dimension(self, d):
        # Not estimate 0.0 with stderr 0.0 from empty probes.
        calls = []
        qf = lambda b: calls.append(b) or 0.0
        with pytest.raises(ValueError, match="d must be at least 1"):
            hutchinson_trace(qf, d, 4, ProbeSampler(seed=1))
        with pytest.raises(ValueError, match="d must be at least 1"):
            control_variate_trace(qf, 0.0, qf, d, 4, ProbeSampler(seed=1))
        assert calls == []


class TestSlqTrace:
    def test_full_krylov_matches_exact_quadratic_forms(self):
        d = 12
        vals = np.linspace(0.5, 3.0, d)
        A = LinearOperator.diagonal(vals)
        s = ProbeSampler(seed=3)
        m = 8
        est = slq_trace(A, np.log, d, m, s)
        exact = hutchinson_trace(
            lambda b: float(b @ (np.log(vals) * b)), d, m, s
        )
        assert est.estimate == pytest.approx(exact.estimate, abs=1e-10)
        assert est.stderr == pytest.approx(exact.stderr, abs=1e-10)

    def test_within_three_stderr_of_truth(self):
        d = 100
        vals = np.geomspace(1.0, 100.0, d)
        A = LinearOperator.diagonal(vals)
        est = slq_trace(A, np.log, 20, 300, ProbeSampler(seed=4))
        truth = np.log(vals).mean()
        assert abs(est.estimate - truth) <= 3 * max(est.stderr, 1e-12)

    def test_dropped_probes_counted_and_flagged(self):
        # sqrt is undefined on the negative part of the spectrum, so every
        # probe whose Ritz values dip below zero gets dropped.
        d = 30
        vals = np.concatenate([[-1.0], np.linspace(1.0, 2.0, d - 1)])
        A = LinearOperator.diagonal(vals)
        est = slq_trace(A, np.sqrt, 2, 10, ProbeSampler(seed=5))
        assert est.n_skipped > 0
        assert est.flagged

    def test_all_probes_dropped_raises(self):
        A = LinearOperator.diagonal([-2.0, -1.0])
        with pytest.raises(FunctionDomainError):
            slq_trace(A, np.sqrt, 2, 3, ProbeSampler(seed=6))

    def test_deterministic(self):
        d = 20
        A = LinearOperator.diagonal(np.linspace(1, 2, d))
        a = slq_trace(A, np.exp, 6, 10, ProbeSampler(seed=7))
        b = slq_trace(A, np.exp, 6, 10, ProbeSampler(seed=7))
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr


class TestSlqDensity:
    def test_single_probe_full_krylov_recovers_weighted_spectrum(self):
        d = 15
        vals = np.linspace(-1.0, 1.0, d)
        A = LinearOperator.diagonal(vals)
        s = ProbeSampler(seed=8)
        approx = slq_density(A, d, 1, s)
        b = s.probe(0, d)
        truth = DiscreteMeasure(vals, b**2)
        assert wasserstein(approx.measure, truth) <= 1e-8

    def test_mass_is_average_probe_norm(self):
        d = 30
        A = LinearOperator.diagonal(np.linspace(0, 1, d))
        approx = slq_density(A, 6, 5, ProbeSampler(seed=9))
        assert approx.mass() == pytest.approx(1.0, abs=1e-12)

    def test_integrate_consistent_with_slq_trace(self):
        # Integrating f against the density equals the SLQ trace estimate.
        d, k, m = 40, 8, 6
        vals = np.geomspace(1.0, 10.0, d)
        A = LinearOperator.diagonal(vals)
        s = ProbeSampler(seed=10)
        approx = slq_density(A, k, m, s)
        est = slq_trace(A, np.log, k, m, s)
        integral = approx.integrate(np.log)
        assert abs(integral - est.estimate) <= 1e-12 * max(abs(integral), 1)

    def test_support_within_spectrum_hull(self):
        d = 50
        vals = np.linspace(2.0, 9.0, d)
        A = LinearOperator.diagonal(vals)
        approx = slq_density(A, 10, 4, ProbeSampler(seed=11))
        assert approx.measure.nodes.min() >= 2.0 - 1e-8
        assert approx.measure.nodes.max() <= 9.0 + 1e-8

    def test_f_not_finite_on_a_spectrum_raises(self):
        # sqrt is NaN at the negative nodes: neither the quadrature
        # integral nor the dense oracle may return it.
        A = LinearOperator.diagonal(np.linspace(-1.0, 1.0, 12))
        approx = slq_density(A, 12, 1, ProbeSampler(seed=11))
        with pytest.raises(FunctionDomainError):
            approx.integrate(np.sqrt)
        with pytest.raises(FunctionDomainError):
            optimal_ksm_error(A, np.ones(12), np.sqrt, 3)


    def test_cdf_is_the_measure_cdf_and_density_is_kpm_only(self):
        A = LinearOperator.diagonal(np.linspace(0.0, 1.0, 20))
        approx = slq_density(A, 5, 3, ProbeSampler(seed=12))
        x = np.linspace(-0.5, 1.5, 41)
        assert np.array_equal(approx.cdf(x), approx.measure.cdf(x))
        with pytest.raises(ValueError, match="only for the KPM form"):
            approx.density(x)


def arcsine_operator(d=200):
    theta = (np.arange(d) + 0.5) * np.pi / d
    return LinearOperator.diagonal(np.cos(theta))


class TestKpmDensity:
    def test_mass_one_for_unit_probe(self):
        A = arcsine_operator()
        approx = kpm_density(A, 8, interval=(-1.1, 1.1))
        assert approx.mass() == pytest.approx(1.0, abs=1e-12)

    def test_coefficient_paths_agree(self):
        A = arcsine_operator(120)
        kw = dict(interval=(-1.1, 1.1), damping=None, m=2, sampler=ProbeSampler(seed=12))
        a = kpm_density(A, 10, coeff_method="recurrence", **kw)
        b = kpm_density(A, 10, coeff_method="lanczos_qf", **kw)
        assert np.abs(a.coefficients - b.coefficients).max() <= 1e-8

    def test_undamped_polynomial_integration_exact(self):
        # Integrating a low-degree polynomial against the undamped KPM
        # density reproduces the probe quadratic form b^T p(A) b.
        d, k = 100, 8
        A = arcsine_operator(d)
        s = ProbeSampler(seed=13)
        approx = kpm_density(A, k, interval=(-1.1, 1.1), damping=None, sampler=s)
        rng = np.random.default_rng(0)
        coeffs = rng.uniform(-1, 1, k)  # degree k-1 < 2k-1

        def p(x):
            return np.polynomial.polynomial.polyval(x, coeffs)

        b = s.probe(0, d)
        vals = A.to_dense().diagonal()
        exact = float(b @ (p(vals) * b))
        assert abs(approx.integrate(p) - exact) <= 1e-9 * max(abs(exact), 1)

    def test_jackson_density_nonnegative(self):
        A = arcsine_operator(150)
        approx = kpm_density(A, 12, interval=(-1.05, 1.05))
        xs = np.linspace(-1.0, 1.0, 2001)
        assert approx.density(xs).min() >= -1e-12

    def test_cdf_monotone_with_jackson(self):
        A = arcsine_operator(150)
        approx = kpm_density(A, 12, interval=(-1.05, 1.05))
        xs = np.linspace(-1.05, 1.05, 1001)
        c = approx.cdf(xs)
        assert np.all(np.diff(c) >= -1e-12)
        assert c[0] == pytest.approx(0.0, abs=1e-12)
        assert c[-1] == pytest.approx(approx.mass(), abs=1e-12)

    def test_interval_auto_selection_contains_spectrum(self):
        A = LinearOperator.diagonal(np.linspace(-2.0, 3.0, 80))
        approx = kpm_density(A, 10)
        a, b = approx.interval
        assert a <= -2.0 + 0.5
        assert b >= 3.0 - 0.5

    def test_spectrum_outside_interval_raises(self):
        A = LinearOperator.diagonal(np.linspace(-1.0, 1.0, 60))
        with pytest.raises(SpectrumOutsideInterval):
            kpm_density(A, 10, interval=(-0.5, 0.5))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [40, 150])
    def test_far_off_interval_fails_at_the_first_moment(self, k):
        # On (100, 101) the first product gives mu_1 ~ -200 mu_0, past the
        # bound, long before T_n(A~) b ~ 200^n could overflow (n ~ 134).
        op, calls = counting(LinearOperator.diagonal(np.linspace(0.0, 1.0, 50)))
        with pytest.raises(SpectrumOutsideInterval):
            kpm_density(op, k, interval=(100.0, 101.0), coeff_method="recurrence")
        assert calls[0] == 1

    @pytest.mark.parametrize("coeff_method", ["recurrence", "lanczos_qf"])
    @pytest.mark.parametrize("c", [-2.0, 1.0, 3.0, 1e-160, 0.0])
    @pytest.mark.parametrize("d", [1, 30])
    def test_one_point_ritz_hull(self, d, c, coeff_method):
        # The Ritz run of c I has the one Ritz value c; where 5% of the
        # hull's span (floored at 1e-300) rounds away, it is widened by 5%
        # of |c|.
        approx = kpm_density(LinearOperator.diagonal(np.full(d, c)), 5, coeff_method=coeff_method)
        a, b = approx.interval
        assert a < c < b
        assert approx.mass() == pytest.approx(1.0, abs=1e-12)

    def test_series_equal_per_degree_cheb_eval_sums(self):
        # Every Chebyshev series is one running recurrence; its values
        # must equal the per-degree cheb_eval sums bit for bit.
        approx = kpm_density(
            arcsine_operator(60), 9, interval=(-1.1, 1.3), damping=None
        )
        a, b = approx.interval
        c = approx.coefficients

        def series(xt, scale):
            out = np.full_like(xt, c[0])
            for n in range(1, c.size):
                out = out + c[n] * scale * cheb_eval("T", n, xt)
            return out

        x = np.linspace(-1.05, 1.25, 301)
        xt = (2.0 * x - (a + b)) / (b - a)
        v = 1.0 / (np.pi * np.sqrt(1.0 - xt**2))
        want = series(xt, math.sqrt(2.0)) * v * 2.0 / (b - a)
        assert np.array_equal(approx.density(x), want)

        n_quad = 4 * c.size + 64
        xt = np.cos((np.arange(n_quad) + 0.5) * np.pi / n_quad)
        gv = np.asarray([np.exp(t) for t in 0.5 * (b - a) * xt + 0.5 * (a + b)])
        want = float(np.sum(gv * series(xt, math.sqrt(2.0))) / n_quad)
        assert approx.integrate(np.exp) == want

        expansion = ChebyshevExpansion(c, (a, b))
        xt = (2.0 * x - (a + b)) / (b - a)
        assert np.array_equal(expansion(x), series(xt, 2.0))

    def test_lanczos_qf_reuses_the_ritz_run(self):
        # Probe 0's 2k-step Ritz run also gives its k-step quadrature:
        # 2k operator calls in all, not 2k + k.
        D = LinearOperator.diagonal(np.linspace(-1.0, 1.0, 400))
        op, calls = counting(D)
        got = kpm_density(op, 30, m=1, coeff_method="lanczos_qf")
        assert calls[0] == 60
        want = kpm_density(D, 30, m=1, coeff_method="recurrence")
        assert np.abs(got.coefficients - want.coefficients).max() <= 1e-8

    def test_recurrence_operator_calls(self):
        # k per probe, as the doubling identities give degrees k+1..2k-1
        # from v_0..v_k, after probe 0's min(2k, d)-step Ritz run when no
        # interval is given.
        D = LinearOperator.diagonal(np.linspace(-1.0, 1.0, 400))
        for interval, m, want in ((None, 1, 90), ((-1.1, 1.1), 3, 90)):
            op, calls = counting(D)
            kpm_density(op, 30, interval, m=m, coeff_method="recurrence")
            assert calls[0] == want

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("interval", [None, (-1.1, 1.1)])
    def test_default_is_lanczos_qf(self, interval, m):
        # k per probe, and min(2k, d) for probe 0 when its run is also the
        # Ritz run that sets the interval; the bytes of an explicit
        # coeff_method="lanczos_qf" call.
        D = LinearOperator.diagonal(np.linspace(-1.0, 1.0, 400))
        op, calls = counting(D)
        s = ProbeSampler(seed=17)
        got = kpm_density(op, 30, interval, m=m, sampler=s)
        assert calls[0] == (60 if interval is None else 30) + (m - 1) * 30
        want = kpm_density(D, 30, interval, coeff_method="lanczos_qf", m=m, sampler=s)
        assert got.interval == want.interval
        assert got.coefficients.tobytes() == want.coefficients.tobytes()

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("interval", [None, (-1.1, 1.1)])
    def test_probe_0_runs_once_when_k_exceeds_d(self, interval, m):
        # Without an interval, one max(k, min(2k, d))-step run of probe 0
        # holds both its Ritz run and its k-step quadrature; with one, probe
        # 0 runs k steps like every other probe.
        d, k = 40, 50
        op, calls = counting(LinearOperator.diagonal(np.linspace(-1.0, 1.0, d)))
        kpm_density(op, k, interval, m=m, sampler=ProbeSampler(seed=19))
        first = max(k, min(2 * k, d)) if interval is None else k
        assert calls[0] == first + (m - 1) * k

    @pytest.mark.parametrize("coeff_method", ["recurrence", "lanczos_qf"])
    @pytest.mark.parametrize("interval", [None, (-1.1, 1.1)])
    def test_each_probe_is_drawn_once(self, coeff_method, interval):
        # Without an interval, the Ritz run and probe 0's moments share one
        # draw of probe 0.
        for m in (1, 4):
            s = CountingSampler(seed=18)
            kpm_density(arcsine_operator(60), 6, interval, coeff_method=coeff_method,
                        m=m, sampler=s)
            assert sorted(s.draws) == list(range(m))

    def test_recurrence_peak_does_not_grow_with_k(self):
        # The Ritz run keeps its tridiagonal and takes only its extreme
        # eigenvalues; the moments keep a few d-vectors.  Eight times the
        # steps may not cost one more d-vector.
        d = 20_000
        A = LinearOperator.diagonal(np.linspace(1.0, 10.0, d))
        peaks = []
        for k in (20, 160):
            tracemalloc.start()
            try:
                kpm_density(A, k, coeff_method="recurrence")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 * d

    def test_approximates_reference_density(self):
        # Operator with arcsine-distributed spectrum: the damped KPM
        # density stays close to the arcsine reference density.
        d = 400
        A = arcsine_operator(d)
        approx = kpm_density(A, 16, interval=(-1.01, 1.01), m=8,
                             sampler=ProbeSampler(seed=14))
        xs = np.linspace(-0.9, 0.9, 200)
        ref = 1.0 / (np.pi * np.sqrt(1.0 - xs**2))
        got = approx.density(xs)
        rel = np.abs(got - ref) / ref
        assert np.median(rel) <= 0.15


# The estimator tests again, with every probe map on a forced 3-thread pool.
@pytest.mark.usefixtures("pooled")
class TestSlqTraceOnPool(TestSlqTrace):
    pass


@pytest.mark.usefixtures("pooled")
class TestSlqDensityOnPool(TestSlqDensity):
    pass


@pytest.mark.usefixtures("pooled")
class TestKpmDensityOnPool(TestKpmDensity):
    pass


def keyed(A, bad):
    """``A``, except that it returns NaN for the vectors of ``bad`` (probes
    or their normalizations).  Scheduling cannot move the fault to another
    probe, as a call counter would."""

    def matvec(v):
        if any(np.array_equal(v, u) for u in bad):
            return np.full(A.dim, np.nan)
        return A.apply(v)

    return LinearOperator(A.dim, matvec)


def starts(sampler, i, d):
    b = sampler.probe(i, d)
    return [b, b / float(np.linalg.norm(b))]


class TestProbePool:
    d = 64

    def op(self):
        # log is undefined at one eigenvalue: some probes drop, not all
        return LinearOperator.diagonal(np.r_[-1.0, np.linspace(1.0, 2.0, self.d - 1)])

    @pytest.mark.parametrize("j", [1, 3])
    def test_nan_from_a_later_probe_raises_and_drops_nothing(self, pooled, j):
        # log drops the probes whose Ritz values dip below zero; probe j's
        # NaN is an operator fault and must not be one more drop.
        s = ProbeSampler(seed=2)
        assert 0 < slq_trace(self.op(), np.log, 2, 5, s).n_skipped < 4
        A = keyed(self.op(), starts(s, j, self.d))
        with pytest.raises(NonFiniteOperator):
            slq_trace(A, np.log, 2, 5, s)
        with pytest.raises(NonFiniteOperator):
            slq_density(A, 6, 5, s)
        for method in ("recurrence", "lanczos_qf"):
            for interval in (None, (-2.0, 5.0)):
                with pytest.raises(NonFiniteOperator):
                    kpm_density(A, 6, interval, coeff_method=method, m=5, sampler=s)

    def test_drop_counts_equal_the_serial_ones(self, probe_pool):
        s = ProbeSampler(seed=5)
        with probe_pool(1):
            serial = slq_trace(self.op(), np.log, 2, 12, s)
        with probe_pool(3):
            pooled = slq_trace(self.op(), np.log, 2, 12, s)
        assert 0 < serial.n_skipped < 12
        assert pooled == serial

    def test_first_failing_probe_in_index_order_raises(self, pooled):
        # Probes 2 and 5 fail, probe 5 first: the serial loop raises
        # probe 2's error, and so must the pool.
        s = ProbeSampler(seed=3)
        (_, q2), (_, q5) = starts(s, 2, self.d), starts(s, 5, self.d)
        failed5 = threading.Event()
        D = self.op()

        def matvec(v):
            if np.array_equal(v, q2):
                failed5.wait(5.0)
                raise ValueError("probe 2")
            if np.array_equal(v, q5):
                failed5.set()
                raise ValueError("probe 5")
            return D.apply(v)

        with pytest.raises(ValueError, match="probe 2"):
            slq_trace(LinearOperator(self.d, matvec), np.exp, 4, 7, s)

    def test_spectrum_outside_interval_precedes_probe_errors(self, pooled):
        s = ProbeSampler(seed=4)
        A = keyed(self.op(), starts(s, 1, self.d))
        for method in ("recurrence", "lanczos_qf"):
            with pytest.raises(SpectrumOutsideInterval):
                kpm_density(A, 6, (0.0, 1.0), coeff_method=method, m=3, sampler=s)

    def test_nested_estimator_in_a_worker_returns(self, pooled):
        # Each outer probe's matvec runs a whole inner estimate; on a full
        # pool the inner maps must not wait for workers they occupy.
        inner_op = self.op()
        seen = []

        def matvec(v):
            seen.append(threading.current_thread().name)
            slq_trace(inner_op, np.exp, 3, 4, ProbeSampler(seed=1))
            return inner_op.apply(v)

        outer = LinearOperator(self.d, matvec)
        done = []
        t = threading.Thread(
            target=lambda: done.append(slq_trace(outer, np.exp, 3, 7, ProbeSampler(seed=1))),
            daemon=True,
        )
        t.start()
        t.join(timeout=30)
        assert not t.is_alive() and len(done) == 1
        assert done[0] == slq_trace(inner_op, np.exp, 3, 7, ProbeSampler(seed=1))
        assert all(name.startswith("krylov-probe") for name in seen)

    def test_nested_estimator_runs_on_its_probe_thread(self, pooled):
        # An estimator called inside a probe runs serially on that probe's
        # thread; it starts no pool of its own for each outer probe.
        D = self.op()

        def matvec(v):
            threads = set()

            def inner(u):
                threads.add(threading.get_ident())
                return D.apply(u)

            slq_trace(LinearOperator(self.d, inner), np.exp, 3, 4, ProbeSampler(seed=1))
            assert threads == {threading.get_ident()}
            return D.apply(v)

        slq_trace(LinearOperator(self.d, matvec), np.exp, 2, 4, ProbeSampler(seed=1))

    def test_below_the_cutoff_every_matvec_runs_on_the_calling_thread(self):
        d = krylov.trace._POOL_MIN_DIM - 1
        D = LinearOperator.diagonal(np.linspace(1.0, 2.0, d))
        threads = set()

        def matvec(v):
            threads.add(threading.get_ident())
            return D.apply(v)

        A = LinearOperator(d, matvec)
        s = ProbeSampler(seed=6)
        slq_trace(A, np.log, 3, 4, s)
        slq_density(A, 3, 4, s)
        kpm_density(A, 3, (0.5, 2.5), m=4, sampler=s)
        assert threads == {threading.get_ident()}

    def test_many_workers_and_fast_switching_keep_bits_and_counts(self, probe_pool):
        # More workers than cores, and the interpreter switching threads
        # every microsecond: the same bits and the same operator calls.
        lock = threading.Lock()
        calls = [0]
        D = self.op()

        def matvec(v):
            with lock:
                calls[0] += 1
            return D.apply(v)

        A = LinearOperator(self.d, matvec)
        s = ProbeSampler("rademacher", seed=7)

        def run():
            calls[0] = 0
            out = (
                slq_trace(A, np.exp, 8, 16, s),
                slq_density(A, 8, 16, s).measure.nodes.tobytes(),
                kpm_density(A, 8, (-2.0, 5.0), m=16, sampler=s).coefficients.tobytes(),
            )
            return out, calls[0]

        with probe_pool(1):
            serial = run()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with probe_pool(8):
                pooled = run()
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial

    def test_no_probe_thread_outlives_its_call(self, pooled):
        def probe_threads():
            return [t for t in threading.enumerate() if t.name.startswith("krylov-probe")]

        s = ProbeSampler(seed=9)
        seen = []
        D = self.op()

        def matvec(v):
            seen.append(threading.current_thread().name)
            return D.apply(v)

        slq_trace(LinearOperator(self.d, matvec), np.exp, 4, 4, s)
        assert seen and all(name.startswith("krylov-probe") for name in seen)
        assert probe_threads() == []
        A = keyed(self.op(), starts(s, 2, self.d))
        with pytest.raises(NonFiniteOperator):
            slq_trace(A, np.exp, 4, 4, s)
        assert probe_threads() == []

    def test_forked_child_builds_its_own_pool(self, pooled):
        s = ProbeSampler(seed=8)
        want = slq_trace(self.op(), np.exp, 4, 4, s)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(
            target=lambda: queue.put(slq_trace(self.op(), np.exp, 4, 4, s)),
            daemon=True,
        )
        child.start()
        got = queue.get(timeout=30)
        child.join(timeout=30)
        assert child.exitcode == 0
        assert got == want


class TestControlVariate:
    def test_exact_surrogate_gives_zero_variance(self):
        d = 20
        vals = np.linspace(1.0, 4.0, d)
        qf = lambda b: float(b @ (vals * b))
        est = control_variate_trace(qf, float(vals.sum()), qf, d, 10, ProbeSampler(seed=15))
        assert est.estimate == pytest.approx(vals.mean(), abs=1e-14)
        assert est.stderr <= 1e-15

    def test_variance_reduction(self):
        d, m = 60, 200
        rng = np.random.default_rng(1)
        vals = np.geomspace(1.0, 100.0, d)
        approx_vals = vals * (1 + 0.01 * rng.standard_normal(d))
        s = ProbeSampler(seed=16)
        qf = lambda b: float(b @ (vals * b))
        qf_t = lambda b: float(b @ (approx_vals * b))
        plain = hutchinson_trace(qf, d, m, s)
        cv = control_variate_trace(qf, float(approx_vals.sum()), qf_t, d, m, s)
        assert cv.stderr <= plain.stderr / 2
        truth = vals.mean()
        assert abs(cv.estimate - truth) <= 3 * max(cv.stderr, 1e-12)

    def test_requires_probe(self):
        with pytest.raises(ValueError):
            control_variate_trace(lambda b: 0.0, 0.0, lambda b: 0.0, 5, 0, ProbeSampler())
