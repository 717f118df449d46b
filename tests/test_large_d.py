"""From ``core._OWN_MIN`` rows on, the recurrence and the solvers write
their per-step updates into buffers they own, chunk by chunk.  Every result
must be the bytes of the plain numpy expressions that run below it.  Here
the gate is lowered to the operator's size, three chunks of ``core._CHUNK``
rows (the last one short), and raised above it for the plain reference."""

from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse

import krylov.core
from krylov.core import LinearOperator
from krylov.lanczos import ReorthMode, _Recurrence, lanczos
from krylov.matfunc import lanczos_fa, two_pass_lanczos_fa
from krylov.solvers import cg, minres, multi_shift_solve
from krylov.trace import ProbeSampler, kpm_density, slq_density, slq_trace

D = 2 * krylov.core._CHUNK + 3
K = 12
MODES = [ReorthMode.NONE, ReorthMode.FULL]


def _diagonal():
    return LinearOperator.diagonal(np.linspace(0.5, 4.0, D))


def _csr():
    off = -np.ones(D - 1)
    return LinearOperator.from_matrix(scipy.sparse.diags([off, 2.5 * np.ones(D), off], [-1, 0, 1]).tocsr())


OPERATORS = {"diagonal": _diagonal, "csr": _csr}


class _Returns:
    """A diagonal operator whose ``matvec`` returns one internal array on
    every call (or, with ``diag=None``, its input itself), and which
    checks at each call that nothing wrote into what it last returned."""

    def __init__(self, diag=None):
        self.diag = diag
        self.out = None if diag is None else np.empty(D)
        self.last = None

    def __call__(self, v):
        if self.last is not None:
            assert self.last[0].tobytes() == self.last[1], "the library wrote into A's output"
        out = v if self.diag is None else np.multiply(self.diag, v, out=self.out)
        self.last = (out, out.tobytes())
        return out


@pytest.fixture(autouse=True)
def owned(monkeypatch):
    """Runs on D rows take the buffered path unless inside :func:`plain`."""
    monkeypatch.setattr(krylov.core, "_OWN_MIN", D)


@contextmanager
def plain():
    """Run the body on the plain expressions."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(krylov.core, "_OWN_MIN", D + 1)
        yield


def _start():
    return np.random.default_rng(7).standard_normal(D)


def _steps(A, mode, **options):
    # Each q is read at the moment it is yielded: it is valid until the next step.
    rec = _Recurrence(A, _start(), K, mode=mode, **options)
    qs = [(q.tobytes(), alpha, beta) for q, alpha, beta in rec.steps()]
    return rec, qs


def _history(h):
    return (
        [None if x is None else x.tobytes() for x in h.iterates],
        h.residual_norms.tobytes(),
        h.termination,
    )


def _solver_outputs(A, mode):
    b = _start()
    out = {}
    for backend in ("tridiagonal", "low_memory"):
        out["cg", backend] = _history(cg(A, b, K, backend=backend, mode=mode, tol=1e-12))
    out["minres"] = _history(minres(A, b, K, mode=mode, tol=1e-12))
    hists = multi_shift_solve(A, b, [-0.75, 1.5 + 0.5j, 1.5 - 0.5j], K, mode=mode, tol=1e-12)
    out["multi_shift"] = [_history(h) for h in hists]
    out["multi_shift_minres"] = [
        _history(h) for h in multi_shift_solve(A, b, [-0.75, 1.5 + 0.5j], K, "minres", mode, tol=None)
    ]
    return out


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", OPERATORS)
def test_steps_are_the_plain_recurrences(name, mode):
    A = OPERATORS[name]()
    rec, qs = _steps(A, mode)
    assert rec._own
    with plain():
        ref, ref_qs = _steps(A, mode)
        assert not ref._own
    assert qs == ref_qs
    assert (rec.alphas, rec.betas, rec.beta, rec.termination) == (
        ref.alphas, ref.betas, ref.beta, ref.termination
    )
    assert rec.z.tobytes() == ref.z.tobytes()
    dec = lanczos(A, _start(), K, mode=mode)
    with plain():
        dec_ref = lanczos(A, _start(), K, mode=mode)
    assert dec.basis.tobytes() == dec_ref.basis.tobytes()
    assert dec.next_vector.tobytes() == dec_ref.next_vector.tobytes()


@pytest.mark.parametrize("name", OPERATORS)
def test_replay_and_combine_are_the_plain_ones(name):
    A = OPERATORS[name]()
    coeffs = np.random.default_rng(8).standard_normal(K)
    rec, _ = _steps(A, ReorthMode.NONE, checkpoint_stride=5)
    replayed = [q.tobytes() for q in rec.replay()]
    combined = rec.combine(coeffs)
    with plain():
        ref, ref_qs = _steps(A, ReorthMode.NONE, checkpoint_stride=5)
        assert [q.tobytes() for q in ref.replay()] == replayed
        assert ref.combine(coeffs).tobytes() == combined.tobytes()
    assert replayed == [q for q, _, _ in ref_qs]
    assert rec.combine(coeffs).tobytes() == combined.tobytes()  # replay twice


@pytest.mark.parametrize("name", OPERATORS)
def test_two_pass_fa_is_the_one_pass_fa(name):
    A = OPERATORS[name]()
    f = lambda x: np.exp(-x / 2)  # noqa: E731
    two = two_pass_lanczos_fa(A, _start(), f, K, 5).value
    one = lanczos_fa(A, _start(), f, K, mode=ReorthMode.NONE).value
    with plain():
        ref = two_pass_lanczos_fa(A, _start(), f, K, 5).value
    assert two.tobytes() == one.tobytes() == ref.tobytes()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", OPERATORS)
def test_solvers_are_the_plain_solvers(name, mode):
    A = OPERATORS[name]()
    got = _solver_outputs(A, mode)
    with plain():
        assert _solver_outputs(A, mode) == got
    assert got["cg", "tridiagonal"] == got["cg", "low_memory"]


def _estimates(A):
    s = ProbeSampler(seed=4)
    density = slq_density(A, 8, 3, s)
    kpm = kpm_density(A, 6, m=2, sampler=s)
    return (
        slq_trace(A, np.log, 8, 3, s),
        density.measure.nodes.tobytes(),
        density.measure.weights.tobytes(),
        kpm.coefficients.tobytes(),
        kpm.interval,
    )


@pytest.mark.parametrize("name", OPERATORS)
def test_estimators_are_the_plain_ones_serial_and_pooled(probe_pool, name):
    A = OPERATORS[name]()
    with probe_pool(1):
        serial = _estimates(A)
    with probe_pool(3):
        assert _estimates(A) == serial
        with plain():
            assert _estimates(A) == serial


@pytest.mark.parametrize("mode", MODES)
def test_an_operator_that_returns_one_array_is_never_written(mode):
    diag = np.linspace(0.5, 4.0, D)
    A = LinearOperator(D, _Returns(diag))
    got = (_steps(A, mode)[1], _solver_outputs(A, mode))
    with plain():
        assert (_steps(_diagonal(), mode)[1], _solver_outputs(_diagonal(), mode)) == got


@pytest.mark.parametrize("mode", MODES)
def test_an_operator_that_returns_its_input(mode):
    A = LinearOperator(D, _Returns())
    got = (_steps(A, mode)[1], _solver_outputs(A, mode))
    with plain():
        assert (_steps(A, mode)[1], _solver_outputs(A, mode)) == got
