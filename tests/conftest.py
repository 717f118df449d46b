"""Shared test configuration: a derandomized, bounded hypothesis profile
(the property tests then give the same examples on every run), the
checkout's ``src/`` on the import path of subprocesses, an operator that
starts returning NaN after a given number of calls, and a probe pool
forced on at any operator size."""

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import krylov.trace
from krylov.core import LinearOperator

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "krylov", derandomize=True, max_examples=25, deadline=None, database=None
    )
    settings.load_profile("krylov")


@pytest.fixture(scope="session", autouse=True)
def src_on_subprocess_path():
    """``pyproject.toml`` puts ``src/`` on pytest's own import path; a
    subprocess such as ``python -m krylov.cli`` gets it from PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture
def nan_after():
    """``nan_after(A, n)``: ``A`` for its first ``n`` calls, then all NaN."""

    def wrap(A, n=0):
        calls = [0]

        def matvec(v):
            calls[0] += 1
            return A.apply(v) if calls[0] <= n else np.full(A.dim, np.nan)

        return LinearOperator(A.dim, matvec)

    return wrap


@contextmanager
def _probe_pool(workers=3):
    """Run every probe map of ``krylov.trace`` on up to ``workers``
    threads at any operator size; ``workers=1`` keeps every map serial."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(krylov.trace, "_POOL_MIN_DIM", 0)
        mp.setattr(krylov.trace, "_usable_cpus", lambda: workers)
        yield


@pytest.fixture(scope="session")
def probe_pool():
    """``with probe_pool(workers): ...``; session-scoped, so that
    hypothesis tests may take it."""
    return _probe_pool


@pytest.fixture
def pooled():
    """The test body runs with the probe pool forced on (3 threads)."""
    with _probe_pool():
        yield
