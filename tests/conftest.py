"""Shared test configuration: a derandomized, bounded hypothesis profile
(the property tests then give the same examples on every run) and an
operator that starts returning NaN after a given number of calls."""

import numpy as np
import pytest

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
