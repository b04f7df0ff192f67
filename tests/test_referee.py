"""An exact referee for the centralized check, in rational arithmetic.

The oracle shares protocol._storage_test and blockla._cholesky_passes with
the design, and its verdict rests on a rounding analysis, so a bug in
either could fool both. The referee shares no code with them: it forms
W = -(Acl'Q + Q Acl) - 2 eps I and Q B2 - C' exactly from the stored
floats of a ClosedLoopSystem, with fractions.Fraction, and factors W as
L D L' with exact pivots.
"""

import dataclasses
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadepass.oracle import assemble_closed_loop, centralized_sp_check, sp_matrix, worst_start
from cascadepass.protocol import run_cascade_design
from cascadepass.sample_cascades import random_cascade


def exact(a):
    """The float array a as nested lists of Fractions, each the float's exact value."""
    return [[Fraction(x) for x in row] for row in np.asarray(a, dtype=float).tolist()]


def exact_sp_matrix(cl):
    """W = -(Acl'Q + Q Acl) - 2 eps I of cl's stored floats, exactly."""
    A, Q, n = exact(cl.Acl), exact(cl.Q), cl.n
    two_eps = 2 * Fraction(cl.epsilon)
    return [[-sum(A[k][i] * Q[k][j] + Q[i][k] * A[k][j] for k in range(n)) - (two_eps if i == j else 0)
             for j in range(n)] for i in range(n)]


def exact_pivots(W):
    """The pivots D of W = L D L', eliminated exactly, up to the first that
    is not positive: W is positive definite exactly when all n are."""
    W = [row[:] for row in W]
    pivots = []
    for j in range(len(W)):
        pivot = W[j][j]
        pivots.append(pivot)
        if pivot <= 0:
            break
        for i in range(j + 1, len(W)):
            factor = W[i][j] / pivot
            if factor:
                for k in range(j + 1, len(W)):
                    W[i][k] -= factor * W[j][k]
    return pivots


def exact_channel_gaps(cl):
    """(gaps, bounds): for each output channel j, max_i |(Q B2 - C')_ij|
    exactly, and its bound 10^-8 max(1, max_i |C_ji|)."""
    Q, B2, C = exact(cl.Q), exact(cl.B2), exact(cl.C)
    n = cl.n
    gaps = [max(abs(sum(Q[i][k] * B2[k][j] for k in range(n)) - C[j][i]) for i in range(n))
            for j in range(cl.m)]
    bounds = [Fraction(1, 10**8) * max(1, max(abs(c) for c in C[j])) for j in range(cl.m)]
    return gaps, bounds


def test_the_referee_factors_exactly_and_rejects_an_overclaimed_rate():
    assert exact_pivots([[Fraction(4), Fraction(2)], [Fraction(2), Fraction(2)]]) == [4, 1]
    assert exact_pivots([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]) == [1, -3]
    cl = assemble_closed_loop(run_cascade_design(random_cascade(3, np.random.default_rng(3))))
    W = exact_sp_matrix(cl)
    assert all(W[i][j] == W[j][i] for i in range(cl.n) for j in range(cl.n))
    assert np.allclose(np.array(W, dtype=float), sp_matrix(cl), rtol=1e-12, atol=1e-12)
    assert all(p > 0 for p in exact_pivots(W))
    # Above the storage's true rate r, W is indefinite.
    over = dataclasses.replace(cl, epsilon=worst_start(cl)[0] * (1 + 1e-3))
    assert exact_pivots(exact_sp_matrix(over))[-1] <= 0
    gaps, bounds = exact_channel_gaps(cl)
    assert len(gaps) == cl.m and all(gap <= bound for gap, bound in zip(gaps, bounds))


# Rates at and just either side of the storage's true rate r, as
# worst_start computes it: the oracle accepts above, down to about
# r(1 - 1e-12), and must reject wherever the exact W is not positive
# definite.
DELTAS = (1e-3, 1e-9, 1e-12, 0.0, -1e-12)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_every_state_the_oracle_accepts_is_exactly_certified(count, seed):
    cl = assemble_closed_loop(run_cascade_design(random_cascade(count, np.random.default_rng(seed))))
    assert cl.n <= 12
    rate = worst_start(cl)[0]
    gaps, bounds = exact_channel_gaps(cl)
    for delta in DELTAS:
        trial = dataclasses.replace(cl, epsilon=rate * (1.0 - delta))
        if not centralized_sp_check(trial).verdict:
            continue
        assert all(p > 0 for p in exact_pivots(exact_sp_matrix(trial))), delta
        assert all(gap <= bound for gap, bound in zip(gaps, bounds)), delta
