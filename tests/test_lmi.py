"""Feasibility solver contract: certificates, determinism, completeness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadepass import lmi
from cascadepass.lmi import (
    AffineFeasibilityProblem,
    FeasiblePoint,
    Infeasible,
    MalformedProblem,
    certify_point,
    solve_feasibility,
    sym_to_vec,
    sym_vec_size,
    vec_to_sym,
)


def scalar_problem(c0=-1.0, coeff=1.0):
    return AffineFeasibilityProblem(
        var_count=1,
        constant_block=[[c0]],
        coeff_blocks=([[coeff]],),
    )


def planted_problem(rng, dim_max=20, var_max=8, floor=1e-4):
    """Random affine family with a known interior point: at theta_star the
    master equals a matrix whose smallest eigenvalue is at least ``floor``."""
    d = int(rng.integers(1, dim_max + 1))
    v = int(rng.integers(1, var_max + 1))
    coeffs = []
    for _ in range(v):
        G = rng.normal(size=(d, d))
        coeffs.append(0.5 * (G + G.T))
    theta_star = rng.normal(size=v)
    basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
    eigs = rng.uniform(floor, 1.0, size=d)
    W = (basis * eigs) @ basis.T
    C0 = 0.5 * (W + W.T)
    for k in range(v):
        C0 = C0 - theta_star[k] * coeffs[k]
    prob = AffineFeasibilityProblem(
        var_count=v, constant_block=C0, coeff_blocks=tuple(coeffs)
    )
    return prob, theta_star


def test_sym_vec_round_trip_and_isometry():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        S = rng.normal(size=(n, n))
        S = S + S.T
        v = sym_to_vec(S)
        assert v.shape == (sym_vec_size(n),)
        assert np.allclose(vec_to_sym(v, n), S, atol=1e-14)
        T = rng.normal(size=(n, n))
        T = T + T.T
        assert np.isclose(np.dot(sym_to_vec(S), sym_to_vec(T)), np.sum(S * T), atol=1e-12)


def test_problem_validation():
    with pytest.raises(MalformedProblem, match="var_count must be nonnegative"):
        AffineFeasibilityProblem(var_count=-1, constant_block=[[1.0]], coeff_blocks=())
    with pytest.raises(MalformedProblem, match=r"constant_block must be square, got \(1, 2\)"):
        AffineFeasibilityProblem(var_count=0, constant_block=[[1.0, 0.0]], coeff_blocks=())
    with pytest.raises(MalformedProblem):
        AffineFeasibilityProblem(var_count=1, constant_block=[[1.0]], coeff_blocks=())
    with pytest.raises(MalformedProblem):
        AffineFeasibilityProblem(
            var_count=1, constant_block=[[1.0]], coeff_blocks=([[1.0, 0.0]],)
        )
    with pytest.raises(MalformedProblem):
        AffineFeasibilityProblem(
            var_count=1,
            constant_block=[[0.0, 1.0], [0.0, 0.0]],
            coeff_blocks=(np.eye(2),),
        )


def test_master_evaluation():
    prob = scalar_problem(c0=-1.0, coeff=2.0)
    assert prob.master([3.0])[0, 0] == 5.0
    with pytest.raises(ValueError):
        prob.master([1.0, 2.0])


def test_solve_scalar_feasible_and_certified():
    prob = scalar_problem(c0=-1.0, coeff=1.0)
    point = solve_feasibility(prob, margin=1e-6)
    assert isinstance(point, FeasiblePoint)
    assert point.lambda_min >= 1e-6
    assert certify_point(point.theta, prob, 1e-6).ok


def test_solve_fixed_negative_is_infeasible():
    prob = AffineFeasibilityProblem(
        var_count=0, constant_block=[[-1.0]], coeff_blocks=()
    )
    out = solve_feasibility(prob, margin=1e-6)
    assert isinstance(out, Infeasible)
    assert out.best_lambda_min == -1.0
    assert out.reason == "Stalled"


def test_solve_unreachable_direction_is_infeasible():
    # The variable only moves an off-diagonal entry, so the master keeps a
    # negative diagonal entry no matter what.
    prob = AffineFeasibilityProblem(
        var_count=1,
        constant_block=[[-2.0, 0.0], [0.0, 1.0]],
        coeff_blocks=([[0.0, 1.0], [1.0, 0.0]],),
    )
    out = solve_feasibility(prob, margin=1e-6)
    assert isinstance(out, Infeasible)
    assert out.best_lambda_min <= -2.0 + 1e-9


def test_solve_respects_bounds():
    # The bound theta >= 4 is the block theta - 4 of diag(-1 + theta, theta - 4).
    prob = AffineFeasibilityProblem(
        var_count=1,
        constant_block=np.diag([-1.0, -4.0]),
        coeff_blocks=(np.eye(2),),
    )
    point = solve_feasibility(prob, margin=1e-6)
    assert isinstance(point, FeasiblePoint)
    assert point.theta[0] >= 4.0 + 1e-6


def test_problem_without_a_matrix_block_is_malformed():
    # Without a block a problem constrains nothing, with or without variables.
    for var_count in (0, 2):
        with pytest.raises(MalformedProblem, match="without a matrix block"):
            AffineFeasibilityProblem(
                var_count=var_count,
                constant_block=np.zeros((0, 0)),
                coeff_blocks=(np.zeros((0, 0)),) * var_count,
            )


def test_margin_must_be_positive():
    prob = scalar_problem()
    with pytest.raises(MalformedProblem):
        solve_feasibility(prob, margin=0.0)
    with pytest.raises(MalformedProblem):
        solve_feasibility(prob, margin=np.inf)


def test_solver_is_deterministic():
    rng = np.random.default_rng(17)
    prob, _ = planted_problem(rng, dim_max=12, var_max=6)
    first = solve_feasibility(prob, margin=1e-6)
    second = solve_feasibility(prob, margin=1e-6)
    assert isinstance(first, FeasiblePoint)
    assert np.array_equal(first.theta, second.theta)
    assert first.lambda_min == second.lambda_min


def test_completeness_on_planted_instances():
    rng = np.random.default_rng(0)
    total = 500
    solved = 0
    for _ in range(total):
        prob, _ = planted_problem(rng)
        point = solve_feasibility(prob, margin=1e-6)
        if isinstance(point, FeasiblePoint):
            assert certify_point(point.theta, prob, 1e-6).ok
            solved += 1
    assert solved >= int(0.99 * total)


def test_soundness_every_returned_point_certifies():
    rng = np.random.default_rng(8)
    for _ in range(120):
        d = int(rng.integers(1, 9))
        v = int(rng.integers(0, 5))
        coeffs = []
        for _ in range(v):
            G = rng.normal(size=(d, d))
            coeffs.append(0.5 * (G + G.T))
        G = rng.normal(size=(d, d))
        C0 = 0.5 * (G + G.T)
        prob = AffineFeasibilityProblem(
            var_count=v, constant_block=C0, coeff_blocks=tuple(coeffs)
        )
        out = solve_feasibility(prob, margin=1e-6)
        if isinstance(out, FeasiblePoint):
            cert = certify_point(out.theta, prob, 1e-6)
            assert cert.ok
            assert cert.lambda_min == out.lambda_min
        else:
            assert out.reason
            assert out.evaluations >= 1


def test_certify_point_reasons():
    prob = scalar_problem(c0=0.0, coeff=1.0)
    good = certify_point([5.0], prob, 1e-6)
    assert good.ok and good.reasons == ()
    assert good.lambda_min == 5.0

    bad = certify_point([-1.0], prob, 1e-6)
    assert not bad.ok
    assert bad.reasons == ("MatrixNotPositive",)

    low = certify_point([5.0], prob, 10.0)
    assert low.reasons == ("MatrixNotPositive",)


def convex_quadratic(points):
    """0.5 x'Hx - b'x with H positive definite, recording each point."""
    rng = np.random.default_rng(5)
    G = rng.standard_normal((4, 4))
    H = G @ G.T + np.eye(4)
    b = rng.standard_normal(4)

    def fun(x):
        points.append(x.copy())
        return 0.5 * x @ H @ x - b @ x, H @ x - b, H

    return fun, np.linalg.solve(H, b)


def x_minus_log_x(points, fail_at=None):
    """x - log x on x > 0, minimized at 1, recording each point."""
    def fun(x):
        points.append(float(x[0]))
        if len(points) == fail_at:
            raise lmi._TargetReached
        if x[0] <= 0.0:
            return None
        return x[0] - np.log(x[0]), np.array([1.0 - 1.0 / x[0]]), np.array([[x[0] ** -2]])

    return fun


def test_newton_reaches_the_minimizer_of_a_convex_quadratic_in_one_step():
    points = []
    fun, minimizer = convex_quadratic(points)
    x0 = np.zeros(4)
    x = lmi.minimize(fun, x0)
    assert np.allclose(x, minimizer, rtol=0.0, atol=1e-12)
    # x0, then the full step, whose Newton decrement ends the run.
    assert len(points) == 2 and np.array_equal(points[0], x0)
    assert not x0.any()


def test_newton_backtracks_when_the_full_step_leaves_the_domain():
    # From 3 the full step lands at -3 and its half at 0, both outside
    # x > 0; the quarter step to 1.5 falls far enough.
    points = []
    x = lmi.minimize(x_minus_log_x(points), np.array([3.0]))
    assert points[:4] == pytest.approx([3.0, -3.0, 0.0, 1.5], abs=1e-12)
    # A squared decrement (x - 1)^2 of at most 1e-10 ends the run.
    assert abs(x[0] - 1.0) <= 1e-5


def test_an_exception_escapes_newton_at_its_evaluation():
    for k in (1, 3, 5):
        points = []
        with pytest.raises(lmi._TargetReached):
            lmi.minimize(x_minus_log_x(points, fail_at=k), np.array([3.0]))
        assert len(points) == k


def test_newton_stops_when_no_step_falls():
    # The reported gradient of x'x points uphill, so every trial step,
    # halved down to 1e-12, rises: minimize returns its start.
    points = []

    def uphill(x):
        points.append(x.copy())
        return float(x @ x), -2.0 * x, 2.0 * np.eye(len(x))

    x = lmi.minimize(uphill, np.array([1.0]))
    assert x.tolist() == [1.0]
    assert len(points) == 41 and all(p[0] > 1.0 for p in points[1:])


def test_the_pull_back_returns_the_zero_point_when_it_clears_the_threshold():
    # lambda_min(diag(1 + u, 1.02 - u)) peaks at 1.01 at u = 0.01, short of
    # the target; the search ends there, and u = 0 keeps more than the
    # SHED share of it, so the pull-back takes the zero point.
    prob = AffineFeasibilityProblem(var_count=1, constant_block=np.diag([1.0, 1.02]),
                                    coeff_blocks=(np.diag([1.0, -1.0]),))
    centered = []
    minimize = lmi.minimize

    def recording(*args):
        centered.append(minimize(*args))
        return centered[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lmi, "minimize", recording)
        point = solve_feasibility(prob, 1e-3, target=2.0)
    assert len(centered) == 1 and abs(centered[0][0] - 0.01) < 1e-3
    assert isinstance(point, FeasiblePoint)
    assert point.theta.tolist() == [0.0] and point.lambda_min == 1.0


def planted_pair(seed, d, v, tau):
    """A problem with a point of margin exactly 10 tau, and the same
    problem with an extra 1 x 1 block -1 that no variable touches."""
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((v, d, d))
    D = D + D.transpose(0, 2, 1)
    theta = rng.standard_normal(v)
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    eigs = rng.uniform(10.0 * tau, 1.0, size=d)
    eigs[0] = 10.0 * tau
    C0 = (basis * eigs) @ basis.T - np.tensordot(theta, D, axes=1)
    C0 = 0.5 * (C0 + C0.T)
    prob = AffineFeasibilityProblem(var_count=v, constant_block=C0, coeff_blocks=tuple(D))

    def bordered(B, corner):
        out = np.zeros((d + 1, d + 1))
        out[:d, :d] = B
        out[d, d] = corner
        return out

    blocked = AffineFeasibilityProblem(
        var_count=v,
        constant_block=bordered(C0, -1.0),
        coeff_blocks=tuple(bordered(B, 0.0) for B in D),
    )
    return prob, blocked


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 12),
       st.sampled_from([1e-6, 1e-4, 1e-2]))
def test_the_barrier_search_meets_planted_margins_and_declines_blocked_ones(seed, d, v, tau):
    prob, blocked = planted_pair(seed, d, v, tau)
    point = solve_feasibility(prob, tau, target=5.0 * tau)
    assert isinstance(point, FeasiblePoint)
    assert certify_point(point.theta, prob, tau).ok
    out = solve_feasibility(blocked, tau, target=5.0 * tau)
    assert isinstance(out, Infeasible) and out.reason == "Stalled"
    # The block -1 caps every point's margin; the search's normalized units
    # may round it by an ulp.
    assert out.best_lambda_min <= -1.0 + 1e-12
