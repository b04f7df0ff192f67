"""Feasibility solver contract: certificates, determinism, completeness."""

import numpy as np
import pytest
import scipy.optimize
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



def smoothed_lambda_min(seed, d, v, level):
    """A pure objective of the kind lmi's search minimizes: minus the
    smoothed smallest eigenvalue of C0 + sum_k u_k D_k, with its gradient,
    in the search's normalized units and at rung ``level`` of its ladder."""
    rng = np.random.default_rng(seed)
    C0 = rng.standard_normal((d, d))
    C0 = C0 + C0.T - 2.0 * np.eye(d)
    D = rng.standard_normal((v, d, d))
    D = D + D.transpose(0, 2, 1)
    C0 /= max(1.0, np.abs(C0).max())
    Dn = (D / np.abs(D).max(axis=(1, 2))[:, None, None]).reshape(v, -1)
    s = 0.25
    for _ in range(level):
        s /= 10.0

    def fun(u):
        lam, vecs = np.linalg.eigh(C0 + (u @ Dn).reshape(d, d))
        w = np.exp(-(lam - lam[0]) / s)
        total = w.sum()
        value = lam[0] - s * np.log(total) - 1e-12 * float(u @ u)
        w /= total
        G = (vecs * w) @ vecs.T
        return -value, -(Dn @ G.ravel() - 2e-12 * u)

    return fun


def recording(fun, points, fail_at=None):
    def wrapped(u):
        points.append(u.copy())
        if len(points) == fail_at:
            raise lmi._TargetReached
        return fun(u)

    return wrapped


def scipy_lbfgsb(fun, x0):
    return scipy.optimize.minimize(
        fun,
        x0.copy(),
        jac=True,
        method="L-BFGS-B",
        options={
            "maxcor": lmi.LBFGS_CORRECTIONS,
            "maxls": lmi.LBFGS_MAXLS,
            "maxiter": lmi.LBFGS_MAXITER,
            "maxfun": lmi.LBFGS_MAXFUN,
            "ftol": lmi.LBFGS_FTOL,
            "gtol": lmi.LBFGS_GTOL,
        },
    )


def objectives():
    return st.tuples(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(1, 12),
        st.integers(0, 13),
        st.sampled_from([0.0, 0.1, 1.0]),
    )


def start(seed, v, spread):
    return spread * np.random.default_rng(seed + 1).standard_normal(v)


def test_lbfgs_driver_evaluates_the_points_scipy_does():
    stops = set()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(objectives())
    def check(case):
        seed, d, v, level, spread = case
        fun = smoothed_lambda_min(seed, d, v, level)
        x0 = start(seed, v, spread)
        x0_before = x0.copy()
        ours, theirs = [], []
        x = lmi.minimize(recording(fun, ours), x0)
        result = scipy_lbfgsb(recording(fun, theirs), x0)
        assert np.array_equal(x0, x0_before)
        assert len(ours) == len(theirs) == result.nfev
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
        assert np.array_equal(x, result.x)
        stops.add("iteration cap" if result.nit == lmi.LBFGS_MAXITER else result.success)

    check()
    assert stops >= {True, "iteration cap"}


@settings(derandomize=True, max_examples=20, deadline=None)
@given(objectives(), st.integers(0, 2**16))
def test_an_exception_escapes_the_lbfgs_driver_at_its_evaluation(case, draw):
    seed, d, v, level, spread = case
    fun = smoothed_lambda_min(seed, d, v, level)
    x0 = start(seed, v, spread)
    theirs = []
    scipy_lbfgsb(recording(fun, theirs), x0)
    k = 1 + draw % len(theirs)
    ours = []
    with pytest.raises(lmi._TargetReached):
        lmi.minimize(recording(fun, ours, fail_at=k), x0)
    assert len(ours) == k
    assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
