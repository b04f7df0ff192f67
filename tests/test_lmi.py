"""Feasibility solver contract: certificates, determinism, completeness."""

import numpy as np
import pytest

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


def scalar_problem(c0=-1.0, coeff=1.0, lb=None, eq=None):
    kwargs = {}
    if lb is not None:
        kwargs["lower_bounds"] = [lb]
    if eq is not None:
        kwargs["eq_matrix"] = [[1.0]]
        kwargs["eq_rhs"] = [eq]
    return AffineFeasibilityProblem(
        var_count=1,
        constant_block=[[c0]],
        coeff_blocks=([[coeff]],),
        **kwargs,
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
    with pytest.raises(MalformedProblem):
        AffineFeasibilityProblem(
            var_count=1,
            constant_block=[[1.0]],
            coeff_blocks=([[1.0]],),
            eq_matrix=[[1.0, 2.0]],
            eq_rhs=[0.0],
        )
    with pytest.raises(MalformedProblem):
        AffineFeasibilityProblem(
            var_count=1,
            constant_block=[[1.0]],
            coeff_blocks=([[1.0]],),
            lower_bounds=[np.inf],
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


def test_solve_respects_equalities_and_bounds():
    prob = scalar_problem(c0=-1.0, coeff=1.0, lb=4.0)
    point = solve_feasibility(prob, margin=1e-6)
    assert isinstance(point, FeasiblePoint)
    assert point.theta[0] >= 4.0

    prob = scalar_problem(c0=-1.0, coeff=1.0, eq=7.0)
    point = solve_feasibility(prob, margin=1e-6)
    assert isinstance(point, FeasiblePoint)
    assert abs(point.theta[0] - 7.0) <= 1e-9
    assert point.eq_residual <= 1e-9


def test_solve_reports_inconsistent_equalities():
    prob = AffineFeasibilityProblem(
        var_count=1,
        constant_block=[[1.0]],
        coeff_blocks=([[1.0]],),
        eq_matrix=[[1.0], [1.0]],
        eq_rhs=[0.0, 1.0],
    )
    out = solve_feasibility(prob, margin=1e-6)
    assert isinstance(out, Infeasible)
    assert out.reason == "InconsistentEqualities"


def test_solve_equality_only_problem():
    prob = AffineFeasibilityProblem(
        var_count=2,
        constant_block=np.zeros((0, 0)),
        coeff_blocks=(np.zeros((0, 0)), np.zeros((0, 0))),
        eq_matrix=np.eye(2),
        eq_rhs=[2.0, 3.0],
    )
    point = solve_feasibility(prob, margin=1e-6)
    assert isinstance(point, FeasiblePoint)
    assert np.allclose(point.theta, [2.0, 3.0], atol=1e-12)
    assert point.lambda_min == np.inf


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
    prob = scalar_problem(c0=0.0, coeff=1.0, lb=0.0, eq=5.0)
    good = certify_point([5.0], prob, 1e-6)
    assert good.ok
    assert good.lambda_min == 5.0
    assert good.bound_margin == 5.0

    bad = certify_point([-1.0], prob, 1e-6)
    assert not bad.ok
    assert set(bad.reasons) == {"MatrixNotPositive", "EqualityResidual", "BoundViolation"}

    low = certify_point([5.0], prob, 10.0)
    assert low.reasons == ("MatrixNotPositive",)

