"""Step-by-step design protocol: packets, records, routes and recursion."""

import dataclasses
import functools
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadepass import blockla, files, lmi, model, oracle, protocol
from cascadepass.model import CascadeNetwork, InvalidNetwork, Subsystem
from cascadepass.protocol import (
    ROUTE_SYNTHESIZED,
    ROUTE_VERIFIED,
    DesignFailed,
    DesignRecord,
    DimensionMismatch,
    MessengerPacket,
    NetworkDesignState,
    add_subsystem,
    build_packet,
    design_tridiagonal,
    local_synthesize,
    local_verify,
    run_cascade_design,
)
from cascadepass.sample_cascades import (
    four_stage_cascade,
    random_cascade,
    two_stage_scalar_cascade,
)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def scalar_subsystem(a=-1.0):
    return Subsystem(A=a, B1=1.0, B2=1.0, B3=1.0, C=1.0)


def free_storage_subsystem(a=-1.0):
    # Two states and one output: Q B2 = C' fixes Q's first column only, so
    # Q[1, 1] stays free and verify is a search.
    return Subsystem(A=a * np.eye(2), B1=np.eye(2), B2=[[1.0], [0.0]], B3=np.eye(2), C=[[1.0, 0.0]])


def rank_deficient(sub):
    """sub with every B3 column but the first zeroed. B3 then lacks full row
    rank (n > 1), so synthesis takes no closed form and searches both stages."""
    B3 = sub.B3.copy()
    B3[:, 1:] = 0.0
    return Subsystem(A=sub.A, B1=sub.B1, B2=sub.B2, B3=B3, C=sub.C)


def verified_record(index=1, q=1.0, eps=1.0):
    return DesignRecord(
        index=index, Q=[[q]], epsilon=eps,
        K_self=None, K_to_prev=None, K_prev_to_self=None, route=ROUTE_VERIFIED,
    )


def test_packet_validation():
    MessengerPacket(prev_index=1, M_prev=[[1.0]], G_prev=[[0.5]], T_prev=[[1.0]])
    with pytest.raises(blockla.NotPositiveDefinite):
        MessengerPacket(prev_index=1, M_prev=[[-1.0]], G_prev=[[0.5]], T_prev=[[1.0]])
    with pytest.raises(DimensionMismatch):
        MessengerPacket(prev_index=1, M_prev=[[1.0]], G_prev=[[0.5], [0.5]], T_prev=[[1.0]])
    with pytest.raises(DimensionMismatch):
        MessengerPacket(prev_index=0, M_prev=[[1.0]], G_prev=[[0.5]], T_prev=[[1.0]])
    with pytest.raises(DimensionMismatch, match=re.escape("T_prev must have 1 rows, got shape (2, 1)")):
        MessengerPacket(prev_index=1, M_prev=[[1.0]], G_prev=[[0.5]], T_prev=[[1.0], [1.0]])


def test_record_validation():
    rec = verified_record()
    assert rec.route == ROUTE_VERIFIED
    assert rec.K_self is None
    with pytest.raises(ValueError):
        DesignRecord(index=1, Q=[[1.0]], epsilon=1.0, K_self=[[1.0]],
                     K_to_prev=None, K_prev_to_self=None,
                     route=ROUTE_VERIFIED)
    with pytest.raises(ValueError):
        DesignRecord(index=1, Q=[[1.0]], epsilon=1.0, K_self=None,
                     K_to_prev=None, K_prev_to_self=None,
                     route="Guessed")
    with pytest.raises(ValueError):
        DesignRecord(index=1, Q=[[1.0]], epsilon=0.0, K_self=None,
                     K_to_prev=None, K_prev_to_self=None,
                     route=ROUTE_VERIFIED)
    with pytest.raises(ValueError, match="K_self contains non-finite entries"):
        DesignRecord(index=1, Q=[[1.0]], epsilon=1.0, K_self=[[np.nan]],
                     K_to_prev=None, K_prev_to_self=None,
                     route=ROUTE_SYNTHESIZED)
    # A designed record tampered the same ways cannot be built either, so
    # no state holds one to grow.
    designed = run_cascade_design(four_stage_cascade()).records[3]
    assert designed.route == ROUTE_SYNTHESIZED
    for tamper, message in ((dict(epsilon=0.0), "epsilon must be positive"),
                            (dict(epsilon=-1.0), "epsilon must be positive"),
                            (dict(route="Guessed"), "unknown route"),
                            (dict(route=ROUTE_VERIFIED), "a Verified record carries no gains")):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(designed, **tamper)


def test_state_validation():
    net = two_stage_scalar_cascade()
    state = NetworkDesignState(
        net=net, records=(verified_record(1, eps=0.8), verified_record(2, eps=0.3))
    )
    assert state.global_epsilon == 0.3
    with pytest.raises(ValueError):
        NetworkDesignState(net=net, records=(verified_record(1),))
    with pytest.raises(ValueError):
        NetworkDesignState(
            net=net, records=(verified_record(1), verified_record(3))
        )


def test_verify_stable_scalar_exact_outcome():
    rec = local_verify(scalar_subsystem())
    assert isinstance(rec, DesignRecord)
    assert rec.route == ROUTE_VERIFIED
    assert rec.index == 1
    # The storage equality pins Q to 1; the master's rate settles on half
    # the supremum of the feasible interval (0, 2 - tau), and the record
    # keeps half of that.
    assert rec.Q[0, 0] == 1.0
    assert abs(rec.epsilon - 0.5 * (1.0 - 5e-7)) <= 1e-9
    assert abs(rec.M_cl[0, 0] - (1.0 + 5e-7)) <= 1e-9
    assert rec.K_self is None and rec.K_to_prev is None and rec.K_prev_to_self is None


def test_verify_rejects_upstream_coupling_without_packet():
    with pytest.raises(DimensionMismatch):
        local_verify(scalar_subsystem(), h_prev=[[1.0]])


@pytest.mark.parametrize("kwargs, message", [
    (dict(h_self=[[1.0, 0.0]]), "h(i,i) is (1, 2), expected (1, 1)"),
    (dict(packet=MessengerPacket(prev_index=1, M_prev=np.eye(2), G_prev=np.ones((2, 2)), T_prev=np.ones((2, 1)))),
     "packet G_prev has 2 columns, subsystem has 1 states"),
], ids=["h_self-shape", "packet-columns"])
def test_a_coupling_or_packet_that_does_not_fit_the_subsystem_is_a_dimension_mismatch(kwargs, message):
    for route in (local_verify, local_synthesize):
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            route(scalar_subsystem(), **kwargs)


def test_a_storage_equality_that_overflows_ends_cleanly_on_both_routes():
    # Q B2 = C' solves to Q = 1e600: the step is malformed.
    tiny = Subsystem(A=-1.0, B1=1.0, B2=1e-300, B3=1.0, C=1e300)
    # Q_p is finite, but C'(C B2)^-1 C is not: the closed-form storage
    # gives up and the search declines.
    wide = Subsystem(A=-np.eye(2), B1=np.ones((2, 1)), B2=[[1.0], [0.0]], B3=np.ones((2, 1)), C=[[1.0, 1e200]])
    Q_p, N, consistent = protocol._storage_space(wide)
    assert consistent and np.isfinite(Q_p).all()
    assert protocol._closed_form_storage(wide, Q_p, N, protocol._step_margin(wide)) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (local_verify, local_synthesize):
            with pytest.raises(lmi.MalformedProblem, match="storage equality overflows when solved"):
                route(tiny)
            out = route(wide)
            assert isinstance(out, lmi.Infeasible) and out.reason == "Stalled"


def test_synthesize_stabilizes_unstable_scalar():
    out = local_verify(scalar_subsystem(3.0))
    assert isinstance(out, lmi.Infeasible)
    rec = local_synthesize(scalar_subsystem(3.0))
    assert isinstance(rec, DesignRecord)
    assert rec.route == ROUTE_SYNTHESIZED
    assert rec.Q[0, 0] == 1.0
    k = rec.K_self[0, 0]
    assert 3.0 + k < 0.0
    assert np.isclose(rec.M_cl[0, 0], -2.0 * (3.0 + k) - 2.0 * rec.epsilon, atol=1e-12)


def counting_solver(monkeypatch):
    calls = []
    solve = lmi.solve_feasibility

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lmi, "solve_feasibility", counting)
    return calls


def recording_solver(monkeypatch):
    points = []
    solve = lmi.solve_feasibility

    def recording(*args, **kwargs):
        points.append(solve(*args, **kwargs))
        return points[-1]

    monkeypatch.setattr(lmi, "solve_feasibility", recording)
    return points


@pytest.mark.parametrize("route", [local_verify, local_synthesize])
@pytest.mark.parametrize("reason", [
    "EqualityResidual", "StorageNotPositiveDefinite", "MarginNotPositiveDefinite",
])
def test_a_step_that_fails_a_check_after_its_search_declines_at_stage_one_margin(route, reason, monkeypatch):
    points = recording_solver(monkeypatch)
    if reason == "MarginNotPositiveDefinite":
        def failing(*args):
            raise blockla.NotPositiveDefinite(0)
        monkeypatch.setattr(blockla, "_margin_step", failing)
    else:
        test = protocol._storage_test
        forced = (reason != "EqualityResidual", reason != "StorageNotPositiveDefinite")

        def failing(*args):
            # _storage_space tests Q_p before the search; only the found Q fails.
            result = test(*args)
            return (*forced, *result[2:]) if points else result
        monkeypatch.setattr(protocol, "_storage_test", failing)
    out = route(rank_deficient(free_storage_subsystem()))
    assert isinstance(out, lmi.Infeasible) and out.reason == reason
    assert out.best_lambda_min == points[0].lambda_min > 0.0


def test_verify_declines_non_hurwitz_drift_without_the_solver(monkeypatch):
    calls = counting_solver(monkeypatch)
    for out in (local_verify(scalar_subsystem(3.0)),
                local_verify(scalar_subsystem(-1.0), h_self=[[2.0]])):
        assert isinstance(out, lmi.Infeasible)
        assert out.reason == "NotHurwitz"
        assert out.evaluations == 0
    assert calls == []
    # g = 3: the bound -(2g Q_FLOOR + EPS_MIN) / (2 + 2g) is the diagnosis.
    bound = -(6.0 * protocol.Q_FLOOR + protocol.EPS_MIN) / 8.0
    assert local_verify(scalar_subsystem(3.0)).best_lambda_min == bound


def counting_searches(monkeypatch):
    runs = []
    minimize = lmi.minimize

    def counting(*args):
        runs.append(1)
        return minimize(*args)

    monkeypatch.setattr(lmi, "minimize", counting)
    return runs


def test_local_search_stops_once_a_finer_level_cannot_change_its_outcome(monkeypatch):
    # Newton centerings of the search, one per barrier round. The
    # four-stage searches run at steps 1 and 4, whose B3 lacks full row
    # rank; step 2's scalar B3 has it, so that step searches no more. The
    # declining verify stops after its first round, whose bound t + d/w
    # already lies below the margin.
    runs = counting_searches(monkeypatch)
    state = run_cascade_design(four_stage_cascade())
    assert [rec.route for rec in state.records] == ["Synthesized", "Synthesized", "Verified", "Synthesized"]
    assert len(runs) == 4

    runs.clear()
    net = random_cascade(1, np.random.default_rng(39))
    out = local_verify(net.subsystems[0], net.h(1, 1))
    assert isinstance(out, lmi.Infeasible) and out.reason == "Stalled"
    assert len(runs) == 1 and out.evaluations == 14
    assert out.best_lambda_min == pytest.approx(-0.4518, abs=1e-4)


def test_rank_deficient_b3_designs_the_same_chains():
    # Every B3 column but the first zeroed: the chains that design pass the
    # oracle, and every other one is a typed decline.
    rng = np.random.default_rng(3)
    designed = []
    for k in range(30):
        net = random_cascade(1 + k % 5, rng)
        try:
            state = run_cascade_design(CascadeNetwork([rank_deficient(sub) for sub in net.subsystems], net.couplings))
        except DesignFailed:
            continue
        assert oracle.centralized_sp_check(oracle.assemble_closed_loop(state)).verdict
        designed.append(k)
    assert designed == [0, 1, 2, 5, 8, 10, 12, 15, 18, 20, 21, 24, 25]


def test_full_row_rank_synthesis_runs_no_search(monkeypatch):
    calls = counting_solver(monkeypatch)
    sub, h_self, h_prev, packet = planted_step(1, 2, 1, 2)
    # B3 is 2 x 2 and Q B2 = C' leaves Q one free direction: stage 1 takes
    # the closed-form storage and stage 2 the decoupling point.
    assert np.linalg.matrix_rank(sub.B3) == 2 and len(protocol._storage_space(sub)[1]) == 1
    assert isinstance(local_synthesize(sub, h_self, h_prev, packet), DesignRecord)
    assert calls == []
    # With every B3 column but the first zeroed, both stages search.
    assert isinstance(local_synthesize(rank_deficient(sub), h_self, h_prev, packet), DesignRecord)
    assert len(calls) == 2


@pytest.mark.parametrize("seed, cycle, step", [(27, 0, 9), (7203, 1, 15)])
def test_growth_steps_that_stalled_in_a_search_now_design(seed, cycle, step, monkeypatch):
    # The benchmark's growth cycle (counted from 0, as grow_persist counts
    # them) on these seeds declined at this step with a Stalled search, at
    # margins -1.781 and -8.412.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import GROWTH, fixed_design, seeded_additions

    state = fixed_design()
    rng = np.random.default_rng(seed)
    cycles = [seeded_additions(rng, state.net.subsystems[-1], state.net.n_subsystems + 1, GROWTH)
              for _ in range(cycle + 1)]
    for addition in cycles[cycle][:step - state.net.n_subsystems]:
        state = add_subsystem(state, *addition)
        assert oracle.centralized_sp_check(oracle.assemble_closed_loop(state)).verdict
    assert state.net.n_subsystems == step
    assert state.records[-1].route == ROUTE_SYNTHESIZED


def test_verify_reaches_the_solver_on_hurwitz_drift(monkeypatch):
    calls = counting_solver(monkeypatch)
    assert isinstance(local_verify(free_storage_subsystem(-1.0)), DesignRecord)
    assert len(calls) == 1
    # A_s = A + B1 h(i,i) is what the screen tests, not A alone.
    out = local_verify(free_storage_subsystem(1.0), h_self=-2.0 * np.eye(2))
    assert len(calls) == 2
    assert getattr(out, "reason", None) != "NotHurwitz"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_verify_of_non_finite_drift_stays_a_malformed_problem(bad):
    with pytest.raises(lmi.MalformedProblem), np.errstate(invalid="ignore"):
        local_verify(scalar_subsystem(bad))


def reshaped(**matrices):
    """free_storage_subsystem() with some of its matrices replaced."""
    sub = free_storage_subsystem()
    return Subsystem(**{name: getattr(sub, name) for name in ("A", "B1", "B2", "B3", "C")} | matrices)


@pytest.mark.parametrize("sub, message", [
    (reshaped(B3=[[1.0], [1.0]]), "B3 has 1 columns but B1 has 2"),
    (reshaped(B1=np.ones((3, 2))), "B1 has 3 rows, state size is 2"),
    (reshaped(B2=[[1.0]]), "B2 has 1 rows, state size is 2"),
    (reshaped(B3=np.ones((3, 2))), "B3 has 3 rows, state size is 2"),
    (reshaped(C=[[1.0]]), "C has 1 columns, state size is 2"),
    (reshaped(B2=np.eye(2)), "B2 has 2 columns but C has 1 rows"),
    (reshaped(A=np.ones((2, 3))), "A is (2, 3), not square"),
], ids=["B3-columns", "B1-rows", "B2-rows", "B3-rows", "C-columns", "B2-columns", "A-not-square"])
def test_malformed_subsystem_is_a_dimension_mismatch_on_both_routes(sub, message, monkeypatch):
    calls = counting_solver(monkeypatch)
    assert not model.validate_network(CascadeNetwork.from_blocks([sub], {})).ok
    for route in (local_verify, local_synthesize):
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            route(sub)
    assert calls == []


def test_non_finite_subsystem_stays_a_malformed_problem_on_both_routes():
    sub = reshaped(A=[[np.nan, 0.0], [0.0, -1.0]])
    for route in (local_verify, local_synthesize):
        with pytest.raises(lmi.MalformedProblem), np.errstate(invalid="ignore"):
            route(sub)


def test_non_hurwitz_bound_holds_for_the_solver(monkeypatch):
    # With the screen off the solver's best point stays below the bound the
    # screen reports, as the Lyapunov argument in _screen's docstring requires. So
    # does the closed form's exact bound on a pinned (scalar) step.
    for sub in (free_storage_subsystem(3.0), scalar_subsystem(3.0)):
        screened = local_verify(sub)
        with monkeypatch.context() as mp:
            mp.setattr(protocol, "_not_hurwitz", lambda A_s: None)
            solved = local_verify(sub)
        assert isinstance(solved, lmi.Infeasible) and solved.reason != "NotHurwitz"
        assert solved.best_lambda_min <= screened.best_lambda_min


def test_rate_floor_is_a_block_of_the_verify_master(monkeypatch):
    problems = []
    solve = lmi.solve_feasibility

    def capturing(prob, margin, **kwargs):
        out = solve(prob, margin, **kwargs)
        problems.append((prob, margin, out))
        return out

    monkeypatch.setattr(lmi, "solve_feasibility", capturing)
    assert isinstance(local_verify(free_storage_subsystem(-1.0)), DesignRecord)
    [(prob, tau, point)] = problems
    # Stage 1 holds the one free storage coefficient, Q[1, 1]'s, then eps;
    # the floor is the master's last block.
    eps_index = 1
    assert prob.master(point.theta)[-1, -1] == point.theta[eps_index] - protocol.EPS_MIN
    for eps in (0.5 * protocol.EPS_MIN, protocol.EPS_MIN + 0.5 * tau):
        theta = np.array(point.theta)
        theta[eps_index] = eps
        cert = lmi.certify_point(theta, prob, tau)
        assert cert.reasons == ("MatrixNotPositive",)
        assert cert.lambda_min == eps - protocol.EPS_MIN
    theta[eps_index] = protocol.EPS_MIN + 2.0 * tau
    assert lmi.certify_point(theta, prob, tau).ok


def planted_step(seed, n, m, n_prev):
    """A subsystem whose storage equality has a positive definite solution,
    its self coupling, and (when n_prev > 0) a packet with its coupling."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n, n))
    B2 = rng.normal(size=(n, m))
    C = ((G @ G.T + (0.5 + rng.uniform()) * np.eye(n)) @ B2).T
    A = rng.normal(size=(n, n)) - rng.uniform(0.0, 2.0) * np.eye(n)
    sub = Subsystem(A=A, B1=rng.normal(size=(n, n)), B2=B2, B3=rng.normal(size=(n, n)), C=C)
    h_self = 0.3 * rng.normal(size=(n, n))
    if not n_prev:
        return sub, h_self, None, None
    G = rng.normal(size=(n_prev, n_prev))
    packet = MessengerPacket(
        prev_index=1,
        M_prev=G @ G.T / n_prev + rng.uniform(0.05, 2.0) * np.eye(n_prev),
        G_prev=0.3 * rng.normal(size=(n_prev, n)),
        T_prev=rng.normal(size=(n_prev, n_prev)),
    )
    return sub, h_self, 0.3 * rng.normal(size=(n, n_prev)), packet


storage_space = protocol._storage_space


def unpinned(sub):
    """_storage_space with a zero storage direction added to a pinned step,
    which sends it to the solver like any other while Q stays Q_p."""
    Q_p, N, consistent = storage_space(sub)
    return Q_p, N if len(N) else np.zeros((1, sub.n, sub.n)), consistent


def searched(route, *args):
    """route(*args) with pinned storage sent to the solver like any other."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_storage_space", unpinned)
        return route(*args)


def assert_same_record(a, b):
    assert (a.index, a.route, a.epsilon) == (b.index, b.route, b.epsilon)
    for name in ("Q", "M_cl", "K_self", "K_to_prev", "K_prev_to_self"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        assert x is None or np.array_equal(x, y), name


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    extra=st.integers(0, 1),
    n_prev=st.integers(0, 3),
)
def test_pinned_steps_match_the_solver_whenever_it_accepts(seed, n, extra, n_prev):
    sub, h_self, h_prev, packet = planted_step(seed, n, n + extra, n_prev)
    for route in (local_verify, local_synthesize):
        closed = route(sub, h_self, h_prev, packet)
        solved = searched(route, sub, h_self, h_prev, packet)
        if isinstance(solved, DesignRecord):
            assert isinstance(closed, DesignRecord), closed
            assert_same_record(closed, solved)
        elif isinstance(closed, lmi.Infeasible) and closed.reason == "PinnedStorageInfeasible":
            # A pinned decline bounds every point, the solver's best included.
            assert solved.best_lambda_min <= closed.best_lambda_min


def assembled_problems(monkeypatch):
    """(layout, master_fn, problem) of every local problem assembled."""
    problems = []
    assemble = protocol._assemble_problem

    def capturing(layout, master_fn):
        prob = assemble(layout, master_fn)
        problems.append((layout, master_fn, prob))
        return prob

    monkeypatch.setattr(protocol, "_assemble_problem", capturing)
    return problems


def test_stacked_assembly_matches_one_probe_at_a_time(monkeypatch):
    problems = assembled_problems(monkeypatch)
    # Verify stalls in its search, then synthesis assembles both stages.
    sub, *couplings = planted_step(1, 2, 1, 2)
    step = (rank_deficient(sub), *couplings)
    assert local_verify(*step).reason == "Stalled"
    assert isinstance(local_synthesize(*step), DesignRecord)
    assert len(problems) == 3
    for layout, master_fn, prob in problems:
        zero = master_fn(layout.unpack(np.zeros(layout.size)))
        assert np.array_equal(prob.constant_block, zero)
        assert len(prob.coeff_blocks) == layout.size
        for unit, block in zip(np.eye(layout.size), prob.coeff_blocks):
            assert np.array_equal(block, master_fn(layout.unpack(unit)) - zero)


def test_synthesis_stage_one_searches_storage_and_free_products_only(monkeypatch):
    problems = assembled_problems(monkeypatch)
    n, n_prev = 2, 2
    sub, *couplings = planted_step(1, n, 1, n_prev)
    step = (rank_deficient(sub), *couplings)
    assert isinstance(local_synthesize(*step), DesignRecord)
    [(layout, _, prob)] = [p for p in problems if "Z_self" in p[0].unpack(np.zeros(p[0].size))]
    Q_p, N, _ = protocol._storage_space(step[0])
    assert len(N) == 1
    # Variables z, Z_self and Z_prev; no rate, no K(i-1,i).
    assert sorted(layout.unpack(np.zeros(layout.size))) == ["Z_prev", "Z_self", "z"]
    assert prob.var_count == len(N) + n * n + n * n_prev
    # diag([[S, X], [X', M_prev]], Q - Q_FLOOR I), with no rate-floor block.
    assert prob.dim == 2 * n + n_prev
    assert np.array_equal(prob.constant_block[-n:, -n:], Q_p - protocol.Q_FLOOR * np.eye(n))


def test_pinned_steps_make_no_solver_call_in_stage_one(monkeypatch):
    calls = counting_solver(monkeypatch)
    # Scalar steps are pinned: verify accepts and declines with no search.
    assert isinstance(local_verify(scalar_subsystem(-1.0)), DesignRecord)
    packet = MessengerPacket(prev_index=1, M_prev=[[1.0]], G_prev=[[10.0]], T_prev=[[1.0]])
    declined = local_verify(scalar_subsystem(-1.0), h_prev=[[0.0]], packet=packet)
    assert declined.reason == "PinnedStorageInfeasible"
    assert calls == []
    # With B2 = I, Q B2 = C' pins Q = I; B3 lacks full row rank, so
    # synthesis searches its stage 2, over the gains, and only that.
    unstable = Subsystem(A=np.diag([3.0, -1.0]), B1=np.eye(2), B2=np.eye(2), B3=np.eye(2), C=np.eye(2))
    assert isinstance(local_synthesize(rank_deficient(unstable)), DesignRecord)
    assert len(calls) == 1
    assert local_synthesize(Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=1e-5)).reason == (
        "PinnedStorageInfeasible"
    )
    assert len(calls) == 1
    # No scalar Q gives Q [1, 0] = [1, 1]: both routes decline, no point exists.
    sub = Subsystem(A=-1.0, B1=1.0, B2=[[1.0, 0.0]], B3=1.0, C=[[1.0], [1.0]])
    for route in (local_verify, local_synthesize):
        out = route(sub)
        assert (out.reason, out.best_lambda_min) == ("InconsistentEqualities", -np.inf)
    assert len(calls) == 1


def test_inconsistent_storage_declines_both_routes_before_any_problem(monkeypatch):
    calls = counting_solver(monkeypatch)
    # B2 has rank 1, so Q is not pinned, but Q B2 has two equal columns and
    # C' does not.
    sub = Subsystem(A=-np.eye(2), B1=np.eye(2), B2=[[1.0, 1.0], [0.0, 0.0]], B3=np.eye(2),
                    C=[[1.0, 0.0], [2.0, 0.0]])
    assert len(protocol._storage_space(sub)[1]) == 1
    for route in (local_verify, local_synthesize):
        out = route(sub)
        assert (out.reason, out.best_lambda_min, out.evaluations) == ("InconsistentEqualities", -np.inf, 0)
    assert calls == []


def test_pinned_declines_bound_every_rate():
    packet = MessengerPacket(prev_index=1, M_prev=[[1.0]], G_prev=[[10.0]], T_prev=[[1.0]])
    cases = [
        # The coupling from the packet leaves no rate: eps_sup < 0.
        (scalar_subsystem(-1.0), dict(h_prev=[[0.0]], packet=packet)),
        # Q = 1e-5 is below Q_FLOOR, so R is not positive definite.
        (Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=1e-5), {}),
    ]
    for sub, kwargs in cases:
        problems = []
        solve = lmi.solve_feasibility

        def capturing(prob, margin, **kw):
            out = solve(prob, margin, **kw)
            problems.append((prob, out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lmi, "solve_feasibility", capturing)
            mp.setattr(protocol, "_storage_space", unpinned)
            local_verify(sub, **kwargs)
        [(prob, solved)] = problems
        declined = local_verify(sub, **kwargs)
        assert declined.reason == "PinnedStorageInfeasible"
        bound = declined.best_lambda_min
        assert bound < protocol._step_margin(sub)
        # The solver's best point and every rate on a wide grid stay below it.
        # The solver's problem leads with the zero storage direction.
        assert isinstance(solved, lmi.Infeasible) and solved.best_lambda_min <= bound
        theta = np.concatenate([[0.0], declined.best_theta])
        for eps in np.linspace(-5.0, 5.0, 2001):
            theta[-1] = eps
            assert np.linalg.eigvalsh(prob.master(theta))[0] <= bound


@st.composite
def storage_equalities(draw):
    """(B2, Q0, R) with n, m <= 4: B2 generic, rank-deficient or zero, Q0
    symmetric and R a direction that no symmetric Q reaches as Q B2, or
    None when every n x m matrix is reached."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["generic", "rank-deficient", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        B2 = np.zeros((n, m))
    elif kind == "rank-deficient":
        r = draw(st.integers(0, min(n, m) - 1)) if min(n, m) > 1 else 0
        B2 = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
    else:
        B2 = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-3.0, 3.0)
    G = rng.standard_normal((n, n))
    # The range of Q -> Q B2 over symmetric Q, from a basis of its own.
    images = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0
            images.append((E @ B2).ravel())
    span = scipy.linalg.orth(np.array(images).T)
    R = rng.standard_normal(n * m)
    R -= span @ (span.T @ R)
    R = None if np.abs(R).max() < 1e-6 else (R / np.abs(R).max()).reshape(n, m)
    return B2, G + G.T, R


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(storage_equalities())
def test_storage_space_parametrizes_the_storage_equality(case):
    B2, Q0, R = case
    n, m = B2.shape

    def sub(C):
        return Subsystem(A=-np.eye(n), B1=np.eye(n), B2=B2, B3=np.eye(n), C=C)

    Q_p, N, consistent = protocol._storage_space(sub((Q0 @ B2).T))
    size = lmi.sym_vec_size(n)
    units = np.array([(lmi.vec_to_sym(e, n) @ B2).ravel() for e in np.eye(size)])
    assert len(N) == size - np.linalg.matrix_rank(units.T)
    assert (len(N) == 0) == (np.linalg.matrix_rank(B2) == n)
    for N_k in N:
        assert np.array_equal(N_k, N_k.T)
        assert np.abs(N_k @ B2).max() <= 1e-12 * max(1.0, np.abs(B2).max())
    packed = np.array([lmi.sym_to_vec(N_k) for N_k in N]).reshape(len(N), size)
    assert np.abs(packed @ packed.T - np.eye(len(N))).max(initial=0.0) <= 1e-12
    C = (Q0 @ B2).T
    assert consistent
    assert np.array_equal(Q_p, Q_p.T)
    # Tighter than the storage test's 1e-8 per output channel.
    assert np.abs(Q_p @ B2 - C.T).max() <= 1e-9 * max(1.0, np.abs(C).max())
    if R is not None:
        assert not protocol._storage_space(sub((Q0 @ B2 + R).T))[2]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.lists(st.tuples(
    st.integers(-8, 8), st.lists(st.sampled_from([1.0, 1e-6, 1e-11, 1e-13]), min_size=3, max_size=3),
), min_size=2, max_size=4))
def test_storage_positivity_is_judged_per_block_alone_stacked_or_dense(n, seed, blocks):
    # Positive definite blocks V diag(lam) V' times 10^k: the storage test's
    # positivity of each block alone is its entry in the stacked call, and
    # the dense block-diagonal Q passes exactly when every block does, so a
    # design step (one Q), a load (stacks) and the oracle (the dense Q)
    # agree however far apart the blocks' scales lie.
    rng = np.random.default_rng(seed)
    Qs = []
    for k, lam in blocks:
        V = np.linalg.qr(rng.normal(size=(n, n)))[0]
        Q = (V * lam[:n]) @ V.T
        Qs.append(10.0**k * (0.5 * (Q + Q.T)))
    alone = [bool(protocol._storage_test(Q, np.eye(n), Q)[1]) for Q in Qs]
    stack = np.array(Qs)
    stacked = protocol._storage_test(stack, np.array([np.eye(n)] * len(Qs)), stack)[1]
    assert stacked.tolist() == alone
    dense = scipy.linalg.block_diag(*Qs)
    assert bool(protocol._storage_test(dense, np.eye(len(dense)), dense)[1]) == all(alone)


def test_stage_one_target_is_scaled_from_the_master_at_zero_storage(monkeypatch):
    targets = []
    solve = lmi.solve_feasibility

    def capturing(prob, margin, *, target=None):
        targets.append(target)
        return solve(prob, margin, target=target)

    monkeypatch.setattr(lmi, "solve_feasibility", capturing)
    # Q B2 = C' fixes Q's first column to (30, 0), so the master at Q_p
    # holds entries of 60; the target keeps the scale of the master at Q = 0.
    sub = rank_deficient(
        Subsystem(A=-np.eye(2), B1=np.eye(2), B2=[[1.0], [0.0]], B3=np.eye(2), C=[[30.0, 0.0]])
    )
    packet = MessengerPacket(
        prev_index=1, M_prev=[[3.0, 0.5], [0.5, 2.0]], G_prev=[[7.0, 0.0], [0.0, -1.0]], T_prev=np.eye(2)
    )
    tau = protocol._step_margin(sub)
    s = max(1.0, np.abs(packet.M_prev).max(), np.abs(packet.G_prev).max())
    expected = max(min(0.2 * s, 0.9 * np.linalg.eigvalsh(packet.M_prev)[0]), 2.0 * tau)
    for args, target in (((sub,), max(0.2, 2.0 * tau)), ((sub, None, np.zeros((2, 2)), packet), expected)):
        for route in (local_verify, local_synthesize):
            targets.clear()
            route(*args)
            assert targets and targets[0] == target


def test_packet_below_the_step_margin_declines_both_routes(monkeypatch):
    calls = counting_solver(monkeypatch)
    packet = MessengerPacket(prev_index=1, M_prev=[[1e-7]], G_prev=[[0.0]], T_prev=[[1.0]])
    for route in (local_verify, local_synthesize):
        out = route(scalar_subsystem(-1.0), h_prev=[[0.0]], packet=packet)
        assert (out.reason, out.best_lambda_min, out.evaluations) == ("PacketMarginTooSmall", 1e-7, 0)
    assert calls == []
    # tau = 1e-6 |A| = 1 clears the four-stage design's last margin, 1.494,
    # but not the storage Q = 1 that Q B2 = C' pins: lambda_min(Q - Q_FLOOR I)
    # = 0.9999 < tau, so synthesis declines without a search.
    state = run_cascade_design(four_stage_cascade())
    assert np.linalg.eigvalsh(state.records[-1].M_cl)[0] > 1.0
    calls.clear()
    with pytest.raises(DesignFailed) as info:
        add_subsystem(state, scalar_subsystem(-1e6), h_prev=[[1.0, 0.0]], h_to_new=[[1.0]])
    assert info.value.index == 5
    assert info.value.diagnosis.reason == "PinnedStorageInfeasible"
    assert info.value.diagnosis.best_lambda_min == 1.0 - protocol.Q_FLOOR
    assert calls == []


@pytest.mark.parametrize("empty, message", [
    (Subsystem(A=np.zeros((0, 0)), B1=np.zeros((0, 1)), B2=np.zeros((0, 1)),
               B3=np.zeros((0, 1)), C=np.zeros((1, 0))), "A is (0, 0): a subsystem needs a state"),
    (Subsystem(A=-1.0, B1=1.0, B2=np.zeros((1, 0)), B3=1.0, C=np.zeros((0, 1))),
     "C has 0 rows: a subsystem needs an output"),
])
def test_empty_subsystem_is_an_invalid_network_before_any_solve(empty, message, monkeypatch):
    calls = counting_solver(monkeypatch)
    with pytest.raises(InvalidNetwork) as info:
        run_cascade_design(CascadeNetwork.from_blocks([scalar_subsystem(), empty], {}))
    assert [(v.code, v.where, v.message) for v in info.value.report.violations] == [
        ("DimensionMismatch", (2,), message)
    ]
    with pytest.raises(InvalidNetwork) as info:
        add_subsystem(run_cascade_design(two_stage_scalar_cascade()), empty)
    assert [(v.code, v.where, v.message) for v in info.value.report.violations] == [
        ("DimensionMismatch", (3,), message)
    ]
    assert calls == []


def test_add_subsystem_validates_only_the_addition(monkeypatch):
    checked = []
    whole = model.validate_network
    monkeypatch.setattr(protocol, "validate_network", lambda net: checked.append(net) or whole(net))
    state = run_cascade_design(two_stage_scalar_cascade())
    assert len(checked) == 1
    grown = add_subsystem(state, scalar_subsystem(), h_prev=[[1.0]])
    assert len(checked) == 1 and grown.net.n_subsystems == 3
    # A bad addition still raises before any solve.
    calls = counting_solver(monkeypatch)
    with pytest.raises(InvalidNetwork) as info:
        add_subsystem(state, scalar_subsystem(np.nan), h_to_new=[[1.0, 2.0]])
    assert [(v.code, v.where) for v in info.value.report.violations] == [
        ("NonFinite", (3,)), ("DimensionMismatch", (2, 3))
    ]
    assert calls == []
    # The rest of the network is checked when a state is built.
    bad = CascadeNetwork.from_blocks(state.net.subsystems, {(2, 1): [[1.0]], (1, 2): [[1.0, 5.0]]})
    with pytest.raises(InvalidNetwork):
        NetworkDesignState(net=bad, records=state.records)


def test_four_stage_routes_and_screened_declines(monkeypatch):
    declines = []
    verify = protocol.local_verify

    def recording(*args, **kwargs):
        out = verify(*args, **kwargs)
        if isinstance(out, lmi.Infeasible):
            declines.append(out.reason)
        return out

    monkeypatch.setattr(protocol, "local_verify", recording)
    state = run_cascade_design(four_stage_cascade())
    assert [rec.route for rec in state.records] == [
        ROUTE_SYNTHESIZED, ROUTE_SYNTHESIZED, ROUTE_VERIFIED, ROUTE_SYNTHESIZED
    ]
    assert declines == ["NotHurwitz"] * 3


def test_screen_changes_no_record_and_never_blocks_a_verified_step(monkeypatch):
    def designs():
        rng = np.random.default_rng(7)
        out = []
        for _ in range(6):
            try:
                out.append(run_cascade_design(random_cascade(int(rng.integers(2, 6)), rng)))
            except DesignFailed as exc:
                out.append(exc.index)
        return out

    screened = designs()
    screen = protocol._not_hurwitz
    monkeypatch.setattr(protocol, "_not_hurwitz", lambda A_s: None)
    unscreened = designs()
    verified = declined = 0
    for a, b in zip(screened, unscreened):
        if isinstance(b, int):
            assert a == b
            continue
        for i, (ra, rb, sub) in enumerate(zip(a.records, b.records, b.net.subsystems), start=1):
            assert ra.route == rb.route and ra.epsilon == rb.epsilon
            assert np.array_equal(ra.Q, rb.Q) and np.array_equal(ra.M_cl, rb.M_cl)
            out = screen(sub.A + sub.B1 @ b.net.h_or_zero(i, i))
            if rb.route == ROUTE_VERIFIED:
                verified += 1
                assert out is None
            declined += out is not None
    assert verified >= 3 and declined >= 3


def uncontrollable_pair():
    # The storage equality forces Q = I, and any gain through B3 = [1; 1]
    # leaves Sym(B3 K) with a nonnegative eigenvalue, so no exact gain can
    # make the drift 2I passive. The substitution stage alone is feasible.
    return Subsystem(
        A=[[2.0, 0.0], [0.0, 2.0]],
        B1=[[0.0], [0.0]],
        B2=np.eye(2),
        B3=[[1.0], [1.0]],
        C=np.eye(2),
    )


def test_two_stage_declares_infeasible_when_no_exact_gain_exists():
    out = local_synthesize(uncontrollable_pair())
    assert isinstance(out, lmi.Infeasible)


def test_design_fails_on_unstable_uncontrollable_step():
    sub = Subsystem(A=1.0, B1=0.0, B2=1.0, B3=0.0, C=1.0)
    net = CascadeNetwork.from_blocks([sub], {})
    with pytest.raises(DesignFailed) as info:
        run_cascade_design(net)
    assert info.value.index == 1
    assert isinstance(info.value.diagnosis, lmi.Infeasible)


def test_design_rejects_invalid_network():
    net = CascadeNetwork.from_blocks(
        [scalar_subsystem(), scalar_subsystem(), scalar_subsystem()],
        {(1, 3): [[1.0]]},
    )
    with pytest.raises(InvalidNetwork):
        run_cascade_design(net)


def test_design_single_subsystem():
    net = CascadeNetwork.from_blocks([scalar_subsystem()], {})
    state = run_cascade_design(net)
    assert len(state.records) == 1
    assert state.global_epsilon == state.records[0].epsilon


def test_design_decoupled_stable_chain_verifies_everywhere():
    subs = [scalar_subsystem(-1.0), scalar_subsystem(-2.0), scalar_subsystem(-0.5)]
    net = CascadeNetwork.from_blocks(subs, {})
    state = run_cascade_design(net)
    assert all(rec.route == ROUTE_VERIFIED for rec in state.records)
    assert all(rec.K_self is None for rec in state.records)


def test_design_two_stage_scalar_chain_rates():
    state = run_cascade_design(two_stage_scalar_cascade())
    assert [rec.route for rec in state.records] == [ROUTE_VERIFIED, ROUTE_VERIFIED]
    assert abs(state.records[0].epsilon - 0.5) <= 1e-3
    assert abs(state.records[1].epsilon - 0.25) <= 1e-3
    assert abs(state.records[0].M_cl[0, 0] - 1.0) <= 1e-3
    assert abs(state.records[1].M_cl[0, 0] - 0.5) <= 1e-3
    assert state.global_epsilon == state.records[1].epsilon


def bisected_rate_supremum(prob, theta, eps_index, tau):
    """Reference for the closed-form rate: bisect the largest eps at which
    the master without its rate-floor block keeps lambda_min >= tau.

    eps enters that block only as -eps*I on a principal block, so the eps
    it admits form a half-line (-inf, sup]; this bisects its end.
    """
    work = np.array(theta, dtype=float)

    def feasible(eps):
        work[eps_index] = eps
        return np.linalg.eigvalsh(prob.master(work)[:-1, :-1])[0] >= tau

    lo = -1.0
    while not feasible(lo):
        lo *= 2.0
    hi = 1.0
    while feasible(hi):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if feasible(mid):
            lo = mid
        else:
            hi = mid


def test_rate_is_half_the_bisected_supremum(monkeypatch):
    calls = []
    closed_form = protocol._rate_supremum

    def recording(prob, theta, eps_index, n, tau):
        sup = closed_form(prob, theta, eps_index, n, tau)
        calls.append((prob, np.array(theta), eps_index, tau, sup))
        return sup

    monkeypatch.setattr(protocol, "_rate_supremum", recording)
    rng = np.random.default_rng(5)
    records = []
    for _ in range(6):
        try:
            state = run_cascade_design(random_cascade(int(rng.integers(2, 5)), rng))
        except DesignFailed:
            continue
        records.extend(state.records)
    assert {rec.route for rec in records} == {ROUTE_VERIFIED, ROUTE_SYNTHESIZED}
    chosen = {0.25 * sup for *_, sup in calls}
    assert all(rec.epsilon in chosen for rec in records)
    for prob, theta, eps_index, tau, sup in calls:
        supremum = bisected_rate_supremum(prob, theta, eps_index, tau)
        assert abs(sup - supremum) <= 1e-9 * abs(supremum)


def rate_problem(s, tau, r=3.0, x=0.5):
    """An n = 1 verify-like problem in eps alone: [[s - eps, x], [x, r]]
    beside the floor block eps - EPS_MIN, so eps_sup = s - tau - x^2 / (r - tau)
    when r > tau."""
    return lmi.AffineFeasibilityProblem(
        var_count=1,
        constant_block=np.array([[s, x, 0.0], [x, r, 0.0], [0.0, 0.0, -protocol.EPS_MIN]]),
        coeff_blocks=(np.diag([-1.0, 0.0, 1.0]),),
    )


def test_settle_rate_takes_half_then_middle_then_the_own_rate():
    tau = 1.0
    floor = protocol.EPS_MIN + tau
    # sup = 4 >= 2 floor: half the supremum.
    prob = rate_problem(4.0 + tau + 0.125, tau)
    sup = protocol._rate_supremum(prob, np.zeros(1), 0, 1, tau)
    assert abs(sup - 4.0) <= 1e-12
    point = protocol._settle_rate(prob, np.array([3.0]), 0, 1, tau)
    assert isinstance(point, lmi.FeasiblePoint)
    assert point.theta[0] == 0.5 * sup
    assert point.lambda_min >= tau
    # floor < sup = 1.5 < 2 floor: half is below the floor block, so the
    # middle of (floor, sup), even though the own rate 1.2 certifies.
    prob = rate_problem(1.5 + tau + 0.125, tau)
    sup = protocol._rate_supremum(prob, np.zeros(1), 0, 1, tau)
    assert floor < sup < 2.0 * floor
    assert lmi.certify_point(np.array([1.2]), prob, tau).ok
    point = protocol._settle_rate(prob, np.array([1.2]), 0, 1, tau)
    assert point.theta[0] == 0.5 * (floor + sup)
    assert point.lambda_min >= tau


@pytest.mark.parametrize("s, r", [(0.5 + 1.0 + 0.125, 3.0), (3.0, 0.5)], ids=["sup-below-floor", "R-not-positive"])
def test_settle_rate_declines_with_a_bound_on_every_rate(s, r):
    tau = 1.0
    prob = rate_problem(s, tau, r=r)
    out = protocol._settle_rate(prob, np.zeros(1), 0, 1, tau)
    assert isinstance(out, lmi.Infeasible)
    assert out.reason == "PinnedStorageInfeasible"
    assert out.best_lambda_min < tau
    if r < tau:
        assert out.best_lambda_min == r
    for eps in np.linspace(-5.0, 5.0, 2001):
        assert np.linalg.eigvalsh(prob.master(np.array([eps])))[0] <= out.best_lambda_min


def test_build_packet_contents_and_none():
    sub = Subsystem(A=-1.0, B1=3.0, B2=0.5, B3=4.0, C=1.0)
    # The state derives M_cl = -2 A Q - 2 epsilon = 4 - 2.5.
    state = NetworkDesignState(net=CascadeNetwork.from_blocks([sub], {}), records=(verified_record(q=2.0, eps=1.25),))
    rec = state.records[0]
    assert build_packet(rec, sub, None) is None
    packet = build_packet(rec, sub, [[0.1]])
    assert packet.prev_index == 1
    assert packet.M_prev[0, 0] == 1.5
    assert packet.G_prev[0, 0] == 2.0 * 3.0 * 0.1
    assert packet.T_prev[0, 0] == 8.0


def test_build_packet_dimension_errors():
    rec = verified_record()
    two_state = Subsystem(
        A=-np.eye(2), B1=np.eye(2), B2=[[1.0], [0.0]], B3=np.eye(2), C=[[1.0, 0.0]]
    )
    with pytest.raises(DimensionMismatch):
        build_packet(rec, two_state, np.zeros((2, 1)))
    with pytest.raises(DimensionMismatch):
        build_packet(rec, scalar_subsystem(), np.zeros((2, 1)))


def test_add_subsystem_rejects_bad_column_shape():
    state = run_cascade_design(two_stage_scalar_cascade())
    newcomer = Subsystem(
        A=[[-1.0, 0.0], [0.0, -1.0]],
        B1=[[1.0], [1.0]],
        B2=[[1.0], [0.0]],
        B3=[[1.0], [1.0]],
        C=[[1.0, 0.0]],
    )
    for blocks, where in (
        ({"h_to_new": [[1.0]]}, (2, 3)),
        ({"h_prev": [[1.0, 1.0]], "h_to_new": [[1.0, 0.5]]}, (3, 2)),
    ):
        with pytest.raises(InvalidNetwork) as info:
            add_subsystem(state, newcomer, **blocks)
        assert [(v.code, v.where) for v in info.value.report.violations] == [
            ("DimensionMismatch", where)
        ]


def test_state_rejects_records_that_do_not_match_its_network():
    state = run_cascade_design(four_stage_cascade())
    records = state.records
    with pytest.raises(ValueError, match=re.escape("a design state needs at least one record")):
        NetworkDesignState(net=state.net, records=())
    with pytest.raises(ValueError, match=re.escape("4 subsystems but 3 records")):
        NetworkDesignState(net=state.net, records=records[:3])
    with pytest.raises(ValueError, match=re.escape("records must be contiguous from 1, found index 2 at position 1")):
        NetworkDesignState(net=state.net, records=(records[1], records[0]) + records[2:])


def test_state_rejects_a_misshapen_gain():
    state = run_cascade_design(four_stage_cascade())
    first = state.records[0]
    assert first.K_self.shape == (1, 2)
    narrow = dataclasses.replace(first, K_self=[[first.K_self[0, 0]]])
    with pytest.raises(DimensionMismatch, match=re.escape("records[0]: K_self is (1, 1), expected (1, 2)")):
        NetworkDesignState(net=state.net, records=(narrow,) + state.records[1:])
    wide = dataclasses.replace(first, Q=np.eye(3))
    with pytest.raises(DimensionMismatch, match=re.escape("records[0]: Q is (3, 3), expected (2, 2)")):
        NetworkDesignState(net=state.net, records=(wide,) + state.records[1:])
    stray = dataclasses.replace(first, K_to_prev=[[1.0]])
    with pytest.raises(DimensionMismatch, match=re.escape("records[0]: record 1 cannot carry K_to_prev")):
        NetworkDesignState(net=state.net, records=(stray,) + state.records[1:])
    # K(2,1) maps subsystem 1's two states to subsystem 2's one input.
    second = state.records[1]
    assert second.route == ROUTE_SYNTHESIZED
    short = dataclasses.replace(second, K_to_prev=[[1.0]])
    with pytest.raises(DimensionMismatch, match=re.escape("records[1]: K_to_prev is (1, 1), expected (1, 2)")):
        NetworkDesignState(net=state.net, records=(first, short) + state.records[2:])


def test_a_margin_is_derived_never_given():
    first = run_cascade_design(four_stage_cascade()).records[0]
    with pytest.raises(ValueError, match="M_cl"):
        dataclasses.replace(first, M_cl=1e4 * first.M_cl)
    with pytest.raises(TypeError, match="M_cl"):
        DesignRecord(index=1, Q=[[1.0]], epsilon=1.0, K_self=None, K_to_prev=None,
                     K_prev_to_self=None, M_cl=[[1.0]], route=ROUTE_VERIFIED)
    # A record that belongs to no state has no margin to send.
    assert verified_record().M_cl is None
    with pytest.raises(protocol.MissingMargin, match="record 1"):
        build_packet(verified_record(), scalar_subsystem(), [[1.0]])


# A scalar addition to the four-stage design: h(5,4) = [[1, 0]], h(4,5) = [[1]].
FOUR_STAGE_ADDITION = (scalar_subsystem(), None, [[1.0, 0.0]], [[1.0]])


def test_a_rebuilt_state_sends_the_margin_its_records_certify(monkeypatch):
    state = run_cascade_design(four_stage_cascade())
    first, margins = state.records[0], [rec.M_cl for rec in state.records]
    nudged = NetworkDesignState(
        net=state.net,
        records=(dataclasses.replace(first, Q=first.Q * (1.0 + 2.0 ** -52)),) + state.records[1:],
    )
    derived = blockla.tridiag_pd_sequence(design_tridiagonal(nudged)).M_blocks
    assert not np.array_equal(derived[0], first.M_cl)
    for rec, M in zip(nudged.records, derived, strict=True):
        assert np.array_equal(rec.M_cl, M), rec.index
    # The state sets margins on its own copies; the design's records keep theirs.
    assert all(rec.M_cl is M for rec, M in zip(state.records, margins))
    assert all(a is not b for a, b in zip(nudged.records, state.records))
    packets = []
    send = protocol.build_packet
    monkeypatch.setattr(protocol, "build_packet", lambda *args: packets.append(send(*args)) or packets[-1])
    grown = add_subsystem(nudged, *FOUR_STAGE_ADDITION)
    assert len(packets) == 1 and np.array_equal(packets[0].M_prev, derived[-1])
    assert oracle.centralized_sp_check(oracle.assemble_closed_loop(grown)).verdict


def test_a_state_that_does_not_certify_builds_but_does_not_grow():
    state = run_cascade_design(four_stage_cascade())
    last = state.records[3]
    tampered = NetworkDesignState(
        net=state.net, records=state.records[:3] + (dataclasses.replace(last, K_self=-last.K_self),)
    )
    # The recursion fails at block 4, so record 4 carries no margin.
    assert [rec.M_cl is None for rec in tampered.records] == [False, False, False, True]
    assert not oracle.centralized_sp_check(oracle.assemble_closed_loop(tampered)).verdict
    with pytest.raises(protocol.MissingMargin, match="record 4"):
        add_subsystem(tampered, *FOUR_STAGE_ADDITION)


def test_a_failing_certification_runs_its_recursion_once(monkeypatch):
    state = run_cascade_design(four_stage_cascade())
    records = list(state.records)
    records[1] = dataclasses.replace(records[1], epsilon=1e3 * records[1].epsilon)
    calls = []
    step = blockla._margin_step

    def counting(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(blockla, "_margin_step", counting)
    tampered = NetworkDesignState(net=state.net, records=tuple(records))
    # Block 1 clears and block 2 fails; the fault carries block 1's margin,
    # so no second recursion re-clears it.
    assert len(calls) == 2
    assert tampered.records[0].M_cl.tobytes() == state.records[0].M_cl.tobytes()
    assert [rec.M_cl is None for rec in tampered.records] == [False, True, True, True]


def with_storage(state, k, factor):
    """state rebuilt by the public constructor with record k's Q times factor."""
    records = list(state.records)
    records[k] = dataclasses.replace(records[k], Q=factor * records[k].Q)
    return NetworkDesignState(net=state.net, records=tuple(records))


@pytest.mark.parametrize("k", range(4))
def test_a_state_whose_storage_fails_the_equality_builds_but_does_not_grow(k):
    # Each of these tampers passes the recursion; only the storage test
    # finds it. Growth once took it on trust and made a state the oracle
    # rejects with EqualityResidual.
    tampered = with_storage(run_cascade_design(four_stage_cascade()), k, 1.0 + 1e-3)
    assert [rec.M_cl is None for rec in tampered.records] == [j >= k for j in range(4)]
    fault = protocol._derive_margins(tampered.net, [vars(rec) for rec in tampered.records])[1]
    assert fault[0] == k and fault[1].startswith(f"records[{k}]: max |Q B2 - C'| = ")
    # The loader judges by the same rule and reports the same fault.
    with pytest.raises(files.MalformedFile, match=f"^{re.escape(fault[1])}$"):
        files.state_from_dict(json.loads(json.dumps(files.state_to_dict(tampered))))
    result = oracle.centralized_sp_check(oracle.assemble_closed_loop(tampered))
    assert not result.verdict and "EqualityResidual" in result.reasons
    with pytest.raises(protocol.MissingMargin, match="record 4"):
        add_subsystem(tampered, *FOUR_STAGE_ADDITION)


def test_a_state_whose_storage_is_not_positive_definite_builds_but_does_not_grow():
    # Q = C = -1 meets the equality, and the recursion's block
    # -(A'Q + QA) = 2 is positive definite at A = +1.
    net = CascadeNetwork.from_blocks([Subsystem(A=1.0, B1=1.0, B2=1.0, B3=1.0, C=-1.0)], {})
    tampered = NetworkDesignState(net=net, records=(verified_record(q=-1.0, eps=0.5),))
    assert tampered.records[0].M_cl is None
    assert protocol._derive_margins(net, [vars(tampered.records[0])])[1] == (0, "records[0]: Q is not positive definite")
    result = oracle.centralized_sp_check(oracle.assemble_closed_loop(tampered))
    assert not result.verdict and "StorageNotPositiveDefinite" in result.reasons
    with pytest.raises(protocol.MissingMargin, match="record 1"):
        add_subsystem(tampered, scalar_subsystem(), None, [[1.0]], [[1.0]])


@functools.cache
def random_design(n, seed):
    return run_cascade_design(random_cascade(n, np.random.default_rng(seed)))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.integers(1, 6), st.integers(0, 3), st.integers(0, 5),
       st.sampled_from((2.0 ** -52, 1e-9, 1e-6, 1e-3)))
def test_a_tampered_storage_refuses_to_grow_or_grows_soundly(n, seed, k, delta):
    # From an ulp to far past the equality's 1e-8 bound, a scaled storage
    # either certifies and so grows into a state the oracle accepts, or
    # carries no margin to grow from.
    state = random_design(n, seed)
    tampered = with_storage(state, k % n, 1.0 + delta)
    last = state.net.subsystems[-1]
    try:
        grown = add_subsystem(tampered, scalar_subsystem(), None, np.ones((1, last.n)), np.ones((last.p, 1)))
    except protocol.MissingMargin:
        return
    assert oracle.centralized_sp_check(oracle.assemble_closed_loop(grown)).verdict


def reference_closed_loop_blocks(net, storages, epsilons, gains):
    """The certificate blocks built one step at a time, from 2-D operands."""
    subs, N = net.subsystems, net.n_subsystems
    QB1 = [Q @ s.B1 for Q, s in zip(storages, subs)]
    QB3 = [Q @ s.B3 for Q, s in zip(storages, subs)]
    diag = [
        protocol._diagonal_block(s.A, Q, QB1[k], QB3[k], 2.0 * e, net.h_or_zero(k + 1, k + 1),
                                 {"K_self": gains[(k + 1, k + 1)]} if (k + 1, k + 1) in gains else {})
        for k, (s, Q, e) in enumerate(zip(subs, storages, epsilons))
    ]
    supers = []
    for i in range(2, N + 1):
        links = {name: gains[ij] for name, ij in (("K_to_prev", (i, i - 1)), ("K_prev_to_self", (i - 1, i)))
                 if ij in gains}
        X = protocol._coupling_block(QB1[i - 1], QB3[i - 1], net.h_or_zero(i, i - 1),
                                     QB1[i - 2] @ net.h_or_zero(i - 1, i), QB3[i - 2], links)
        supers.append(-X.T)
    return diag, supers


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_stacked_closed_loop_blocks_match_the_per_step_blocks_bit_for_bit(seed):
    # Each gain is present or absent at random, so stacks of steps of one
    # shape mix steps with and without K(i,i). The records need not
    # certify the network: a state of them still builds its blocks.
    rng = np.random.default_rng(seed)
    net = random_cascade(int(rng.integers(1, 13)), rng)
    subs, N = net.subsystems, net.n_subsystems
    storages = [blockla.symmetric_part(X @ X.T + np.eye(s.n)) for s in subs
                for X in [rng.standard_normal((s.n, s.n))]]
    epsilons = list(rng.uniform(0.01, 1.0, N))
    gains = {}
    for i in range(1, N + 1):
        for j in (i - 1, i, i + 1):
            if 1 <= j <= N and rng.random() < 0.5:
                gains[(i, j)] = rng.standard_normal((subs[i - 1].p, subs[j - 1].n))
    records = tuple(
        DesignRecord(index=i, Q=Q, epsilon=e, route=ROUTE_SYNTHESIZED, K_self=gains.get((i, i)),
                     K_to_prev=gains.get((i, i - 1)), K_prev_to_self=gains.get((i - 1, i)))
        for i, (Q, e) in enumerate(zip(storages, epsilons), start=1)
    )
    blocks = design_tridiagonal(NetworkDesignState(net=net, records=records))
    diag, supers = reference_closed_loop_blocks(net, storages, epsilons, gains)
    assert [D.tobytes() for D in blocks.diag_blocks] == [D.tobytes() for D in diag]
    assert [R.tobytes() for R in blocks.super_blocks] == [R.tobytes() for R in supers]


def test_schur_recursion_reproduces_step_margins():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(8):
        net = random_cascade(int(rng.integers(1, 5)), rng)
        try:
            state = run_cascade_design(net)
        except DesignFailed:
            continue
        factor = blockla.tridiag_pd_sequence(design_tridiagonal(state))
        for rec, M in zip(state.records, factor.M_blocks):
            assert np.array_equal(rec.M_cl, M), rec.index
        checked += 1
    assert checked >= 5


def same_records(a, b):
    for ra, rb in zip(a.records, b.records, strict=True):
        assert (ra.index, ra.route, ra.epsilon) == (rb.index, rb.route, rb.epsilon)
        assert np.array_equal(ra.Q, rb.Q) and np.array_equal(ra.M_cl, rb.M_cl)
        for name in ("K_self", "K_to_prev", "K_prev_to_self"):
            ka, kb = getattr(ra, name), getattr(rb, name)
            assert (ka is None) == (kb is None), (ra.index, name)
            assert ka is None or np.array_equal(ka, kb), (ra.index, name)


def test_schur_recursion_reproduces_margins_of_a_grown_chain():
    # The blocks of a seeded 32-subsystem random cascade, added one by one.
    net = random_cascade(32, np.random.default_rng(0))
    first = {key: c.h for key, c in net.couplings.items() if key == (1, 1)}
    state = run_cascade_design(CascadeNetwork.from_blocks(net.subsystems[:1], first))
    for k in range(2, 33):
        state = add_subsystem(
            state, net.subsystems[k - 1], net.h(k, k), net.h(k, k - 1), net.h(k - 1, k)
        )
    factor = blockla.tridiag_pd_sequence(design_tridiagonal(state))
    for rec, M in zip(state.records, factor.M_blocks):
        assert np.array_equal(rec.M_cl, M), rec.index
    # Growth is the whole design's step taken once per addition.
    same_records(state, run_cascade_design(net))


def test_tridiagonal_blocks_match_dense_certificate():
    rng = np.random.default_rng(99)
    state = run_cascade_design(random_cascade(3, rng))
    cl = oracle.assemble_closed_loop(state)
    W0 = -(cl.Acl.T @ cl.Q + cl.Q @ cl.Acl)
    rates = []
    for rec, sub in zip(state.records, state.net.subsystems):
        rates.append(2.0 * rec.epsilon * np.eye(sub.n))
    from scipy.linalg import block_diag
    dense = W0 - block_diag(*rates)
    assembled = design_tridiagonal(state).assemble()
    assert np.abs(assembled - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())
