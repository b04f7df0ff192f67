"""Centralized certificate and trajectory checks on assembled closed loops."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadepass import blockla, files, protocol

from cascadepass.model import CascadeNetwork, Subsystem
from cascadepass.oracle import (
    Certificate,
    ClosedLoopSystem,
    MAX_TRAJECTORY_BYTES,
    SLACK_TOL,
    WAVES,
    NonFiniteTrajectory,
    SineDisturbance,
    Trajectory,
    TrajectoryTooLarge,
    assemble_closed_loop,
    centralized_sp_check,
    dissipation_margin,
    export_trajectory_csv,
    simulate,
    sp_matrix,
    worst_start,
)
from cascadepass.protocol import (
    ROUTE_SYNTHESIZED,
    ROUTE_VERIFIED,
    DesignRecord,
    DimensionMismatch,
    NetworkDesignState,
)
from cascadepass.sample_cascades import four_stage_cascade, random_cascade, two_stage_scalar_cascade

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def record(index, q=1.0, eps=0.25, route=ROUTE_VERIFIED, **gains):
    return DesignRecord(
        index=index, Q=[[q]], epsilon=eps,
        K_self=gains.get("K_self"), K_to_prev=gains.get("K_to_prev"),
        K_prev_to_self=gains.get("K_prev_to_self"), route=route,
    )


def two_scalar_state(**record2_gains):
    net = two_stage_scalar_cascade()
    route2 = ROUTE_SYNTHESIZED if record2_gains else ROUTE_VERIFIED
    return NetworkDesignState(
        net=net,
        records=(record(1), record(2, route=route2, **record2_gains)),
    )


def unit_loop(a=-1.0, eps=1.0):
    return ClosedLoopSystem(Acl=[[a]], B2=[[1.0]], C=[[1.0]], Q=[[1.0]], epsilon=eps)


@pytest.mark.parametrize("fields, message", [
    (dict(Acl=[[-1.0, 0.0]]), "Acl must be square"),
    (dict(Q=np.eye(2)), "closed-loop matrix shapes are inconsistent"),
    (dict(epsilon=0.0), "epsilon must be positive and finite"),
    (dict(epsilon=np.inf), "epsilon must be positive and finite"),
])
def test_a_closed_loop_system_checks_its_shapes_and_rate(fields, message):
    with pytest.raises(ValueError, match=message):
        ClosedLoopSystem(**(dict(Acl=[[-1.0]], B2=[[1.0]], C=[[1.0]], Q=[[1.0]], epsilon=1.0) | fields))


def test_a_trajectory_built_by_its_constructor_holds_read_only_copies():
    arrays = {"t": np.arange(3.0), "x": np.ones((3, 2)), "y": np.ones((3, 1)), "w": np.ones((3, 1)),
              "V": np.arange(3.0)}
    traj = Trajectory(**arrays)
    for name, a in arrays.items():
        kept = getattr(traj, name)
        a[0] = 99.0
        assert not kept.flags.writeable and not np.shares_memory(kept, a), name
        assert kept[0].tolist() != a[0].tolist(), name


def test_assemble_closed_loop_folds_couplings():
    cl = assemble_closed_loop(two_scalar_state())
    assert np.array_equal(cl.Acl, [[-1.0, 0.0], [1.0, -1.0]])
    assert np.array_equal(cl.Q, np.eye(2))
    assert cl.epsilon == 0.25
    assert cl.n == 2
    assert cl.m == 2


def test_assemble_closed_loop_places_gains():
    cl = assemble_closed_loop(
        two_scalar_state(K_self=[[-3.0]], K_to_prev=[[0.2]], K_prev_to_self=[[0.4]])
    )
    assert np.array_equal(cl.Acl, [[-1.0, 0.4], [1.2, -4.0]])


def test_assemble_closed_loop_rejects_storage_shape_mismatch():
    net = two_stage_scalar_cascade()
    wide = DesignRecord(
        index=2, Q=np.eye(2), epsilon=0.5, K_self=None, K_to_prev=None,
        K_prev_to_self=None, route=ROUTE_VERIFIED,
    )
    # The state itself rejects the storage, so no such state reaches the oracle.
    with pytest.raises(DimensionMismatch, match=r"records\[1\]: Q is \(2, 2\), expected \(1, 1\)"):
        NetworkDesignState(net=net, records=(record(1), wide))


def test_sp_matrix_known_values():
    W = sp_matrix(assemble_closed_loop(two_scalar_state()))
    assert np.allclose(W, [[1.5, -1.0], [-1.0, 1.5]], atol=1e-15)
    assert np.allclose(np.linalg.eigvalsh(W), [0.5, 2.5], atol=1e-12)


def test_centralized_check_passes_designed_example():
    cert = centralized_sp_check(assemble_closed_loop(two_scalar_state()))
    assert cert.verdict
    assert cert.reasons == ()
    assert abs(cert.w_min_eig - 0.5) <= 1e-12
    assert cert.eq_residual == 0.0


def test_centralized_check_flags_equality_residual():
    net = two_stage_scalar_cascade()
    state = NetworkDesignState(net=net, records=(record(1, q=2.0), record(2)))
    cert = centralized_sp_check(assemble_closed_loop(state))
    assert not cert.verdict
    assert "EqualityResidual" in cert.reasons
    assert cert.eq_residual == 1.0


def test_centralized_check_proves_a_long_chain_and_rejects_a_one_percent_overclaim():
    # max |W_ij| = 1.85e5 here, so a margin scaled from the matrix's
    # largest entry (1.8e-3) would pass 1.01 r, whose w_min is -6.2e-4.
    cl = assemble_closed_loop(protocol.run_cascade_design(random_cascade(128, np.random.default_rng(12345))))
    assert centralized_sp_check(cl).verdict
    r = worst_start(cl)[0]
    cert = centralized_sp_check(dataclasses.replace(cl, epsilon=1.01 * r))
    assert cert.reasons == ("MatrixNotPositive",)
    assert -1e-3 < cert.w_min_eig < 0.0


@pytest.mark.parametrize("big", [1e12, 1e14])
def test_centralized_check_proves_each_block_at_its_own_scale(big):
    # Decoupled scalar subsystems with C = big and 1e-3: one shift for the
    # whole W, set by the large block's rounding, exceeds the small block's
    # entry of W; scaled to a unit diagonal, each block meets its own.
    subs = [Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=c) for c in (big, 1e-3)]
    cl = assemble_closed_loop(protocol.run_cascade_design(CascadeNetwork.from_blocks(subs, {})))
    W = sp_matrix(cl)
    assert blockla.rounding_shift(cl.Acl, cl.Q, cl.epsilon, W) > W[1, 1]
    assert centralized_sp_check(cl).verdict
    r = worst_start(cl)[0]
    assert centralized_sp_check(dataclasses.replace(cl, epsilon=1.01 * r)).reasons == ("MatrixNotPositive",)


def test_a_storage_moved_off_positive_within_its_equality_fails_the_positivity_check():
    # N[0] B2 = 0, so record 1's Q keeps Q B2 = C' and loses positivity:
    # its eigenvalues become -1.41 and 3.23.
    state = protocol.run_cascade_design(four_stage_cascade())
    sub = state.net.subsystems[0]
    Q1 = state.records[0].Q - 3.0 * protocol._storage_space(sub)[1][0]
    assert np.linalg.eigvalsh(Q1)[0] < -0.9
    cl = assemble_closed_loop(state)
    Q = cl.Q.copy()
    Q[:sub.n, :sub.n] = Q1
    cert = centralized_sp_check(dataclasses.replace(cl, Q=Q))
    assert cert.reasons == ("MatrixNotPositive", "StorageNotPositiveDefinite")
    assert cert.eq_residual < 1e-14
    doc = files.state_to_dict(state)
    doc["records"][0]["Q"] = Q1.tolist()
    with pytest.raises(files.MalformedFile, match="closed-loop block 1 is not positive definite"):
        files.state_from_dict(doc)


def test_centralized_check_flags_indefinite_certificate():
    cl = unit_loop(a=1.0, eps=0.5)
    cert = centralized_sp_check(cl)
    assert not cert.verdict
    assert "MatrixNotPositive" in cert.reasons


def test_certificate_string_format():
    good = Certificate(w_min_eig=0.5, eq_residual=0.0, verdict=True)
    assert str(good) == "pass: w_min_eig=5.000000e-01 eq_residual=0.000000e+00"
    bad = Certificate(w_min_eig=-1.0, eq_residual=0.0, verdict=False,
                      reasons=("MatrixNotPositive",))
    assert str(bad).startswith("fail:")
    assert "[MatrixNotPositive]" in str(bad)


def test_simulate_matches_exponential_decay():
    traj = simulate(unit_loop(), lambda t: np.zeros(1), x0=[1.0], T=1.0, dt=1e-3)
    assert traj.t.shape == (1001,)
    assert abs(traj.x[-1, 0] - np.exp(-1.0)) <= 1e-12
    assert abs(traj.V[-1] - 0.5 * np.exp(-2.0)) <= 1e-12
    assert np.array_equal(traj.y, traj.x)


def test_simulate_input_validation():
    cl = unit_loop()
    with pytest.raises(ValueError):
        simulate(cl, lambda t: np.zeros(1), T=0.0)
    with pytest.raises(ValueError):
        simulate(cl, lambda t: np.zeros(1), x0=[1.0, 2.0])
    with pytest.raises(ValueError):
        simulate(cl, lambda t: np.zeros(2))


@pytest.mark.parametrize("T,dt", [
    *[(bad, 1e-3) for bad in (np.inf, -np.inf, np.nan, 0.0, -1.0)],
    *[(1.0, bad) for bad in (np.inf, -np.inf, np.nan, 0.0, -1.0)],
    (1e300, 1e-10),
])
def test_simulate_rejects_non_positive_or_non_finite_horizon_and_step(T, dt):
    calls = []

    def disturbance(t):
        calls.append(np.shape(t))
        return np.zeros(1)

    with pytest.raises(ValueError, match="positive and finite"):
        simulate(unit_loop(), disturbance, T=T, dt=dt)
    assert calls == []


def test_simulate_raises_on_divergence():
    cl = unit_loop(a=5.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteTrajectory):
            simulate(cl, lambda t: np.zeros(1), x0=[1.0], T=200.0, dt=0.1)


def test_dissipation_margin_balanced_rate():
    # With epsilon equal to the true decay rate the inequality is tight;
    # only quadrature error separates the margin from zero.
    traj = simulate(unit_loop(eps=1.0), lambda t: np.zeros(1), x0=[1.0], T=1.0, dt=1e-3)
    margin = dissipation_margin(traj, 1.0)
    assert -1e-6 <= margin <= 0.0


def test_dissipation_margin_slack_rate_is_zero():
    traj = simulate(unit_loop(eps=0.5), lambda t: np.zeros(1), x0=[1.0], T=1.0, dt=1e-3)
    assert dissipation_margin(traj, 0.5) == 0.0


def test_dissipation_margin_detects_overclaimed_rate():
    traj = simulate(unit_loop(eps=1.0), lambda t: np.zeros(1), x0=[1.0], T=1.0, dt=1e-3)
    margin = dissipation_margin(traj, 2.0)
    expected = -0.5 * (1.0 - np.exp(-2.0))
    assert abs(margin - expected) <= 1e-6


def test_dissipation_margin_under_disturbance():
    state = two_scalar_state()
    cl = assemble_closed_loop(state)
    disturbance = SineDisturbance.from_seed(cl.m, seed=4)
    traj = simulate(cl, disturbance, T=5.0, dt=1e-3)
    margin = dissipation_margin(traj, cl.epsilon)
    assert -1e-6 <= margin <= 0.0


def test_sine_disturbance_shapes_and_determinism():
    d1 = SineDisturbance.from_seed(3, seed=12)
    d2 = SineDisturbance.from_seed(3, seed=12)
    d3 = SineDisturbance.from_seed(3, seed=13)
    assert d1.freqs.shape == (3, 5)
    assert np.array_equal(d1.freqs, d2.freqs)
    assert np.array_equal(d1.phases, d2.phases)
    assert not np.array_equal(d1.freqs, d3.freqs)
    assert np.array_equal(seeded_sines(3, 12, WAVES).phases, d1.phases)
    w = d1(0.7)
    assert w.shape == (3,)
    assert np.all(np.abs(w) <= 5.0)
    assert np.all(d1.freqs >= 0.1) and np.all(d1.freqs <= 10.0)


def test_sine_disturbance_shape_mismatch():
    with pytest.raises(ValueError):
        SineDisturbance(freqs=np.zeros((2, 5)), phases=np.zeros((2, 4)))


def test_export_trajectory_csv_round_trip(tmp_path):
    cl = assemble_closed_loop(two_scalar_state())
    traj = simulate(cl, SineDisturbance.from_seed(cl.m, seed=1), T=0.01, dt=1e-3)
    path = tmp_path / "trace.csv"
    export_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,y1,y2,w1,w2,V"
    assert len(lines) == 1 + traj.t.shape[0]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], traj.t)
    assert np.array_equal(data[:, 1:3], traj.x)
    assert np.array_equal(data[:, 3:5], traj.y)
    assert np.array_equal(data[:, 5:7], traj.w)
    assert np.array_equal(data[:, 7], traj.V)


def hold_block(cl, h):
    """[[Acl h, B2 h, 0], [0, 0, I], [0, 0, 0]], whose exponential holds
    the maps of one exact step."""
    n, m = cl.n, cl.m
    block = np.zeros((n + 2 * m, n + 2 * m))
    block[:n, :n] = h * cl.Acl
    block[:n, n:n + m] = h * cl.B2
    block[n:n + m, n + m:] = np.eye(m)
    return block


def _hold_reference(cl, disturbance, x0, T, dt):
    """Step-by-step exact steps under a first-order hold, the maps from
    scipy's expm of [[Ah, Bh, 0], [0, 0, I], [0, 0, 0]], with one scalar
    disturbance call per grid time.

    The tests named ..._step_by_step_rk4 kept their names when simulate
    moved from RK4 to the exact step; they now compare with this.
    """
    steps = max(1, int(round(T / dt)))
    h = T / steps
    n, m = cl.n, cl.m
    E = scipy.linalg.expm(hold_block(cl, h))
    Phi, Gamma1, Gamma2 = E[:n, :n], E[:n, n:n + m], E[:n, n + m:]
    w = [np.asarray(disturbance(k * h), dtype=float) for k in range(steps + 1)]
    x = np.empty((steps + 1, n))
    x[0] = x0
    for k in range(steps):
        x[k + 1] = Phi @ x[k] + Gamma1 @ w[k] + Gamma2 @ (w[k + 1] - w[k])
    V = 0.5 * np.einsum("ki,ij,kj->k", x, cl.Q, x)
    return x, V


def assert_matches_reference(traj, cl, disturbance, x0, T, dt):
    x_ref, V_ref = _hold_reference(cl, disturbance, x0, T, dt)
    assert traj.x.shape == x_ref.shape
    assert np.abs(traj.x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
    assert np.abs(traj.V - V_ref).max() <= 1e-12 * np.abs(V_ref).max()


@pytest.fixture(scope="module")
def four_stage_loop():
    return assemble_closed_loop(protocol.run_cascade_design(four_stage_cascade()))


# Step counts 1, 2, 14 and 16 run the direct loop, and 17 is the first
# count split into blocks. 7143, 20001 and the default horizon 20000 pad
# blocks at several levels, 400 is a perfect square, and 19683 = 27^3
# fills 27^2 whole blocks.
@pytest.mark.parametrize("T,dt,steps", [
    (20.0, 1e-3, 20000),
    (1e-3, 1e-3, 1),
    (2e-3, 1e-3, 2),
    (0.0137, 1e-3, 14),
    (0.016, 1e-3, 16),
    (0.017, 1e-3, 17),
    (5.0, 7e-4, 7143),
    (0.4, 1e-3, 400),
    (19.683, 1e-3, 19683),
    (20.001, 1e-3, 20001),
])
def test_simulate_matches_step_by_step_rk4(four_stage_loop, T, dt, steps):
    cl = four_stage_loop
    x0 = np.linspace(-1.0, 1.0, cl.n)
    disturbance = SineDisturbance.from_seed(cl.m, seed=3)
    traj = simulate(cl, disturbance, x0=x0, T=T, dt=dt)
    assert traj.t.shape == (steps + 1,)
    assert_matches_reference(traj, cl, disturbance, x0, T, dt)


# The 34-state loop checks the block-end product with powers of a larger
# Phi than the four-stage loop's 6 x 6.
@pytest.mark.parametrize("T,dt", [(2.0, 1e-3), (5.0, 7e-4)])
def test_simulate_matches_step_by_step_rk4_on_a_34_state_loop(T, dt):
    cl = assemble_closed_loop(protocol.run_cascade_design(random_cascade(16, np.random.default_rng(2))))
    assert cl.n == 34
    x0 = np.linspace(-1.0, 1.0, cl.n)
    disturbance = SineDisturbance.from_seed(cl.m, seed=3)
    traj = simulate(cl, disturbance, x0=x0, T=T, dt=dt)
    assert_matches_reference(traj, cl, disturbance, x0, T, dt)


def test_simulate_matches_step_by_step_rk4_on_a_stiff_grown_loop(monkeypatch):
    # Ten grow_persist additions to the four-stage design, at a step of
    # 2.5 / rho(Acl), where RK4 was near the edge of its stability
    # interval; the exact step has no such edge.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import fixed_design, seeded_additions

    state = fixed_design()
    additions = seeded_additions(
        np.random.default_rng(1), state.net.subsystems[-1], state.net.n_subsystems + 1, 10
    )
    for addition in additions:
        state = protocol.add_subsystem(state, *addition)
    cl = assemble_closed_loop(state)
    dt = 2.5 / np.abs(np.linalg.eigvals(cl.Acl)).max()
    x0 = np.linspace(-1.0, 1.0, cl.n)
    disturbance = SineDisturbance.from_seed(cl.m, seed=3)
    traj = simulate(cl, disturbance, x0=x0, T=2000 * dt, dt=dt)
    assert traj.t.shape == (2001,)
    assert_matches_reference(traj, cl, disturbance, x0, 2000 * dt, dt)


def test_expm_matches_scipy_on_the_hold_blocks_of_the_benchmark_loops():
    # The oracle_trials loops: the four prefixes of the four-stage design.
    records = protocol.run_cascade_design(four_stage_cascade()).records
    for k in range(1, 5):
        cl = assemble_closed_loop(NetworkDesignState(net=four_stage_cascade(k), records=records[:k]))
        for h in (1e-3, 0.1, 2.0):
            want = scipy.linalg.expm(hold_block(cl, h))
            assert np.abs(blockla.expm(hold_block(cl, h)) - want).max() <= 1e-13 * np.abs(want).max(), (k, h)


def test_simulate_peak_memory_is_at_most_twice_what_it_returns(four_stage_loop):
    # Hardware-independent guard against full-length copies: numpy
    # reports its array buffers to tracemalloc.
    cl = four_stage_loop
    disturbance = SineDisturbance.from_seed(cl.m, seed=0)
    tracemalloc.start()
    try:
        traj = simulate(cl, disturbance, T=20.0, dt=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (traj.t, traj.x, traj.y, traj.w, traj.V))
    assert peak <= 2 * returned


def test_simulate_refuses_a_trajectory_over_the_cap_before_allocating_it(four_stage_loop):
    # Each of the S + 1 rows holds t, x, y, w and V, so rows - 1 steps is
    # the last allowed count. It is not run: it would allocate the whole GiB.
    cl = four_stage_loop
    rows = MAX_TRAJECTORY_BYTES // ((2 + cl.n + 2 * cl.m) * 8)

    def unsampled(t):
        raise AssertionError("sampled before the size check")

    for T in (float(rows), 1e18, 1e300):
        tracemalloc.start()
        try:
            with pytest.raises(TrajectoryTooLarge, match=f"exceed the {rows - 1} that a"):
                simulate(cl, unsampled, T=T, dt=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


def test_simulate_leaves_its_inputs_alone_and_returns_read_only_arrays():
    cl = assemble_closed_loop(two_scalar_state())
    x0 = np.array([1.0, -2.0])
    samples = SineDisturbance.from_seed(cl.m, seed=5)(np.arange(501) * 1e-3)
    constant = np.array([0.5, -1.0])
    for returned in (samples, constant):
        kept_x0, kept_returned = x0.copy(), returned.copy()
        traj = simulate(cl, lambda t: returned, x0=x0, T=0.5, dt=1e-3)
        assert x0.flags.writeable and np.array_equal(x0, kept_x0)
        assert returned.flags.writeable and np.array_equal(returned, kept_returned)
        for name in ("t", "x", "y", "w", "V"):
            a = getattr(traj, name)
            assert not a.flags.writeable, name
            assert not np.shares_memory(a, x0) and not np.shares_memory(a, returned), name


def test_sine_disturbance_on_array_equals_scalar_calls():
    d = SineDisturbance.from_seed(4, seed=7)
    ts = np.concatenate((np.arange(2001) * 5e-4, [-3.25, 1e3, 0.1]))
    samples = d(ts)
    assert samples.shape == (ts.shape[0], 4)
    assert np.array_equal(samples, np.stack([d(float(t)) for t in ts]))
    # The sum over the wave axis adds the waves in the same order.
    summed = np.stack([np.sin(d.freqs * float(t) + d.phases).sum(axis=1) for t in ts])
    assert np.array_equal(samples, summed)


def seeded_sines(channels, seed, waves):
    """A SineDisturbance of any number of waves, drawn as from_seed draws its WAVES."""
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(0.1, 10.0, size=(channels, waves))
    return SineDisturbance(freqs=freqs, phases=rng.uniform(0.0, 2.0 * np.pi, size=(channels, waves)))


# Counts 1 and 2 make one-row grids, 14 and 14287 pad the last row of
# the factored grid, 400 is a perfect square, 20001 is the grid of the
# default horizon and 40001 its grid at half the step.
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    channels=st.integers(0, 6),
    waves=st.integers(0, 6),
    seed=st.integers(0, 2**16),
    count=st.sampled_from([1, 2, 14, 400, 14287, 20001, 40001]),
    horizon=st.floats(1e-3, 20.0),
)
def test_sine_disturbance_on_grid_matches_calls_at_the_same_times(channels, waves, seed, count, horizon):
    d = seeded_sines(channels, seed, waves)
    step = horizon / max(1, count - 1)
    samples = d.on_grid(step, count)
    assert samples.shape == (count, channels)
    assert np.abs(samples - d(np.arange(count) * step)).max(initial=0.0) <= 1e-12


def test_sine_disturbance_on_grid_without_waves_or_channels():
    assert np.array_equal(seeded_sines(3, 1, 0).on_grid(0.1, 14), np.zeros((14, 3)))
    assert SineDisturbance.from_seed(0, seed=1).on_grid(0.1, 14).shape == (14, 0)


@pytest.mark.parametrize("step,count", [
    (0.1, 0), (0.1, -1), (np.inf, 10), (-np.inf, 10), (np.nan, 10),
])
def test_sine_disturbance_on_grid_rejects_empty_grid_or_non_finite_step(step, count):
    with pytest.raises(ValueError):
        SineDisturbance.from_seed(2, seed=1).on_grid(step, count)


def test_simulate_samples_a_sine_disturbance_on_its_grid(four_stage_loop, monkeypatch):
    # Hardware-independent guard on the angle-addition sampler: one libm
    # sine per grid time, channel and wave would be 400,020 elements.
    cl = four_stage_loop
    d = SineDisturbance.from_seed(cl.m, seed=3)
    calls = []

    class Spy(SineDisturbance):
        def __call__(self, t):
            calls.append(np.shape(t))
            return super().__call__(t)

    elements = []
    for name in ("sin", "cos"):
        def counting(x, *args, _ufunc=getattr(np, name), **kwargs):
            elements.append(np.size(x))
            return _ufunc(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    traj = simulate(cl, Spy(freqs=d.freqs, phases=d.phases), T=20.0, dt=1e-3)
    monkeypatch.undo()
    assert sum(elements) < 20_000
    assert calls == []
    assert np.array_equal(traj.x, simulate(cl, d, T=20.0, dt=1e-3).x)


def test_simulate_broadcasts_constant_disturbance():
    cl = assemble_closed_loop(two_scalar_state())
    calls = []

    def constant(t):
        calls.append(np.shape(t))
        return np.array([0.5, -1.0])

    traj = simulate(cl, constant, x0=[1.0, -2.0], T=0.5, dt=1e-3)
    assert calls == [(501,)]
    assert np.array_equal(traj.w, np.tile([0.5, -1.0], (501, 1)))
    assert_matches_reference(traj, cl, constant, [1.0, -2.0], 0.5, 1e-3)


@pytest.mark.parametrize("shape", [(1001, 3), (1000, 2), (1001,), (1, 2), (1001, 2), (500, 2)])
def test_simulate_rejects_disturbance_of_wrong_shape(shape):
    cl = assemble_closed_loop(two_scalar_state())
    with pytest.raises(ValueError):
        simulate(cl, lambda t: np.zeros(shape), T=0.5, dt=1e-3)


# Dissipation margins of acceptance test 2 (four-stage design, seeds 0-9,
# T = 20, dt = 1e-3) from _hold_reference: at the design rate, and at the
# overclaimed rate 10, where the margin is negative.
REFERENCE_MARGINS = [
    (0.0, -92.26312194972259),
    (0.0, -36.21912009053316),
    (0.0, -44.5645296277857),
    (0.0, -23.016389953362246),
    (0.0, -19.604149979197842),
    (0.0, -38.314916235109436),
    (0.0, -75.08993952865578),
    (0.0, -33.733326123083664),
    (0.0, -71.65261406386462),
    (0.0, -80.969329235064),
]


def test_acceptance_margins_match_step_by_step_rk4(four_stage_loop):
    cl = four_stage_loop
    for seed, (at_rate, overclaimed) in enumerate(REFERENCE_MARGINS):
        traj = simulate(cl, SineDisturbance.from_seed(cl.m, seed), T=20.0, dt=1e-3)
        assert abs(dissipation_margin(traj, cl.epsilon) - at_rate) <= 1e-12
        assert abs(dissipation_margin(traj, 10.0) - overclaimed) <= 1e-12 * abs(overclaimed)


def test_export_trajectory_csv_bytes(tmp_path):
    cl = assemble_closed_loop(two_scalar_state())
    traj = simulate(cl, SineDisturbance.from_seed(cl.m, seed=2), x0=[0.3, -1.0], T=0.05, dt=1e-3)
    path = tmp_path / "trace.csv"
    export_trajectory_csv(traj, path)
    lines = ["t,x1,x2,y1,y2,w1,w2,V"]
    for k in range(traj.t.shape[0]):
        row = [traj.t[k], *traj.x[k], *traj.y[k], *traj.w[k], traj.V[k]]
        lines.append(",".join(f"{v:.17g}" for v in row))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def worst_start_margins(cl):
    """Margins at the design rate and at 1.01 r, r the storage's true
    rate, started at oracle.worst_start with no disturbance."""
    r, x0 = worst_start(cl)
    traj = simulate(cl, lambda t: np.zeros(cl.m), x0=x0, T=0.05, dt=1e-4)
    return dissipation_margin(traj, cl.epsilon), dissipation_margin(traj, 1.01 * r)


def test_worst_start_separates_design_rate_from_a_slightly_higher_one(four_stage_loop):
    at_rate, above = worst_start_margins(four_stage_loop)
    assert at_rate >= -1e-9
    assert above < -1e-5


def test_worst_start_holds_the_design_rate_of_random_designs():
    rng = np.random.default_rng(0)
    for k in range(40):
        cl = assemble_closed_loop(protocol.run_cascade_design(random_cascade(1 + k % 6, rng)))
        at_rate, above = worst_start_margins(cl)
        assert at_rate >= -SLACK_TOL, k
        assert above < 0.0, k


def grown_state(seed, cycle, additions, monkeypatch):
    """The grow_persist state after the given number of additions in the
    given cycle of a seed, counted from 0 as grow_persist and
    tools/verdicts.py count them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import GROWTH, fixed_design, seeded_additions

    state = fixed_design()
    last, first = state.net.subsystems[-1], state.net.n_subsystems + 1
    rng = np.random.default_rng(seed)
    for _ in range(cycle + 1):
        drawn = seeded_additions(rng, last, first, GROWTH)
    for addition in drawn[:additions]:
        state = protocol.add_subsystem(state, *addition)
    return state


# Grown states where RK4 at dt = 1e-3 overflowed from the worst start
# (rho(Acl) dt = 8.66, 3.68 and 18.4) and so flagged the design rate as
# violated.
@pytest.mark.parametrize("seed,cycle,additions", [(2, 0, 20), (3, 1, 20), (5, 2, 30)])
def test_worst_start_holds_and_separates_stiff_grown_states_at_the_default_step(
        seed, cycle, additions, monkeypatch):
    cl = assemble_closed_loop(grown_state(seed, cycle, additions, monkeypatch))
    r, x0 = worst_start(cl)
    traj = simulate(cl, lambda t: np.zeros(cl.m), x0=x0, T=0.05, dt=1e-3)
    assert dissipation_margin(traj, cl.epsilon) >= -SLACK_TOL
    assert dissipation_margin(traj, 1.01 * r) < 0.0


def test_simulate_is_exact_for_a_disturbance_linear_in_time(four_stage_loop):
    # The hold is exact for w linear in t, so the step size changes
    # nothing but rounding.
    cl = four_stage_loop
    x0 = np.linspace(-1.0, 1.0, cl.n)
    slope, offset = np.linspace(-2.0, 1.0, cl.m), np.linspace(0.5, -0.5, cl.m)

    def ramp(t):
        return np.multiply.outer(t, slope) + offset

    coarse = simulate(cl, ramp, x0=x0, T=2.0, dt=0.1)
    fine = simulate(cl, ramp, x0=x0, T=2.0, dt=1e-3)
    assert np.abs(fine.x[::100] - coarse.x).max() <= 1e-12 * np.abs(coarse.x).max()


def test_simulate_reports_a_step_map_that_overflows():
    with pytest.raises(NonFiniteTrajectory, match="step map"):
        simulate(unit_loop(a=-1e300), lambda t: np.zeros(1), x0=[1.0], T=1e10, dt=1e10)
