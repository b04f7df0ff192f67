"""End-to-end acceptance checks, one verdict line printed per criterion."""

import time

import numpy as np
import pytest

from cascadepass import blockla, files, lmi, oracle, protocol
from cascadepass.model import CascadeNetwork
from cascadepass.protocol import (
    ROUTE_SYNTHESIZED,
    ROUTE_VERIFIED,
    DesignFailed,
    DesignRecord,
    NetworkDesignState,
)
from cascadepass.sample_cascades import (
    addition_blocks,
    four_stage_cascade,
    random_cascade,
    two_stage_scalar_cascade,
)


def verdict(label, ok):
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def records_equal(a, b):
    if a.index != b.index or a.route != b.route or a.epsilon != b.epsilon:
        return False
    if not (np.array_equal(a.Q, b.Q) and np.array_equal(a.M_cl, b.M_cl)):
        return False
    for name in ("K_self", "K_to_prev", "K_prev_to_self"):
        left, right = getattr(a, name), getattr(b, name)
        if (left is None) != (right is None):
            return False
        if left is not None and not np.array_equal(left, right):
            return False
    return True


def random_pd_tridiagonal(rng, block_sizes):
    diags = [rng.normal(size=(n, n)) + (n + 1.0) * np.eye(n) for n in block_sizes]
    subs = [rng.normal(size=(block_sizes[k + 1], block_sizes[k]))
            for k in range(len(block_sizes) - 1)]
    D = []
    R = []
    for k, n in enumerate(block_sizes):
        block = diags[k] @ diags[k].T
        if k > 0:
            block = block + subs[k - 1] @ subs[k - 1].T
        D.append(block)
        if k + 1 < len(block_sizes):
            R.append(diags[k] @ subs[k].T)
    return blockla.BlockTriDiagonal(tuple(D), tuple(R))


def run_random_campaign(seed=0, trials=50):
    rng = np.random.default_rng(seed)
    states = []
    declined = 0
    for _ in range(trials):
        net = random_cascade(int(rng.integers(1, 7)), rng)
        try:
            states.append(protocol.run_cascade_design(net))
        except DesignFailed:
            declined += 1
    return states, declined


def test_1_four_stage_design_routes_and_certificate():
    start = time.perf_counter()
    state = protocol.run_cascade_design(four_stage_cascade())
    elapsed = time.perf_counter() - start
    routes = [rec.route for rec in state.records]
    expected = [ROUTE_SYNTHESIZED, ROUTE_SYNTHESIZED, ROUTE_VERIFIED, ROUTE_SYNTHESIZED]
    cert = oracle.centralized_sp_check(oracle.assemble_closed_loop(state))
    ok = routes == expected and cert.verdict and elapsed < 10.0
    verdict(
        f"acceptance 1, four-stage routes {routes} certificate "
        f"[{cert}] in {elapsed:.2f}s",
        ok,
    )


def test_2_four_stage_trajectories_dissipate():
    state = protocol.run_cascade_design(four_stage_cascade())
    cl = oracle.assemble_closed_loop(state)
    cert = oracle.centralized_sp_check(cl)
    worst = 0.0
    for seed in range(10):
        disturbance = oracle.SineDisturbance.from_seed(cl.m, seed)
        traj = oracle.simulate(cl, disturbance, T=20.0, dt=1e-3)
        worst = min(worst, oracle.dissipation_margin(traj, cl.epsilon))
    ok = worst >= -1e-6 and cert.eq_residual <= 1e-8
    verdict(
        f"acceptance 2, ten disturbance trials, worst margin {worst:.3e}, "
        f"eq residual {cert.eq_residual:.3e}",
        ok,
    )


def test_3_block_tridiagonal_factorization_accuracy():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 6))
        sizes = [int(rng.integers(1, 5)) for _ in range(k)]
        P = random_pd_tridiagonal(rng, sizes)
        dense = P.assemble()
        L = blockla.tridiag_pd_sequence(P).assemble_lower()
        rel = np.linalg.norm(L @ L.T - dense) / np.linalg.norm(dense)
        worst = max(worst, rel)
    ok = worst <= 1e-9
    verdict(f"acceptance 3, 200 factorizations, worst relative error {worst:.3e}", ok)


def test_4_two_stage_chain_rates_and_margins():
    net = two_stage_scalar_cascade()
    pinned = NetworkDesignState(
        net=net,
        records=(
            DesignRecord(index=1, Q=[[1.0]], epsilon=0.5, K_self=None,
                         K_to_prev=None, K_prev_to_self=None, route=ROUTE_VERIFIED),
            DesignRecord(index=2, Q=[[1.0]], epsilon=0.25, K_self=None,
                         K_to_prev=None, K_prev_to_self=None, route=ROUTE_VERIFIED),
        ),
    )
    factor = blockla.tridiag_pd_sequence(protocol.design_tridiagonal(pinned))
    m1 = factor.M_blocks[0][0, 0]
    m2 = factor.M_blocks[1][0, 0]
    eigs = np.linalg.eigvalsh(oracle.sp_matrix(oracle.assemble_closed_loop(pinned)))

    state = protocol.run_cascade_design(net)
    eps = [rec.epsilon for rec in state.records]

    ok = (
        abs(m1 - 1.0) <= 1e-9
        and abs(m2 - 0.5) <= 1e-9
        and np.abs(eigs - np.array([0.5, 2.5])).max() <= 1e-9
        and abs(eps[0] - 0.5) <= 1e-3
        and abs(eps[1] - 0.25) <= 1e-3
    )
    verdict(
        f"acceptance 4, pinned-rate margins ({m1:.10f}, {m2:.10f}), "
        f"certificate eigenvalues {eigs}, designed rates ({eps[0]:.6f}, {eps[1]:.6f})",
        ok,
    )


def test_5_growth_reproduces_from_scratch_design():
    full = protocol.run_cascade_design(four_stage_cascade())
    partial = protocol.run_cascade_design(four_stage_cascade(3))
    new_sub, h_self, h_prev, h_to_new = addition_blocks()
    grown = protocol.add_subsystem(partial, new_sub, h_self, h_prev, h_to_new)

    prefix_frozen = all(
        records_equal(grown.records[i], partial.records[i]) for i in range(3)
    )
    matches_full = len(grown.records) == 4 and all(
        records_equal(grown.records[i], full.records[i]) for i in range(4)
    )
    last = grown.records[3]
    new_gains_only = (
        last.K_self is not None
        and last.K_to_prev is not None
        and last.K_prev_to_self is not None
        and all(grown.records[i].K_prev_to_self is partial.records[i].K_prev_to_self
                for i in range(3))
    )
    same_network = files.network_fingerprint(grown.net) == files.network_fingerprint(full.net)
    ok = prefix_frozen and matches_full and new_gains_only and same_network
    verdict(
        "acceptance 5, one-step growth: prefix records bit-identical, "
        "fourth record matches the from-scratch design",
        ok,
    )


@pytest.fixture(scope="module")
def campaign():
    """The four-stage design and the seeded random campaign, run once.

    Returns the campaign's states, its declined count and every
    (problem, margin, FeasiblePoint) that lmi.solve_feasibility returned.
    """
    emitted = []
    original = lmi.solve_feasibility

    def recording(prob, margin=None, **kwargs):
        out = original(prob, margin, **kwargs)
        if isinstance(out, lmi.FeasiblePoint):
            emitted.append((prob, margin, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lmi, "solve_feasibility", recording)
        protocol.run_cascade_design(four_stage_cascade())
        states, declined = run_random_campaign(seed=0, trials=50)
    return states, declined, emitted


def test_6_random_cascades_never_certify_falsely(campaign):
    states, declined, _ = campaign
    false_certs = 0
    for state in states:
        cert = oracle.centralized_sp_check(oracle.assemble_closed_loop(state))
        if not cert.verdict:
            false_certs += 1
    ok = false_certs == 0 and len(states) >= 1
    verdict(
        f"acceptance 6, random campaign: {len(states)} designed, "
        f"{declined} declined, {false_certs} false certificates",
        ok,
    )


def test_7_every_emitted_point_recertifies(campaign):
    _, _, emitted = campaign
    bad = 0
    for prob, margin, point in emitted:
        if not lmi.certify_point(point.theta, prob, margin).ok:
            bad += 1
    ok = bad == 0 and len(emitted) > 0
    verdict(
        f"acceptance 7, {len(emitted)} emitted feasible points, {bad} failed re-certification",
        ok,
    )


def test_8_every_prefix_of_a_design_is_passive(campaign):
    # The paper's guarantee is passivity "of the interconnected system up
    # to that point": the first k subsystems, the couplings among them and
    # the first k records make a state the oracle accepts, whose margins
    # are the design's own.
    states, _, _ = campaign
    prefixes = failed = 0
    for state in states:
        net = state.net
        for k in range(1, net.n_subsystems + 1):
            head = CascadeNetwork(
                subsystems=net.subsystems[:k],
                couplings={ij: block for ij, block in net.couplings.items() if max(ij) <= k},
            )
            prefix = NetworkDesignState(net=head, records=state.records[:k])
            cert = oracle.centralized_sp_check(oracle.assemble_closed_loop(prefix))
            same = all(np.array_equal(a.M_cl, b.M_cl) for a, b in zip(prefix.records, state.records))
            prefixes += 1
            failed += not (cert.verdict and same)
    ok = failed == 0 and prefixes > len(states)
    verdict(f"acceptance 8, {prefixes} prefixes of {len(states)} designs, {failed} not passive", ok)
