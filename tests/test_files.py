"""Canonical JSON round trips, fingerprints, schema rejection and re-certified state loads."""

import dataclasses
import errno
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadepass.files import (
    MalformedFile,
    load_addition,
    load_network,
    load_state,
    network_fingerprint,
    network_from_dict,
    network_to_dict,
    save_addition,
    save_network,
    save_state,
    state_from_dict,
    state_to_dict,
)
from cascadepass import blockla, files
from cascadepass.blockla import tridiag_pd_sequence
from cascadepass.cli import EXIT_INVALID, EXIT_OK, execute
from cascadepass.model import CascadeNetwork, Subsystem
from cascadepass.oracle import assemble_closed_loop, centralized_sp_check
from cascadepass.protocol import (
    DesignFailed,
    NetworkDesignState,
    add_subsystem,
    design_tridiagonal,
    run_cascade_design,
)
from cascadepass.sample_cascades import four_stage_cascade, random_cascade, two_stage_scalar_cascade


def awkward_network():
    # Entries that do not have short decimal representations, so the round
    # trip only works if floats are written with full precision.
    sub = Subsystem(A=-1.0 / 3.0, B1=0.1 + 0.2, B2=1.0, B3=np.pi, C=1.0)
    return CascadeNetwork.from_blocks([sub, sub], {(2, 1): [[1e-300]], (1, 1): [[0.1]]})


def test_network_round_trip_is_exact(tmp_path):
    net = awkward_network()
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.n_subsystems == net.n_subsystems
    for a, b in zip(net.subsystems, loaded.subsystems):
        for name in ("A", "B1", "B2", "B3", "C"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    assert set(loaded.couplings) == set(net.couplings)
    assert np.array_equal(loaded.h(2, 1), net.h(2, 1))
    assert network_fingerprint(loaded) == network_fingerprint(net)


def test_fingerprint_tracks_content():
    net = two_stage_scalar_cascade()
    base = network_fingerprint(net)
    assert base == network_fingerprint(two_stage_scalar_cascade())
    bumped = CascadeNetwork.from_blocks(
        list(net.subsystems), {(2, 1): [[1.0 + 1e-12]]}
    )
    assert network_fingerprint(bumped) != base


def _assert_records_equal(state, other):
    assert other.global_epsilon == state.global_epsilon
    for a, b in zip(state.records, other.records, strict=True):
        assert a.index == b.index
        assert a.route == b.route
        assert a.epsilon == b.epsilon
        assert np.array_equal(a.Q, b.Q)
        assert a.M_cl.tobytes() == b.M_cl.tobytes()
        for name in ("K_self", "K_to_prev", "K_prev_to_self"):
            left, right = getattr(a, name), getattr(b, name)
            assert (left is None) == (right is None)
            if left is not None:
                assert np.array_equal(left, right)


def test_state_round_trip_is_bitwise(tmp_path):
    # random_cascade(24, default_rng(3)) holds all six (n, p, m) shapes,
    # both routes and absent couplings, so its load stacks steps of every kind.
    for net in (four_stage_cascade(), random_cascade(24, np.random.default_rng(3))):
        state = run_cascade_design(net)
        path = tmp_path / "state.json"
        save_state(state, path)
        loaded = load_state(path)
        _assert_records_equal(state, loaded)
        # The public constructor derives every M_cl afresh: the margins of
        # the design, of a load and of a rebuilt state agree bit for bit.
        _assert_records_equal(state, NetworkDesignState(loaded.net, loaded.records))


def _state_doc(state):
    return json.loads(json.dumps(state_to_dict(state), default=lambda a: np.asarray(a).tolist()))


def test_state_file_holds_only_the_free_data(tmp_path):
    state = run_cascade_design(four_stage_cascade())
    path = tmp_path / "state.json"
    save_state(state, path)
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["network", "records", "schema", "type"]
    for rec in doc["records"]:
        assert sorted(rec) == sorted(
            ["index", "Q", "epsilon", "K_self", "K_to_prev", "K_prev_to_self", "route"]
        )


def test_edited_network_loads_only_if_the_records_still_certify_it():
    state = run_cascade_design(two_stage_scalar_cascade())
    doc = _state_doc(state)
    doc["network"]["couplings"][0]["h"] = [[0.5]]
    edited = state_from_dict(doc)
    assert edited.net.h(2, 1)[0, 0] == 0.5
    assert not np.array_equal(edited.records[1].M_cl, state.records[1].M_cl)
    factor = tridiag_pd_sequence(design_tridiagonal(edited))
    for rec, M in zip(edited.records, factor.M_blocks):
        assert np.array_equal(rec.M_cl, M)
    assert centralized_sp_check(assemble_closed_loop(edited)).verdict

    doc["network"]["couplings"][0]["h"] = [[2.0]]
    with pytest.raises(MalformedFile, match="closed-loop block 2 is not positive definite"):
        state_from_dict(doc)


def test_parent_format_state_loads_with_its_margins_rederived(tmp_path):
    # Files written before the derived fields were dropped also carry a
    # fingerprint, the global rate and every M_cl; those keys are ignored.
    state = run_cascade_design(four_stage_cascade())
    doc = _state_doc(state)
    doc["fingerprint"] = "0" * 64
    doc["global_epsilon"] = 123.0
    for rec in doc["records"]:
        rec["M_cl"] = (1e6 * np.eye(len(rec["Q"]))).tolist()
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    loaded = load_state(path)
    assert loaded.global_epsilon == state.global_epsilon
    for a, b in zip(state.records, loaded.records):
        assert np.array_equal(a.M_cl, b.M_cl)


def test_inflated_margin_in_a_state_file_cannot_unsound_a_growth(tmp_path):
    # An M_cl scaled by 1e6 in the file once let the next step trust a
    # margin the chain does not have; the oracle then rejected the growth
    # with w_min_eig = -0.973.
    doc = _state_doc(run_cascade_design(four_stage_cascade(3)))
    doc["records"][-1]["M_cl"] = (1e6 * np.eye(1)).tolist()
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    grown = add_subsystem(load_state(path), Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=0.0, C=1.0),
                          h_prev=[[1.0]], h_to_new=[[1.0]])
    assert centralized_sp_check(assemble_closed_loop(grown)).verdict


def test_a_load_checks_each_record_matrix_once(tmp_path, monkeypatch):
    # Q where it is parsed, by one symmetry test per storage size; the
    # closed-loop blocks, the Schur complements and the record built from
    # them are not checked again. symmetric_part runs the same test, so
    # the count covers it too.
    state = run_cascade_design(four_stage_cascade())
    path = tmp_path / "state.json"
    save_state(state, path)
    calls = 0
    original = blockla._symmetric_parts

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(blockla, "_symmetric_parts", counting)
    load_state(path)
    assert 1 <= calls <= len({rec.Q.shape for rec in state.records})


def test_a_load_reports_the_first_asymmetric_storage_in_file_order():
    # Records 1 and 2 both hold an asymmetric Q. Record 2 has record 0's
    # size, so its stack is tested first; record 1 comes first in the file.
    state = run_cascade_design(random_cascade(3, np.random.default_rng(7)))
    assert [rec.Q.shape[0] for rec in state.records] == [3, 2, 3]
    doc = _state_doc(state)
    for rec in doc["records"][1:]:
        rec["Q"][0][1] += 1e-3 * max(1.0, np.abs(rec["Q"]).max())
    with pytest.raises(MalformedFile, match=r"^records\[1\]: Q is asymmetric: relative skew"):
        state_from_dict(doc)


def _scale(where, name, factor):
    def tamper(doc):
        rec = doc["records"][where]
        rec[name] = (factor * np.asarray(rec[name])).tolist()
    return tamper


def _nudge_q(where):
    def tamper(doc):
        Q = np.asarray(doc["records"][where]["Q"])
        Q[0, 0] = np.nextafter(Q[0, 0], np.inf)
        doc["records"][where]["Q"] = Q.tolist()
    return tamper


def _edit_coupling(k, factor):
    def tamper(doc):
        coupling = doc["network"]["couplings"][k]
        coupling["h"] = (factor * np.asarray(coupling["h"])).tolist()
    return tamper


# Record 1 and record 4 of the four-stage design are Synthesized.
TAMPERS = {
    **{f"Q*2-{k + 1}": _scale(k, "Q", 2.0) for k in range(4)},
    **{f"epsilon*1e3-{k + 1}": _scale(k, "epsilon", 1e3) for k in range(4)},
    **{f"-K_self-{k + 1}": _scale(k, "K_self", -1.0) for k in (0, 3)},
    **{f"Q+ulp-{k + 1}": _nudge_q(k) for k in range(4)},
    **{f"coupling{k}*{factor}": _edit_coupling(k, factor) for k in range(10) for factor in (0.0, 2.0, 10.0)},
}


def test_tampered_state_either_fails_to_load_or_passes_the_oracle():
    doc = _state_doc(run_cascade_design(four_stage_cascade()))
    outcomes = {}
    for name, tamper in TAMPERS.items():
        tampered = json.loads(json.dumps(doc))
        tamper(tampered)
        try:
            state = state_from_dict(tampered)
        except MalformedFile:
            outcomes[name] = "malformed"
            continue
        cert = centralized_sp_check(assemble_closed_loop(state))
        assert cert.verdict, (name, str(cert))
        outcomes[name] = "loads"
    for name in TAMPERS:
        if name.startswith(("Q*2", "epsilon", "-K_self")):
            assert outcomes[name] == "malformed", name
        if name.startswith("Q+ulp"):
            assert outcomes[name] == "loads", name
    assert "malformed" in {outcomes[f"coupling{k}*10.0"] for k in range(10)}


def _uncoupled_scalar_state_doc(storages):
    """A state of uncoupled scalar subsystems A = -1, B1 = B2 = B3 = 1,
    C = Q, one Verified record each with epsilon 1e-8."""
    subs = [Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=q) for q in storages]
    records = [
        {"index": k + 1, "Q": [[q]], "epsilon": 1e-8, "K_self": None, "K_to_prev": None,
         "K_prev_to_self": None, "route": "Verified"}
        for k, q in enumerate(storages)
    ]
    doc = {"schema": 1, "type": "state",
           "network": network_to_dict(CascadeNetwork.from_blocks(subs, {})), "records": records}
    return json.loads(json.dumps(doc, default=lambda a: np.asarray(a).tolist()))


def test_loader_and_oracle_both_accept_storages_of_far_apart_scales(tmp_path):
    # Each pivot of Q must exceed 1e-12 * max(1, largest |Q_jk| of its own
    # row j), in the loader's stacks and in the oracle's block-diagonal Q
    # alike. Q = 1e-7 clears its own floor beside Q = 1e6, so this state,
    # once rejected by both against the floor Q = 1e6 set, now passes both.
    path = tmp_path / "state.json"
    path.write_text(json.dumps(_uncoupled_scalar_state_doc([1e-7, 1e6])))
    assert centralized_sp_check(assemble_closed_loop(load_state(path))).verdict
    assert execute(["check", "--state", str(path)]) == EXIT_OK
    for q in (1e-7, 1e6):
        alone = state_from_dict(_uncoupled_scalar_state_doc([q]))
        assert centralized_sp_check(assemble_closed_loop(alone)).verdict


def _far_apart_design(grown):
    """Decoupled scalar subsystems A = -1, B1 = B2 = B3 = 1 with C = 1e9
    and C = 2e-4, designed together or the first alone and then grown."""
    big, small = (Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=c) for c in (1e9, 2e-4))
    if grown:
        return add_subsystem(run_cascade_design(CascadeNetwork.from_blocks([big], {})), small)
    return run_cascade_design(CascadeNetwork.from_blocks([big, small], {}))


@pytest.mark.parametrize("grown", [False, True], ids=["designed", "grown"])
def test_storages_of_far_apart_scales_design_load_and_check(tmp_path, grown):
    # The design step judged each Q at its own pivot floor while the loader
    # and the oracle judged it at the floor of the chain's largest |Q|, so
    # this state's Q = 2e-4 failed both: records[1] did not load and the
    # oracle reported StorageNotPositiveDefinite.
    state = _far_apart_design(grown)
    assert centralized_sp_check(assemble_closed_loop(state)).verdict
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    _assert_records_equal(state, loaded)
    for a, b in zip(state.records, loaded.records):
        assert a.Q.tobytes() == b.Q.tobytes()
    assert execute(["check", "--state", str(path)]) == EXIT_OK


def _with_scaled_storage(state, k, factor):
    """state with record k's Q times factor, and its state document."""
    rec = state.records[k]
    records = list(state.records)
    records[k] = dataclasses.replace(rec, Q=factor * rec.Q)
    tampered = NetworkDesignState(net=state.net, records=tuple(records))
    return tampered, _state_doc(tampered)


def test_storage_equality_is_judged_per_output_channel():
    # max|C| of the chain is 1e4: a bound scaled from it (1e-4) would pass
    # record 2's residual of 5e-5, which is 5000 times record 2's own bound.
    subs = [Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=c) for c in (1e4, 1e-3)]
    state = run_cascade_design(CascadeNetwork.from_blocks(subs, {}))
    assert centralized_sp_check(assemble_closed_loop(state)).verdict
    tampered, doc = _with_scaled_storage(state, 1, 1.05)
    cert = centralized_sp_check(assemble_closed_loop(tampered))
    assert cert.reasons == ("EqualityResidual",)
    assert cert.eq_residual == pytest.approx(5e-5, rel=1e-9)
    with pytest.raises(MalformedFile, match=r"records\[1\]: max \|Q B2 - C'\| = 5\.000e-05 exceeds 1\.000e-08"):
        state_from_dict(doc)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.integers(2, 4).flatmap(lambda count: st.tuples(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(-3, 3), min_size=count, max_size=count),
    st.integers(0, count - 1),
)))
def test_scaled_chains_load_and_a_scaled_storage_fails_load_and_oracle(case):
    # Each C times 10^k keeps Q B2 = C' solvable (random_cascade draws
    # C = (Q0 B2)'), so only the scales of the outputs differ along the chain.
    seed, powers, k = case
    net = random_cascade(len(powers), np.random.default_rng(seed))
    subs = [Subsystem(A=s.A, B1=s.B1, B2=s.B2, B3=s.B3, C=10.0**p * s.C)
            for s, p in zip(net.subsystems, powers)]
    try:
        state = run_cascade_design(CascadeNetwork(subs, net.couplings))
    except DesignFailed:
        return
    loaded = state_from_dict(_state_doc(state))
    assert all(np.array_equal(a.Q, b.Q) for a, b in zip(state.records, loaded.records))
    assert centralized_sp_check(assemble_closed_loop(loaded)).verdict
    tampered, doc = _with_scaled_storage(state, k, 1.0 + 1e-3)
    assert "EqualityResidual" in centralized_sp_check(assemble_closed_loop(tampered)).reasons
    with pytest.raises(MalformedFile, match=rf"records\[{k}\]: "):
        state_from_dict(doc)


def test_addition_round_trip(tmp_path):
    sub = Subsystem(A=-2.0, B1=1.0, B2=1.0, B3=1.0, C=1.0)
    path = tmp_path / "add.json"
    save_addition(sub, [[0.3]], None, [[0.7]], path)
    loaded_sub, h_self, h_prev, h_to_new = load_addition(path)
    assert np.array_equal(loaded_sub.A, sub.A)
    assert h_self[0, 0] == 0.3
    assert h_prev is None
    assert h_to_new[0, 0] == 0.7


def test_rejects_wrong_schema_and_type(tmp_path):
    net = two_stage_scalar_cascade()
    doc = network_to_dict(net)
    bad = {**doc, "schema": 99}
    with pytest.raises(MalformedFile):
        network_from_dict(json.loads(json.dumps(bad, default=lambda a: np.asarray(a).tolist())))
    retyped = {**doc, "type": "state"}
    with pytest.raises(MalformedFile):
        network_from_dict(json.loads(json.dumps(retyped, default=lambda a: np.asarray(a).tolist())))


def test_rejects_duplicate_coupling_and_bad_matrix(tmp_path):
    doc = {
        "schema": 1,
        "type": "network",
        "subsystems": [{"A": [[-1.0]], "B1": [[1.0]], "B2": [[1.0]], "B3": [[1.0]], "C": [[1.0]]}],
        "couplings": [
            {"i": 1, "j": 1, "h": [[0.1]]},
            {"i": 1, "j": 1, "h": [[0.2]]},
        ],
    }
    with pytest.raises(MalformedFile):
        network_from_dict(doc)

    doc["couplings"] = [{"i": 1, "j": 1, "h": [["text"]]}]
    with pytest.raises(MalformedFile):
        network_from_dict(doc)


@pytest.mark.parametrize("key,value", [("i", 2.9), ("i", 2.0), ("i", "2"), ("i", True), ("j", 1.0)])
def test_coupling_indices_must_be_json_integers(key, value):
    sub = {"A": [[-1.0]], "B1": [[1.0]], "B2": [[1.0]], "B3": [[1.0]], "C": [[1.0]]}
    doc = {
        "schema": 1,
        "type": "network",
        "subsystems": [sub, sub],
        "couplings": [{"i": 2, "j": 1, "h": [[0.1]]}],
    }
    doc["couplings"][0][key] = value
    with pytest.raises(MalformedFile, match=rf"couplings\[0\]\.{key} must be an integer"):
        network_from_dict(doc)


def test_rejects_invalid_json_and_missing_pieces(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MalformedFile):
        load_network(path)

    path.write_text(json.dumps({"schema": 1, "type": "network", "subsystems": []}))
    with pytest.raises(MalformedFile):
        load_network(path)


def test_written_documents_are_canonical(tmp_path):
    net = two_stage_scalar_cascade()
    path = tmp_path / "net.json"
    save_network(net, path)
    text = path.read_text()
    assert "\n" not in text.strip()
    assert " " not in text
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)


def reference_canonical(obj) -> str:
    """The element-by-element renderer the files layer must match byte for byte."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise MalformedFile("non-finite value cannot be serialized")
        return repr(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return reference_canonical(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(json.dumps(str(k)) + ":" + reference_canonical(v) for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def grown_state(N):
    net = random_cascade(N, np.random.default_rng(0))
    first = {key: c.h for key, c in net.couplings.items() if key == (1, 1)}
    state = run_cascade_design(CascadeNetwork.from_blocks(net.subsystems[:1], first))
    for k in range(2, N + 1):
        state = add_subsystem(
            state, net.subsystems[k - 1], net.h(k, k), net.h(k, k - 1), net.h(k - 1, k)
        )
    return state


def test_written_bytes_match_the_reference_renderer(tmp_path):
    base = awkward_network()
    awkward = CascadeNetwork.from_blocks(
        base.subsystems, {**{key: c.h for key, c in base.couplings.items()}, (1, 2): [[-0.0]]}
    )
    assert '"h":[[-0.0]]' in reference_canonical(network_to_dict(awkward))
    states = [run_cascade_design(four_stage_cascade()), run_cascade_design(awkward), grown_state(16)]
    for state in states:
        net_text = reference_canonical(network_to_dict(state.net))
        assert network_fingerprint(state.net) == hashlib.sha256(net_text.encode("ascii")).hexdigest()
        save_network(state.net, tmp_path / "net.json")
        assert (tmp_path / "net.json").read_text() == net_text + "\n"
        save_state(state, tmp_path / "state.json")
        assert (tmp_path / "state.json").read_text() == reference_canonical(state_to_dict(state)) + "\n"
        sub = state.net.subsystems[-1]
        h_self, h_to_new = np.full((sub.p, sub.n), -0.0), np.full((sub.p, sub.n), 1.0 / 3.0)
        save_addition(sub, h_self, None, h_to_new, tmp_path / "add.json")
        doc = {
            "schema": 1, "type": "addition",
            "subsystem": {"A": sub.A, "B1": sub.B1, "B2": sub.B2, "B3": sub.B3, "C": sub.C},
            "h_self": h_self, "h_prev": None, "h_to_new": h_to_new,
        }
        assert (tmp_path / "add.json").read_text() == reference_canonical(doc) + "\n"


def test_save_addition_writes_each_coupling_as_a_matrix(tmp_path):
    sub = Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=1.0)
    path = tmp_path / "add.json"
    save_addition(sub, 0.5, None, None, path)
    assert '"h_self":[[0.5]]' in path.read_text()
    assert load_addition(path)[1].tolist() == [[0.5]]
    for bad in ([0.5], np.zeros((1, 1, 1))):
        with pytest.raises(ValueError):
            save_addition(sub, bad, None, None, path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_entry_is_malformed(tmp_path, bad):
    sub = Subsystem(A=[[-1.0, bad], [0.0, -1.0]], B1=np.eye(2), B2=np.eye(2), B3=np.eye(2), C=np.eye(2))
    with pytest.raises(MalformedFile):
        save_network(CascadeNetwork.from_blocks([sub], {}), tmp_path / "net.json")
    with pytest.raises(MalformedFile):
        network_fingerprint(CascadeNetwork.from_blocks([sub], {}))
    good = Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=1.0)
    with pytest.raises(MalformedFile):
        save_addition(good, [[bad]], None, None, tmp_path / "add.json")


def test_failed_save_leaves_the_file_unchanged(tmp_path):
    good = Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=1.0)
    broken = Subsystem(A=np.nan, B1=1.0, B2=1.0, B3=1.0, C=1.0)
    net_path, add_path = tmp_path / "net.json", tmp_path / "add.json"
    save_network(CascadeNetwork.from_blocks([good], {}), net_path)
    save_addition(good, [[0.5]], None, None, add_path)
    before = {path: path.read_bytes() for path in (net_path, add_path)}
    with pytest.raises(MalformedFile):
        save_network(CascadeNetwork.from_blocks([broken], {}), net_path)
    with pytest.raises(MalformedFile):
        save_addition(good, [[np.inf]], None, None, add_path)
    with pytest.raises(ValueError):
        save_addition(good, [0.5], None, None, add_path)
    assert {path: path.read_bytes() for path in before} == before


def test_failed_in_place_add_leaves_the_state_intact(tmp_path, monkeypatch):
    # `add` may write over its own --state; a write that fails partway must
    # leave the old state, not a truncated one.
    state_path, add_path = tmp_path / "state.json", tmp_path / "add.json"
    save_state(run_cascade_design(four_stage_cascade(3)), state_path)
    save_addition(Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=0.0, C=1.0), None, [[1.0]], [[1.0]], add_path)
    before = state_path.read_bytes()

    class HalfWritten:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def failing_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        return fh if mode == "r" else HalfWritten(fh)

    monkeypatch.setattr(files, "open", failing_open, raising=False)
    argv = ["add", "--state", str(state_path), "--sub", str(add_path), "--out", str(state_path)]
    assert execute(argv) == EXIT_INVALID
    assert state_path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["add.json", "state.json"]


def _set_first_entry(part, value):
    """A tamper applying value to entry [0][0] of one matrix of a four-stage state document."""
    def tamper(doc):
        owner, name = {"A": (doc["network"]["subsystems"][0], "A"), "Q": (doc["records"][0], "Q"),
                       "h": (doc["network"]["couplings"][0], "h")}[part]
        owner[name][0][0] = value(owner[name][0][0])
    return tamper


@pytest.mark.parametrize("part,value,label", [
    pytest.param("A", repr, r"subsystems\[0\]: matrix 'A'", id="string-in-A"),
    pytest.param("Q", repr, r"matrix 'records\[0\]\.Q'", id="string-in-Q"),
    pytest.param("h", lambda x: True, r"matrix 'couplings\[0\]\.h'", id="true-in-coupling"),
    pytest.param("h", lambda x: False, r"matrix 'couplings\[0\]\.h'", id="false-in-coupling"),
    # numpy reads [true, 0.5] as floats: the mix must still be caught.
    pytest.param("A", lambda x: x > 0, r"subsystems\[0\]: matrix 'A'", id="bool-among-floats-in-A"),
])
def test_state_matrix_entries_must_be_json_numbers(part, value, label):
    doc = _state_doc(run_cascade_design(four_stage_cascade()))
    _set_first_entry(part, value)(doc)
    with pytest.raises(MalformedFile, match=label + " has an entry that is not a JSON number"):
        state_from_dict(doc)


@pytest.mark.parametrize("bad", ["1.5", True, [["1.5"]], [[True, 0.5]], [[0.5], [False]]],
                         ids=["lone-string", "lone-true", "string", "true-among-floats", "false-among-floats"])
def test_network_and_addition_entries_must_be_json_numbers(tmp_path, bad):
    sub = {"A": [[-1]], "B1": [[1]], "B2": [[1]], "B3": [[1]], "C": [[1]]}
    doc = {"schema": 1, "type": "network", "subsystems": [sub, sub], "couplings": [{"i": 2, "j": 1, "h": [[1]]}]}
    # Integer entries, as a network written by hand has them, load.
    assert network_from_dict(doc).subsystems[0].A.dtype == float
    doc["couplings"][0]["h"] = bad
    with pytest.raises(MalformedFile, match=r"matrix 'couplings\[0\]\.h' has an entry that is not a JSON number"):
        network_from_dict(doc)
    path = tmp_path / "add.json"
    path.write_text(json.dumps({"schema": 1, "type": "addition", "subsystem": {**sub, "C": bad},
                                "h_self": None, "h_prev": None, "h_to_new": None}))
    with pytest.raises(MalformedFile, match=r"subsystem: matrix 'C' has an entry that is not a JSON number"):
        load_addition(path)
    path.write_text(json.dumps({"schema": 1, "type": "addition", "subsystem": sub,
                                "h_self": None, "h_prev": bad, "h_to_new": [[1]]}))
    with pytest.raises(MalformedFile, match=r"matrix 'h_prev' has an entry that is not a JSON number"):
        load_addition(path)


# A matrix whose nesting is not two levels of equal rows, and the message
# a load gives it, wherever it stands in a document.
MALFORMED_NESTING = [
    pytest.param([[1.0], [2.0, 3.0]], "is not numeric: setting an array element with a sequence",
                 id="ragged-rows"),
    pytest.param([1.0, 2.0], "must be 2-D, got ndim=1", id="1-D-row"),
    pytest.param([[[1.0]]], "must be 2-D, got ndim=3", id="3-D"),
    pytest.param([], "must be 2-D, got ndim=1", id="empty-list"),
]

# Sites of 1x1 matrices in the four-stage state document: (owner, key, label).
STATE_SITES = {
    "subsystem": (lambda doc: doc["network"]["subsystems"][1], "A", r"subsystems\[1\]: matrix 'A'"),
    "coupling": (lambda doc: doc["network"]["couplings"][1], "h", r"matrix 'couplings\[1\]\.h'"),
    "record": (lambda doc: doc["records"][1], "Q", r"matrix 'records\[1\]\.Q'"),
}


def _network_doc():
    sub = {"A": [[-1.0]], "B1": [[1.0]], "B2": [[1.0]], "B3": [[1.0]], "C": [[1.0]]}
    return {"schema": 1, "type": "network", "subsystems": [sub, dict(sub)],
            "couplings": [{"i": 2, "j": 1, "h": [[0.5]]}]}


def _addition_doc():
    return {"schema": 1, "type": "addition",
            "subsystem": {"A": [[-1.0]], "B1": [[1.0]], "B2": [[1.0]], "B3": [[1.0]], "C": [[1.0]]},
            "h_self": [[0.5]], "h_prev": None, "h_to_new": None}


def _load_addition_doc(tmp_path, doc):
    path = tmp_path / "add.json"
    path.write_text(json.dumps(doc))
    return load_addition(path)


@pytest.mark.parametrize("value,message", MALFORMED_NESTING)
@pytest.mark.parametrize("site", STATE_SITES)
def test_a_state_matrix_nested_wrongly_is_malformed(site, value, message):
    doc = _state_doc(run_cascade_design(four_stage_cascade()))
    owner, key, label = STATE_SITES[site]
    owner(doc)[key] = value
    with pytest.raises(MalformedFile, match=f"^{label} {message}"):
        state_from_dict(doc)


@pytest.mark.parametrize("value,message", MALFORMED_NESTING)
def test_a_network_or_addition_matrix_nested_wrongly_is_malformed(tmp_path, value, message):
    for part, label in (("A", r"subsystems\[1\]: matrix 'A'"), ("h", r"matrix 'couplings\[0\]\.h'")):
        doc = _network_doc()
        (doc["subsystems"][1] if part == "A" else doc["couplings"][0])[part] = value
        with pytest.raises(MalformedFile, match=f"^{label} {message}"):
            network_from_dict(doc)
    for part, label in (("C", r"subsystem: matrix 'C'"), ("h_self", r"matrix 'h_self'")):
        doc = _addition_doc()
        (doc["subsystem"] if part == "C" else doc)[part] = value
        with pytest.raises(MalformedFile, match=f"^{label} {message}"):
            _load_addition_doc(tmp_path, doc)


def _four_stage_state_doc():
    return _state_doc(run_cascade_design(four_stage_cascade()))


DROP = object()
# One defect per document, each worded by its own loader branch: (loader,
# document, path of keys to the edited value, the value or DROP to delete
# it, the MalformedFile message). An empty path replaces the document.
LOADER_DEFECTS = [
    pytest.param(load_addition, _addition_doc, ("subsystem", "A"), DROP, "subsystem: missing matrix 'A'",
                 id="addition-without-A"),
    pytest.param(load_state, _four_stage_state_doc, ("records", 1, "Q"), DROP, "missing matrix 'records[1].Q'",
                 id="record-without-Q"),
    pytest.param(load_network, _network_doc, (), [], "top-level document must be an object", id="top-level-list"),
    pytest.param(load_network, _network_doc, ("subsystems", 1), [], "subsystems[1] must be an object",
                 id="subsystem-list"),
    pytest.param(load_state, _four_stage_state_doc, ("network", "subsystems", 1), [],
                 "subsystems[1] must be an object", id="state-subsystem-list"),
    pytest.param(load_network, _network_doc, ("couplings",), {}, "couplings must be a list", id="couplings-dict"),
    pytest.param(load_network, _network_doc, ("couplings", 0), 3, "couplings[0] must be an object",
                 id="coupling-number"),
    pytest.param(load_state, _four_stage_state_doc, ("records", 1), 3, "records[1] must be an object",
                 id="record-number"),
    pytest.param(load_state, _four_stage_state_doc, ("records",), [], "a state needs a non-empty record list",
                 id="no-records"),
]


@pytest.mark.parametrize("load,make,path,value,message", LOADER_DEFECTS)
def test_each_loader_branch_words_its_defect(tmp_path, load, make, path, value, message):
    doc = owner = make()
    for key in path[:-1]:
        owner = owner[key]
    if not path:
        doc = value
    elif value is DROP:
        del owner[path[-1]]
    else:
        owner[path[-1]] = value
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(MalformedFile, match=f"^{re.escape(message)}$"):
        load(file)


def test_check_exits_invalid_on_a_state_without_records(tmp_path, capsys):
    doc = _four_stage_state_doc()
    doc["records"] = []
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    assert execute(["check", "--state", str(path)]) == EXIT_INVALID
    assert "a state needs a non-empty record list" in capsys.readouterr().err


def _integral_as_int(tree):
    """tree with every integral float entry written as a JSON integer."""
    if isinstance(tree, dict):
        return {key: _integral_as_int(value) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_integral_as_int(value) for value in tree]
    return int(tree) if isinstance(tree, float) and tree.is_integer() else tree


def test_bare_numbers_load_as_1x1_and_integers_as_floats(tmp_path):
    state = run_cascade_design(four_stage_cascade())
    doc = _state_doc(state)
    for owner, key, _ in STATE_SITES.values():
        owner(doc)[key] = owner(doc)[key][0][0]
    doc["network"] = _integral_as_int(doc["network"])
    assert doc["network"]["subsystems"][0]["A"] == [[-9, 1], [5, 7]]
    loaded = state_from_dict(doc)
    _assert_records_equal(state, loaded)
    for a, b in zip(state.net.subsystems, loaded.net.subsystems):
        for name in ("A", "B1", "B2", "B3", "C"):
            assert getattr(b, name).dtype == float and np.array_equal(getattr(a, name), getattr(b, name))
    assert all(np.array_equal(loaded.net.h(*key), c.h) for key, c in state.net.couplings.items())

    doc = _network_doc()
    doc["subsystems"][1] = {"A": -1, "B1": 1, "B2": 2.0, "B3": 1, "C": 0.5}
    doc["couplings"][0]["h"] = [[1]]
    net = network_from_dict(doc)
    assert net.subsystems[1].B2.shape == (1, 1) and net.subsystems[1].C.tolist() == [[0.5]]
    assert net.subsystems[1].A.dtype == float and net.h(2, 1).dtype == float
    assert net.subsystems[0].A.tolist() == [[-1.0]] and net.h(2, 1).tolist() == [[1.0]]

    doc = _addition_doc()
    doc["subsystem"]["A"], doc["h_self"], doc["h_to_new"] = -2, 0.5, [[3]]
    sub, h_self, h_prev, h_to_new = _load_addition_doc(tmp_path, doc)
    assert sub.A.tolist() == [[-2.0]] and sub.A.dtype == float
    assert h_self.tolist() == [[0.5]] and h_prev is None
    assert h_to_new.tolist() == [[3.0]] and h_to_new.dtype == float


def test_loaded_matrices_are_read_only():
    loaded = state_from_dict(_state_doc(run_cascade_design(four_stage_cascade())))
    arrays = [getattr(s, name) for s in loaded.net.subsystems for name in ("A", "B1", "B2", "B3", "C")]
    arrays += [c.h for c in loaded.net.couplings.values()]
    arrays += [a for r in loaded.records for a in (r.Q, r.K_self, r.K_to_prev, r.K_prev_to_self, r.M_cl)
               if a is not None]
    assert not any(a.flags.writeable for a in arrays)


# A JSON integer too large for a float, in the four-stage state document.
HUGE = 10**400
HUGE_STATE_TAMPERS = {
    "entry": (lambda doc: doc["network"]["subsystems"][0]["A"][0].__setitem__(0, HUGE),
              r"subsystems\[0\]: matrix 'A' has an entry too large for a float"),
    "bare-matrix": (lambda doc: doc["network"]["subsystems"][1].__setitem__("A", HUGE),
                    r"subsystems\[1\]: matrix 'A' has an entry too large for a float"),
    "bare-h": (lambda doc: doc["network"]["couplings"][1].__setitem__("h", HUGE),
               r"matrix 'couplings\[1\]\.h' has an entry too large for a float"),
    "record-entry": (lambda doc: doc["records"][1]["Q"][0].__setitem__(0, HUGE),
                     r"matrix 'records\[1\]\.Q' has an entry too large for a float"),
    "epsilon": (lambda doc: doc["records"][2].__setitem__("epsilon", HUGE),
                r"records\[2\]\.epsilon must be a finite number, got 1000"),
}


@pytest.mark.parametrize("case", HUGE_STATE_TAMPERS)
def test_an_integer_too_large_for_a_float_is_malformed_in_a_state(case):
    doc = _state_doc(run_cascade_design(four_stage_cascade()))
    tamper, message = HUGE_STATE_TAMPERS[case]
    tamper(doc)
    with pytest.raises(MalformedFile, match=f"^{message}"):
        state_from_dict(doc)


def test_an_integer_too_large_for_a_float_is_malformed_in_a_network_or_addition(tmp_path):
    for owner, message in ((lambda doc: doc["subsystems"][1], r"subsystems\[1\]: matrix 'A'"),
                           (lambda doc: doc["couplings"][0], r"matrix 'couplings\[0\]\.h'")):
        for value in (HUGE, [[HUGE]]):
            doc = _network_doc()
            owner(doc)["h" if "couplings" in message else "A"] = value
            with pytest.raises(MalformedFile, match=f"^{message} has an entry too large for a float"):
                network_from_dict(doc)
    for key, message in (("subsystem", r"subsystem: matrix 'C'"), ("h_to_new", r"matrix 'h_to_new'")):
        for value in (HUGE, [[HUGE]]):
            doc = _addition_doc()
            if key == "subsystem":
                doc["subsystem"]["C"] = value
            else:
                doc[key] = value
            with pytest.raises(MalformedFile, match=f"^{message} has an entry too large for a float"):
                _load_addition_doc(tmp_path, doc)


def test_an_integer_beyond_the_json_digit_limit_is_malformed(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(_network_doc()).replace("-1.0", "-" + "9" * 5000, 1))
    with pytest.raises(MalformedFile, match="not valid JSON"):
        load_network(path)


# The SHA-256 of every outcome of the _tampers sweep, pinned while the load
# still ran each check record by record, and re-pinned with every message
# the same when records came to store half their local problem's rate, and
# again when the storage equality came to be judged per output channel,
# which changed only the bound printed for 55 multi-output records, and
# again when synthesis came to take its closed forms where B3 has full row
# rank, which moved the designed records the sweep tampers with, and
# again when the local search came to follow a log-det barrier, which
# moved the searched records, and again when the Schur step came to solve
# by forward substitution, which moved the last bits of the records, with
# every message the same. A change to the load that moves any
# single-defect outcome, an error message or a loaded bit, fails here.
OUTCOMES_PINNED = "a654d19110034ebf6b8cc0291c3f5099df8ec375c45ba8ba0e9b0bb38e94fa4c"
TAMPER_VALUES = (0.0, -1.0, 1e300, 1.7e308, math.nan, math.inf, -math.inf)


def _matrix_sites(doc):
    """(label, container, key) of every matrix a state document holds."""
    net = doc["network"]
    for s, sub in enumerate(net["subsystems"]):
        for name in ("A", "B1", "B2", "B3", "C"):
            yield f"sub{s}.{name}", sub, name
    for c, coupling in enumerate(net["couplings"]):
        yield f"coupling{c}", coupling, "h"
    for k, rec in enumerate(doc["records"]):
        for name in ("Q", "K_self", "K_to_prev", "K_prev_to_self"):
            if rec[name] is not None:
                yield f"rec{k}.{name}", rec, name


def _edited(container, key, value):
    """Run the sweep's next load with container[key] = value, then restore it."""
    old = container[key]
    container[key] = value
    yield
    container[key] = old


def _dropped(items, k):
    item = items.pop(k)
    yield
    items.insert(k, item)


def _tampers(doc):
    """Edit doc in place, one defect at a time: each yield is one document."""
    for label, container, key in list(_matrix_sites(doc)):
        m = container[key]
        for row in m:
            for c in range(len(row)):
                for value in TAMPER_VALUES:
                    yield from _edited(row, c, value)
        for factor in (-1.0, 1e-8, 1e8):
            yield from _edited(container, key, (factor * np.asarray(m)).tolist())
        if label.endswith(".Q") and len(m) > 1:
            for skewed in (np.nextafter(m[0][1], np.inf), m[0][1] * (1 + 1e-6) + 1e-6):
                yield from _edited(m[0], 1, skewed)
        if label.startswith("rec") and not label.endswith(".Q"):
            yield from _edited(container, key, None)
    records = doc["records"]
    for k, rec in enumerate(records):
        eps = rec["epsilon"]
        for value in (0.5 * eps, 2.0 * eps, 1e3 * eps, 0.0, -1.0, 1e300, -1e300, math.nan, math.inf, None, "0.1", True):
            yield from _edited(rec, "epsilon", value)
        for value in ("Verified", "Synthesized", "Bogus", None):
            yield from _edited(rec, "route", value)
        for value in (0, -1, k, k + 2, len(records) + 1, 1.0 + k, True, None, str(k + 1)):
            yield from _edited(rec, "index", value)
    for k in range(len(records)):
        yield from _dropped(records, k)
    for c in range(len(doc["network"]["couplings"])):
        yield from _dropped(doc["network"]["couplings"], c)


def test_load_outcomes_match_the_pinned_digest():
    from test_record_hash import feed

    digest = hashlib.sha256()
    for net in (four_stage_cascade(), random_cascade(5, np.random.default_rng(7))):
        doc = _state_doc(run_cascade_design(net))
        for _ in _tampers(doc):
            try:
                state = state_from_dict(doc)
            except Exception as exc:  # the type and message are the outcome
                digest.update(f"{type(exc).__name__}: {exc}".encode())
            else:
                feed(digest, state)
    assert digest.hexdigest() == OUTCOMES_PINNED
