"""Exit codes and file flows of the command-line front end."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from cascadepass import files, lmi, oracle, protocol
from cascadepass.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_OK,
    execute,
)
from cascadepass.model import CascadeNetwork, Subsystem
from cascadepass.sample_cascades import (
    addition_blocks,
    four_stage_cascade,
    two_stage_scalar_cascade,
)


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    files.save_network(two_stage_scalar_cascade(), path)
    return str(path)


@pytest.fixture
def state_file(tmp_path, net_file):
    path = tmp_path / "state.json"
    assert execute(["design", "--net", net_file, "--out", str(path)]) == EXIT_OK
    return str(path)


def test_validate_ok(net_file, capsys):
    assert execute(["validate", "--net", net_file]) == EXIT_OK
    assert "network ok" in capsys.readouterr().out


def test_validate_rejects_skip_coupling(tmp_path, capsys):
    sub = Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=1.0)
    net = CascadeNetwork.from_blocks([sub, sub, sub], {(1, 3): [[1.0]]})
    path = tmp_path / "skip.json"
    files.save_network(net, path)
    assert execute(["validate", "--net", str(path)]) == EXIT_INVALID
    assert "NonCascadeCoupling" in one_stderr_line(capsys)


def test_missing_file_is_invalid(tmp_path, capsys):
    assert execute(["validate", "--net", str(tmp_path / "absent.json")]) == EXIT_INVALID
    assert "cannot read" in capsys.readouterr().err


def test_malformed_file_is_invalid(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    assert execute(["validate", "--net", str(path)]) == EXIT_INVALID
    assert "malformed" in capsys.readouterr().err


def test_non_utf8_file_is_invalid(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema": 1, "type": "network", "note": "\xe9"}')
    assert execute(["validate", "--net", str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "malformed" in err and "UTF-8" in err and "Traceback" not in err


def test_design_writes_state(net_file, tmp_path, capsys):
    out = tmp_path / "designed.json"
    assert execute(["design", "--net", net_file, "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "step 1: route=Verified" in stdout
    assert "saved state" in stdout
    state = files.load_state(out)
    assert len(state.records) == 2


def test_design_infeasible_network(tmp_path, capsys):
    sub = Subsystem(A=1.0, B1=0.0, B2=1.0, B3=0.0, C=1.0)
    net_path = tmp_path / "stuck.json"
    files.save_network(CascadeNetwork.from_blocks([sub], {}), net_path)
    code = execute(["design", "--net", str(net_path), "--out", str(tmp_path / "o.json")])
    assert code == EXIT_INFEASIBLE
    assert "design failed at step 1" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_a_failed_step_names_the_declines_of_both_routes(tmp_path, capsys):
    # tau = 1e-6 |A| = 1: A = 1e6 is not Hurwitz, so verify declines, and
    # Q B2 = C' pins Q = 1, whose lambda_min(Q - Q_FLOOR I) = 0.9999 is
    # below tau, so synthesis declines too, both without a search.
    sub = Subsystem(A=1e6, B1=1.0, B2=1.0, B3=1.0, C=1.0)
    net_path = tmp_path / "unstable.json"
    files.save_network(CascadeNetwork.from_blocks([sub], {}), net_path)
    code = execute(["design", "--net", str(net_path), "--out", str(tmp_path / "o.json")])
    assert code == EXIT_INFEASIBLE
    assert one_stderr_line(capsys) == (
        "design failed at step 1: PinnedStorageInfeasible (best margin 9.999e-01); "
        "verify declined: NotHurwitz (best margin -1.000e-04)\n"
    )


def test_check_passes_designed_state(state_file, capsys):
    assert execute(["check", "--state", state_file]) == EXIT_OK
    assert capsys.readouterr().out.startswith("pass:")


def test_check_cross_checks_network(state_file, net_file, tmp_path, capsys):
    assert execute(["check", "--state", state_file, "--net", net_file]) == EXIT_OK
    other = tmp_path / "other.json"
    files.save_network(four_stage_cascade(), other)
    assert execute(["check", "--state", state_file, "--net", str(other)]) == EXIT_INVALID
    assert "different network" in capsys.readouterr().err


def test_check_fails_on_tampered_storage(state_file, tmp_path, capsys):
    doc = json.loads(open(state_file).read())
    doc["records"][0]["Q"] = [[2.0]]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert execute(["check", "--state", str(tampered)]) == EXIT_INVALID
    err = one_stderr_line(capsys)
    assert err.startswith("malformed file:") and "Q B2 - C'" in err


def test_simulate_passes_and_writes_csv(state_file, tmp_path, capsys):
    csv = tmp_path / "trace.csv"
    code = execute(["simulate", "--state", state_file, "--T", "2.0", "--csv", str(csv)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "dissipation margin" in stdout
    header = csv.read_text().splitlines()[0]
    assert header == "t,x1,x2,y1,y2,w1,w2,V"


@pytest.fixture
def overclaimed_file(state_file, tmp_path):
    doc = json.loads(open(state_file).read())
    for rec in doc["records"]:
        rec["epsilon"] = 5.0
    tampered = tmp_path / "overclaimed.json"
    tampered.write_text(json.dumps(doc))
    return str(tampered)


def test_simulate_detects_overclaimed_rate(overclaimed_file, capsys):
    code = execute(["simulate", "--state", overclaimed_file, "--T", "2.0"])
    assert code == EXIT_INVALID
    err = one_stderr_line(capsys)
    assert err.startswith("malformed file:") and "do not certify the network" in err


# A four-stage state written while records stored the local problem's rate,
# twice the rate of the documented supply: its chain does not certify at
# twice the stored rates, so the load rejects it rather than claim them.
FULL_RATE_STATE = Path(__file__).resolve().parent / "data" / "four_stage_state_full_rate.json"


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_state_storing_the_full_local_rate_exits_3(command, capsys):
    assert execute([command, "--state", str(FULL_RATE_STATE)]) == EXIT_INVALID
    assert one_stderr_line(capsys) == (
        "malformed file: the records do not certify the network: "
        "closed-loop block 2 is not positive definite\n"
    )


def test_simulate_seed_changes_disturbance(state_file, capsys):
    execute(["simulate", "--state", state_file, "--T", "1.0", "--seed", "0"])
    first = capsys.readouterr().out
    execute(["simulate", "--state", state_file, "--T", "1.0", "--seed", "0"])
    repeat = capsys.readouterr().out
    execute(["simulate", "--state", state_file, "--T", "1.0", "--seed", "1"])
    other = capsys.readouterr().out
    assert first == repeat
    assert first != other


def test_add_extends_designed_state(tmp_path, capsys):
    net_path = tmp_path / "three.json"
    files.save_network(four_stage_cascade(3), net_path)
    state_path = tmp_path / "three_state.json"
    assert execute(["design", "--net", str(net_path), "--out", str(state_path)]) == EXIT_OK

    new_sub, h_self, h_prev, h_to_new = addition_blocks()
    add_path = tmp_path / "fourth.json"
    files.save_addition(new_sub, h_self, h_prev, h_to_new, add_path)
    grown_path = tmp_path / "four_state.json"
    capsys.readouterr()
    code = execute(["add", "--state", str(state_path), "--sub", str(add_path),
                    "--out", str(grown_path)])
    assert code == EXIT_OK
    assert "step 4" in capsys.readouterr().out
    grown = files.load_state(grown_path)
    assert len(grown.records) == 4
    assert execute(["check", "--state", str(grown_path)]) == EXIT_OK


def test_grown_state_file_equals_a_from_scratch_design(tmp_path):
    three = tmp_path / "three.json"
    files.save_network(four_stage_cascade(3), three)
    assert execute(["design", "--net", str(three), "--out", str(tmp_path / "three_state.json")]) == EXIT_OK
    addition = tmp_path / "fourth.json"
    files.save_addition(*addition_blocks(), addition)
    grown = tmp_path / "grown.json"
    assert execute(["add", "--state", str(tmp_path / "three_state.json"), "--sub", str(addition),
                    "--out", str(grown)]) == EXIT_OK

    grown_net = tmp_path / "grown_net.json"
    files.save_network(files.load_state(grown).net, grown_net)
    assert files.network_fingerprint(files.load_network(grown_net)) == files.network_fingerprint(
        four_stage_cascade(4)
    )
    scratch = tmp_path / "scratch.json"
    assert execute(["design", "--net", str(grown_net), "--out", str(scratch)]) == EXIT_OK
    assert grown.read_bytes() == scratch.read_bytes()


def test_add_with_non_finite_entry_is_invalid_before_any_solve(tmp_path, capsys, monkeypatch):
    net_path = tmp_path / "three.json"
    files.save_network(four_stage_cascade(3), net_path)
    state_path = tmp_path / "three_state.json"
    assert execute(["design", "--net", str(net_path), "--out", str(state_path)]) == EXIT_OK
    unit = [[1.0]]
    add_path = tmp_path / "nan.json"
    add_path.write_text(json.dumps({
        "schema": 1, "type": "addition",
        "subsystem": {"A": [[float("nan")]], "B1": unit, "B2": unit, "B3": unit, "C": unit},
    }))
    calls = []
    solve = lmi.solve_feasibility
    monkeypatch.setattr(lmi, "solve_feasibility", lambda *a, **k: calls.append(1) or solve(*a, **k))
    capsys.readouterr()
    code = execute(["add", "--state", str(state_path), "--sub", str(add_path),
                    "--out", str(tmp_path / "never.json")])
    assert code == EXIT_INVALID
    assert "NonFinite at (4,)" in one_stderr_line(capsys)
    assert calls == []


def test_report_summarizes_state(state_file, capsys):
    assert execute(["report", "--state", state_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cascade of 2 subsystems" in out
    assert "routes: 2 verified, 0 synthesized" in out


def one_stderr_line(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    return err


def test_simulate_with_a_coarse_step_completes_and_its_trapezoid_supply_fails(state_file, capsys):
    # The exact step cannot diverge on a certified, so Hurwitz, loop. At
    # dt = 4 the trapezoid rule for the supply is what fails: the margin
    # is printed, about -0.51, and the check exits 4.
    code = execute(["simulate", "--state", state_file, "--T", "4000", "--dt", "4"])
    assert code == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.err == "dissipation inequality violated along the trajectory\n"
    margin = float(captured.out.removeprefix("dissipation margin = "))
    assert -0.52 < margin < -0.50


def test_simulate_four_stage_state_with_a_long_step_completes(four_stage_doc, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(four_stage_doc))
    code = execute(["simulate", "--state", str(path), "--T", "2000", "--dt", "0.5"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == f"dissipation margin = {0.0:.9e}\n"
    assert captured.err == ""


@pytest.mark.filterwarnings("error")
def test_simulate_four_stage_state_whose_step_map_overflows_exits_4(four_stage_doc, tmp_path, capsys):
    # At h = 1.7e307 the sine's angles overflow too; the samples are
    # judged with the trajectory, so no numpy warning precedes the line.
    path = tmp_path / "state.json"
    path.write_text(json.dumps(four_stage_doc))
    code = execute(["simulate", "--state", str(path), "--T", "1.7e308", "--dt", "1.7e307"])
    assert code == EXIT_CHECK_FAILED
    assert one_stderr_line(capsys) == "simulation failed: the step map of h = 1.7e+307 left the finite range\n"


def test_simulate_refuses_a_trajectory_over_the_cap(four_stage_doc, tmp_path, capsys):
    # The four-stage loop has n = 6 states and m = 4 outputs: 16 floats a
    # row, so one step over the cap is 2**30 // 128 steps.
    path = tmp_path / "state.json"
    path.write_text(json.dumps(four_stage_doc))
    cl = oracle.assemble_closed_loop(files.load_state(path))
    row_bytes = (2 + cl.n + 2 * cl.m) * 8
    over = oracle.MAX_TRAJECTORY_BYTES // row_bytes
    for T in ("1e300", "1e18", str(over)):
        code = execute(["simulate", "--state", str(path), "--T", T, "--dt", "1"])
        assert code == EXIT_INVALID
        assert one_stderr_line(capsys).startswith("simulation refused: ")


def test_simulate_rejects_a_step_count_that_overflows(four_stage_doc, tmp_path, capsys):
    # T / dt = 1e616 is no float. A large finite step count is not tried:
    # simulate would allocate its whole grid.
    path = tmp_path / "state.json"
    path.write_text(json.dumps(four_stage_doc))
    code = execute(["simulate", "--state", str(path), "--T", "1e308", "--dt", "1e-308"])
    assert code == EXIT_INVALID
    assert one_stderr_line(capsys) == "--T, --dt and --T / --dt must be positive and finite\n"


@pytest.mark.parametrize("flag,value", [("--T", "0"), ("--T", "nan"), ("--dt", "-1e-3")])
def test_simulate_rejects_bad_horizon_or_step(state_file, capsys, flag, value):
    assert execute(["simulate", "--state", state_file, f"{flag}={value}"]) == EXIT_INVALID
    assert "must be positive" in one_stderr_line(capsys)


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--seed=-1"]])
def test_simulate_rejects_negative_seed(state_file, capsys, argv):
    assert execute(["simulate", "--state", state_file, "--T", "1.0"] + argv) == EXIT_INVALID
    assert "--seed must be non-negative" in one_stderr_line(capsys)


# check and simulate take no margin and design takes no tolerance, so no
# value can make the overclaimed state pass or move a design's floor.
@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_margin_is_invalid(overclaimed_file, capsys, command, value):
    argv = [command, "--state", overclaimed_file, f"--margin={value}"]
    if command == "simulate":
        argv += ["--T", "2.0"]
    assert execute(argv) == EXIT_INVALID
    assert "unrecognized arguments: --margin" in one_stderr_line(capsys)


@pytest.mark.parametrize("tol", ["-1e-7", "nan"])
def test_bad_tol_is_invalid(net_file, tmp_path, capsys, tol):
    out = tmp_path / "never.json"
    assert execute(["design", "--net", net_file, f"--tol={tol}", "--out", str(out)]) == EXIT_INVALID
    assert "unrecognized arguments: --tol" in one_stderr_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [
    ("check", "--tol"), ("validate", "--seed"), ("report", "--margin"), ("design", "--seed"),
    ("add", "--tol"), ("check", "--margin"), ("simulate", "--margin"),
])
def test_flag_a_subcommand_does_not_read_is_a_usage_error(
    command, flag, net_file, state_file, tmp_path, capsys
):
    addition = tmp_path / "third.json"
    files.save_addition(Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=1.0), None, None, None, addition)
    inputs = {
        "check": ["--state", state_file],
        "validate": ["--net", net_file],
        "report": ["--state", state_file],
        "design": ["--net", net_file, "--out", str(tmp_path / "o.json")],
        "add": ["--state", state_file, "--sub", str(addition), "--out", str(tmp_path / "o.json")],
        "simulate": ["--state", state_file, "--T", "1.0"],
    }
    assert execute([command, *inputs[command], flag, "1"]) == EXIT_INVALID
    assert "unrecognized arguments" in one_stderr_line(capsys)


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--state", "s.json", "--T", "-1e-7"], "expected one argument"),
    (["bogus"], "invalid choice"),
    (["validate"], "required: --net"),
])
def test_usage_error_exits_invalid(argv, message, capsys):
    assert execute(argv) == EXIT_INVALID
    assert message in one_stderr_line(capsys)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        execute(["simulate", "--help"])
    assert exc.value.code == 0
    assert "--seed" in capsys.readouterr().out


@pytest.fixture(scope="module")
def four_stage_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("four") / "state.json"
    files.save_state(protocol.run_cascade_design(four_stage_cascade()), path)
    return json.loads(path.read_text())


def _set_record(index, name, value):
    def tamper(doc):
        doc["records"][index - 1][name] = value
    return tamper


# Record 1 and record 4 of the four-stage design are Synthesized (n = 2,
# p = 1); record 2 has n = 1, p = 1.
@pytest.mark.parametrize("command,tamper", [
    ("check", _set_record(4, "K_self", [[1.0, 2.0, 3.0]])),
    ("simulate", _set_record(4, "K_self", [[1.0, 2.0, 3.0]])),
    ("check", _set_record(1, "K_to_prev", [[1.0]])),
    ("check", _set_record(1, "K_prev_to_self", [[1.0]])),
    ("check", _set_record(1, "Q", [[1.0]])),
    ("check", _set_record(2, "K_to_prev", [[1.0]])),
    ("check", _set_record(4, "K_prev_to_self", [[1.0]])),
    ("check", _set_record(1, "index", 1.7)),
    ("check", _set_record(4, "K_self", [[float("nan"), 0.0]])),
    ("simulate", _set_record(4, "K_self", [[float("nan"), 0.0]])),
    ("report", _set_record(4, "K_self", [[float("nan"), 0.0]])),
    ("check", _set_record(4, "K_self", [[float("inf"), 0.0]])),
], ids=[
    "K_self-shape-check", "K_self-shape-simulate", "record1-K_to_prev", "record1-K_prev_to_self",
    "Q-shape", "K_to_prev-shape", "K_prev_to_self-shape", "float-index",
    "nan-K_self-check", "nan-K_self-simulate", "nan-K_self-report",
    "inf-K_self-check",
])
def test_state_record_that_does_not_fit_its_subsystem_is_malformed(
    four_stage_doc, tmp_path, capsys, command, tamper
):
    doc = json.loads(json.dumps(four_stage_doc))
    tamper(doc)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--state", str(path)] + (["--T", "2.0"] if command == "simulate" else [])
    assert execute(argv) == EXIT_INVALID
    assert one_stderr_line(capsys).startswith("malformed file:")


@pytest.mark.parametrize("command", ["report", "check", "simulate", "add"])
def test_state_whose_network_is_not_a_cascade_is_malformed(four_stage_doc, tmp_path, capsys, command):
    doc = json.loads(json.dumps(four_stage_doc))
    subs = four_stage_cascade().subsystems
    doc["network"]["couplings"].append({"i": 1, "j": 3, "h": np.ones((subs[0].p, subs[2].n)).tolist()})
    path = tmp_path / "skip.json"
    path.write_text(json.dumps(doc))
    addition = tmp_path / "fifth.json"
    files.save_addition(Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=1.0), None, None, None, addition)
    extra = {
        "simulate": ["--T", "2.0"],
        "add": ["--sub", str(addition), "--out", str(tmp_path / "never.json")],
    }.get(command, [])
    assert execute([command, "--state", str(path), *extra]) == EXIT_INVALID
    err = one_stderr_line(capsys)
    assert err.startswith("malformed file: invalid network:") and "NonCascadeCoupling" in err
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize("value", [1.7e308, -1.7e308])
def test_addition_too_large_to_multiply_names_its_step(four_stage_doc, tmp_path, capsys, value):
    # The entry is finite, so the addition validates; the local problem of
    # step 5 is where the products overflow. (An A this large would instead
    # raise step 5's margin past the packet's and decline the step before
    # any product is formed.)
    state = tmp_path / "four.json"
    state.write_text(json.dumps(four_stage_doc))
    addition = tmp_path / "huge_add.json"
    files.save_addition(
        Subsystem(A=-1.0, B1=value, B2=1.0, B3=1.0, C=1.0), None, [[1.0, 0.0]], [[1.0]], addition
    )
    out = tmp_path / "never.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = execute(["add", "--state", str(state), "--sub", str(addition), "--out", str(out)])
    assert code == EXIT_INVALID
    assert one_stderr_line(capsys) == (
        "malformed problem: step 5 is not finite "
        "(local problem block 0 has non-finite entries)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("value", [1e300, 1e307, 5e307, 8.99e307, 1.7e308, -1.7e308])
@pytest.mark.parametrize("field", ["A", "B1", "B2", "B3", "C", "h_self", "h_prev", "h_to_new"])
def test_addition_near_the_float_limit_exits_cleanly(four_stage_doc, tmp_path, capsys, field, value):
    # One entry of a valid fifth subsystem is finite but huge. Wherever its
    # products overflow, the addition ends as malformed, infeasible or
    # designed, never in an exception or a numpy warning.
    blocks = dict(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=1.0)
    couplings = dict(h_self=None, h_prev=[[1.0, 0.0]], h_to_new=[[1.0]])
    if field in blocks:
        blocks[field] = value
    else:
        couplings[field] = [[value, 0.0]] if field == "h_prev" else [[value]]
    state = tmp_path / "four.json"
    state.write_text(json.dumps(four_stage_doc))
    addition = tmp_path / "huge_add.json"
    files.save_addition(Subsystem(**blocks), *couplings.values(), addition)
    out = tmp_path / "five.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = execute(["add", "--state", str(state), "--sub", str(addition), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_INVALID)
        if code == EXIT_INVALID:
            assert one_stderr_line(capsys).startswith("malformed problem: step 5 is not finite")
        elif code == EXIT_INFEASIBLE:
            assert one_stderr_line(capsys).startswith("design failed at step 5:")
        else:
            assert execute(["check", "--state", str(out)]) == EXIT_OK
    assert out.exists() == (code == EXIT_OK)


@pytest.mark.parametrize("value", [1.7e308, -1.7e308, 9e307])
def test_finite_entry_too_large_to_multiply_names_its_closed_loop_block(
    four_stage_doc, tmp_path, capsys, value
):
    # The entry is finite, so the file parses; record 2's certificate block
    # is where the products overflow.
    doc = json.loads(json.dumps(four_stage_doc))
    doc["records"][1]["Q"][0][0] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert execute(["check", "--state", str(path)]) == EXIT_INVALID
    assert one_stderr_line(capsys) == (
        "malformed file: the records do not certify the network: "
        "closed-loop block 2 is not finite\n"
    )


@pytest.mark.parametrize("command", ["report", "check", "add", "simulate", "validate"])
def test_an_integer_too_large_for_a_float_exits_3(four_stage_doc, tmp_path, capsys, command):
    doc = json.loads(json.dumps(four_stage_doc))
    doc["network"]["subsystems"][0]["A"][0][0] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc["network"] if command == "validate" else doc))
    addition = tmp_path / "fifth.json"
    files.save_addition(Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=1.0), None, None, None, addition)
    extra = {
        "simulate": ["--T", "2.0"],
        "add": ["--sub", str(addition), "--out", str(tmp_path / "never.json")],
    }.get(command, [])
    flag = "--net" if command == "validate" else "--state"
    assert execute([command, flag, str(path), *extra]) == EXIT_INVALID
    assert one_stderr_line(capsys) == (
        "malformed file: subsystems[0]: matrix 'A' has an entry too large for a float\n"
    )
