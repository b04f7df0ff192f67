"""Command-line front end for cascade validation, design and checking.

Exit codes: 0 success, 2 design infeasible at some step, 3 invalid or
malformed input (a usage error, network structure, file schema, a state
that does not certify its network, a non-positive or non-finite --T or
--dt, a --T / --dt whose trajectory would exceed
oracle.MAX_TRAJECTORY_BYTES, a negative --seed), 4 certificate or
trajectory check failed (including a simulation that leaves the finite
range).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import files, lmi, oracle, protocol
from .model import InvalidNetwork, validate_network

__all__ = ["execute", "main"]

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_CHECK_FAILED = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Subparsers inherit this class, so every usage error lands here and
    # exits 3 instead of argparse's 2, which would read as "infeasible".
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call."""
    parser = _Parser(
        prog="cascadepass",
        description="Sequential passivity design for cascade networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file for structural problems")
    p.add_argument("--net", required=True, help="network JSON file")

    p = sub.add_parser("design", help="run the sequential design and save the state")
    p.add_argument("--net", required=True, help="network JSON file")
    p.add_argument("--out", required=True, help="state JSON file to write")

    p = sub.add_parser("add", help="extend a designed cascade by one subsystem")
    p.add_argument("--state", required=True, help="existing state JSON file")
    p.add_argument("--sub", required=True, help="addition JSON file with the new subsystem")
    p.add_argument("--out", required=True, help="state JSON file to write")

    p = sub.add_parser("check", help="re-certify a designed state centrally")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--net", default=None, help="optional network file that must match the state")

    p = sub.add_parser("simulate", help="integrate the closed loop and check dissipation")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--T", type=float, default=20.0, help="horizon (default 20)")
    p.add_argument("--dt", type=float, default=1e-3, help="step size (default 1e-3)")
    p.add_argument("--csv", default=None, help="write the trajectory to this CSV file")
    p.add_argument("--seed", type=int, default=0,
                   help="non-negative seed for the generated disturbance (default 0)")

    p = sub.add_parser("report", help="summarize a designed state")
    p.add_argument("--state", required=True, help="state JSON file")

    return parser


def _print_record(rec: protocol.DesignRecord) -> None:
    m_min = float(np.linalg.eigvalsh(rec.M_cl)[0])
    line = f"step {rec.index}: route={rec.route} eps={rec.epsilon:.6e} min_eig(M_cl)={m_min:.6e}"
    gains = []
    for label, K in (
        (f"K({rec.index},{rec.index})", rec.K_self),
        (f"K({rec.index},{rec.index - 1})", rec.K_to_prev),
        (f"K({rec.index - 1},{rec.index})", rec.K_prev_to_self),
    ):
        if K is not None:
            gains.append(f"|{label}|={float(np.abs(K).max()):.3e}")
    if gains:
        line += "  " + " ".join(gains)
    print(line)


def _cmd_validate(args) -> int:
    net = files.load_network(args.net)
    report = validate_network(net)
    if not report.ok:
        raise InvalidNetwork(report)
    print(f"network ok: {net.n_subsystems} subsystems")
    return EXIT_OK


def _cmd_design(args) -> int:
    net = files.load_network(args.net)
    state = protocol.run_cascade_design(net)
    for rec in state.records:
        _print_record(rec)
    files.save_state(state, args.out)
    print(f"saved state to {args.out} (global_epsilon={state.global_epsilon:.6e})")
    return EXIT_OK


def _cmd_add(args) -> int:
    state = files.load_state(args.state)
    sub, h_self, h_prev, h_to_new = files.load_addition(args.sub)
    new_state = protocol.add_subsystem(state, sub, h_self, h_prev, h_to_new)
    _print_record(new_state.records[-1])
    files.save_state(new_state, args.out)
    print(f"saved state to {args.out} (global_epsilon={new_state.global_epsilon:.6e})")
    return EXIT_OK


def _cmd_check(args) -> int:
    state = files.load_state(args.state)
    if args.net is not None:
        net = files.load_network(args.net)
        if files.network_fingerprint(net) != files.network_fingerprint(state.net):
            print("state was designed for a different network", file=sys.stderr)
            return EXIT_INVALID
    cl = oracle.assemble_closed_loop(state)
    cert = oracle.centralized_sp_check(cl)
    print(str(cert))
    return EXIT_OK if cert.verdict else EXIT_CHECK_FAILED


def _cmd_simulate(args) -> int:
    if not (0.0 < args.T < math.inf and 0.0 < args.dt < math.inf and args.T / args.dt < math.inf):
        print("--T, --dt and --T / --dt must be positive and finite", file=sys.stderr)
        return EXIT_INVALID
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return EXIT_INVALID
    state = files.load_state(args.state)
    cl = oracle.assemble_closed_loop(state)
    disturbance = oracle.SineDisturbance.from_seed(cl.m, args.seed)
    traj = oracle.simulate(cl, disturbance, T=args.T, dt=args.dt)
    margin = oracle.dissipation_margin(traj, cl.epsilon)
    if args.csv is not None:
        oracle.export_trajectory_csv(traj, args.csv)
        print(f"wrote trajectory to {args.csv}")
    print(f"dissipation margin = {margin:.9e}")
    if margin < -oracle.SLACK_TOL:
        print("dissipation inequality violated along the trajectory", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_report(args) -> int:
    state = files.load_state(args.state)
    print(f"cascade of {state.net.n_subsystems} subsystems, "
          f"global_epsilon={state.global_epsilon:.6e}")
    for rec in state.records:
        _print_record(rec)
    routes = [rec.route for rec in state.records]
    print(f"routes: {routes.count(protocol.ROUTE_VERIFIED)} verified, "
          f"{routes.count(protocol.ROUTE_SYNTHESIZED)} synthesized")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "design": _cmd_design,
    "add": _cmd_add,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def execute(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        return _COMMANDS[args.command](args)
    except files.MalformedFile as exc:
        print(f"malformed file: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InvalidNetwork as exc:
        print(f"invalid network: {exc.report}", file=sys.stderr)
        return EXIT_INVALID
    except protocol.DimensionMismatch as exc:
        print(f"dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"cannot read or write file: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except protocol.DesignFailed as exc:
        print(exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except lmi.MalformedProblem as exc:
        print(f"malformed problem: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except oracle.TrajectoryTooLarge as exc:
        print(f"simulation refused: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except oracle.NonFiniteTrajectory as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(execute())


if __name__ == "__main__":
    main()
