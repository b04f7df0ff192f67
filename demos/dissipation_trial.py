"""Exercise a designed cascade with disturbances and check dissipation.

The four-stage benchmark is designed, driven by randomized sums of
sinusoids, and the integrated dissipation inequality is evaluated along
each trajectory. The worst slack over all trials is reported; a value no
lower than the quadrature tolerance backs the algebraic certificate with
time-domain evidence.

A trial from x0 = 0 starts with zero slack, so an overclaimed rate rarely
shows there. One more trial therefore starts at oracle.worst_start, the
direction where the storage decays slowest, with no disturbance: over 50
steps its margin must hold at the design rate eps and fall below the
tolerance at 1.01 r, r being the storage's true rate.
"""

import argparse

import numpy as np

from cascadepass import oracle, protocol
from cascadepass.sample_cascades import four_stage_cascade


def verdict(margin: float) -> str:
    return "ok" if margin >= -oracle.SLACK_TOL else "violated"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=5, help="number of seeded trials")
    parser.add_argument("--T", type=float, default=20.0, help="horizon per trial")
    parser.add_argument("--dt", type=float, default=1e-3, help="time step")
    parser.add_argument("--csv", default=None, help="write the last trajectory here")
    args = parser.parse_args()

    state = protocol.run_cascade_design(four_stage_cascade())
    cl = oracle.assemble_closed_loop(state)
    print(f"closed loop with {cl.n} states, {cl.m} disturbance channels, "
          f"rate eps={cl.epsilon:.6f}")

    worst = 0.0
    traj = None
    for seed in range(args.trials):
        disturbance = oracle.SineDisturbance.from_seed(cl.m, seed)
        traj = oracle.simulate(cl, disturbance, T=args.T, dt=args.dt)
        margin = oracle.dissipation_margin(traj, cl.epsilon)
        worst = min(worst, margin)
        print(f"seed {seed}: dissipation margin {margin:.3e}")

    print(f"\nworst margin over {args.trials} trials: {worst:.3e} ({verdict(worst)})")

    r, x0 = oracle.worst_start(cl)
    start = oracle.simulate(cl, lambda t: np.zeros(cl.m), x0=x0, T=50 * args.dt, dt=args.dt)
    print(f"\nworst start, 50 steps, no disturbance (true rate r={r:.6f}):")
    for name, rate in (("eps", cl.epsilon), ("1.01 r", 1.01 * r)):
        margin = oracle.dissipation_margin(start, rate)
        print(f"  margin at {name}: {margin:.3e} ({verdict(margin)})")
    if args.csv and traj is not None:
        oracle.export_trajectory_csv(traj, args.csv)
        print(f"wrote the last trajectory to {args.csv}")


if __name__ == "__main__":
    main()
