"""Print the design verdicts a change to the protocol or the solver must keep.

One deterministic run (about 13 s for seeds 1-10 on 2 vCPUs) prints:

* ``DesignFailed`` counts over the ``grow_persist`` growth cycles: for
  each seed, the 4 cycles the benchmark draws from ``default_rng(seed)``,
  numbered from 0 as ``perfbench/workloads.py`` numbers them, each growing the four-stage design by 60 ``seeded_additions`` with
  ``add_subsystem`` in process (a cycle ends at its first failure), with
  the largest designed gain entry, as ``log10``;
* ``DesignFailed`` counts over the 80 random designs
  ``random_cascade(1 + k % 6, default_rng(0))`` and
  ``random_cascade(1 + k % 8, default_rng(12345))``, 40 each;
* which of the 30 chains with every B3 column but the first zeroed
  (``random_cascade(1 + k % 5, default_rng(3))``) design;
* which of the 24 power-of-two changes of units design: time (A and
  B1..B3 times s) and state (B1..B3 times d, C and every h divided by d),
  s, d = 2^k for k in +-3, +-6, +-10, on the four-stage design and on
  ``random_cascade(8, default_rng(5))``;
* how many designs the centralized oracle accepts: every design above and
  every 10th grown state of each cycle;
* how many of those it rejects once the Q of the record with the smallest
  max|C| is scaled by 1 + 1e-4, a tamper that a storage equality judged
  at the chain's largest |C| can miss, and how many of the same tampers,
  built as a ``NetworkDesignState``, refuse to grow: their last record
  carries no margin ``M_cl``, so ``add_subsystem`` raises
  ``MissingMargin``;
* the worst-start check on those same designs: started at the unit
  eigenvector of lambda_min(-(Acl'Q + Q Acl)), with no disturbance, over
  500 steps of dt = 1e-4 (or of 0.1 / rho(Acl) when that is shorter: the
  step is exact, but dissipation_margin's trapezoid supply needs a step
  short for the loop), how many keep the dissipation margin at
  the design rate eps above -SLACK_TOL, and how many fall below 0 at
  1.01 r, r = lambda_min(-(Acl'Q + Q Acl)) / 2 being the storage's true
  rate;
* the four-stage routes and global rate;
* the global rate of ``random_cascade(128, default_rng(12345))`` and the
  step that sets it;
* how every call of ``protocol.local_verify`` and
  ``protocol.local_synthesize`` in the run above ended, counted per route:
  designed in closed form (no ``lmi.solve_feasibility`` call) or after a
  search, or declined with each reason, most frequent first;
* where each of those calls ended: in the design step's screen, storage,
  rate-and-gains or close stage, or designed;
* the search effort of the run above: its ``lmi.solve_feasibility``
  calls, their ``lmi.minimize`` runs (Newton centerings), and the median
  ``evaluations`` of the searches that declined;
* the scale spread: of the decoupled scalar pairs A = -1, B1 = B2 = B3 =
  1 with C = (1e9, 2e-4), (1e11, 1e-3) and (1e12, 1e-3), how many design,
  how many the oracle accepts and how many save and load, storages whose
  scales lie up to 1e15 apart along one chain.

``--json PATH`` also writes every design's routes, per-step rates and
r / eps, so two trees can be compared design by design: ``--compare OLD
NEW`` reads two such files, runs no design, and prints per group how many
designs are identical (the same outcome, routes and every rate), how
many fail in only one file, and the median, quartiles and range of the
NEW / OLD global rate over the designs that succeed in both. Run from the
repository root:

    python3 tools/verdicts.py [--seeds FIRST LAST] [--json PATH]
    python3 tools/verdicts.py --compare OLD.json NEW.json
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

# The package's matrices are small, and OpenBLAS threads only add
# synchronization: with one thread the run takes about half the time on
# two cores, with the same output.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "perfbench"):
    sys.path.insert(0, str(ROOT / sub))

import numpy as np  # noqa: E402

from cascadepass import files, lmi, oracle, protocol  # noqa: E402
from cascadepass.model import CascadeNetwork, Subsystem  # noqa: E402
from cascadepass.sample_cascades import four_stage_cascade, random_cascade  # noqa: E402
from workloads import GROWTH, seeded_additions  # noqa: E402

CYCLES = 4
ORACLE_EVERY = 10
UNIT_POWERS = (-10, -6, -3, 3, 6, 10)
SCALE_SPREADS = ((1e9, 2e-4), (1e11, 1e-3), (1e12, 1e-3))
N128 = "random_cascade(128, default_rng(12345))"
# The design step's stages, as protocol names them and as the tool prints them.
STAGES = (("_screen", "screen"), ("_storage", "storage"), ("_rate_and_gains", "rate"), ("_close", "close"))
# The growth seeds whose cycles the golden file pins.
GOLDEN_SEEDS = (1,)


def summary(state) -> dict:
    """Routes (V or S) and rates of a design, step by step, and r / eps."""
    cl = oracle.assemble_closed_loop(state)
    return {
        "routes": "".join(rec.route[0] for rec in state.records),
        "eps": [rec.epsilon for rec in state.records],
        "rate_ratio": oracle.worst_start(cl)[0] / cl.epsilon,
    }


def gain_max(state) -> float:
    gains = [float(np.abs(K).max()) for rec in state.records
             for K in (rec.K_self, rec.K_to_prev, rec.K_prev_to_self) if K is not None and K.size]
    return max(gains, default=0.0)


class Tally:
    """Designs, failures and oracle verdicts of one group of designs."""

    def __init__(self):
        self.designs, self.failures, self.checked, self.accepted = [], [], 0, 0
        self.holds, self.separates, self.tampers_rejected, self.tampers_refused = 0, 0, 0, 0

    def check(self, state) -> None:
        cl = oracle.assemble_closed_loop(state)
        self.checked += 1
        self.accepted += bool(oracle.centralized_sp_check(cl).verdict)
        sizes = [sub.n for sub in state.net.subsystems]
        k = int(np.argmin([np.abs(sub.C).max() for sub in state.net.subsystems]))
        block = slice(sum(sizes[:k]), sum(sizes[:k + 1]))
        Q = cl.Q.copy()
        Q[block, block] *= 1.0 + 1e-4
        self.tampers_rejected += not oracle.centralized_sp_check(dataclasses.replace(cl, Q=Q)).verdict
        records = list(state.records)
        records[k] = dataclasses.replace(records[k], Q=(1.0 + 1e-4) * records[k].Q)
        self.tampers_refused += protocol.NetworkDesignState(state.net, tuple(records)).records[-1].M_cl is None
        r, x0 = oracle.worst_start(cl)
        dt = min(1e-4, 0.1 / np.abs(np.linalg.eigvals(cl.Acl)).max())
        traj = oracle.simulate(cl, lambda t: np.zeros(cl.m), x0=x0, T=500 * dt, dt=dt)
        self.holds += oracle.dissipation_margin(traj, cl.epsilon) >= -oracle.SLACK_TOL
        self.separates += oracle.dissipation_margin(traj, 1.01 * r) < 0.0

    def design(self, name, net) -> protocol.NetworkDesignState | None:
        try:
            state = protocol.run_cascade_design(net)
        except protocol.DesignFailed as exc:
            self.failures.append(f"{name}: {exc}")
            self.designs.append(None)
            return None
        self.check(state)
        self.designs.append(summary(state))
        return state


def growth(seeds) -> tuple[Tally, float]:
    """The growth cycles of each seed; the tally and the largest gain."""
    tally, largest = Tally(), 0.0
    fixed = protocol.run_cascade_design(four_stage_cascade())
    last, first = fixed.net.subsystems[-1], fixed.net.n_subsystems + 1
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for cycle in range(CYCLES):
            state, failed = fixed, False
            for k, addition in enumerate(seeded_additions(rng, last, first, GROWTH), start=1):
                try:
                    state = protocol.add_subsystem(state, *addition)
                except protocol.DesignFailed as exc:
                    tally.failures.append(f"seed {seed} cycle {cycle}: {exc}")
                    failed = True
                    break
                if k % ORACLE_EVERY == 0:
                    tally.check(state)
            tally.designs.append(summary(state) | {"seed": seed, "cycle": cycle, "failed": failed})
            largest = max(largest, gain_max(state))
    return tally, largest


def rescaled(net: CascadeNetwork, kind: str, f: float) -> CascadeNetwork:
    """net in new units of time (kind "time") or of state ("state")."""
    if kind == "time":
        subs = [Subsystem(A=f * s.A, B1=f * s.B1, B2=f * s.B2, B3=f * s.B3, C=s.C) for s in net.subsystems]
        return CascadeNetwork(subs, net.couplings)
    subs = [Subsystem(A=s.A, B1=f * s.B1, B2=f * s.B2, B3=f * s.B3, C=s.C / f) for s in net.subsystems]
    return CascadeNetwork.from_blocks(subs, {key: b.h / f for key, b in net.couplings.items()})


def random_nets():
    """The 80 random designs, as (name, network)."""
    for seed, period in ((0, 6), (12345, 8)):
        rng = np.random.default_rng(seed)
        for k in range(40):
            yield f"random_cascade(1 + {k} % {period}, default_rng({seed}))", random_cascade(1 + k % period, rng)


def deficient_nets():
    """The 30 chains with every B3 column but the first zeroed, as (name, network)."""
    rng = np.random.default_rng(3)
    for k in range(30):
        net = random_cascade(1 + k % 5, rng)
        subs = []
        for s in net.subsystems:
            B3 = s.B3.copy()
            B3[:, 1:] = 0.0
            subs.append(Subsystem(A=s.A, B1=s.B1, B2=s.B2, B3=B3, C=s.C))
        yield f"chain {k}", CascadeNetwork(subs, net.couplings)


def unit_nets():
    """The 24 power-of-two changes of units, as (name, network)."""
    for base_name, base in (("four-stage", four_stage_cascade()),
                            ("random_cascade(8, default_rng(5))", random_cascade(8, np.random.default_rng(5)))):
        for kind, symbol in (("time", "s"), ("state", "d")):
            for k in UNIT_POWERS:
                yield f"{base_name} {symbol}=2^{k}", rescaled(base, kind, 2.0 ** k)


def staged(stage, label, ended: dict):
    """stage, noting its label in ended["stage"] whenever it declines."""
    def wrapper(*args):
        result = stage(*args)
        if isinstance(result, lmi.Infeasible):
            ended["stage"] = label
        return result
    return wrapper


def counted(route, outcomes: Counter, searches: Counter, stages: Counter, ended: dict):
    """route, counting each outcome in outcomes: the decline's reason, or
    "designed searched" when the call ran lmi.solve_feasibility (whose runs
    searches["runs"] counts) and "designed closed-form" when it did not;
    and in stages where the call ended: the label of the design-step stage
    that declined (staged), or "designed"."""
    def wrapper(*args, **kwargs):
        before = searches["runs"]
        result = route(*args, **kwargs)
        if isinstance(result, lmi.Infeasible):
            outcomes[result.reason] += 1
            stages[ended["stage"]] += 1
        else:
            outcomes["designed searched" if searches["runs"] > before else "designed closed-form"] += 1
            stages["designed"] += 1
        return result
    return wrapper


def run(seeds) -> dict:
    # The design loop looks both routes up as module globals at each step,
    # the design step its stages, and the stages lmi.solve_feasibility.
    outcomes, searches = {"verify": Counter(), "synthesize": Counter()}, Counter()
    stages, ended = {"verify": Counter(), "synthesize": Counter()}, {}
    declined_evaluations = []
    solve, minimize = lmi.solve_feasibility, lmi.minimize

    def searching(*args, **kwargs):
        searches["runs"] += 1
        result = solve(*args, **kwargs)
        if isinstance(result, lmi.Infeasible):
            declined_evaluations.append(result.evaluations)
        return result

    def centering(*args):
        searches["centerings"] += 1
        return minimize(*args)

    lmi.solve_feasibility = searching
    lmi.minimize = centering
    for name, label in STAGES:
        setattr(protocol, name, staged(getattr(protocol, name), label, ended))
    protocol.local_verify = counted(protocol.local_verify, outcomes["verify"], searches, stages["verify"], ended)
    protocol.local_synthesize = counted(
        protocol.local_synthesize, outcomes["synthesize"], searches, stages["synthesize"], ended)
    out = {}
    tally, largest = growth(seeds)
    out["growth"] = tally
    print(f"growth, seeds {seeds[0]}-{seeds[-1]}, {CYCLES} cycles of {GROWTH} additions each: "
          f"{len(tally.failures)} DesignFailed; gain_max_log10 {math.log10(largest):.2f}")
    for line in tally.failures:
        print(f"  {line}")

    random = Tally()
    for name, net in random_nets():
        random.design(name, net)
    out["random"] = random
    print(f"random designs: {len(random.failures)} DesignFailed of 80")
    for line in random.failures:
        print(f"  {line}")

    deficient = Tally()
    for name, net in deficient_nets():
        deficient.design(name, net)
    out["rank_deficient"] = deficient
    designed = [k for k, d in enumerate(deficient.designs) if d is not None]
    print(f"rank-deficient B3 chains designed ({len(designed)} of 30): {' '.join(map(str, designed))}")

    units = Tally()
    names = []
    for name, net in unit_nets():
        names.append(name)
        units.design(name, net)
    out["units"] = units
    failed = [name for name, d in zip(names, units.designs) if d is None]
    print(f"unit changes designed: {24 - len(failed)} of 24; failing: {', '.join(failed) or 'none'}")

    four = Tally()
    state = four.design("four-stage", four_stage_cascade())
    out["four_stage"] = four
    print(f"four-stage routes {','.join(four.designs[0]['routes'])}, "
          f"global eps {state.global_epsilon:.6f}")

    long = Tally()
    state = long.design(N128, random_cascade(128, np.random.default_rng(12345)))
    out["n128"] = long
    if state is None:
        print(f"N = 128: {long.failures[0]}")
    else:
        step = 1 + int(np.argmin([rec.epsilon for rec in state.records]))
        print(f"N = 128 global eps {state.global_epsilon:.6f} at step {step}")

    checked = sum(t.checked for t in out.values())
    accepted = sum(t.accepted for t in out.values())
    print(f"oracle accepts {accepted} of {checked} designs checked")
    rejected = sum(t.tampers_rejected for t in out.values())
    refused = sum(t.tampers_refused for t in out.values())
    print(f"oracle rejects {rejected} of {checked} with the Q of the smallest max|C| scaled by 1 + 1e-4; "
          f"built as states, {refused} refuse to grow")
    for name, t in out.items():
        print(f"worst start, {name}: holds eps on {t.holds} and separates 1.01 r on "
              f"{t.separates} of {t.checked}")
    print("route outcomes: " + "; ".join(
        f"{route} " + ", ".join(f"{what} {count}" for what, count in counts.most_common())
        for route, counts in outcomes.items()))
    print("stage outcomes: " + "; ".join(
        f"{route} " + ", ".join(f"{label} {counts[label]}" for _, label in STAGES + (("", "designed"),))
        for route, counts in stages.items()))
    median = np.median(declined_evaluations) if declined_evaluations else math.nan
    print(f"search effort: {searches['runs']} lmi.solve_feasibility calls, "
          f"{searches['centerings']} lmi.minimize runs, median {median:g} evaluations "
          f"over {len(declined_evaluations)} declined searches")
    print(scale_spread())
    return {name: t.designs for name, t in out.items()} | {"gain_max": largest}


def scale_spread() -> str:
    """The line on the decoupled scalar pairs of SCALE_SPREADS: how many
    design, pass the oracle, and load from their saved text."""
    designed = accepted = loaded = 0
    for pair in SCALE_SPREADS:
        subs = [Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=c) for c in pair]
        try:
            state = protocol.run_cascade_design(CascadeNetwork.from_blocks(subs, {}))
        except protocol.DesignFailed:
            continue
        designed += 1
        accepted += oracle.centralized_sp_check(oracle.assemble_closed_loop(state)).verdict
        try:
            files.state_from_dict(json.loads(json.dumps(files.state_to_dict(state))))
        except files.MalformedFile:
            continue
        loaded += 1
    pairs = ", ".join(f"({big:.0e}, {small:.0e})" for big, small in SCALE_SPREADS)
    return (f"scale spread, decoupled scalar pairs C = {pairs}: {designed} of {len(SCALE_SPREADS)} design, "
            f"oracle accepts {accepted}, {loaded} load")


def failed(design) -> bool:
    """Whether a --json design ended in DesignFailed: null, or a growth
    cycle flagged failed."""
    return design is None or design.get("failed", False)


def compare(old_path: Path, new_path: Path) -> None:
    """Print, per group of two --json files, how the designs moved."""
    old, new = (json.loads(path.read_text()) for path in (old_path, new_path))
    for group, designs in old.items():
        if group == "gain_max":
            continue
        others = new.get(group, [])
        if len(others) != len(designs):
            print(f"{group}: {len(designs)} designs in OLD but {len(others)} in NEW")
            continue
        pairs = list(zip(designs, others))
        same = sum(failed(a) == failed(b) and (a is None or (a["routes"], a["eps"]) == (b["routes"], b["eps"]))
                   for a, b in pairs)
        only_old = sum(failed(a) and not failed(b) for a, b in pairs)
        only_new = sum(failed(b) and not failed(a) for a, b in pairs)
        line = (f"{group}: {same} of {len(pairs)} identical; fail only in OLD {only_old}, "
                f"only in NEW {only_new}")
        ratios = [min(b["eps"]) / min(a["eps"]) for a, b in pairs if not (failed(a) or failed(b))]
        if ratios:
            q = np.quantile(ratios, [0.0, 0.25, 0.5, 0.75, 1.0])
            line += (f"; global eps NEW/OLD over {len(ratios)}: median {q[2]:.6g}, "
                     f"quartiles {q[1]:.6g} {q[3]:.6g}, range {q[0]:.6g} {q[4]:.6g}")
        print(line)


def outcome(result):
    """A route call's outcome as the golden file holds it: "designed", or
    the decline's [reason, best_lambda_min, evaluations]."""
    if isinstance(result, lmi.Infeasible):
        return [result.reason, result.best_lambda_min, result.evaluations]
    return "designed"


@contextlib.contextmanager
def recording(steps: list):
    """Within, each protocol.local_verify call appends a step [verify's
    outcome, None] to steps, and each protocol.local_synthesize call puts
    its outcome in the last step's second entry."""
    verify, synthesize = protocol.local_verify, protocol.local_synthesize

    def verifying(*args, **kwargs):
        result = verify(*args, **kwargs)
        steps.append([outcome(result), None])
        return result

    def synthesizing(*args, **kwargs):
        result = synthesize(*args, **kwargs)
        steps[-1][1] = outcome(result)
        return result

    protocol.local_verify, protocol.local_synthesize = verifying, synthesizing
    try:
        yield
    finally:
        protocol.local_verify, protocol.local_synthesize = verify, synthesize


def designed(net):
    """(state, failed) of a design of net from scratch; state None when it fails."""
    try:
        return protocol.run_cascade_design(net), False
    except protocol.DesignFailed:
        return None, True


def grown(fixed, rng):
    """(state, failed) of one growth cycle: fixed grown by the GROWTH
    seeded_additions drawn from rng, up to the first DesignFailed."""
    state = fixed
    for addition in seeded_additions(rng, fixed.net.subsystems[-1], fixed.net.n_subsystems + 1, GROWTH):
        try:
            state = protocol.add_subsystem(state, *addition)
        except protocol.DesignFailed:
            return state, True
    return state, False


def golden_campaign():
    """The designs the golden file pins, in order, as (group, name, build),
    build() giving (state, failed): the four-stage design, the random, the
    rank-deficient and the unit-change designs, N = 128, and the CYCLES
    growth cycles of each of GOLDEN_SEEDS. The builds of one seed's cycles
    share its generator, so they are called in order."""
    yield "four_stage", "four-stage", functools.partial(designed, four_stage_cascade())
    for group, nets in (("random", random_nets()), ("rank_deficient", deficient_nets()), ("units", unit_nets())):
        for name, net in nets:
            yield group, name, functools.partial(designed, net)
    yield "n128", N128, functools.partial(designed, random_cascade(128, np.random.default_rng(12345)))
    fixed = protocol.run_cascade_design(four_stage_cascade())
    for seed in GOLDEN_SEEDS:
        rng = np.random.default_rng(seed)
        for cycle in range(CYCLES):
            yield "growth", f"seed {seed} cycle {cycle}", functools.partial(grown, fixed, rng)


def golden(campaign) -> list[dict]:
    """The golden verdict of each design of campaign: its group and name,
    whether it failed, the route letter (V or S) of each step it designed,
    the global rate of the state it reached (None when a design from
    scratch fails), and each step's outcomes, [verify's, synthesis's or
    None when verify designed] (outcome). Growth cycles hold the steps of
    their additions."""
    designs = []
    for group, name, build in campaign:
        steps = []
        with recording(steps):
            state, fails = build()
        designs.append({
            "group": group, "name": name, "failed": fails,
            "routes": "".join("V" if v == "designed" else "S" for v, s in steps if "designed" in (v, s)),
            "epsilon": None if state is None else state.global_epsilon,
            "steps": steps,
        })
    return designs


def write_golden(path: Path, campaign) -> None:
    """Write golden(campaign) to path as JSON, one design a line."""
    lines = [json.dumps(design) for design in golden(campaign)]
    Path(path).write_text("[\n" + ",\n".join(lines) + "\n]\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs=2, type=int, default=(1, 10), metavar=("FIRST", "LAST"),
                        help="growth seeds, inclusive (default 1 10)")
    parser.add_argument("--json", type=Path, help="write every design's routes and rates here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two --json files design by design, running no design")
    parser.add_argument("--golden", type=Path, metavar="PATH",
                        help="write the golden verdicts that tests/test_golden_verdicts.py "
                             "pins to PATH, running nothing else")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return
    if args.golden:
        write_golden(args.golden, golden_campaign())
        return
    designs = run(list(range(args.seeds[0], args.seeds[1] + 1)))
    if args.json:
        args.json.write_text(json.dumps(designs))


if __name__ == "__main__":
    main()
