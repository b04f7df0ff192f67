"""Print the design verdicts a change to the protocol or the solver must keep.

One deterministic run (about 12 s for seeds 1-10 on 2 vCPUs) designs one
campaign (``campaign``) under one recorder (``recording``), which notes
how each call of ``protocol.local_verify`` and ``protocol.local_synthesize``
ended and the search it took, and prints:

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
* how every route call of the campaign ended, counted per route:
  designed in closed form (no ``lmi.solve_feasibility`` call) or after a
  search, or declined with each reason, most frequent first;
* where each of those calls ended: in the design step's screen, storage,
  rate-and-gains or close stage, or designed;
* the search effort of the campaign: its ``lmi.solve_feasibility``
  calls, their ``lmi.minimize`` runs (Newton centerings), and the median
  ``evaluations`` of the searches that declined;
* the scale spread: of the decoupled scalar pairs A = -1, B1 = B2 = B3 =
  1 with C = (1e9, 2e-4), (1e11, 1e-3) and (1e12, 1e-3), how many design,
  how many the oracle accepts and how many save and load, storages whose
  scales lie up to 1e15 apart along one chain;
* the record hash: one SHA-256 fed by ``tests/test_record_hash.py``'s
  ``feed`` with the records of every state the campaign builds, in its
  order (each design from scratch that succeeds and the last state of
  each growth cycle), and the number of those states. ``feed`` also
  rebuilds each state through the public constructor, which derives every
  M_cl afresh, and fails unless every record comes back bit for bit. The
  hash moves with the last bit of any record.

``--json PATH`` also writes every design's routes, per-step rates and
r / eps, so two trees can be compared design by design: ``--compare OLD
NEW`` reads two such files, runs no design, and prints per group how many
designs are identical (the same outcome, routes and every rate), how
many fail in only one file, and the median, quartiles and range of the
NEW / OLD global rate over the designs that succeed in both.
``--golden PATH`` writes the recorded outcomes of the golden campaign,
the campaign with the growth cycles of GOLDEN_SEEDS alone, with no oracle
trial. Run from the repository root:

    python3 tools/verdicts.py [--seeds FIRST LAST] [--json PATH]
    python3 tools/verdicts.py --compare OLD.json NEW.json
    python3 tools/verdicts.py --golden PATH
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

# The package's matrices are small, and OpenBLAS threads only add
# synchronization: on two cores one thread takes 60% of the CPU time of
# two and about 10% more wall time, with the same output.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "tests", "perfbench"):
    sys.path.insert(0, str(ROOT / sub))

import numpy as np  # noqa: E402

from cascadepass import files, lmi, oracle, protocol  # noqa: E402
from cascadepass.model import CascadeNetwork, Subsystem  # noqa: E402
from cascadepass.sample_cascades import four_stage_cascade, random_cascade  # noqa: E402
from test_record_hash import feed  # noqa: E402
from workloads import GROWTH, seeded_additions  # noqa: E402

CYCLES = 4
ORACLE_EVERY = 10
UNIT_POWERS = (-10, -6, -3, 3, 6, 10)
SCALE_SPREADS = ((1e9, 2e-4), (1e11, 1e-3), (1e12, 1e-3))
N128 = "random_cascade(128, default_rng(12345))"
# The groups of the campaign, in the order the run prints them.
GROUPS = ("growth", "random", "rank_deficient", "units", "four_stage", "n128")
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
    """Designs, failures (name, DesignFailed) and oracle verdicts of one
    group of designs."""

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


def designed(net):
    """(state, failure, checked) of a design of net from scratch: the state
    (None when it fails), its DesignFailed or None, and the states the
    oracle checks."""
    try:
        state = protocol.run_cascade_design(net)
    except protocol.DesignFailed as exc:
        return None, exc, []
    return state, None, [state]


def grown(fixed, rng):
    """(state, failure, checked) of one growth cycle: fixed grown by the
    GROWTH seeded_additions drawn from rng, up to the first DesignFailed;
    the last state grown, that DesignFailed or None, and every
    ORACLE_EVERY-th state grown."""
    state, checked = fixed, []
    additions = seeded_additions(rng, fixed.net.subsystems[-1], fixed.net.n_subsystems + 1, GROWTH)
    for k, addition in enumerate(additions, start=1):
        try:
            state = protocol.add_subsystem(state, *addition)
        except protocol.DesignFailed as exc:
            return state, exc, checked
        if k % ORACLE_EVERY == 0:
            checked.append(state)
    return state, None, checked


def campaign(seeds):
    """The designs of a run, in order, as (group, name, build), build()
    giving (state, failure, checked) (designed, grown): the four-stage
    design, the random, the rank-deficient and the unit-change designs,
    N = 128, and the CYCLES growth cycles of each seed. The builds of one
    seed's cycles share its generator, so they are called in order."""
    yield "four_stage", "four-stage", functools.partial(designed, four_stage_cascade())
    for group, nets in (("random", random_nets()), ("rank_deficient", deficient_nets()), ("units", unit_nets())):
        for name, net in nets:
            yield group, name, functools.partial(designed, net)
    yield "n128", N128, functools.partial(designed, random_cascade(128, np.random.default_rng(12345)))
    fixed = protocol.run_cascade_design(four_stage_cascade())
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for cycle in range(CYCLES):
            yield "growth", f"seed {seed} cycle {cycle}", functools.partial(grown, fixed, rng)


def golden_campaign():
    """The designs the golden file pins: the campaign of GOLDEN_SEEDS."""
    return campaign(GOLDEN_SEEDS)


@contextlib.contextmanager
def recording(steps: list):
    """Within, each protocol.local_verify call appends a step [its record,
    None] to steps, and each protocol.local_synthesize call puts its record
    in the last step's second entry. A record is (result, searched, stage):
    the route's result, whether the call ran lmi.solve_feasibility, and the
    label (STAGES) of the design-step stage that declined, or "designed".
    Yields the search effort: the lmi.solve_feasibility calls ("runs"),
    the lmi.minimize runs ("centerings") and the evaluations of each
    declined search ("declined"). Every wrapped name is restored on exit.

    The design loop looks both routes up as module globals at each step,
    the design step its stages, and the stages and the search
    lmi.solve_feasibility and lmi.minimize, so wrapping the names sees
    every call."""
    effort, ended = {"runs": 0, "centerings": 0, "declined": []}, None

    def solving(solve, *args, **kwargs):
        effort["runs"] += 1
        result = solve(*args, **kwargs)
        if isinstance(result, lmi.Infeasible):
            effort["declined"].append(result.evaluations)
        return result

    def centering(minimize, *args):
        effort["centerings"] += 1
        return minimize(*args)

    def staged(label, stage, *args):
        nonlocal ended
        result = stage(*args)
        if isinstance(result, lmi.Infeasible):
            ended = label
        return result

    def routed(first, route, *args, **kwargs):
        before = effort["runs"]
        result = route(*args, **kwargs)
        declined = isinstance(result, lmi.Infeasible)
        record = (result, effort["runs"] > before, ended if declined else "designed")
        if first:
            steps.append([record, None])
        else:
            steps[-1][1] = record
        return result

    wrappers = [(lmi, "solve_feasibility", solving), (lmi, "minimize", centering)]
    wrappers += [(protocol, name, functools.partial(staged, label)) for name, label in STAGES]
    wrappers += [(protocol, "local_verify", functools.partial(routed, True)),
                 (protocol, "local_synthesize", functools.partial(routed, False))]
    originals = [getattr(module, name) for module, name, _ in wrappers]
    try:
        for (module, name, wrapper), original in zip(wrappers, originals):
            setattr(module, name, functools.partial(wrapper, original))
        yield effort
    finally:
        for (module, name, _), original in zip(wrappers, originals):
            setattr(module, name, original)


def run(seeds) -> dict:
    """Design campaign(seeds) under one recording, print the verdicts and
    the record hash, and return every design's --json summary by group,
    and the largest gain."""
    tallies, steps, largest = {group: Tally() for group in GROUPS}, [], 0.0
    digest, hashed = hashlib.sha256(), 0
    with recording(steps) as effort:
        for group, name, build in campaign(seeds):
            state, failure, checked = build()
            if state is not None:
                feed(digest, state)
                hashed += 1
            tally = tallies[group]
            for s in checked:
                tally.check(s)
            if failure is not None:
                tally.failures.append((name, failure))
            if group == "growth":
                seed, cycle = map(int, name.split()[1::2])
                tally.designs.append(summary(state) | {"seed": seed, "cycle": cycle, "failed": failure is not None})
                largest = max(largest, gain_max(state))
            else:
                tally.designs.append(None if state is None else summary(state))

    growth, random, deficient, units, four, long = tallies.values()
    print(f"growth, seeds {seeds[0]}-{seeds[-1]}, {CYCLES} cycles of {GROWTH} additions each: "
          f"{len(growth.failures)} DesignFailed; gain_max_log10 {math.log10(largest):.2f}")
    for name, exc in growth.failures:
        print(f"  {name}: {exc}")
    print(f"random designs: {len(random.failures)} DesignFailed of 80")
    for name, exc in random.failures:
        print(f"  {name}: {exc}")
    chains = [k for k, d in enumerate(deficient.designs) if d is not None]
    print(f"rank-deficient B3 chains designed ({len(chains)} of 30): {' '.join(map(str, chains))}")
    failing = [name for name, _ in units.failures]
    print(f"unit changes designed: {24 - len(failing)} of 24; failing: {', '.join(failing) or 'none'}")
    print(f"four-stage routes {','.join(four.designs[0]['routes'])}, global eps {min(four.designs[0]['eps']):.6f}")
    if long.failures:
        name, exc = long.failures[0]
        print(f"N = 128: {name}: {exc}")
    else:
        eps = long.designs[0]["eps"]
        print(f"N = 128 global eps {min(eps):.6f} at step {1 + int(np.argmin(eps))}")

    checked = sum(t.checked for t in tallies.values())
    print(f"oracle accepts {sum(t.accepted for t in tallies.values())} of {checked} designs checked")
    print(f"oracle rejects {sum(t.tampers_rejected for t in tallies.values())} of {checked} with the Q of the "
          f"smallest max|C| scaled by 1 + 1e-4; built as states, "
          f"{sum(t.tampers_refused for t in tallies.values())} refuse to grow")
    for name, t in tallies.items():
        print(f"worst start, {name}: holds eps on {t.holds} and separates 1.01 r on "
              f"{t.separates} of {t.checked}")

    outcomes, stages = {"verify": Counter(), "synthesize": Counter()}, {"verify": Counter(), "synthesize": Counter()}
    for step in steps:
        for route, record in zip(outcomes, step):
            if record is not None:
                result, searched, stage = record
                how = "designed searched" if searched else "designed closed-form"
                outcomes[route][result.reason if isinstance(result, lmi.Infeasible) else how] += 1
                stages[route][stage] += 1
    print("route outcomes: " + "; ".join(
        f"{route} " + ", ".join(f"{what} {count}" for what, count in counts.most_common())
        for route, counts in outcomes.items()))
    print("stage outcomes: " + "; ".join(
        f"{route} " + ", ".join(f"{label} {counts[label]}" for _, label in STAGES + (("", "designed"),))
        for route, counts in stages.items()))
    declined = effort["declined"]
    median = np.median(declined) if declined else math.nan
    print(f"search effort: {effort['runs']} lmi.solve_feasibility calls, "
          f"{effort['centerings']} lmi.minimize runs, median {median:g} evaluations "
          f"over {len(declined)} declined searches")
    print(scale_spread())
    print(f"record hash: {digest.hexdigest()}  ({hashed} states)")
    return {name: t.designs for name, t in tallies.items()} | {"gain_max": largest}


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


def outcome(record):
    """A recorded route call as the golden file holds it: None when the
    route was not called, "designed", or the decline's [reason,
    best_lambda_min, evaluations]."""
    if record is None:
        return None
    result = record[0]
    if isinstance(result, lmi.Infeasible):
        return [result.reason, result.best_lambda_min, result.evaluations]
    return "designed"


def golden(campaign) -> list[dict]:
    """The golden verdict of each design of campaign: its group and name,
    whether it failed, the route letter (V or S) of each step it designed,
    the global rate of the state it reached (None when a design from
    scratch fails), and each step's outcomes, [verify's, synthesis's or
    None when verify designed] (outcome). Growth cycles hold the steps of
    their additions."""
    designs, steps = [], []
    with recording(steps):
        for group, name, build in campaign:
            start = len(steps)
            state, failure, _ = build()
            own = [[outcome(v), outcome(s)] for v, s in steps[start:]]
            designs.append({
                "group": group, "name": name, "failed": failure is not None,
                "routes": "".join("V" if v == "designed" else "S" for v, s in own if "designed" in (v, s)),
                "epsilon": None if state is None else state.global_epsilon,
                "steps": own,
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
