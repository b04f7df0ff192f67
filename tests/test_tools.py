"""tools/verdicts.py: its design-verdict comparison, on hand-written files,
its golden-verdict writer, its recorder, the order of its campaign and
its record hash."""

import functools
import hashlib
import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from cascadepass import lmi, protocol
from cascadepass.sample_cascades import four_stage_cascade, random_cascade
from test_golden_verdicts import GOLDEN, load_verdicts, read_golden
from test_record_hash import feed

VERDICTS = Path(__file__).resolve().parents[1] / "tools" / "verdicts.py"


def design(routes, eps, **extra):
    return {"routes": routes, "eps": eps, "rate_ratio": 1.5} | extra


def test_compare_counts_identical_designs_one_sided_failures_and_rate_ratios(tmp_path):
    old = {
        "growth": [design("SV", [0.5, 0.25], failed=False), design("S", [1.0], failed=True)],
        "random": [design("V", [0.5]), design("S", [0.2]), None, None, design("V", [1.0])],
        "gain_max": 10.0,
    }
    new = {
        "growth": [design("SV", [0.5, 0.25], failed=False), design("S", [1.0], failed=False)],
        "random": [design("V", [0.5]), design("S", [0.4]), None, design("V", [1.0]), None],
        "gain_max": 12.0,
    }
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    out = subprocess.run(
        [sys.executable, str(VERDICTS), "--compare", *map(str, paths)],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out == [
        "growth: 1 of 2 identical; fail only in OLD 1, only in NEW 0; "
        "global eps NEW/OLD over 1: median 1, quartiles 1 1, range 1 1",
        "random: 2 of 5 identical; fail only in OLD 1, only in NEW 1; "
        "global eps NEW/OLD over 2: median 1.5, quartiles 1.25 1.75, range 1 2",
    ]


def test_golden_writes_a_campaign_that_the_golden_test_reads_back(tmp_path):
    verdicts = load_verdicts()
    campaign = list(islice(verdicts.golden_campaign(), 2))
    path = tmp_path / "golden.json"
    verdicts.write_golden(path, campaign)
    designs = read_golden(path)
    assert [(d["group"], d["name"]) for d in designs] == [
        ("four_stage", "four-stage"), ("random", "random_cascade(1 + 0 % 6, default_rng(0))"),
    ]
    four = designs[0]
    assert (four["failed"], four["routes"], len(four["steps"])) == (False, "SSVS", 4)
    assert four["steps"][2] == ["designed", None]
    assert four["steps"][0][0][0] == "NotHurwitz" and four["steps"][0][1] == "designed"
    assert designs == verdicts.golden(campaign)


def test_recording_restores_every_wrapped_name_and_records_each_route_call_once():
    verdicts = load_verdicts()
    names = [(lmi, "solve_feasibility"), (lmi, "minimize")]
    names += [(protocol, name) for name, _ in verdicts.STAGES]
    names += [(protocol, "local_verify"), (protocol, "local_synthesize")]
    originals = [getattr(module, name) for module, name in names]
    four = verdicts.golden(islice(verdicts.golden_campaign(), 1))[0]
    assert all(getattr(module, name) is f for (module, name), f in zip(names, originals))
    steps = []
    with pytest.raises(RuntimeError), verdicts.recording(steps) as effort:
        protocol.run_cascade_design(four_stage_cascade())
        raise RuntimeError("the body fails")
    assert all(getattr(module, name) is f for (module, name), f in zip(names, originals))
    assert [[verdicts.outcome(v), verdicts.outcome(s)] for v, s in steps] == four["steps"]
    result, searched, stage = steps[0][0]
    assert (result.reason, searched, stage) == ("NotHurwitz", False, "screen")
    assert effort["runs"] >= sum(r[1] for step in steps for r in step if r is not None) > 0


def test_the_campaign_yields_the_golden_designs_then_each_further_seeds_cycles():
    verdicts = load_verdicts()
    pairs = [(group, name) for group, name, _ in verdicts.campaign((1, 2))]
    golden = [(d["group"], d["name"]) for d in read_golden(GOLDEN)]
    assert pairs == golden + [("growth", f"seed 2 cycle {cycle}") for cycle in range(4)]


def test_the_record_hash_feeds_each_design_that_succeeds_and_each_cycles_last_state(monkeypatch, capsys):
    verdicts = load_verdicts()
    four = four_stage_cascade()
    fixed = protocol.run_cascade_design(four)
    small, failing = random_cascade(3, np.random.default_rng(0)), verdicts.rescaled(four, "time", 2.0 ** 10)
    # One design of each group run reads; the unit change fails, N = 3
    # stands in for N = 128, and the growth is one 60-addition cycle.
    short = [
        ("four_stage", "four-stage", functools.partial(verdicts.designed, four)),
        ("units", "four-stage s=2^10", functools.partial(verdicts.designed, failing)),
        ("n128", "random_cascade(3, default_rng(0))", functools.partial(verdicts.designed, small)),
        ("growth", "seed 1 cycle 0", functools.partial(verdicts.grown, fixed, np.random.default_rng(1))),
    ]
    monkeypatch.setattr(verdicts, "campaign", lambda seeds: short)
    verdicts.run([1])
    out = capsys.readouterr().out.splitlines()
    additions = verdicts.seeded_additions(np.random.default_rng(1), four.subsystems[-1], 5, verdicts.GROWTH)
    grown = functools.reduce(lambda state, addition: protocol.add_subsystem(state, *addition), additions, fixed)
    digest = hashlib.sha256()
    for state in (fixed, protocol.run_cascade_design(small), grown):
        feed(digest, state)
    assert "unit changes designed: 23 of 24; failing: four-stage s=2^10" in out
    assert out[-1] == f"record hash: {digest.hexdigest()}  (3 states)"
