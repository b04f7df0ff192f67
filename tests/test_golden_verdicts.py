"""Design verdicts are pinned: failures, routes, every decline's reason.

tests/data/golden_verdicts.json holds, for each design of a fixed
campaign (the four-stage design, the 80 random designs, the 30
rank-deficient chains, the 24 unit changes, N = 128 and the 4 growth
cycles of seed 1: tools/verdicts.py's one campaign, whose verdict run
adds the growth cycles of further seeds), whether it failed, the routes
of the steps it designed, its global rate and, for every step, each
route's outcome: designed, or the decline's reason, best_lambda_min and
evaluations, as the tool's one recorder notes each route call. The test
designs the campaign afresh, running no oracle trial, and requires the
same failures, routes, reasons and evaluations, with every rate and
bound within RTOL of the file's.

Unlike the record digest of test_record_hash.py, this does not move with
the last bit of a record, so a change that re-pins the digest still has to
keep every verdict. A change that moves verdicts regenerates the file with

    python3 tools/verdicts.py --golden tests/data/golden_verdicts.json

and names in CHANGES.md every design that moved.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_verdicts.json"
# Rounding changes in the last bit (one ulp on every step's margin tau, or
# W = L^-1 R of every Schur step scaled by 1 + 2^-50) moved no failure,
# route, reason or evaluation count, every rate by at most 3.9e-13 relative
# and every bound by at most 1.6e-13; TARGET_FRACTION 0.3 instead of 0.2
# moves three designs' routes or failures and rates by up to 91%.
RTOL = 1e-9


def load_verdicts():
    """tools/verdicts.py as a module, leaving sys.path and the environment
    as they were."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        mp.setenv("OPENBLAS_NUM_THREADS", "1")
        spec = importlib.util.spec_from_file_location("verdicts", ROOT / "tools" / "verdicts.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def read_golden(path) -> list[dict]:
    """The designs of a golden-verdict file, in campaign order, each a dict
    of group, name, failed, routes, epsilon (None when a design from scratch
    failed) and steps: per step [verify's outcome, synthesis's or None],
    an outcome being "designed" or [reason, best_lambda_min, evaluations]."""
    designs = json.loads(Path(path).read_text())
    keys = {"group", "name", "failed", "routes", "epsilon", "steps"}
    assert all(set(d) == keys for d in designs), f"{path} is not a golden-verdict file"
    return designs


def same(want, got) -> bool:
    """Whether got matches want: floats within RTOL, all else exactly."""
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(want, got, rel_tol=RTOL)
    if isinstance(want, list) and isinstance(got, list):
        return len(want) == len(got) and all(same(a, b) for a, b in zip(want, got))
    return type(want) is type(got) and want == got


def test_the_campaign_keeps_its_golden_verdicts():
    verdicts = load_verdicts()
    expected = read_golden(GOLDEN)
    actual = verdicts.golden(verdicts.golden_campaign())
    assert [(d["group"], d["name"]) for d in actual] == [(d["group"], d["name"]) for d in expected]
    for want, got in zip(expected, actual):
        where = f"{want['group']} {want['name']}"
        assert (got["failed"], got["routes"]) == (want["failed"], want["routes"]), where
        assert same(want["epsilon"], got["epsilon"]), where
        assert len(got["steps"]) == len(want["steps"]), where
        for k, (w, g) in enumerate(zip(want["steps"], got["steps"])):
            assert same(w, g), f"{where}, step {k}: {g} against {w}"
