"""tools/verdicts.py: its design-verdict comparison, on hand-written files,
and its golden-verdict writer."""

import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

from test_golden_verdicts import load_verdicts, read_golden

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
