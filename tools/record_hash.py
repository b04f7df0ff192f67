"""Print the 761-state record hash and the Newton centerings it took.

One SHA-256, fed by ``tests/test_record_hash.py``'s ``feed`` with every
record of each state in order:

* the four-stage design;
* for each seed 1, 2 and 3, the 4 growth cycles the benchmark's
  ``grow_persist`` runs in 16 s: each cycle grows the four-stage design by
  the cycle's 60 ``seeded_additions`` (drawn in turn from one
  ``default_rng(seed)``), and every grown state is saved and loaded, as
  ``cascadepass add`` does, then fed and grown further;
* 40 designs ``random_cascade(1 + k % 8, default_rng(12345))``.

``feed`` also rebuilds each state through the public constructor, which
derives every M_cl afresh, and fails unless every record comes back bit
for bit. A change that keeps every record bit for bit, in a design and in
a load, leaves the hash unchanged. The script also prints how many times the
local search ran ``lmi.minimize`` over those states, one Newton centering
per barrier round, a count that does not depend on the hardware. Run from the repository root (about 15 s):

    python3 tools/record_hash.py
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

# The package's matrices are small, and OpenBLAS threads only add
# synchronization: one thread runs faster on few cores, with the same
# hash.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "tests", "perfbench"):
    sys.path.insert(0, str(ROOT / sub))

import numpy as np  # noqa: E402

from cascadepass import files, lmi, protocol  # noqa: E402
from cascadepass.sample_cascades import random_cascade  # noqa: E402
from test_record_hash import feed  # noqa: E402
from workloads import GROWTH, fixed_design, seeded_additions  # noqa: E402

SEEDS = (1, 2, 3)
CYCLES = 4
RANDOM_DESIGNS = 40


def record_hash() -> tuple[str, int, int]:
    """The hex digest, the number of states fed and the lmi.minimize runs
    (Newton centerings)."""
    runs = 0
    minimize = lmi.minimize

    def counting(*args):
        nonlocal runs
        runs += 1
        return minimize(*args)

    lmi.minimize = counting
    try:
        hexdigest, states = _fed(hashlib.sha256())
    finally:
        lmi.minimize = minimize
    return hexdigest, states, runs


def _fed(digest) -> tuple[str, int]:
    """Feed every state to digest; the hex digest and the states fed."""
    fixed = fixed_design()
    feed(digest, fixed)
    states = 1
    last, first = fixed.net.subsystems[-1], fixed.net.n_subsystems + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            cycles = [seeded_additions(rng, last, first, GROWTH) for _ in range(CYCLES)]
            for additions in cycles:
                state = fixed
                for addition in additions:
                    files.save_state(protocol.add_subsystem(state, *addition), path)
                    state = files.load_state(path)
                    feed(digest, state)
                    states += 1
    rng = np.random.default_rng(12345)
    for k in range(RANDOM_DESIGNS):
        feed(digest, protocol.run_cascade_design(random_cascade(1 + k % 8, rng)))
        states += 1
    return digest.hexdigest(), states


if __name__ == "__main__":
    hexdigest, states, runs = record_hash()
    print(f"{hexdigest}  ({states} states, {runs} lmi.minimize runs (Newton centerings))")
