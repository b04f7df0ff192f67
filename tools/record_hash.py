"""Print the 761-state record hash and the Newton centerings it took.

One SHA-256, fed by ``tests/test_record_hash.py``'s ``feed`` with every
record of each state in order:

* the four-stage design;
* for each seed 1, 2 and 3, the 4 growth cycles the benchmark's
  ``grow_persist`` runs in 16 s: each cycle grows the four-stage design by
  the cycle's 60 ``seeded_additions`` (drawn in turn from one
  ``default_rng(seed)``), and every grown state is saved and loaded, as
  ``cascadepass add`` does, then fed and grown further;
* the 40 designs ``random_cascade(1 + k % 8, default_rng(12345))``, the
  second half of ``tools/verdicts.py``'s ``random_nets``.

``feed`` also rebuilds each state through the public constructor, which
derives every M_cl afresh, and fails unless every record comes back bit
for bit. A change that keeps every record bit for bit, in a design and in
a load, leaves the hash unchanged. The script also prints how many times the
local search ran ``lmi.minimize`` over those states, one Newton centering
per barrier round, a count that does not depend on the hardware, as
``tools/verdicts.py``'s ``recording`` counts it. Run from the repository
root (about 8 s):

    python3 tools/record_hash.py
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from itertools import islice
from pathlib import Path

# The package's matrices are small, and OpenBLAS threads only add
# synchronization: one thread runs faster on few cores, with the same
# hash.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "tests", "perfbench"):
    sys.path.insert(0, str(ROOT / sub))

import numpy as np  # noqa: E402

from cascadepass import files, protocol  # noqa: E402
from test_record_hash import feed  # noqa: E402
from verdicts import random_nets, recording  # noqa: E402
from workloads import GROWTH, fixed_design, seeded_additions  # noqa: E402

SEEDS = (1, 2, 3)
CYCLES = 4


def hashed_states(path: Path):
    """Every state the hash is fed, in order; each grown state passes
    through a save to path and a load."""
    fixed = fixed_design()
    yield fixed
    last, first = fixed.net.subsystems[-1], fixed.net.n_subsystems + 1
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(CYCLES):
            state = fixed
            for addition in seeded_additions(rng, last, first, GROWTH):
                files.save_state(protocol.add_subsystem(state, *addition), path)
                state = files.load_state(path)
                yield state
    # random_nets yields the 40 designs of default_rng(0) first.
    for _, net in islice(random_nets(), 40, None):
        yield protocol.run_cascade_design(net)


def record_hash() -> tuple[str, int, int]:
    """The hex digest, the number of states fed and the lmi.minimize runs
    (Newton centerings)."""
    digest, states = hashlib.sha256(), 0
    with recording([]) as effort, tempfile.TemporaryDirectory() as tmp:
        for state in hashed_states(Path(tmp) / "state.json"):
            feed(digest, state)
            states += 1
    return digest.hexdigest(), states, effort["centerings"]


if __name__ == "__main__":
    hexdigest, states, runs = record_hash()
    print(f"{hexdigest}  ({states} states, {runs} lmi.minimize runs (Newton centerings))")
