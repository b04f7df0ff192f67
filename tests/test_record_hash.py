"""Design records are pinned bit for bit.

The digest is the record hash that tools/verdicts.py prints on its
`record hash:` line over every state its campaign builds: one SHA-256
fed, per state in order and per record in order, str(index), the route,
float.hex(epsilon), then the tobytes() of Q, M_cl, K_self, K_to_prev and
K_prev_to_self, with b"<None>" for an absent gain. Each state is also
rebuilt through the public constructor, which must give every record bit
for bit. The states here are the four-stage design, 8 random_cascade(1 +
k % 8) designs on one default_rng(12345), and every state of a 10-step
growth of the four-stage design by the benchmark's
seeded_additions(default_rng(1)), each step saved and loaded as
`cascadepass add` does. A change that moves any record fails here; such
a change updates PINNED and says so in CHANGES.md. Two fresh
interpreters, one with one OpenBLAS thread and one with two, must
compute the same digest.
"""

import hashlib
from pathlib import Path

import numpy as np

from cascadepass import files, protocol
from cascadepass.sample_cascades import four_stage_cascade, random_cascade
from test_imports import run_fresh

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
PINNED = "8129511ec620fcbd55b47a66aa753b7fbd835b2b3f42fc1f988bfff324a4343f"


def record_bytes(state):
    """The bytes the digest is fed for the records of state, in order."""
    for rec in state.records:
        yield str(rec.index).encode()
        yield rec.route.encode()
        yield float.hex(rec.epsilon).encode()
        for a in (rec.Q, rec.M_cl, rec.K_self, rec.K_to_prev, rec.K_prev_to_self):
            yield b"<None>" if a is None else a.tobytes()


def feed(digest, state):
    """Feed the records of state to digest, once rebuilding state through
    the public constructor, which derives each M_cl afresh, has given every
    record bit for bit."""
    chunks = list(record_bytes(state))
    rebuilt = protocol.NetworkDesignState(net=state.net, records=state.records)
    assert list(record_bytes(rebuilt)) == chunks, "a rebuilt state's records differ"
    for chunk in chunks:
        digest.update(chunk)


def pinned_digest(tmp_path) -> str:
    """The hex digest of the states the module docstring lists; the
    benchmark's workloads module must be importable."""
    from workloads import seeded_additions

    digest = hashlib.sha256()
    fixed = protocol.run_cascade_design(four_stage_cascade())
    feed(digest, fixed)
    rng = np.random.default_rng(12345)
    for k in range(8):
        feed(digest, protocol.run_cascade_design(random_cascade(1 + k % 8, rng)))
    state = fixed
    path = tmp_path / "state.json"
    additions = seeded_additions(
        np.random.default_rng(1), fixed.net.subsystems[-1], fixed.net.n_subsystems + 1, 10
    )
    for addition in additions:
        files.save_state(protocol.add_subsystem(state, *addition), path)
        state = files.load_state(path)
        feed(digest, state)
    assert state.net.n_subsystems == 14
    return digest.hexdigest()


def test_records_match_the_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert pinned_digest(tmp_path) == PINNED


def test_the_digest_does_not_depend_on_the_blas_thread_count(tmp_path):
    # Runs stay deterministic: OpenBLAS splits larger products across its
    # threads, and a product whose bits followed the split would move records.
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        digests.append(run_fresh(
            "import json, sys\n"
            f"sys.path[:0] = [{str(TESTS)!r}, {str(PERFBENCH)!r}]\n"
            "from pathlib import Path\n"
            "from test_record_hash import pinned_digest\n"
            f"print(json.dumps(pinned_digest(Path({str(out)!r}))))\n",
            OPENBLAS_NUM_THREADS=threads,
        ))
    assert digests[0] == digests[1]
