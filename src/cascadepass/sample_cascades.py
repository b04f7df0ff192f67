"""Worked cascade instances shared by the tests and the demo scripts.

The four-stage benchmark mixes stable and unstable subsystems and couples
them strongly enough that a sequential design has to take both routes:
some steps verify as they stand, others need synthesized gains.
"""

from __future__ import annotations

import numpy as np

from .model import CascadeNetwork, Subsystem

__all__ = [
    "four_stage_cascade",
    "two_stage_scalar_cascade",
    "addition_blocks",
    "random_cascade",
]

# random_cascade draws each state size from 1..MAX_STATE and scales each
# standard normal coupling block by COUPLING_SCALE.
MAX_STATE = 3
COUPLING_SCALE = 0.3


def _stage_one() -> Subsystem:
    return Subsystem(
        A=[[-9.0, 1.0], [5.0, 7.0]],
        B1=[[1.0], [1.0]],
        B2=[[1.0], [0.5]],
        B3=[[1.0], [1.0]],
        C=[[3.0, 2.0]],
    )


def _stage_two() -> Subsystem:
    return Subsystem(A=3.0, B1=1.0, B2=1.0, B3=1.0, C=1.0)


def _stage_three() -> Subsystem:
    return Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=1.0)


def _stage_four() -> Subsystem:
    return Subsystem(
        A=[[2.0, 1.0], [3.0, 0.8]],
        B1=[[1.2], [0.8]],
        B2=[[0.5], [-0.2]],
        B3=[[1.2], [0.8]],
        C=[[2.1, 0.6]],
    )


_FOUR_STAGE_COUPLINGS = {
    (1, 1): [[0.5, -0.7]],
    (1, 2): [[0.1]],
    (2, 1): [[1.0, -0.5]],
    (2, 2): [[0.5]],
    (2, 3): [[-0.1]],
    (3, 2): [[-0.7]],
    (3, 3): [[0.2]],
    (3, 4): [[0.2, 0.2]],
    (4, 3): [[-0.9]],
    (4, 4): [[1.1, 0.4]],
}


def four_stage_cascade(count: int = 4) -> CascadeNetwork:
    """The benchmark cascade, truncated to its first count subsystems."""
    if not 1 <= count <= 4:
        raise ValueError("count must be between 1 and 4")
    stages = [_stage_one(), _stage_two(), _stage_three(), _stage_four()]
    couplings = {
        key: block
        for key, block in _FOUR_STAGE_COUPLINGS.items()
        if key[0] <= count and key[1] <= count
    }
    return CascadeNetwork.from_blocks(stages[:count], couplings)


def two_stage_scalar_cascade() -> CascadeNetwork:
    """Two stable scalar subsystems chained by a unit coupling."""
    sub = Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=1.0, C=1.0)
    return CascadeNetwork.from_blocks([sub, sub], {(2, 1): [[1.0]]})


def addition_blocks():
    """Pieces for growing the three-stage benchmark into the four-stage one.

    Returns (new_sub, h_self, h_prev, h_to_new): the fourth subsystem, its
    self coupling h(4,4), the upstream coupling h(4,3) and the new column
    h(3,4) of the existing last subsystem.
    """
    return (
        _stage_four(),
        _FOUR_STAGE_COUPLINGS[(4, 4)],
        _FOUR_STAGE_COUPLINGS[(4, 3)],
        _FOUR_STAGE_COUPLINGS[(3, 4)],
    )


def random_cascade(count: int, rng: np.random.Generator) -> CascadeNetwork:
    """Draw a random cascade on which synthesis is almost surely feasible.

    Each subsystem gets a planted positive definite storage candidate Q0
    and an output matrix C = (Q0 B2)', so the storage equality always has
    a positive definite solution. The control input is given as many
    channels as states, leaving synthesis enough freedom; drift matrices
    mix stable and unstable draws.
    """
    subs = []
    sizes = []
    for _ in range(count):
        n = int(rng.integers(1, MAX_STATE + 1))
        m = int(rng.integers(1, 3))
        G = rng.normal(size=(n, n))
        Q0 = G @ G.T + (0.5 + rng.uniform()) * np.eye(n)
        B2 = rng.normal(size=(n, m))
        C = (Q0 @ B2).T
        A = rng.normal(size=(n, n)) - rng.uniform(0.0, 2.0) * np.eye(n)
        B1 = rng.normal(size=(n, n))
        B3 = rng.normal(size=(n, n))
        subs.append(Subsystem(A=A, B1=B1, B2=B2, B3=B3, C=C))
        sizes.append(n)

    couplings = {}
    for i in range(1, count + 1):
        for j in (i - 1, i, i + 1):
            if 1 <= j <= count and rng.uniform() < 0.8:
                p_i = subs[i - 1].p
                couplings[(i, j)] = COUPLING_SCALE * rng.normal(size=(p_i, sizes[j - 1]))
    return CascadeNetwork.from_blocks(subs, couplings)
