"""Centralized checks and simulation for a designed cascade.

Everything here works on the assembled global system, deliberately
sidestepping the per-step recursion: the protocol claims state-strict
passivity of the closed loop, and this module re-derives that claim from
the global matrices (algebraically via centralized_sp_check) and from
time-domain trajectories (via simulate and dissipation_margin).
simulate steps the linear loop exactly for a disturbance held linear
between its grid samples, from one matrix exponential per call, so a
trajectory carries no integration error and no step size makes a
certified loop diverge; only the trapezoid supply in dissipation_margin
depends on the step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import blockla
from .model import _frozen, _stack_network
from .protocol import NetworkDesignState, _state_gains, _storage_test

__all__ = [
    "NonFiniteTrajectory",
    "TrajectoryTooLarge",
    "ClosedLoopSystem",
    "Certificate",
    "Trajectory",
    "SineDisturbance",
    "assemble_closed_loop",
    "sp_matrix",
    "centralized_sp_check",
    "worst_start",
    "simulate",
    "dissipation_margin",
    "export_trajectory_csv",
]


class NonFiniteTrajectory(ArithmeticError):
    """A trajectory or its step map left the finite range."""


class TrajectoryTooLarge(ValueError):
    """A horizon whose trajectory would exceed MAX_TRAJECTORY_BYTES."""


# Largest trajectory simulate returns: (S + 1) rows of t, x, y, w and V.
MAX_TRAJECTORY_BYTES = 1 << 30
WAVES = 5  # sinusoids per channel of SineDisturbance.from_seed


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Global closed-loop dynamics with its storage certificate.

    Acl already folds in both the physical couplings and the designed
    gains; B2 and C are the block-diagonal disturbance and output maps;
    Q is the block-diagonal storage; epsilon is the weakest per-subsystem
    rate, the one the global certificate can promise.
    """

    Acl: np.ndarray
    B2: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    epsilon: float

    def __post_init__(self):
        for name in ("Acl", "B2", "C", "Q"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        n = self.Acl.shape[0]
        if self.Acl.shape != (n, n):
            raise ValueError("Acl must be square")
        if self.B2.shape[0] != n or self.C.shape[1] != n or self.Q.shape != (n, n):
            raise ValueError("closed-loop matrix shapes are inconsistent")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")

    @property
    def n(self) -> int:
        return self.Acl.shape[0]

    @property
    def m(self) -> int:
        return self.B2.shape[1]


@dataclass(frozen=True)
class Certificate:
    """Outcome of the centralized check."""

    w_min_eig: float
    eq_residual: float
    verdict: bool
    reasons: tuple[str, ...] = ()

    def __str__(self):
        status = "pass" if self.verdict else "fail"
        line = f"{status}: w_min_eig={self.w_min_eig:.6e} eq_residual={self.eq_residual:.6e}"
        if self.reasons:
            line += " [" + ", ".join(self.reasons) + "]"
        return line


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid trajectory with outputs, disturbance and storage value."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        for name in ("t", "x", "y", "w", "V"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @classmethod
    def _from_built(cls, **arrays) -> "Trajectory":
        """A trajectory of float arrays that simulate has just made and
        shares with no one: they are made read-only in place, not copied."""
        traj = object.__new__(cls)
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(traj, name, a)
        return traj


@dataclass(frozen=True)
class SineDisturbance:
    """Per-channel sum of unit-amplitude sinusoids, WAVES from a seed.

    Channel c at time t is the sum over waves w of
    sin(freqs[c, w] t + phases[c, w]). Calling the disturbance samples it
    at any times; on_grid samples it on a uniform grid, the way simulate
    does, with far fewer sine evaluations.
    """

    freqs: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "freqs", _frozen(self.freqs))
        object.__setattr__(self, "phases", _frozen(self.phases))
        if self.freqs.shape != self.phases.shape or self.freqs.ndim != 2:
            raise ValueError("freqs and phases must share one (channels, waves) shape")

    @classmethod
    def from_seed(cls, channels: int, seed: int) -> "SineDisturbance":
        rng = np.random.default_rng(seed)
        freqs = rng.uniform(0.1, 10.0, size=(channels, WAVES))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(channels, WAVES))
        return cls(freqs=freqs, phases=phases)

    def __call__(self, t) -> np.ndarray:
        """Samples at a scalar time, shape (channels,), or at an array of
        times, shape t.shape + (channels,).

        The waves are added in place one at a time, in the order a sum
        over the wave axis adds them, without a (times, channels, waves)
        array.
        """
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + self.freqs.shape[:1])
        for f, p in zip(self.freqs.T, self.phases.T):
            out += np.sin(np.multiply.outer(t, f) + p)
        return out

    def on_grid(self, step: float, count: int) -> np.ndarray:
        """Samples at the count times k step, k = 0 .. count - 1, shape
        (count, channels).

        On a uniform grid each wave factors by angle addition. Write
        k = bL + j with L = isqrt(count), 0 <= j < L and b < nb =
        ceil(count / L), and take the coarse angles a_b = f (bL step) + p
        and the fine angles r_j = f (j step). Then

            sin(a_b + r_j) = sin(a_b) cos(r_j) + cos(a_b) sin(r_j),

        so a channel's samples, summed over its W waves, are one matrix
        product [sin a, cos a] (nb x 2W) @ [cos r, sin r]' (2W x L). That
        takes 2 (nb + L) W sines and cosines per channel instead of count W.

        The angle is rounded in two parts instead of one, so the samples
        agree with __call__ at the same times to a few units in the last
        place of the largest angle f t + p: within 1e-12 for horizons
        (count - 1) step <= 20 at the frequencies from_seed draws.
        Raises ValueError for count < 1 or a non-finite step.
        """
        count = operator.index(count)
        step = float(step)
        if count < 1 or not math.isfinite(step):
            raise ValueError(f"need count >= 1 and a finite step, got {count} and {step}")
        L = math.isqrt(count)
        nb = -(-count // L)
        # (times, channels, waves) angles, then (channels, times, 2W) factors.
        coarse = np.multiply.outer((np.arange(nb) * L) * step, self.freqs) + self.phases
        fine = np.multiply.outer(np.arange(L) * step, self.freqs)
        left = np.concatenate((np.sin(coarse), np.cos(coarse)), axis=2).transpose(1, 0, 2)
        right = np.concatenate((np.cos(fine), np.sin(fine)), axis=2).transpose(1, 2, 0)
        samples = (left @ right).reshape(self.freqs.shape[0], nb * L)
        return samples[:, :count].T


def assemble_closed_loop(state: NetworkDesignState) -> ClosedLoopSystem:
    """Fold the designed gains into the global system.

    A state holds one record per subsystem, each storage and gain of the
    shape its subsystems give it (NetworkDesignState checks both), so
    every block lands in place; the state's network is already validated.
    """
    glob = _stack_network(state.net)
    n_total = glob.A.shape[0]
    p_total = glob.B1.shape[1]
    n_starts = np.concatenate(([0], np.cumsum(glob.state_sizes)))
    p_starts = np.concatenate(([0], np.cumsum(glob.input_sizes)))

    K = np.zeros((p_total, n_total))
    for (i, j), gain in _state_gains(state).items():
        K[p_starts[i - 1]:p_starts[i], n_starts[j - 1]:n_starts[j]] = gain

    Acl = glob.A + glob.B1 @ glob.H + glob.B3 @ K
    Q = np.zeros((n_total, n_total))
    for k, rec in enumerate(state.records):
        Q[n_starts[k]:n_starts[k + 1], n_starts[k]:n_starts[k + 1]] = rec.Q
    return ClosedLoopSystem(
        Acl=Acl, B2=glob.B2, C=glob.C, Q=Q, epsilon=state.global_epsilon
    )


def sp_matrix(cl: ClosedLoopSystem) -> np.ndarray:
    """-(Acl'Q + Q Acl) - 2 eps I, whose positive semidefiniteness certifies
    the supply rate: with Q B2 = C' and V = x'Qx / 2, dV/dt = w'y minus half
    the quadratic form of -(Acl'Q + Q Acl), so the matrix is PSD exactly when
    dV/dt <= w'y - eps x'x for every x and w."""
    return -(cl.Acl.T @ cl.Q + cl.Q @ cl.Acl) - 2.0 * cl.epsilon * np.eye(cl.n)


def centralized_sp_check(cl: ClosedLoopSystem) -> Certificate:
    """Algebraic pass/fail for state-strict passivity of the closed loop.

    Pass requires a proof that the exact certificate matrix of the stored
    Acl, Q and epsilon is positive semidefinite: a floating-point Cholesky
    factorization of D W D, W its symmetrized float value, shifted down by
    blockla.rounding_shift, must meet only positive pivots. D = diag(d)
    holds the power of two nearest 1 / sqrt|W_ii| (1 where W_ii is 0 or not
    finite), so each block is judged against the rounding of its own
    entries, not of the largest block's. Pass also requires the
    storage tests a design step and a load apply
    (protocol._storage_test), on the dense Q, B2 and C: for every output
    channel j, max_i |(Q B2 - C')_ij| <= 1e-8 * max(1, max_i |C_ji|), and
    Q positive definite, each pivot above its own row's floor, which judges
    each record at its own scale, as a design step and a load do. The
    certificate is then exact for the output map (Q B2)', which
    eq_residual, max |Q B2 - C'|, compares with C. w_min_eig, W's smallest
    eigenvalue, is reported, not tested.
    """
    W = blockla.symmetric_part(sp_matrix(cl), "W")
    w_min = np.linalg.eigvalsh(W)[0]
    # W_ii = m 2^e with 1/2 <= |m| < 1, so d_i = 2^-(e // 2) leaves d_i^2 |W_ii|
    # in [1/2, 2); frexp gives e = 0 for 0, inf and nan.
    d = np.ldexp(1.0, -(np.frexp(np.diagonal(W))[1] >> 1))
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.multiply.outer(d, d) * W
    shift = blockla.rounding_shift(cl.Acl, cl.Q, cl.epsilon, scaled, d)
    equal, positive, gap, _ = _storage_test(cl.Q, cl.B2, cl.C)

    reasons = []
    if not blockla._cholesky_passes(scaled - shift * np.eye(cl.n), 0.0):
        reasons.append("MatrixNotPositive")
    if not equal:
        reasons.append("EqualityResidual")
    if not positive:
        reasons.append("StorageNotPositiveDefinite")
    return Certificate(
        w_min_eig=float(w_min),
        eq_residual=float(gap.max()),
        verdict=not reasons,
        reasons=tuple(reasons),
    )


def worst_start(cl: ClosedLoopSystem) -> tuple[float, np.ndarray]:
    """The storage's true rate r = lambda_min(-(Acl'Q + Q Acl)) / 2 and its
    unit eigenvector, the start where the storage decays slowest.

    Started there with no disturbance, the dissipation slack grows at rate
    (r - rate) |x0|^2 at t = 0, so any claimed rate above r shows at once.
    """
    lam, vecs = np.linalg.eigh(-0.5 * (cl.Acl.T @ cl.Q + cl.Q @ cl.Acl))
    return float(lam[0]), vecs[:, 0]


def _hold_maps(A: np.ndarray, B: np.ndarray, h: float):
    """Phi and the C-ordered transposes G0' and G1' of the maps of one
    exact step of x' = A x + B w(t) with w linear over the step:
    x(t+h) = Phi x(t) + G0 w(t) + G1 w(t+h).

    They are blocks of one matrix exponential (C. Van Loan, "Computing
    integrals involving the matrix exponential", IEEE TAC 23 (1978)):

        expm([[Ah, Bh, 0], [0, 0, I], [0, 0, 0]])
            = [[Phi, Gamma1, Gamma2], [0, I, I], [0, 0, I]],

    where Gamma1 is the response to a constant w and Gamma2 to one that
    rises from 0 to 1 over the step, so G0 = Gamma1 - Gamma2 and G1 =
    Gamma2. Raises NonFiniteTrajectory if h A or h B overflows.
    """
    n, m = B.shape
    block = np.zeros((n + 2 * m, n + 2 * m))
    with np.errstate(over="ignore"):
        block[:n, :n] = h * A
        block[:n, n:n + m] = h * B
    block[n:n + m, n + m:] = np.eye(m)
    try:
        E = blockla.expm(block)
    except blockla.NonFiniteMatrix:
        raise NonFiniteTrajectory(f"the step map of h = {h:.6g} left the finite range") from None
    Gamma2 = E[:n, n + m:]
    # matmul takes a C-ordered right factor about twice as fast as the
    # transposed view.
    return E[:n, :n], np.ascontiguousarray((E[:n, n:n + m] - Gamma2).T), np.ascontiguousarray(Gamma2.T)


# _affine_scan runs at most this many rows by a direct loop.
_DIRECT_ROWS = 16


def _block_length(rows: int) -> int:
    """Steps per block when _affine_scan splits rows: the nearest integer
    to the cube root, the length that measured fastest."""
    return round(rows ** (1.0 / 3.0))


def _scan_rows(steps: int) -> int:
    """The fewest rows, at least steps, that _affine_scan can take: steps
    itself up to _DIRECT_ROWS, else the first count its block length
    divides (at most a block more)."""
    rows = steps
    while rows > _DIRECT_ROWS and rows % _block_length(rows):
        rows += 1
    return rows


def _as_rows(a: np.ndarray) -> np.ndarray:
    """a (..., n) with contiguous rows, viewed with each row as one
    n-float element, so that a copy moves whole rows at a time."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[-1])))[..., 0]


def _affine_scan(Phi: np.ndarray, x0: np.ndarray, f: np.ndarray, work: np.ndarray | None = None) -> None:
    """Overwrite each row f[k] with x[k+1] of x[k+1] = Phi x[k] + f[k],
    x[0] = x0.

    f is a C-contiguous (rows, n) array with rows = _scan_rows(S) for S
    steps, its rows past S zero. Up to _DIRECT_ROWS rows a direct loop
    runs them. Otherwise the rows are cut into nb blocks of L =
    _block_length(rows) steps:

    1. the zero-state end of every block but the last, as one product:
       the blocks' forcing rows, flattened to (nb - 1, L n), times the
       powers (Phi^(L-1))' .. (Phi^0)' stacked to (L n, n), which about
       log2(L) batched matmuls build by doubling;
    2. the states entering the blocks, which follow the same recurrence
       with Phi^L over those nb - 1 ends: this function, called on them;
    3. one sweep, x[k+1] = Phi x[k] + f[k] row by row in every block at
       once, the first row of a block from its entering state (L matmuls
       over nb rows). It runs on a copy of the rows in (L, nb, n) order,
       in work (C-contiguous, at least rows rows) when given, so that
       each step reads and adds contiguous rows: in place, a step's
       (nb, n) add over rows a block apart runs numpy's inner loop only
       n entries at a time. Both copies move whole rows (_as_rows).

    A level sweeps about the cube root of its rows and leaves about
    rows^(2/3) to the next, so S steps take fewer than 3 S^(1/3) Python
    iterations: about 60 at S = 20000, where one level of sqrt(S) blocks
    takes 2 sqrt(S) = 283.
    """
    rows, n = f.shape
    # matmul takes a C-ordered right factor about twice as fast as the
    # transposed view.
    Phi_T = np.ascontiguousarray(Phi.T)
    # A state of no entries has no row view for the sweep's copies.
    if rows <= _DIRECT_ROWS or n == 0:
        prev = x0
        for k in range(rows):
            f[k] += prev @ Phi_T
            prev = f[k]
        return
    L = _block_length(rows)
    nb = rows // L
    # blocks[b, i] is f[bL + i], a view of f.
    blocks = f.reshape((nb, L, n), copy=False)

    # powers_T[j] is (Phi^j)' for j < L, filled by doubling: each pass
    # multiplies the k powers so far by (Phi^k)'.
    powers_T = np.empty((L, n, n))
    powers_T[0] = np.eye(n)
    step_T, k = Phi_T, 1
    while k < L:
        j = min(k, L - k)
        np.matmul(powers_T[:j], step_T, out=powers_T[k:k + j])
        step_T, k = step_T @ step_T, k + j
    PhiL_T = powers_T[L - 1] @ Phi_T

    # entering[b] is x[bL], the state entering block b: x0, then the
    # scan of the first nb - 1 blocks' zero-state ends under Phi^L.
    entering = np.empty((1 + _scan_rows(nb - 1), n))
    entering[0] = x0
    entering[nb:] = 0.0
    np.matmul(blocks[:-1].reshape(nb - 1, L * n), powers_T[::-1].reshape(L * n, n), out=entering[1:nb])
    _affine_scan(PhiL_T.T, x0, entering[1:])

    # sweep[i, b] is x[bL + i + 1] once step i is done.
    sweep = np.empty((L, nb, n)) if work is None else work[:rows].reshape(L, nb, n)
    np.copyto(_as_rows(sweep), _as_rows(blocks).T)
    row = entering[:nb] @ Phi_T
    sweep[0] += row
    for i in range(1, L):
        np.matmul(sweep[i - 1], Phi_T, out=row)
        sweep[i] += row
    np.copyto(_as_rows(blocks), _as_rows(sweep).T)


def simulate(cl: ClosedLoopSystem, disturbance, x0=None, T: float = 20.0, dt: float = 1e-3) -> Trajectory:
    """Step the closed loop exactly under a disturbance held linear
    between grid samples.

    T, dt and T / dt must be positive and finite (ValueError otherwise,
    before any sampling), and the returned trajectory, (S + 1)(2 + n + 2m)
    float64 entries, at most MAX_TRAJECTORY_BYTES (TrajectoryTooLarge
    otherwise, before any allocation). The step is nudged so the horizon
    lands exactly on the grid of S steps of length h. The disturbance is
    sampled once, at the S+1 grid times t_k = k h: by its on_grid(h, S+1)
    method when it has one, as SineDisturbance does, and otherwise by one
    call with the read-only 1-D array of those times. The samples come
    back as an (S+1, cl.m) array, or a (cl.m,) vector for a constant
    disturbance; any other shape raises ValueError.

    Between samples w is taken as linear (a first-order hold), and the
    linear loop x' = Acl x + B2 w is then solved exactly over each step:
    x[k+1] = Phi x[k] + f[k] with

        Phi  = e^{Acl h}
        f[k] = G0 w(t_k) + G1 w(t_{k+1})

    from one matrix exponential (_hold_maps). So no step size makes a
    Hurwitz loop diverge, and NonFiniteTrajectory means a loop that is
    not Hurwitz, a non-finite disturbance, or a step map that overflows.
    The forcing f is two matmuls over the samples, written into rows
    1..S of x. x is allocated once, with the zero rows _scan_rows pads it
    by, and _affine_scan solves the recurrence in place, in fewer than
    3 S^(1/3) Python iterations, by a recursive blocked scan (the
    prefix-scan decomposition of G. E. Blelloch, "Prefix sums and their
    applications", CMU-CS-90-190, 1990). One scratch array of x's size
    serves the second forcing product, the scan's sweep and x Q in turn.
    The returned Trajectory holds the arrays built here, made read-only
    rather than copied; none shares memory with x0 or with what the
    disturbance returned.
    """
    T, dt = float(T), float(dt)
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf and T / dt < math.inf):
        raise ValueError(f"T, dt and T / dt must be positive and finite, got {T} and {dt}")
    n, m = cl.n, cl.m
    if x0 is None:
        x0 = np.zeros(n)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have {n} entries, got {x0.shape}")

    steps = max(1, int(round(T / dt)))
    max_steps = MAX_TRAJECTORY_BYTES // ((2 + n + 2 * m) * 8) - 1
    if steps > max_steps:
        raise TrajectoryTooLarge(
            f"T / dt = {T / dt:.15g} steps exceed the {max_steps} that a "
            f"{MAX_TRAJECTORY_BYTES}-byte trajectory allows"
        )
    h = T / steps
    t = np.arange(steps + 1, dtype=float)
    t *= h
    t.flags.writeable = False

    # A loop that is not Hurwitz, or a disturbance that overflows (a sine's
    # angles do on a long enough grid), gives non-finite values; that is
    # reported once, below, as NonFiniteTrajectory rather than as a warning
    # per operation.
    with np.errstate(over="ignore", invalid="ignore"):
        if hasattr(disturbance, "on_grid"):
            w = disturbance.on_grid(h, steps + 1)
        else:
            w = disturbance(t)
        # A copy, so the trajectory shares no memory with what the
        # disturbance returned, in the memory order it came in: copying
        # on_grid's transposed samples into C order would take five times
        # as long.
        w = np.array(w, dtype=float, order="K")
        if w.shape == (m,):
            w = np.broadcast_to(w, (steps + 1, m)).copy()
        elif w.shape != (steps + 1, m):
            raise ValueError(
                f"disturbance must return shape ({steps + 1}, {m}) or ({m},), got {w.shape}"
            )

        Phi, G0_T, G1_T = _hold_maps(cl.Acl, cl.B2, h)
        x = np.empty((1 + _scan_rows(steps), n))
        x[0] = x0
        x[steps + 1:] = 0.0
        # One scratch array holds the second forcing product, the scan's
        # sweep, then x Q.
        scratch = np.empty_like(x)
        forcing = x[1:steps + 1]
        np.matmul(w[:-1], G0_T, out=forcing)
        forcing += np.matmul(w[1:], G1_T, out=scratch[:steps])
        _affine_scan(Phi, x0, x[1:], scratch)

    x = x[:steps + 1]
    # min and max propagate NaN, so the two test finiteness without a
    # mask the size of x.
    if not (math.isfinite(x.min(initial=0.0)) and math.isfinite(x.max(initial=0.0))):
        raise NonFiniteTrajectory("state trajectory left the finite range")

    V = np.einsum("ki,ki->k", np.matmul(x, cl.Q, out=scratch[:steps + 1]), x)
    V *= 0.5
    del scratch  # so that y can take its memory
    y = x @ np.ascontiguousarray(cl.C.T)
    return Trajectory._from_built(t=t, x=x, y=y, w=w, V=V)


# Quadrature tolerance on the dissipation slack: a trajectory whose
# dissipation_margin falls below -SLACK_TOL violates the claimed rate.
SLACK_TOL = 1e-6


def dissipation_margin(traj: Trajectory, epsilon: float) -> float:
    """Worst slack of the integrated dissipation inequality along the grid.

    For each grid time the trapezoid rule approximates the supplied energy
    minus the state-strict discount, and the storage increment is
    subtracted. The minimum over the grid (zero at the start, so never
    positive) certifies the trajectory when it stays above -SLACK_TOL.
    """
    slack = np.einsum("kn,kn->k", traj.x, traj.x)
    slack *= -epsilon
    slack += np.einsum("km,km->k", traj.w, traj.y)
    # The supply becomes the trapezoid increments in place; numpy reads
    # the overlapping slack[:-1] as it was before the sum.
    slack[1:] += slack[:-1]
    slack[1:] *= np.diff(traj.t)
    slack[1:] *= 0.5
    slack[0] = 0.0
    np.cumsum(slack, out=slack)
    slack -= traj.V
    return float(slack.min() + traj.V[0])


def export_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the trajectory as CSV with 17 significant digits per value."""
    n = traj.x.shape[1]
    m = traj.y.shape[1]
    header = (
        ["t"]
        + [f"x{i}" for i in range(1, n + 1)]
        + [f"y{j}" for j in range(1, m + 1)]
        + [f"w{j}" for j in range(1, m + 1)]
        + ["V"]
    )
    table = np.column_stack((traj.t, traj.x, traj.y, traj.w, traj.V))
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
