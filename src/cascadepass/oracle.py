"""Centralized checks and simulation for a designed cascade.

Everything here works on the assembled global system, deliberately
sidestepping the per-step recursion: the protocol claims state-strict
passivity of the closed loop, and this module re-derives that claim from
the global matrices (algebraically via centralized_sp_check) and from
time-domain trajectories (via simulate and dissipation_margin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from . import blockla
from .model import _frozen, assemble_global
from .protocol import NetworkDesignState, _state_gains

__all__ = [
    "IncompleteState",
    "NonFiniteTrajectory",
    "ClosedLoopSystem",
    "Certificate",
    "Trajectory",
    "SineDisturbance",
    "assemble_closed_loop",
    "sp_matrix",
    "centralized_sp_check",
    "simulate",
    "dissipation_margin",
    "export_trajectory_csv",
]


class IncompleteState(ValueError):
    """A design state whose records do not cover the network."""


class NonFiniteTrajectory(ArithmeticError):
    """Numerical integration produced an overflow or NaN."""


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


@dataclass(frozen=True)
class SineDisturbance:
    """Per-channel sum of five unit-amplitude sinusoids."""

    freqs: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "freqs", _frozen(self.freqs))
        object.__setattr__(self, "phases", _frozen(self.phases))
        if self.freqs.shape != self.phases.shape or self.freqs.ndim != 2:
            raise ValueError("freqs and phases must share one (channels, waves) shape")

    @classmethod
    def from_seed(cls, channels: int, seed: int, waves: int = 5) -> "SineDisturbance":
        rng = np.random.default_rng(seed)
        freqs = rng.uniform(0.1, 10.0, size=(channels, waves))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(channels, waves))
        return cls(freqs=freqs, phases=phases)

    def __call__(self, t: float) -> np.ndarray:
        return np.sin(self.freqs * t + self.phases).sum(axis=1)


def assemble_closed_loop(state: NetworkDesignState) -> ClosedLoopSystem:
    """Fold the designed gains into the global system."""
    net = state.net
    if len(state.records) != net.n_subsystems:
        raise IncompleteState(
            f"{net.n_subsystems} subsystems but {len(state.records)} records"
        )
    for rec, sub in zip(state.records, net.subsystems):
        if rec.Q.shape != (sub.n, sub.n):
            raise IncompleteState(
                f"record {rec.index} has storage shape {rec.Q.shape}, subsystem has {sub.n} states"
            )
    glob = assemble_global(net)
    n_total = glob.A.shape[0]
    p_total = glob.B1.shape[1]
    n_starts = np.concatenate(([0], np.cumsum(glob.state_sizes)))
    p_starts = np.concatenate(([0], np.cumsum(glob.input_sizes)))

    K = np.zeros((p_total, n_total))
    for (i, j), gain in _state_gains(state).items():
        K[p_starts[i - 1]:p_starts[i], n_starts[j - 1]:n_starts[j]] = gain

    Acl = glob.A + glob.B1 @ glob.H + glob.B3 @ K
    Q = block_diag(*[rec.Q for rec in state.records])
    return ClosedLoopSystem(
        Acl=Acl, B2=glob.B2, C=glob.C, Q=Q, epsilon=state.global_epsilon
    )


def sp_matrix(cl: ClosedLoopSystem) -> np.ndarray:
    """The matrix whose positive semidefiniteness certifies the supply rate."""
    return -(cl.Acl.T @ cl.Q + cl.Q @ cl.Acl) - cl.epsilon * np.eye(cl.n)


def centralized_sp_check(cl: ClosedLoopSystem, margin: float | None = None) -> Certificate:
    """Algebraic pass/fail for state-strict passivity of the closed loop.

    Pass requires the certificate matrix to clear -margin, the storage
    output matching Q B2 = C' to relative precision, and a positive
    definite storage. The default margin scales with the certificate
    matrix itself.
    """
    W = sp_matrix(cl)
    w_min = blockla.min_eigen_sym(W)
    if margin is None:
        margin = 1e-8 * max(1.0, float(np.abs(W).max()))
    eq_residual = float(np.abs(cl.Q @ cl.B2 - cl.C.T).max())
    eq_tol = 1e-8 * max(1.0, float(np.abs(cl.C).max()))

    reasons = []
    if w_min < -margin:
        reasons.append("MatrixNotPositive")
    if eq_residual > eq_tol:
        reasons.append("EqualityResidual")
    try:
        blockla.cholesky_lower(cl.Q)
    except blockla.NotPositiveDefinite:
        reasons.append("StorageNotPositiveDefinite")
    return Certificate(
        w_min_eig=float(w_min),
        eq_residual=eq_residual,
        verdict=not reasons,
        reasons=tuple(reasons),
    )


def simulate(cl: ClosedLoopSystem, disturbance, x0=None, T: float = 20.0, dt: float = 1e-3) -> Trajectory:
    """Integrate the closed loop under a disturbance with fixed-step RK4.

    disturbance is any callable t -> vector of cl.m entries. The step is
    nudged so the horizon lands exactly on the grid.
    """
    if not (T > 0.0 and dt > 0.0):
        raise ValueError("T and dt must be positive")
    n, m = cl.n, cl.m
    if x0 is None:
        x0 = np.zeros(n)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have {n} entries, got {x0.shape}")

    steps = max(1, int(round(T / dt)))
    h = T / steps
    t = np.arange(steps + 1) * h

    # Disturbance sampled once on the half grid; RK4 stage times all fall
    # on it, so each sample is computed exactly once.
    half_t = np.arange(2 * steps + 1) * (0.5 * h)
    w_half = np.empty((2 * steps + 1, m))
    for k, tk in enumerate(half_t):
        wk = np.asarray(disturbance(float(tk)), dtype=float).reshape(-1)
        if wk.shape != (m,):
            raise ValueError(f"disturbance must return {m} entries, got {wk.shape}")
        w_half[k] = wk

    A, B2 = cl.Acl, cl.B2
    x = np.empty((steps + 1, n))
    x[0] = x0
    # An unstable step size overflows; that is reported once, below, as
    # NonFiniteTrajectory rather than as a warning per operation.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            xk = x[k]
            w0 = w_half[2 * k]
            w1 = w_half[2 * k + 1]
            w2 = w_half[2 * k + 2]
            k1 = A @ xk + B2 @ w0
            k2 = A @ (xk + 0.5 * h * k1) + B2 @ w1
            k3 = A @ (xk + 0.5 * h * k2) + B2 @ w1
            k4 = A @ (xk + h * k3) + B2 @ w2
            x[k + 1] = xk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    if not np.all(np.isfinite(x)):
        raise NonFiniteTrajectory("state trajectory left the finite range")

    w = w_half[::2]
    y = x @ cl.C.T
    V = 0.5 * np.einsum("ki,ij,kj->k", x, cl.Q, x)
    return Trajectory(t=t, x=x, y=y, w=w, V=V)


def dissipation_margin(traj: Trajectory, epsilon: float) -> float:
    """Worst slack of the integrated dissipation inequality along the grid.

    For each grid time the trapezoid rule approximates the supplied energy
    minus the state-strict discount, and the storage increment is
    subtracted. The minimum over the grid (zero at the start, so never
    positive) certifies the trajectory when it stays above a small
    quadrature tolerance.
    """
    supply = np.einsum("km,km->k", traj.w, traj.y) - epsilon * np.einsum(
        "kn,kn->k", traj.x, traj.x
    )
    dt = np.diff(traj.t)
    integral = np.concatenate(([0.0], np.cumsum(0.5 * dt * (supply[1:] + supply[:-1]))))
    slack = integral - (traj.V - traj.V[0])
    return float(slack.min())


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
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(traj.t.shape[0]):
            row = np.concatenate(
                ([traj.t[k]], traj.x[k], traj.y[k], traj.w[k], [traj.V[k]])
            )
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
