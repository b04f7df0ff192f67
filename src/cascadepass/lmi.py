"""Affine matrix-inequality feasibility with certified output.

A problem asks for theta in R^v with

    Phi(theta) = Phi_0 + sum_k theta_k Phi_k   positive definite (margin tau).

A bound such as theta_k >= c is stated as the 1x1 diagonal block
theta_k - c of Phi. There are no equality constraints: a caller with one
parametrizes its solutions and poses the problem over the parameters. The
solver maximizes the smallest eigenvalue of Phi by following a log-det
barrier path with damped Newton steps, in numpy alone. The returned point
is always re-certified from scratch; the contract is the certificate, not
the search path. Everything is deterministic: no randomness anywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import blockla
from .model import _frozen

__all__ = [
    "MalformedProblem",
    "AffineFeasibilityProblem",
    "FeasiblePoint",
    "Infeasible",
    "PointCertificate",
    "solve_feasibility",
    "certify_point",
    "sym_vec_size",
    "sym_to_vec",
    "vec_to_sym",
]

_SQRT2 = np.sqrt(2.0)


class MalformedProblem(ValueError):
    """Problem data with inconsistent shapes, asymmetric blocks or no block."""


def sym_vec_size(n: int) -> int:
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=64)
def _triu(n: int):
    """Read-only upper-triangle indices of an n x n matrix, their
    transpose, and the mask of the off-diagonal ones."""
    rows, cols = np.triu_indices(n)
    off = rows != cols
    for a in (rows, cols, off):
        a.flags.writeable = False
    return (rows, cols), (cols, rows), off


def sym_to_vec(S: np.ndarray) -> np.ndarray:
    """Pack a symmetric n x n matrix into its n(n+1)/2 free coordinates.

    Off-diagonal entries are scaled by sqrt(2) so the packing is an isometry:
    dot(sym_to_vec(A), sym_to_vec(B)) equals the Frobenius inner product.
    """
    S = np.asarray(S, dtype=float)
    iu, _, off = _triu(S.shape[0])
    v = S[iu]
    v[off] *= _SQRT2
    return v


def vec_to_sym(v: np.ndarray, n: int) -> np.ndarray:
    iu, il, off = _triu(n)
    vals = np.array(v, dtype=float)
    vals[off] /= _SQRT2
    S = np.zeros((n, n))
    S[iu] = vals
    S[il] = vals
    return S


@dataclass(frozen=True)
class AffineFeasibilityProblem:
    """Affine feasibility data; all blocks are d x d symmetric, d >= 1."""

    var_count: int
    constant_block: np.ndarray
    coeff_blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        v = int(self.var_count)
        if v < 0:
            raise MalformedProblem("var_count must be nonnegative")
        object.__setattr__(self, "var_count", v)

        Phi0 = np.asarray(self.constant_block, dtype=float)
        if Phi0.ndim != 2 or Phi0.shape[0] != Phi0.shape[1]:
            raise MalformedProblem(f"constant_block must be square, got {Phi0.shape}")
        d = Phi0.shape[0]
        if not d:
            raise MalformedProblem("a problem without a matrix block constrains nothing")
        blocks = [Phi0] + [np.asarray(B, dtype=float) for B in self.coeff_blocks]
        if len(blocks) - 1 != v:
            raise MalformedProblem(f"expected {v} coefficient blocks, got {len(blocks) - 1}")
        # Checked as one stack; the first block with a wrong shape, non-finite
        # entries or asymmetry beyond blockla.SYMMETRY_RTOL relative is reported.
        shaped = next((k for k, B in enumerate(blocks) if B.shape != (d, d)), len(blocks))
        stack = np.array(blocks[:shaped])
        flat = stack.reshape(shaped, -1)
        scale = np.maximum(1.0, np.abs(flat).max(axis=1))
        # Finiteness is checked after symmetrizing, which finite entries
        # above about 8.99e307 can overflow. A non-finite block is reported
        # as such, never by its skew.
        with np.errstate(invalid="ignore", over="ignore"):
            skew = np.abs(stack - stack.transpose(0, 2, 1)).reshape(shaped, -1).max(axis=1)
            stack = 0.5 * (stack + stack.transpose(0, 2, 1))
        finite = np.isfinite(stack.reshape(shaped, -1)).all(axis=1)
        bad = np.flatnonzero(~finite | (skew > blockla.SYMMETRY_RTOL * scale))
        if bad.size:
            k = int(bad[0])
            if not finite[k]:
                raise MalformedProblem(f"block {k} has non-finite entries")
            raise MalformedProblem(f"block {k} is not symmetric")
        if shaped < len(blocks):
            raise MalformedProblem(
                f"block {shaped} has shape {blocks[shaped].shape}, expected ({d}, {d})"
            )
        stack.flags.writeable = False
        object.__setattr__(self, "constant_block", stack[0])
        object.__setattr__(self, "coeff_blocks", tuple(stack[1:]))

    @property
    def dim(self) -> int:
        return self.constant_block.shape[0]

    def master(self, theta) -> np.ndarray:
        """Phi(theta)."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.shape != (self.var_count,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({self.var_count},)")
        M = self.constant_block.copy()
        for k, B in enumerate(self.coeff_blocks):
            if theta[k] != 0.0:
                M += theta[k] * B
        return M


@dataclass(frozen=True)
class FeasiblePoint:
    """Certified solution: lambda_min is recomputed from theta, never
    copied out of the search."""

    theta: np.ndarray
    lambda_min: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen(self.theta))


@dataclass(frozen=True)
class Infeasible:
    """Search gave up; carries the best point seen for diagnostics."""

    best_lambda_min: float
    best_theta: np.ndarray
    evaluations: int
    reason: str

    def __post_init__(self):
        object.__setattr__(self, "best_theta", _frozen(self.best_theta))


@dataclass(frozen=True)
class PointCertificate:
    ok: bool
    lambda_min: float
    reasons: tuple[str, ...] = field(default_factory=tuple)


class _TargetReached(Exception):
    pass


# Share of the achieved margin the search gives up: the pull-back may shed
# it, and a barrier round that could add no more is not followed.
SHED = 0.05


def minimize(fun, x0):
    """Minimize a convex ``fun`` by damped Newton from x0; return the last
    iterate.

    ``fun(x)`` returns (value, gradient, Hessian), or None outside its
    domain, which must contain x0. Each step halves the Newton step until
    ``fun`` is defined there and falls by at least a quarter of the
    predicted decrease (Boyd & Vandenberghe, *Convex Optimization*, 2004,
    section 9.5). It stops at a squared Newton decrement of at most 1e-10,
    after 50 steps, or when no step above 1e-12 is accepted. An exception
    raised by ``fun`` propagates.
    """
    x = np.array(x0, dtype=float)
    f, g, H = fun(x.copy())
    for _ in range(50):
        dx = -np.linalg.solve(H, g)
        decrement = -float(g @ dx)
        # A NaN or non-positive decrement is a step no line search can take.
        if not decrement > 1e-10:
            break
        s = 1.0
        while s > 1e-12:
            trial = fun(x + s * dx)
            if trial is not None and trial[0] <= f - 0.25 * s * decrement:
                break
            s *= 0.5
        else:
            break
        x = x + s * dx
        f, g, H = trial
    return x


def solve_feasibility(
    prob: AffineFeasibilityProblem,
    margin: float,
    *,
    target: float | None = None,
):
    """Search for a certified feasible point.

    Returns FeasiblePoint exactly when the search reaches the margin and
    ``certify_point`` accepts the point; its lambda_min is that
    certificate's. Otherwise returns Infeasible with the best point
    found. ``target`` stops the search early once the smallest eigenvalue of
    Phi reaches it; larger targets buy margin for downstream consumers at the
    cost of more iterations.
    """
    scale = max(1.0, float(np.abs(prob.constant_block).max()))
    tau = float(margin)
    if not (tau > 0.0 and np.isfinite(tau)):
        raise MalformedProblem("margin must be positive and finite")
    if target is None:
        target = max(2.0 * tau, 1e-4 * scale)
    target = max(float(target), tau)

    theta, best_lam, norm, evals = _search(prob, tau, target)

    # A point that overflowed on its way back from normalized units
    # certifies nothing.
    if np.isfinite(theta).all():
        cert = certify_point(theta, prob, tau)
        if best_lam >= tau / norm and cert.ok:
            return FeasiblePoint(theta=theta, lambda_min=cert.lambda_min)
    return Infeasible(
        best_lambda_min=best_lam * norm,
        best_theta=theta,
        evaluations=evals,
        reason="Stalled",
    )


def _search(prob: AffineFeasibilityProblem, tau: float, target: float):
    """Maximize the smallest eigenvalue of Phi from theta = 0.

    The search follows the log-det barrier path of "maximize t subject to
    Phi(u) - tI positive definite" (Boyd & Vandenberghe, *Convex
    Optimization*, 2004, chapter 11): round k centers

        phi_w(u, t) = -w t - log det(Phi(u) - tI) + (1e-2 / 2) |u|^2

    by damped Newton (``minimize``) at w = 1e3 * 8^k, from u = 0 and t one
    below lambda_min(Phi(0)), then from each round's end. With d the size
    of Phi, a centered point's t lies within d/w of the best its round
    allows, where the quadratic term weighs 1e-2/w against t, so after a
    round t + d/w bounds the margin any finer round could reach, up to
    that fading term. The search stops as soon as the target is met, and
    after a round when no finer round can change the outcome or raise the
    margin by more than the pull-back gives up:

    * t + d/w < tau: a decline, reported as Stalled;
    * best_lam >= tau and t + d/w - best_lam <= SHED * best_lam: an
      accept, since a finer round adds at most the slice the pull-back
      may shed.

    The point is then pulled back along its ray from 0 by 20 halvings of
    a bisection whose upper end always clears the threshold.

    Returns (theta, best_lam, norm, evaluations); best_lam is in the
    normalized units of Phi divided by norm.
    """
    v = prob.var_count
    d = prob.dim

    # Work in normalized units: the constant block is scaled to unit size
    # and every variable to a unit coefficient, so the search behaves the
    # same regardless of the data's magnitude.
    norm = max(1.0, float(np.abs(prob.constant_block).max()))
    C0n = prob.constant_block / norm
    if v:
        gamma = np.array([max(1e-30, float(np.abs(B).max())) for B in prob.coeff_blocks])
        # One (v, d*d) matrix: each master is a vector-matrix product.
        Dn = (np.array(prob.coeff_blocks) / gamma[:, None, None]).reshape(v, -1)
    tau_n = tau / norm
    target_n = target / norm

    best_u = np.zeros(v)
    best_lam = -np.inf
    evals = 0

    def evaluate(u, M):
        """Count an evaluation of Phi(u) = M and keep the best point."""
        nonlocal evals, best_u, best_lam
        evals += 1
        lam = float(np.linalg.eigvalsh(M)[0])
        if lam > best_lam:
            best_lam = lam
            best_u = np.array(u, dtype=float)

    if v > 0:
        D = Dn.reshape(v, d, d)
        # The quadratic term keeps phi_w bounded below where some direction
        # raises lambda_min without end.
        reg = 1e-2

        def barrier(w):
            def fun(x):
                u, t = x[:v], x[v]
                M = C0n + (u @ Dn).reshape(d, d)
                try:
                    L = np.linalg.cholesky(M - t * np.eye(d))
                except np.linalg.LinAlgError:
                    return None
                evaluate(u, M)
                if best_lam >= target_n:
                    raise _TargetReached
                # With X = M - tI = LL', the derivatives in u_k and t are
                # traces and inner products of G_k = L^-1 D_k L^-T and of
                # S = L^-1 L^-T, the image of the I that t subtracts.
                Linv = np.linalg.inv(L)
                G = Linv @ D @ Linv.T
                S = Linv @ Linv.T
                Gv, Sv = G.reshape(v, -1), S.ravel()
                value = -w * t - 2.0 * float(np.log(np.diag(L)).sum()) + 0.5 * reg * float(u @ u)
                grad = np.append(reg * u - G.trace(axis1=1, axis2=2), np.trace(S) - w)
                H = np.empty((v + 1, v + 1))
                H[:v, :v] = Gv @ Gv.T + reg * np.eye(v)
                H[:v, v] = H[v, :v] = -(Gv @ Sv)
                H[v, v] = Sv @ Sv
                return value, grad, H
            return fun

        try:
            evaluate(best_u, C0n)
            if best_lam < target_n:
                x = np.append(best_u, best_lam - 1.0)
                w = 1e3
                for _ in range(40):
                    x = minimize(barrier(w), x)
                    # The docstring's two stop rules.
                    bound = x[v] + d / w
                    if bound < tau_n or tau_n <= best_lam and bound - best_lam <= SHED * best_lam:
                        break
                    w *= 8.0
        except _TargetReached:
            pass

        # Pull the point back along the ray from 0: the smallest eigenvalue
        # is concave on the segment, so bisecting for the shortest prefix
        # that still clears a threshold sheds the norm overshoot of the
        # search. Below target the SHED slice of the achieved margin is
        # traded for the same norm relief. The kept end hi clears the
        # threshold, so 20 halvings leave at most 2^-20 of the ray's length
        # unshed.
        if np.isfinite(best_lam) and best_lam > tau_n and np.any(best_u):
            shed = max(target_n, 2.0 * tau_n)
            if best_lam >= shed:
                thr = shed
            else:
                thr = max((1.0 - SHED) * best_lam, min(best_lam, 1.05 * tau_n))
            u_end = best_u.copy()

            def lam_at(t):
                M = C0n + ((t * u_end) @ Dn).reshape(d, d)
                return float(np.linalg.eigvalsh(M)[0])

            if lam_at(0.0) >= thr:
                best_u = np.zeros(v)
                best_lam = lam_at(0.0)
            else:
                lo, hi = 0.0, 1.0
                for _ in range(20):
                    mid = 0.5 * (lo + hi)
                    if lam_at(mid) >= thr:
                        hi = mid
                    else:
                        lo = mid
                best_u = hi * u_end
                best_lam = lam_at(hi)
    else:
        evaluate(best_u, C0n)

    with np.errstate(over="ignore", invalid="ignore"):
        theta = (best_u / gamma) * norm if v else np.zeros(0)
    return theta, best_lam, norm, evals


def certify_point(
    theta,
    prob: AffineFeasibilityProblem,
    margin: float,
) -> PointCertificate:
    """Re-check a point against the problem from scratch.

    Failure reason: MatrixNotPositive (lambda_min below the margin).
    """
    lam = float(np.linalg.eigvalsh(prob.master(theta))[0])
    ok = lam >= float(margin)
    return PointCertificate(ok=ok, lambda_min=lam, reasons=() if ok else ("MatrixNotPositive",))
