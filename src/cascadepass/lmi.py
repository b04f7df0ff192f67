"""Affine matrix-inequality feasibility with certified output.

A problem asks for theta in R^v with

    Phi(theta) = Phi_0 + sum_k theta_k Phi_k   positive definite (margin tau).

A bound such as theta_k >= c is stated as the 1x1 diagonal block
theta_k - c of Phi. There are no equality constraints: a caller with one
parametrizes its solutions and poses the problem over the parameters. The
solver maximizes a smoothed minimum eigenvalue of Phi. The returned point
is always re-certified from scratch; the contract is the certificate, not
the search path. Everything is deterministic: no randomness anywhere.

The search runs thousands of L-BFGS-B iterations on matrices of a few
rows, where scipy's ``minimize`` wrapper costs more than the objective.
``minimize`` here calls scipy's ``setulb`` directly, in the loop scipy's
``minimize(method="L-BFGS-B", jac=True)`` runs and with the same
memoisation of evaluated points, so every iterate is the wrapper's
without the wrapper's cost. ``setulb`` comes from scipy's compiled module,
loaded by ``_scipy_ext`` without importing ``scipy.optimize``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import blockla
from ._scipy_ext import lbfgsb
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


# L-BFGS-B settings of every local search; the number of stored corrections
# and of line-search steps are scipy's defaults.
LBFGS_CORRECTIONS = 10
LBFGS_MAXLS = 20
LBFGS_MAXITER = 100
LBFGS_MAXFUN = 200
LBFGS_FTOL = 1e-15
LBFGS_GTOL = 1e-12

# Share of the achieved margin the search gives up: the pull-back may shed
# it, and a finer smoothing level that could add no more is not run.
SHED = 0.05


def minimize(fun, x0):
    """Minimize ``fun`` by unbounded L-BFGS-B from x0; return the last iterate.

    ``fun(x)`` returns (value, gradient). This drives scipy's ``setulb``
    with the loop of scipy's ``minimize(method="L-BFGS-B", jac=True)``, and
    evaluates ``fun`` at exactly the points that would: once at a copy of
    x0, then at each point ``setulb`` asks for that differs from the last
    one evaluated. An exception raised by ``fun`` propagates.
    """
    m = LBFGS_CORRECTIONS
    x = np.array(x0, dtype=float)
    n = x.size
    last = x.copy()
    f, g = fun(last.copy())
    nfev, nit = 1, 0
    unbounded = np.zeros(n)
    nbd = np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    factr = LBFGS_FTOL / np.finfo(float).eps
    while True:
        lbfgsb.setulb(m, x, unbounded, unbounded, nbd, f, np.array(g, dtype=float), factr,
                      LBFGS_GTOL, wa, iwa, task, lsave, isave, dsave, LBFGS_MAXLS, ln_task)
        # task[0] is 3 when setulb asks for f and g at x and 1 after each
        # iteration; (5, 504) and (5, 502) stop it at the iteration and the
        # evaluation cap.
        if task[0] == 3:
            if not np.array_equal(x, last):
                last = x.copy()
                f, g = fun(x.copy())
                nfev += 1
        elif task[0] == 1:
            nit += 1
            if nit >= LBFGS_MAXITER:
                task[:] = 5, 504
            elif nfev > LBFGS_MAXFUN:
                task[:] = 5, 502
        else:
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

    L-BFGS maximizes the log-sum-exp smoothing f_s of lambda_min on a
    ladder of levels s, each finer than the last, from the best point so
    far. With d the size of Phi, lambda_min - s*ln(d) <= f_s <= lambda_min
    (Nesterov's bound), so once a level has maximized f_s no point has a
    lambda_min above best_lam + s*ln(d). The search stops as soon as the
    target is met, and after a level when no finer level can change the
    outcome or raise the margin by more than the pull-back gives up:

    * best_lam + s*ln(d) < tau: a decline, reported as Stalled;
    * best_lam >= tau and s*ln(d) <= SHED * best_lam: an accept, since a
      finer level adds at most the slice the pull-back may shed.

    The point is then pulled back along its ray from 0 by 20 halvings of
    a bisection whose upper end always clears the threshold.

    Returns (theta, best_lam, norm, evaluations); best_lam is in the
    normalized units of Phi divided by norm.
    """
    v = prob.var_count
    d = prob.dim

    # Work in normalized units: the constant block is scaled to unit size
    # and every variable to a unit coefficient, so the line searches behave
    # the same regardless of the data's magnitude.
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

    def evaluate(u):
        nonlocal evals, best_u, best_lam
        evals += 1
        M = C0n if v == 0 else C0n + (u @ Dn).reshape(d, d)
        lam, vecs = np.linalg.eigh(M)
        if lam[0] > best_lam:
            best_lam = float(lam[0])
            best_u = np.array(u, dtype=float)
        return lam, vecs

    if v > 0:
        # Smoothing ladder: f_s = -s*log(tr exp(-M/s)) is smooth and concave
        # in theta, and under-estimates lambda_min by at most the gap
        # s*ln(d) (Nesterov, Math. Program. 103, 2005). The ladder ends at
        # the first level whose gap is at most a quarter of tau_n; s*ln(d + 1)
        # bounds the gap and keeps the floor finite at d = 1.
        levels = []
        s = 0.25
        s_floor = max(tau_n / (4.0 * np.log(d + 1.0)), 1e-300)
        while True:
            levels.append(s)
            if s <= s_floor or len(levels) >= 14:
                break
            s /= 10.0

        # The tiny quadratic penalty keeps the objective coercive: without
        # it the optimizer can chase an asymptotic eigenvalue cap forever,
        # inflating the point until roundoff swamps it.
        reg = 1e-12

        def make_objective(s):
            def fun(u):
                lam, vecs = evaluate(u)
                if best_lam >= target_n:
                    raise _TargetReached
                shifted = -(lam - lam[0]) / s
                w = np.exp(shifted)
                total = w.sum()
                value = lam[0] - s * np.log(total) - reg * float(u @ u)
                w /= total
                G = (vecs * w) @ vecs.T
                grad = Dn @ G.ravel() - 2.0 * reg * u
                return -value, -grad
            return fun

        try:
            evaluate(best_u)
            if best_lam < target_n:
                for s in levels:
                    minimize(make_objective(s), best_u)
                    # The docstring's two stop rules.
                    gap = s * np.log(d)
                    if best_lam + gap < tau_n or tau_n <= best_lam and gap <= SHED * best_lam:
                        break
        except _TargetReached:
            pass

        # Pull the point back along the ray from 0: the smallest eigenvalue is concave on the segment, so bisecting
        # for the shortest prefix that still clears a threshold sheds the
        # norm overshoot of the line searches. Below target the SHED slice
        # of the achieved margin is traded for the same norm relief. The
        # kept end hi clears the threshold, so 20 halvings leave at most
        # 2^-20 of the ray's length unshed.
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
        evaluate(np.zeros(0))

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
