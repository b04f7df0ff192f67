"""Block linear algebra for symmetric tri-diagonal certificate matrices.

Provides a Cholesky factorization with an explicit pivot tolerance, a
smallest-eigenvalue helper, one Schur complement step, and the sequential
positive-definiteness test for symmetric block tri-diagonal matrices, which
mirrors the physics of the chain: block i can be cleared knowing only the
Schur complement left behind by block i-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "NotPositiveDefinite",
    "AsymmetricMatrix",
    "NonFiniteMatrix",
    "BlockTriDiagonal",
    "TriDiagFactor",
    "symmetric_part",
    "cholesky_lower",
    "min_eigen_sym",
    "schur_step",
    "tridiag_pd_sequence",
]

# Pivot acceptance threshold, relative to max(1, ||P||_inf).
PIVOT_RTOL = 1e-12
# Largest tolerated relative asymmetry before input is considered a bug.
SYMMETRY_RTOL = 1e-8


class NotPositiveDefinite(Exception):
    """A matrix failed its positive-definiteness test.

    ``index`` is the 0-based failing pivot for a plain factorization, or the
    1-based failing block for the tri-diagonal recursion (see the raiser).
    """

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        msg = f"not positive definite (index {index})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class AsymmetricMatrix(ValueError):
    """Input that must be symmetric is not, beyond tolerance."""


class NonFiniteMatrix(ValueError):
    """Input contains NaN or infinity."""


def _require_finite(a: np.ndarray, name: str):
    if not np.all(np.isfinite(a)):
        raise NonFiniteMatrix(f"{name} contains non-finite entries")


def symmetric_part(S, name: str = "matrix", rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Return (S + S') / 2 after checking S is symmetric within ``rtol``.

    The relative measure is ||S - S'||_inf / max(1, ||S||_inf).
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"{name} must be square, got shape {S.shape}")
    _require_finite(S, name)
    scale = max(1.0, np.abs(S).max() if S.size else 0.0)
    skew = np.abs(S - S.T).max() if S.size else 0.0
    if skew > rtol * scale:
        raise AsymmetricMatrix(
            f"{name} is asymmetric: relative skew {skew / scale:.3e} exceeds {rtol:.1e}"
        )
    return 0.5 * (S + S.T)


def cholesky_lower(P) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    A pivot is accepted only above PIVOT_RTOL * max(1, ||P||_inf); a failing
    pivot raises NotPositiveDefinite carrying its 0-based index. The
    outer-product update runs column by column so the failing pivot is exact.
    """
    A = symmetric_part(P, "P").copy()
    n = A.shape[0]
    scale = max(1.0, np.abs(A).max() if A.size else 0.0)
    floor = PIVOT_RTOL * scale
    L = np.zeros_like(A)
    for j in range(n):
        pivot = A[j, j]
        if pivot <= floor:
            raise NotPositiveDefinite(j, f"pivot {pivot:.6e} <= {floor:.6e}")
        root = np.sqrt(pivot)
        L[j, j] = root
        if j + 1 < n:
            col = A[j + 1:, j] / root
            L[j + 1:, j] = col
            A[j + 1:, j + 1:] -= np.outer(col, col)
    return L


def min_eigen_sym(S) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    A = symmetric_part(S, "S")
    if A.size == 0:
        raise ValueError("empty matrix has no eigenvalues")
    return float(np.linalg.eigvalsh(A)[0])


def schur_step(L, R, D):
    """(D - W' W, W) with W = L^-1 R: the Schur complement D - R' P^-1 R
    of P = L L' (L lower), by one triangular solve; P^-1 is never formed."""
    W = solve_triangular(L, R, lower=True)
    return D - W.T @ W, W


@dataclass(frozen=True)
class BlockTriDiagonal:
    """Symmetric block tri-diagonal matrix in block form.

    diag_blocks[i] is square; super_blocks[i] sits at block (i, i+1). The
    sub-diagonal is implied by symmetry. Diagonal blocks must be symmetric
    to a tight tolerance; they are stored exactly symmetrized.
    """

    diag_blocks: tuple[np.ndarray, ...]
    super_blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        diags = []
        for k, D in enumerate(self.diag_blocks):
            D = symmetric_part(D, f"diag_blocks[{k}]", rtol=1e-12)
            D.flags.writeable = False
            diags.append(D)
        if len(self.super_blocks) != max(len(diags) - 1, 0):
            raise ValueError(
                f"{len(diags)} diagonal blocks need {max(len(diags) - 1, 0)} "
                f"super-diagonal blocks, got {len(self.super_blocks)}"
            )
        supers = []
        for k, R in enumerate(self.super_blocks):
            R = np.array(R, dtype=float)
            _require_finite(R, f"super_blocks[{k}]")
            want = (diags[k].shape[0], diags[k + 1].shape[0])
            if R.shape != want:
                raise ValueError(f"super_blocks[{k}] is {R.shape}, expected {want}")
            R.flags.writeable = False
            supers.append(R)
        object.__setattr__(self, "diag_blocks", tuple(diags))
        object.__setattr__(self, "super_blocks", tuple(supers))

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(D.shape[0] for D in self.diag_blocks)

    def assemble(self) -> np.ndarray:
        """Dense symmetric matrix."""
        sizes = self.block_sizes
        off = np.concatenate([[0], np.cumsum(sizes)])
        n = off[-1]
        M = np.zeros((n, n))
        for k, D in enumerate(self.diag_blocks):
            M[off[k]:off[k + 1], off[k]:off[k + 1]] = D
        for k, R in enumerate(self.super_blocks):
            M[off[k]:off[k + 1], off[k + 1]:off[k + 2]] = R
            M[off[k + 1]:off[k + 2], off[k]:off[k + 1]] = R.T
        return M


@dataclass(frozen=True)
class TriDiagFactor:
    """Block Cholesky data of a positive definite block tri-diagonal matrix.

    M_blocks[i] is the i-th Schur complement (the matrix cleared at block i),
    U_blocks[i] its lower Cholesky factor, and V_blocks[i-1] the coupling
    factor tying block i to block i-1. The assembled lower factor L has
    U_blocks on the diagonal and V_blocks on the sub-diagonal, L L' = P.
    """

    M_blocks: tuple[np.ndarray, ...]
    U_blocks: tuple[np.ndarray, ...]
    V_blocks: tuple[np.ndarray, ...]

    def assemble_lower(self) -> np.ndarray:
        sizes = tuple(U.shape[0] for U in self.U_blocks)
        off = np.concatenate([[0], np.cumsum(sizes)])
        n = off[-1]
        L = np.zeros((n, n))
        for k, U in enumerate(self.U_blocks):
            L[off[k]:off[k + 1], off[k]:off[k + 1]] = U
        for k, V in enumerate(self.V_blocks):
            L[off[k + 1]:off[k + 2], off[k]:off[k + 1]] = V
        return L


def tridiag_pd_sequence(P: BlockTriDiagonal) -> TriDiagFactor:
    """Sequential positive-definiteness test with certificate.

    Runs the Schur recursion M_1 = D_1, M_i = D_i - R_i' M_{i-1}^{-1} R_i
    (R_i the block at (i-1, i)) by schur_step and factors each M_i. Raises
    NotPositiveDefinite with the 1-based block index where it first fails.
    """
    Ms: list[np.ndarray] = []
    Us: list[np.ndarray] = []
    Vs: list[np.ndarray] = []
    for i, D in enumerate(P.diag_blocks, start=1):
        M = D
        if Us:
            M, W = schur_step(Us[-1], P.super_blocks[i - 2], D)
            Vs.append(W.T)
        M = 0.5 * (M + M.T)
        try:
            U = cholesky_lower(M)
        except NotPositiveDefinite as err:
            raise NotPositiveDefinite(
                i, f"Schur complement fails at pivot {err.index}"
            ) from err
        M.flags.writeable = False
        Ms.append(M)
        Us.append(U)
    return TriDiagFactor(M_blocks=tuple(Ms), U_blocks=tuple(Us), V_blocks=tuple(Vs))
