"""Block linear algebra for symmetric tri-diagonal certificate matrices.

Provides a Cholesky factorization above one pivot floor per row (_row_floors,
so a block-diagonal matrix meets its blocks' own floors), the rounding
shift that turns a floating-point Cholesky factorization of a
certificate matrix into a proof, one Schur complement step, a matrix
exponential for the oracle's exact time step, and the sequential
positive-definiteness test for symmetric block tri-diagonal matrices,
which mirrors the physics of the chain: block i can be cleared knowing
only the Schur complement left behind by block i-1. _margin_step clears
one block, for the recursion, a design step's M_cl and a packet's M_prev
alike, so the margin a step sends is the block the recursion clears.

The blocks are 1x1 to a few rows, so a call's cost is its Python and
numpy overhead, not its arithmetic. A matrix is therefore checked once,
where it enters; _margin_step only half-sums the blocks it is given.
For the same reason _cholesky and schur_step's triangular solve run on
Python floats, and the module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotPositiveDefinite",
    "AsymmetricMatrix",
    "NonFiniteMatrix",
    "BlockTriDiagonal",
    "TriDiagFactor",
    "symmetric_part",
    "cholesky_lower",
    "rounding_shift",
    "expm",
    "schur_step",
    "tridiag_pd_sequence",
]

# Pivot acceptance threshold, relative to max(1, largest |entry| of the pivot's row).
PIVOT_RTOL = 1e-12
# Largest tolerated relative asymmetry before input is considered a bug.
SYMMETRY_RTOL = 1e-8


class NotPositiveDefinite(Exception):
    """A matrix failed its positive-definiteness test.

    ``index`` is the 0-based failing pivot for a plain factorization, or the
    1-based failing block for the tri-diagonal recursion (see the raiser),
    which also gives ``margins``, the M_i it cleared before that block.
    """

    def __init__(self, index: int, detail: str = "", margins: tuple | None = None):
        self.index, self.margins = index, margins
        msg = f"not positive definite (index {index})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class AsymmetricMatrix(ValueError):
    """Input that must be symmetric is not, beyond tolerance; ``index`` is
    the failing matrix's 0-based place in a stack (_symmetric_parts), else None."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class NonFiniteMatrix(ValueError):
    """Input contains NaN or infinity.

    ``index`` is the 1-based failing block for the tri-diagonal recursion
    (which also gives ``margins``, as for NotPositiveDefinite), the failing
    matrix's 0-based place in a stack (_symmetric_parts), and None elsewhere.
    """

    def __init__(self, message: str, index: int | None = None, margins: tuple | None = None):
        self.index, self.margins = index, margins
        super().__init__(message)


def _require_finite(a: np.ndarray, name: str):
    if not np.isfinite(a).all():
        raise NonFiniteMatrix(f"{name} contains non-finite entries")


def symmetric_part(S, name: str = "matrix", rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Return (S + S') / 2 after checking S is symmetric within ``rtol``.

    The relative measure is max_ij |S_ij - S_ji| / max(1, max_ij |S_ij|).
    Each entry is the correctly rounded mean of S_ij and S_ji, also where
    their sum would overflow.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"{name} must be square, got shape {S.shape}")
    return _symmetric_parts(S, name, rtol)


def _symmetric_parts(S, name: str, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """symmetric_part of the square float array S or of each matrix of the
    stack S, as one new array; the first matrix that fails raises as
    symmetric_part words it, ``index`` its place in the stack (None for a 2-D S)."""
    St = np.swapaxes(S, -1, -2)
    scale = np.abs(S).max(axis=(-2, -1), initial=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        # S - S' is exactly antisymmetric, so its largest entry is its
        # largest |entry|; where it overflows, S reads as asymmetric.
        skew = (S - St).max(axis=(-2, -1), initial=0.0)
        H = 0.5 * (S + St)
    fails = ~np.isfinite(scale) | (skew > rtol * scale)
    if fails.any():
        j = int(np.argmax(fails))
        index = j if S.ndim == 3 else None
        scale, skew = np.ravel(scale)[j], np.ravel(skew)[j]
        if not math.isfinite(scale):
            raise NonFiniteMatrix(f"{name} contains non-finite entries", index)
        raise AsymmetricMatrix(f"{name} is asymmetric: relative skew {skew / scale:.3e} exceeds {rtol:.1e}", index)
    # Where S + S' overflows, both entries exceed 2**970, so halving each
    # before adding is exact.
    big = np.isinf(H)
    if big.any():
        H[big] = 0.5 * S[big] + 0.5 * St[big]
    return H


def _row_floors(A) -> np.ndarray:
    """PIVOT_RTOL * max(1, max_k |A_jk|), the floor pivot j must exceed, for
    each row j of A or of each matrix of a stack; not finite for a row that is not."""
    return PIVOT_RTOL * np.abs(A).max(axis=-1, initial=1.0)


def cholesky_lower(P) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Pivot j is accepted only above the floor of P's row j (_row_floors); a
    failing pivot raises NotPositiveDefinite carrying its 0-based index.
    The outer-product update runs column by column so the failing pivot is
    exact.
    """
    return _cholesky(symmetric_part(P, "P"))


def _cholesky(A) -> np.ndarray:
    """Column-by-column Cholesky factor of the exactly symmetric A, pivot j
    above the floor of A's row j, taken as _row_floors takes it
    (NonFiniteMatrix for a non-finite A); A is not modified.

    Column j divides A's column below the pivot by its root and subtracts
    the outer product of that column from the block below and right of the
    pivot. The blocks are a few rows, so this runs on Python floats, each
    entry taking the IEEE operations numpy's column updates would give it,
    in the same order; _cholesky_passes runs the same steps on arrays.
    """
    a = A.tolist()
    # A sum with NaN or an infinity among its terms is not finite, and a
    # sum of finite terms is unless it overflows.
    if not math.isfinite(sum(map(sum, a))) and not all(math.isfinite(x) for row in a for x in row):
        raise NonFiniteMatrix("matrix contains non-finite entries")
    floors = [PIVOT_RTOL * max(1.0, *map(abs, row)) for row in a]
    n = len(a)
    L = [[0.0] * n for _ in range(n)]
    for j, floor in enumerate(floors):
        pivot = a[j][j]
        if pivot <= floor:
            raise NotPositiveDefinite(j, f"pivot {pivot:.6e} <= {floor:.6e}")
        root = math.sqrt(pivot)
        L[j][j] = root
        col = [a[i][j] / root for i in range(j + 1, n)]
        for i, c in enumerate(col, start=j + 1):
            L[i][j] = c
            row = a[i]
            for k, d in enumerate(col, start=j + 1):
                row[k] -= c * d
    return np.array(L).reshape(n, n)


def _cholesky_passes(A, floor=None) -> np.ndarray:
    """For one finite matrix A or each matrix of a stack, whether
    _cholesky(A[k]) succeeds, or with floor given, whether its pivots exceed floor.

    The same column-by-column elimination runs on every matrix at once, so
    each verdict is _cholesky's; a matrix that fails keeps being reduced,
    on values that no longer matter.
    """
    floors = _row_floors(A) if floor is None else floor
    A = A.copy()
    with np.errstate(all="ignore"):
        for j in range(A.shape[-1] - 1):
            col = A[..., j + 1:, j] / np.sqrt(A[..., j, j:j + 1])
            A[..., j + 1:, j + 1:] -= col[..., :, None] * col[..., None, :]
    # Step j leaves pivot j on the diagonal and changes only later rows
    # and columns, so the diagonal ends holding every pivot; the last
    # pivot has nothing left to change.
    return ~(np.diagonal(A, axis1=-2, axis2=-1) <= floors).any(axis=-1)


def _gamma(k: int) -> float:
    """k u / (1 - k u), u = 2^-53: the relative error bound of k roundings."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def rounding_shift(A, Q, epsilon: float, W, d=1.0) -> float:
    """The shift c for which a floating-point Cholesky factorization of
    W - cI proves the exact -(A'Q + QA) - 2 eps I positive semidefinite (Q
    symmetric; barring underflow), where W = D W0 D: W0 the symmetrized
    float value of -(A'Q + QA) - 2 eps I and D = diag(d), d powers of two
    (1 by default, W = W0):

        c = g(n+2) || D (|A'||Q| + |Q||A| + 2 eps I) D + |W| ||_inf
            + a sum_i max(W_ii, 0),

    g(k) = k u / (1 - k u), u = 2^-53 and a = g(n+1) / (1 - 2 g(n+1)).
    The first term bounds the rounding error of forming W0, entry by entry
    (N. J. Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., sec. 3.5), scaled by D, and so its spectral norm; the second
    covers the Cholesky factorization's own error (S. M. Rump,
    "Verification of positive definiteness", BIT 46, 2006). The products
    need only g(n), so the slack of g(n+2) covers c's own rounding.
    Scaling by powers of two is exact, and congruence by D keeps inertia,
    so a proof for W is one for W0; with D equalizing the diagonal, each
    block is judged against the rounding of its own entries.
    """
    A, Q, W = (np.asarray(a, dtype=float) for a in (A, Q, W))
    n = W.shape[0]
    d = np.broadcast_to(np.asarray(d, dtype=float), (n,))
    alpha = _gamma(n + 1) / (1.0 - 2.0 * _gamma(n + 1))
    bound = np.abs(A).T @ np.abs(Q) + np.abs(Q) @ np.abs(A)
    bound[np.diag_indices(n)] += 2.0 * epsilon
    bound *= np.multiply.outer(d, d)
    bound += np.abs(W)
    cholesky_error = np.maximum(np.diagonal(W), 0.0).sum()
    return float(_gamma(n + 2) * bound.sum(axis=1).max(initial=0.0) + alpha * cholesky_error)


# Numerator coefficients b_0 .. b_13 of the [13/13] Pade approximant to
# exp, and the largest 1-norm at which it is accurate to unit roundoff
# (N. J. Higham, "The scaling and squaring method for the matrix
# exponential revisited", SIAM J. Matrix Anal. Appl. 26 (2005) 1179-1193).
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
# The coefficients of I, A^2, A^4 and A^6 in the four parts of
# U = A (A^6 U_hi + U_lo) and V = A^6 V_hi + V_lo, the odd and even terms.
_PADE13_PARTS = np.array([
    [_PADE13_B[1], _PADE13_B[3], _PADE13_B[5], _PADE13_B[7]],  # U_lo
    [0.0, _PADE13_B[9], _PADE13_B[11], _PADE13_B[13]],  # U_hi
    [_PADE13_B[0], _PADE13_B[2], _PADE13_B[4], _PADE13_B[6]],  # V_lo
    [0.0, _PADE13_B[8], _PADE13_B[10], _PADE13_B[12]],  # V_hi
])
_THETA13 = 5.371920351148152


def expm(M) -> np.ndarray:
    """The matrix exponential of a square matrix, by scaling and squaring.

    M is scaled by 2^-s, the fewest halvings that bring its 1-norm to at
    most _THETA13; the [13/13] Pade approximant (V - U)^-1 (V + U) of the
    scaled matrix A is squared s times (Higham 2005, Algorithm 2.3, at
    degree 13 only). The four parts of U and V are formed from the powers
    I, A^2, A^4, A^6 by one product with _PADE13_PARTS. Raises
    NonFiniteMatrix for a matrix with NaN or infinity.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {M.shape}")
    _require_finite(M, "M")
    norm = np.abs(M).sum(axis=0).max(initial=0.0)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    A = M * 2.0**-s
    k = A.shape[0]
    powers = np.empty((4, k, k))
    powers[0] = np.eye(k)
    np.matmul(A, A, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    u_lo, u_hi, v_lo, v_hi = (_PADE13_PARTS @ powers.reshape(4, k * k)).reshape(4, k, k)
    U = A @ (powers[3] @ u_hi + u_lo)
    V = powers[3] @ v_hi + v_lo
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def schur_step(L, R, D):
    """(D - W' W, W) with W = L^-1 R: the Schur complement D - R' P^-1 R
    of P = L L' (L lower), by one triangular solve; P^-1 is never formed.

    The solve is forward substitution on Python floats, as _cholesky
    factors: row i of W is row i of R less L_ik times row k of W for k < i
    in turn, divided by L_ii. Raises np.linalg.LinAlgError for a zero
    diagonal entry of L; NaN and infinity are not checked.
    """
    W = []
    for i, (l, r) in enumerate(zip(L.tolist(), R.tolist())):
        for c, w in zip(l, W):  # the i rows of W solved so far
            r = [x - c * y for x, y in zip(r, w)]
        if l[i] == 0.0:
            raise np.linalg.LinAlgError(f"singular triangular factor (zero diagonal entry {i})")
        W.append([x / l[i] for x in r])
    W = np.array(W)
    return D - W.T @ W, W


def _margin_step(L_prev, R, D):
    """One cleared block (M, L, W): M = D - R' P^-1 R and W = L_prev^-1 R by
    schur_step (P = L_prev L_prev'), or M = D and W = None with no L_prev; M
    made read-only and exactly symmetric as 0.5 * (M + M') in both cases; L its
    Cholesky factor by _cholesky, whose row floors also find a non-finite M.
    Raises NonFiniteMatrix, NotPositiveDefinite."""
    W = None
    if L_prev is not None:
        D, W = schur_step(L_prev, R, D)
    M = 0.5 * (D + D.T)
    L = _cholesky(M)
    M.flags.writeable = False
    return M, L, W


@dataclass(frozen=True)
class BlockTriDiagonal:
    """Symmetric block tri-diagonal matrix in block form.

    diag_blocks[i] is square; super_blocks[i] sits at block (i, i+1). The
    sub-diagonal is implied by symmetry. Diagonal blocks must be symmetric
    to a tight tolerance; they are stored exactly symmetrized.
    """

    diag_blocks: tuple[np.ndarray, ...]
    super_blocks: tuple[np.ndarray, ...]

    @classmethod
    def _from_built(cls, diag_blocks, super_blocks) -> "BlockTriDiagonal":
        """Blocks the package has just built: each diagonal block an exactly
        symmetric float array, each shape consistent. They are frozen, not
        checked; tridiag_pd_sequence still rejects a non-finite block."""
        P = object.__new__(cls)
        for name, blocks in (("diag_blocks", diag_blocks), ("super_blocks", super_blocks)):
            for B in blocks:
                B.flags.writeable = False
            object.__setattr__(P, name, tuple(blocks))
        return P

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
    (R_i the block at (i-1, i)), clearing each M_i by _margin_step. Raises
    NotPositiveDefinite with the 1-based block index where it first fails,
    and NonFiniteMatrix with the 1-based index of the first M_i that is
    not finite, which a non-finite block of P always causes; either carries
    in ``margins`` the tuple of the M_i cleared before that block.
    """
    Ms, Us, Vs = [], [], []
    U = None
    for i, (D, R) in enumerate(zip(P.diag_blocks, (None,) + P.super_blocks), start=1):
        try:
            M, U, W = _margin_step(U, R, D)
        except NotPositiveDefinite as err:
            raise NotPositiveDefinite(i, f"Schur complement fails at pivot {err.index}", tuple(Ms)) from err
        except NonFiniteMatrix:
            raise NonFiniteMatrix(f"block {i} is not finite", i, tuple(Ms)) from None
        Ms.append(M)
        Us.append(U)
        if W is not None:
            Vs.append(W.T)
    return TriDiagFactor(M_blocks=tuple(Ms), U_blocks=tuple(Us), V_blocks=tuple(Vs))
