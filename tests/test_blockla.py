"""Cholesky, eigenvalue and block tri-diagonal recursion checks."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import scipy.linalg

from cascadepass import blockla
from cascadepass.blockla import (
    AsymmetricMatrix,
    BlockTriDiagonal,
    NonFiniteMatrix,
    NotPositiveDefinite,
    cholesky_lower,
    expm,
    rounding_shift,
    schur_step,
    symmetric_part,
    tridiag_pd_sequence,
)
from cascadepass.lmi import AffineFeasibilityProblem, MalformedProblem


def random_pd_tridiagonal(rng, block_sizes):
    """Build L L' for a random block lower bidiagonal L with unit-plus pivots,
    which is positive definite and exactly block tri-diagonal."""
    diags = [rng.normal(size=(n, n)) + (n + 1.0) * np.eye(n) for n in block_sizes]
    subs = [rng.normal(size=(block_sizes[k + 1], block_sizes[k]))
            for k in range(len(block_sizes) - 1)]
    D = []
    R = []
    for k, n in enumerate(block_sizes):
        block = diags[k] @ diags[k].T
        if k > 0:
            block = block + subs[k - 1] @ subs[k - 1].T
        D.append(block)
        if k + 1 < len(block_sizes):
            R.append(diags[k] @ subs[k].T)
    return BlockTriDiagonal(tuple(D), tuple(R))


def test_cholesky_known_factor():
    L = cholesky_lower([[4.0, 2.0], [2.0, 5.0]])
    assert np.array_equal(L, [[2.0, 0.0], [1.0, 2.0]])


def test_cholesky_rejects_indefinite_with_pivot_index():
    with pytest.raises(NotPositiveDefinite) as info:
        cholesky_lower([[1.0, 2.0], [2.0, 1.0]])
    assert info.value.index == 1


def test_cholesky_rejects_negative_leading_pivot():
    with pytest.raises(NotPositiveDefinite) as info:
        cholesky_lower([[-1.0, 0.0], [0.0, 1.0]])
    assert info.value.index == 0


def test_cholesky_random_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        G = rng.normal(size=(n, n))
        P = G @ G.T + (0.1 + rng.uniform()) * np.eye(n)
        L = cholesky_lower(P)
        assert np.allclose(L @ L.T, P, rtol=0.0, atol=1e-12 * max(1.0, np.abs(P).max()))
        assert np.array_equal(L, np.tril(L))


def test_symmetric_part_checks():
    S = symmetric_part([[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(S, S.T)
    with pytest.raises(AsymmetricMatrix):
        symmetric_part([[1.0, 2.0], [0.0, 3.0]])
    with pytest.raises(NonFiniteMatrix):
        symmetric_part([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        symmetric_part(np.zeros((2, 3)))


@pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.1, 1.0, 5.0, 10.0, 50.0, 100.0])
def test_expm_matches_scipy_on_random_matrices(norm):
    # Beyond a 1-norm of 5.37 expm scales and squares, and two correct
    # exponentials part by about the condition number times the roundoff.
    rng = np.random.default_rng(int(norm * 1000))
    for n in (1, 2, 5, 8, 14):
        M = rng.normal(size=(n, n))
        M *= norm / np.abs(M).sum(axis=0).max()
        want = scipy.linalg.expm(M)
        assert np.abs(expm(M) - want).max() <= 1e-14 * max(1.0, norm) * np.abs(want).max(), n


def test_expm_of_a_nilpotent_matrix_is_its_finite_taylor_sum():
    N = np.triu(np.random.default_rng(1).normal(size=(6, 6)), 1) * 3.0
    taylor, term = np.eye(6), np.eye(6)
    for k in range(1, 6):
        term = term @ N / k
        taylor += term
    assert np.abs(expm(N) - taylor).max() <= 1e-13 * np.abs(taylor).max()
    assert np.abs(expm(N) - scipy.linalg.expm(N)).max() <= 1e-13 * np.abs(taylor).max()


def test_expm_of_zero_and_empty_matrices_and_bad_input():
    assert np.abs(expm(np.zeros((3, 3))) - np.eye(3)).max() <= 2.0**-52
    assert expm(np.zeros((0, 0))).shape == (0, 0)
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))
    with pytest.raises(NonFiniteMatrix):
        expm([[0.0, np.inf], [0.0, 0.0]])


def test_rounding_shift_bounds_the_error_of_forming_the_certificate_matrix():
    # The float W = -(A'Q + QA) - 2 eps I, symmetrized, against the exact
    # matrix of the same float A, Q and eps, in rational arithmetic.
    # Scaled by D = diag(d), d powers of two, the error is D (exact - W) D.
    rng, scales = np.random.default_rng(7), np.random.default_rng(8)
    for k in range(60):
        n = 1 + k % 6
        A = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, n))
        R = rng.normal(size=(n, n))
        Q = symmetric_part(R @ R.T + 10.0 ** rng.uniform(-3, 3) * np.eye(n))
        eps = 10.0 ** rng.uniform(-3, 3)
        W = symmetric_part(-(A.T @ Q + Q @ A) - 2.0 * eps * np.eye(n))
        Af, Qf = [[Fraction(v) for v in row] for row in A], [[Fraction(v) for v in row] for row in Q]
        diff = [[-sum(Af[s][i] * Qf[s][j] + Qf[i][s] * Af[s][j] for s in range(n))
                 - 2 * Fraction(eps) * (i == j) - Fraction(W[i, j]) for j in range(n)] for i in range(n)]
        error = max(sum(abs(x) for x in row) for row in diff)
        assert error <= rounding_shift(A, Q, eps, W), k
        d = 2.0 ** scales.integers(-20, 21, size=n)
        error = max(sum(abs(Fraction(d[i] * d[j]) * x) for j, x in enumerate(row)) for i, row in enumerate(diff))
        assert error <= rounding_shift(A, Q, eps, np.multiply.outer(d, d) * W, d), k


def test_blocktridiagonal_shape_validation():
    with pytest.raises(ValueError):
        BlockTriDiagonal((np.eye(2), np.eye(2)), ())
    with pytest.raises(ValueError):
        BlockTriDiagonal((np.eye(2), np.eye(3)), (np.zeros((3, 3)),))
    with pytest.raises(AsymmetricMatrix):
        BlockTriDiagonal((np.array([[0.0, 1.0], [0.0, 0.0]]),), ())


def test_blocktridiagonal_assemble():
    P = BlockTriDiagonal(
        (np.array([[2.0]]), np.array([[3.0]])),
        (np.array([[-1.0]]),),
    )
    assert np.array_equal(P.assemble(), [[2.0, -1.0], [-1.0, 3.0]])
    assert P.block_sizes == (1, 1)


def test_schur_sequence_scalar_chain():
    P = BlockTriDiagonal(
        (np.array([[2.0]]), np.array([[2.0]])),
        (np.array([[1.0]]),),
    )
    factor = tridiag_pd_sequence(P)
    assert factor.M_blocks[0][0, 0] == 2.0
    assert factor.M_blocks[1][0, 0] == 1.5
    L = factor.assemble_lower()
    assert np.allclose(L @ L.T, P.assemble(), atol=1e-15)


def test_schur_sequence_matches_dense_factorization():
    rng = np.random.default_rng(11)
    for _ in range(40):
        k = int(rng.integers(1, 6))
        sizes = [int(rng.integers(1, 5)) for _ in range(k)]
        P = random_pd_tridiagonal(rng, sizes)
        dense = P.assemble()
        factor = tridiag_pd_sequence(P)
        L = factor.assemble_lower()
        scale = max(1.0, np.abs(dense).max())
        assert np.abs(L @ L.T - dense).max() <= 1e-10 * scale
        # Each cleared block is the Schur complement of everything before it.
        off = np.concatenate([[0], np.cumsum(sizes)])
        for i in range(k):
            head = dense[: off[i], : off[i]]
            cross = dense[: off[i], off[i]:off[i + 1]]
            own = dense[off[i]:off[i + 1], off[i]:off[i + 1]]
            expect = own if i == 0 else own - cross.T @ np.linalg.solve(head, cross)
            assert np.abs(factor.M_blocks[i] - expect).max() <= 1e-8 * scale


def test_schur_sequence_failure_index_matches_dense_test():
    rng = np.random.default_rng(23)
    seen_late_failure = False
    for _ in range(60):
        k = int(rng.integers(2, 5))
        sizes = [int(rng.integers(1, 4)) for _ in range(k)]
        P = random_pd_tridiagonal(rng, sizes)
        # Ruin one diagonal block so the matrix stops being positive definite.
        bad = int(rng.integers(0, k))
        D = list(P.diag_blocks)
        D[bad] = D[bad] - (np.abs(np.linalg.eigvalsh(D[bad])).max() + 1.0) * np.eye(sizes[bad])
        broken = BlockTriDiagonal(tuple(D), P.super_blocks)
        dense = broken.assemble()
        assert np.linalg.eigvalsh(dense)[0] < 0.0
        with pytest.raises(NotPositiveDefinite) as info:
            tridiag_pd_sequence(broken)
        # The recursion cannot fail before the ruined block.
        assert 1 <= info.value.index <= k
        assert info.value.index >= bad + 1
        seen_late_failure = seen_late_failure or info.value.index == bad + 1
    assert seen_late_failure


def test_schur_sequence_names_the_first_block_that_is_not_finite():
    # Block 3 overflows only once the Schur complement of block 2 enters it.
    P = BlockTriDiagonal._from_built(
        [np.array([[1.0]]), np.array([[1e-10]]), np.array([[1.0]])],
        [np.array([[0.0]]), np.array([[1e200]])],
    )
    with np.errstate(over="ignore"), pytest.raises(NonFiniteMatrix) as info:
        tridiag_pd_sequence(P)
    assert info.value.index == 3
    assert str(info.value) == "block 3 is not finite"


def test_symmetric_part_of_finite_entries_near_the_float_limit_stays_finite():
    big = np.finfo(float).max
    # a and b differ by two units in the last place, so their mean is the
    # float between them; S + S' overflows there and at (0, 0).
    a = 0.75 * big
    b = np.nextafter(np.nextafter(a, 0.0), 0.0)
    S = np.array([[big, a, 5e-324], [b, -big, 0.0], [5e-324, 0.0, 1.0]])
    want = S.copy()
    want[0, 1] = want[1, 0] = np.nextafter(a, 0.0)
    with np.errstate(all="raise"):
        H = symmetric_part(S)
    assert H.tobytes() == want.tobytes()
    with pytest.raises(AsymmetricMatrix, match="relative skew inf"):
        symmetric_part(np.array([[0.0, big], [-big, 0.0]]))


def test_schur_sequence_rejects_semidefinite():
    P = BlockTriDiagonal(
        (np.array([[1.0]]), np.array([[1.0]])),
        (np.array([[1.0]]),),
    )
    with pytest.raises(NotPositiveDefinite) as info:
        tridiag_pd_sequence(P)
    assert info.value.index == 2


# Bit-for-bit properties of the kernels against the straightforward code
# they replaced, kept here as the reference: per-call finiteness and
# symmetry passes, np.sqrt and np.outer, and a per-block validation loop.

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)

# Every finite double, with NaN and the infinities left to the draws that ask for them.
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
moderate = st.floats(-1e3, 1e3, allow_nan=False, width=64)
special = st.sampled_from([np.nan, np.inf, -np.inf])


def generic(shape):
    """Entries with full mantissas over six decades, which round the way
    real data does; hypothesis's own float draws are often exact."""
    def make(seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
    return st.integers(0, 2**32 - 1).map(make)


def matrices(shape):
    return st.one_of(
        generic(shape),
        arrays(np.float64, shape, elements=moderate),
        arrays(np.float64, shape, elements=finite),
    )


def reference_symmetric_part(S, name="matrix", rtol=1e-8):
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"{name} must be square, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise NonFiniteMatrix(f"{name} contains non-finite entries")
    scale = max(1.0, np.abs(S).max() if S.size else 0.0)
    skew = np.abs(S - S.T).max() if S.size else 0.0
    if skew > rtol * scale:
        raise AsymmetricMatrix(
            f"{name} is asymmetric: relative skew {skew / scale:.3e} exceeds {rtol:.1e}"
        )
    # The exact mean of each pair, rounded once: 0.5 * (S + S') wherever
    # S + S' does not overflow, and finite where it does. An exact zero
    # takes the sign IEEE addition gives it.
    mean = [float((Fraction(a) + Fraction(b)) / 2 or a + b) for a, b in zip(S.ravel(), S.T.ravel())]
    return np.array(mean).reshape(S.shape)


def reference_cholesky_lower(P):
    A = reference_symmetric_part(P, "P")
    # Pivot j must exceed 1e-12 * max(1, largest |entry| of row j of A).
    return reference_cholesky(A, [1e-12 * max(1.0, np.abs(row).max()) for row in A])


def reference_cholesky(A, floors):
    """Lower factor of the symmetric A by column updates, pivot j above floors[j]."""
    A = A.copy()
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        pivot, floor = A[j, j], floors[j]
        if pivot <= floor:
            raise NotPositiveDefinite(j, f"pivot {pivot:.6e} <= {floor:.6e}")
        root = np.sqrt(pivot)
        L[j, j] = root
        if j + 1 < n:
            col = A[j + 1:, j] / root
            L[j + 1:, j] = col
            A[j + 1:, j + 1:] -= np.outer(col, col)
    return L


def reference_problem_blocks(constant, coeffs):
    d = constant.shape[0]
    if not d:
        raise MalformedProblem("a problem without a matrix block constrains nothing")
    blocks = [np.array(constant, dtype=float)] + [np.array(B, dtype=float) for B in coeffs]
    for k, B in enumerate(blocks):
        if B.shape != (d, d):
            raise MalformedProblem(f"block {k} has shape {B.shape}, expected ({d}, {d})")
        if not np.all(np.isfinite(B)):
            raise MalformedProblem(f"block {k} has non-finite entries")
        if B.size:
            scale = max(1.0, np.abs(B).max())
            if np.abs(B - B.T).max() > 1e-8 * scale:
                raise MalformedProblem(f"block {k} is not symmetric")
    return [0.5 * (B + B.T) for B in blocks]


def outcome(fn, *args):
    """('ok', result) or (exception type, message, pivot or block index).

    Overflow to infinity is part of what is compared, so it is not warned of.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return "ok", fn(*args)
    except (ValueError, NotPositiveDefinite) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


def assert_same_outcome(got, want):
    if want[0] == "ok":
        assert got[0] == "ok", got
        results = got[1] if isinstance(got[1], list) else [got[1]]
        expected = want[1] if isinstance(want[1], list) else [want[1]]
        assert len(results) == len(expected)
        for a, b in zip(results, expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    else:
        assert got == want


@st.composite
def square_candidates(draw, max_n=5):
    """Nearly symmetric squares: X + X' + a skew of chosen relative size,
    sometimes shifted by a multiple of I, sometimes with a non-finite entry,
    sometimes not square at all."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["square", "square", "square", "non-finite", "non-square"]))
    if kind == "non-square":
        return draw(arrays(np.float64, (n, n + draw(st.integers(1, 2))), elements=moderate))
    X = draw(matrices((n, n)))
    skew = draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-8, 2e-8, 1e-6]))
    shift = draw(st.sampled_from([0.0, 1.0, 1e3, -1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        S = X + X.T
        if n > 1 and skew:
            S[0, n - 1] += skew * max(1.0, float(np.abs(S).max()))
        S = S + shift * np.eye(n)
    if kind == "non-finite" and n:
        S[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(special)
    return S


@PROPERTY
@given(S=square_candidates())
def test_symmetric_part_matches_the_reference_bit_for_bit(S):
    assert_same_outcome(outcome(symmetric_part, S), outcome(reference_symmetric_part, S))


@st.composite
def symmetry_stacks(draw):
    """1-4 squares of one size, each symmetric, near the float limit
    (entries above 2**970, where S + S' overflows), slightly or grossly
    asymmetric, or non-finite."""
    n = draw(st.integers(1, 4))
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["symmetric", "huge", "slight", "gross", "non-finite"]))
        if kind == "huge":
            big = np.finfo(float).max
            X = draw(arrays(np.float64, (n, n), elements=st.floats(2.0**970, big) | st.sampled_from([0.75 * big, big])))
            X *= draw(arrays(np.float64, (n, n), elements=st.sampled_from([-1.0, 1.0])))
            S = np.triu(X) + np.triu(X, 1).T
            if n > 1:
                # Two units in the last place, or the opposite sign, whose skew overflows.
                S[0, n - 1] = draw(st.sampled_from([
                    np.nextafter(np.nextafter(S[0, n - 1], 0.0), 0.0), -S[0, n - 1]]))
        else:
            X = draw(matrices((n, n)))
            with np.errstate(over="ignore", invalid="ignore"):
                S = X + X.T
            skew = {"slight": draw(st.sampled_from([1e-9, 1e-8, 2e-8])), "gross": 1.0}.get(kind, 0.0)
            if n > 1 and skew:
                S[0, n - 1] += skew * max(1.0, float(np.abs(S).max()))
            if kind == "non-finite":
                S[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(special)
        stack.append(S)
    return np.array(stack)


@PROPERTY
@given(stack=symmetry_stacks())
def test_stacked_symmetric_parts_match_the_reference_matrix_by_matrix(stack):
    # A stack passes bit for bit as each matrix does alone, or raises the
    # reference's outcome for its first failing matrix, at its place.
    got = outcome(blockla._symmetric_parts, stack, "Q")
    want = [outcome(reference_symmetric_part, S, "Q") for S in stack]
    first = next((j for j, w in enumerate(want) if w[0] != "ok"), None)
    if first is None:
        assert got[0] == "ok" and got[1].shape == stack.shape, got
        assert_same_outcome(("ok", list(got[1])), ("ok", [w[1] for w in want]))
    else:
        assert got == (*want[first][:2], first)


@PROPERTY
@given(S=square_candidates(max_n=6))
def test_cholesky_lower_matches_the_reference_bit_for_bit(S):
    assert_same_outcome(outcome(cholesky_lower, S), outcome(reference_cholesky_lower, S))


@PROPERTY
@given(S=square_candidates(max_n=6), floor=st.sampled_from([None, 0.0]))
def test_cholesky_passes_gives_the_factorization_verdict_for_one_matrix_or_a_stack(S, floor):
    # floor None: each row's own floor, the verdict of _cholesky, which
    # rejects a non-finite matrix outright. floor 0.0: the oracle's proof,
    # every pivot positive, on finite and non-finite matrices alike.
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        return
    with np.errstate(all="ignore"):
        stack = np.stack([0.5 * (S + S.T), 0.5 * (S + S.T) - np.eye(len(S))])
        if floor is None and not np.isfinite(stack).all():
            return
        want = []
        for H in stack:
            try:
                if floor is None:
                    blockla._cholesky(H)
                else:
                    reference_cholesky(H, [floor] * len(H))
            except NotPositiveDefinite:
                want.append(False)
            else:
                want.append(True)
    assert blockla._cholesky_passes(stack[0], floor).shape == ()
    assert blockla._cholesky_passes(stack[0], floor) == want[0]
    assert blockla._cholesky_passes(stack, floor).tolist() == want


@PROPERTY
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 4),
    data=st.data(),
    fortran=st.booleans(),
    transposed_rhs=st.booleans(),
)
def test_schur_step_solves_within_the_substitution_bound(n, m, data, fortran, transposed_rhs):
    # Forward substitution is backward stable: the computed W solves
    # (L + dL) W = R with |dL| <= g(n) |L| (N. J. Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., Thm 8.5), so the exact
    # residual R - L W lies within g(n) |L| |W|, entry by entry.
    G = data.draw(generic((n, n)))
    L = np.tril(G, -1) + np.diag(np.abs(np.diag(G)) + 0.5)
    L = np.asfortranarray(L) if fortran else np.ascontiguousarray(L)
    R = data.draw(generic((m, n))).T if transposed_rhs else data.draw(generic((n, m)))
    X = data.draw(generic((m, m)))
    D = X + X.T
    M, W = schur_step(L, R, D)
    assert W.shape == (n, m)
    assert M.tobytes() == (D - W.T @ W).tobytes()
    Lx, Rx, Wx = ([[Fraction(x) for x in row] for row in a.tolist()] for a in (L, R, W))
    gamma = Fraction(n, 2**53 - n)  # n u / (1 - n u), u = 2^-53
    for i in range(n):
        for j in range(m):
            terms = [Lx[i][k] * Wx[k][j] for k in range(i + 1)]
            assert abs(Rx[i][j] - sum(terms)) <= gamma * sum(map(abs, terms))
    k = data.draw(st.integers(0, n - 1))
    singular = L.copy()
    singular[k, k] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        schur_step(singular, R, D)


@st.composite
def problem_blocks(draw):
    """A constant block and v coefficient blocks, each possibly of the
    wrong shape, non-finite or asymmetric."""
    d = draw(st.integers(0, 3))
    v = draw(st.integers(0, 4))
    blocks = []
    for _ in range(v + 1):
        kind = draw(st.sampled_from(["good"] * 6 + ["shape", "non-finite", "asymmetric"]))
        shape = (d, d + 1) if kind == "shape" else (d, d)
        B = draw(st.one_of(generic(shape), arrays(np.float64, shape, elements=moderate)))
        if kind != "shape":
            B = B + B.T
        if kind == "non-finite" and d:
            B[draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))] = draw(special)
        if kind == "asymmetric" and d > 1:
            B[0, 1] += draw(st.sampled_from([1e-9, 1e-7, 1.0])) * max(1.0, float(np.abs(B).max()))
        blocks.append(B)
    if blocks[0].shape != (d, d):
        blocks[0] = np.zeros((d, d))
    return blocks[0], blocks[1:]


@PROPERTY
@given(blocks=problem_blocks())
def test_affine_problem_checks_blocks_as_the_reference_loop(blocks):
    constant, coeffs = blocks

    def build(constant, coeffs):
        prob = AffineFeasibilityProblem(
            var_count=len(coeffs), constant_block=constant, coeff_blocks=tuple(coeffs)
        )
        for B in (prob.constant_block, *prob.coeff_blocks):
            assert not B.flags.writeable
        return [prob.constant_block, *prob.coeff_blocks]

    assert_same_outcome(
        outcome(build, constant, coeffs), outcome(reference_problem_blocks, constant, coeffs)
    )
