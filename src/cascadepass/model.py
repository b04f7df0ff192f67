"""Data model for cascade-interconnected linear subsystems.

A cascade is an ordered chain of linear time-invariant subsystems

    dx_i/dt = A_i x_i + B1_i v_i + B2_i w_i + B3_i u_i
    y_i     = C_i x_i

where v_i collects physical coupling from the nearest neighbors
(v = H x with H block tri-diagonal), w_i is an exogenous disturbance
matched to the output y_i, and u_i is a control input sharing the
dimension of v_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Mapping

import numpy as np

__all__ = [
    "Subsystem",
    "CouplingBlock",
    "CascadeNetwork",
    "GlobalSystem",
    "Violation",
    "ValidationReport",
    "InvalidNetwork",
    "as_matrix",
    "validate_network",
    "validate_last_subsystem",
    "assemble_global",
    "extend_network",
]

NON_CASCADE_COUPLING = "NonCascadeCoupling"
DIMENSION_MISMATCH = "DimensionMismatch"
NON_FINITE = "NonFinite"
BAD_INDEX = "BadIndex"

_SUBSYSTEM_MATRICES = ("A", "B1", "B2", "B3", "C")


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce ``value`` to a read-only 2-D float array.

    Scalars become 1x1 matrices. One-dimensional input is rejected because
    the row/column intent is ambiguous; callers must pass nested lists or
    2-D arrays. A read-only float array that owns its data, such as this
    function and the file readers return, is taken as it is; anything else
    is copied, so the result never shares memory the caller can write.
    """
    if (type(value) is np.ndarray and value.ndim == 2 and value.dtype == float
            and not value.flags.writeable and value.flags.owndata):
        return value
    a = np.array(value, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        raise ValueError(
            f"{name}: 1-D input is ambiguous, pass an explicit 2-D shape"
        )
    elif a.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D array, got ndim={a.ndim}")
    a.flags.writeable = False
    return a


def _frozen(a) -> np.ndarray:
    """A read-only float copy of ``a``."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Subsystem:
    """One linear subsystem of the chain.

    B1 (neighbor coupling input) and B3 (control input) share a column
    count; B2 (disturbance input) shares its column count with C's rows.
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    B3: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for f in _SUBSYSTEM_MATRICES:
            object.__setattr__(self, f, as_matrix(getattr(self, f), f))

    @classmethod
    def _from_built(cls, matrices) -> "Subsystem":
        """A subsystem of read-only float 2-D arrays the package has just
        built, such as a load's views of its stacks, given as (name, array)
        pairs; taken as they are."""
        return _built(cls, matrices)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @property
    def p(self) -> int:
        return self.B1.shape[1]


@dataclass(frozen=True)
class CouplingBlock:
    """Coupling gain h; keyed (i, j), subsystem i receives h @ x_j on its v input."""

    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", as_matrix(self.h, "h"))


def _built(cls, fields):
    """An instance of the frozen dataclass cls holding fields, a mapping or
    (name, value) pairs, as they are."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class CascadeNetwork:
    """A chain of subsystems plus the sparse coupling blocks.

    Couplings are keyed (receiver, source) with 1-based indices. Only keys
    with abs(receiver - source) <= 1 describe a cascade; anything else is
    reported by validate_network.
    """

    subsystems: tuple[Subsystem, ...]
    couplings: Mapping[tuple[int, int], CouplingBlock] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        object.__setattr__(self, "couplings", dict(self.couplings))

    @classmethod
    def from_blocks(cls, subsystems, coupling_matrices) -> "CascadeNetwork":
        """Build from raw matrices keyed by (receiver, source)."""
        coup = {key: CouplingBlock(h=h) for key, h in coupling_matrices.items()}
        return cls(subsystems=tuple(subsystems), couplings=coup)

    @classmethod
    def _from_built(cls, subsystems, coupling_matrices) -> "CascadeNetwork":
        """from_blocks for coupling matrices the package has just built as
        read-only float 2-D arrays; they are taken as they are."""
        coup = {key: _built(CouplingBlock, (("h", h),)) for key, h in coupling_matrices.items()}
        return cls(subsystems=tuple(subsystems), couplings=coup)

    @property
    def n_subsystems(self) -> int:
        return len(self.subsystems)

    def h(self, i: int, j: int):
        """Coupling matrix h(i, j) or None when absent."""
        block = self.couplings.get((i, j))
        return None if block is None else block.h

    def h_or_zero(self, i: int, j: int) -> np.ndarray:
        """Coupling matrix h(i, j), a zero block when absent.

        Raises IndexError unless 1 <= i, j <= n_subsystems.
        """
        N = self.n_subsystems
        if not (1 <= i <= N and 1 <= j <= N):
            raise IndexError(f"h({i}, {j}) is outside a {N}-subsystem chain")
        block = self.couplings.get((i, j))
        if block is not None:
            return block.h
        p = self.subsystems[i - 1].p
        n = self.subsystems[j - 1].n
        return np.zeros((p, n))


@dataclass(frozen=True)
class GlobalSystem:
    """Stacked matrices of the whole cascade.

    A, B1, B2, B3, C are block diagonal; H is the block tri-diagonal
    coupling map with v = H x.
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    B3: np.ndarray
    C: np.ndarray
    H: np.ndarray
    state_sizes: tuple[int, ...]
    input_sizes: tuple[int, ...]

    def __post_init__(self):
        for f in ("A", "B1", "B2", "B3", "C", "H"):
            object.__setattr__(self, f, _frozen(getattr(self, f)))
        object.__setattr__(self, "state_sizes", tuple(self.state_sizes))
        object.__setattr__(self, "input_sizes", tuple(self.input_sizes))


@dataclass(frozen=True)
class Violation:
    """One structural problem found by validate_network."""

    code: str
    where: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "network ok"
        return "; ".join(f"{v.code} at {v.where}: {v.message}" for v in self.violations)


class InvalidNetwork(ValueError):
    """Raised when a network with validation violations is assembled."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(str(report))


def validate_network(net: CascadeNetwork) -> ValidationReport:
    """Check structure and dimensions; violations are returned as data.

    One finiteness test covers every matrix, and one comparison with
    _shape_table every shape and coupling index; only when one of them fails
    are the subsystems and couplings checked one by one, to word each
    violation.
    """
    N = net.n_subsystems
    if N == 0:
        return ValidationReport((Violation(BAD_INDEX, (), "network has no subsystems"),))
    matrices = [getattr(sub, name) for sub in net.subsystems for name in _SUBSYSTEM_MATRICES]
    matrices += [block.h for block in net.couplings.values()]
    finite = _all_finite(matrices)
    shapes = np.fromiter(chain.from_iterable(map(attrgetter("shape"), matrices)), int, 2 * len(matrices)).reshape(-1, 2)
    if finite and _shapes_fit(shapes[:5 * N].reshape(N, 5, 2), list(net.couplings), shapes[5 * N:]):
        return ValidationReport(())
    bad: list[Violation] = []
    for i, sub in enumerate(net.subsystems, start=1):
        bad += _subsystem_violations(i, sub, finite)
    for key, block in net.couplings.items():
        bad += _coupling_violations(net, key, block, finite)
    return ValidationReport(tuple(bad))


def _all_finite(matrices) -> bool:
    """Whether every matrix is finite, by one test over the distinct arrays
    they are views of (such as the stacks of a load) and the ones that own
    their data. A non-finite entry outside the matrices can only make this
    False, which sends validate_network to its per-matrix tests."""
    arrays = {}
    for a in matrices:
        if type(a.base) is np.ndarray:
            a = a.base
        arrays[id(a)] = a
    return bool(np.isfinite(np.concatenate(list(arrays.values()), axis=None)).all())


def _shape_table(n, p, m) -> np.ndarray:
    """The shape each matrix of _SUBSYSTEM_MATRICES must have in subsystems
    of state, coupling and output sizes n, p and m (arrays of one length):
    A n x n, B1 n x p, B2 n x m, B3 n x p, C m x n."""
    return np.array([n, n, n, p, n, m, n, p, m, n]).T.reshape(-1, 5, 2)


def _shapes_fit(shapes, keys, h_shapes) -> bool:
    """Whether _subsystem_violations and _coupling_violations find nothing
    but non-finite entries. shapes[i - 1, c] is the shape of subsystem i's
    matrix _SUBSYSTEM_MATRICES[c], keys the coupling keys and h_shapes
    their h's shapes. Each subsystem must hold _shape_table's shapes at
    n = rows of A, p = columns of B1 and m = rows of C, with n and m
    positive, and each coupling (i, j) be a cascade pair within the chain
    whose h is p_i x n_j."""
    n, p, m = shapes[:, 0, 0], shapes[:, 1, 1], shapes[:, 4, 0]
    if not ((shapes == _shape_table(n, p, m)).all() and min(n.min(), m.min()) > 0):
        return False
    if not keys:
        return True
    try:
        keys = np.array(keys)
    except ValueError:  # keys of mixed lengths
        return False
    if keys.dtype.kind != "i" or keys.shape[1:] != (2,):
        return False
    i, j = keys.T - 1
    return (min(i.min(), j.min()) >= 0 and max(i.max(), j.max()) < len(shapes) and np.abs(i - j).max() <= 1
            and bool((h_shapes == np.array([p[i], n[j]]).T).all()))


def validate_last_subsystem(net: CascadeNetwork) -> ValidationReport:
    """validate_network restricted to what the last subsystem brings.

    Checks subsystem N and the couplings (N, N), (N, N-1) and (N-1, N), for
    a network whose first N-1 subsystems and the couplings among them were
    validated before, as extend_network builds from a validated network.
    """
    N = net.n_subsystems
    bad = _subsystem_violations(N, net.subsystems[-1], finite=False)
    for key in ((N, N), (N, N - 1), (N - 1, N)):
        block = net.couplings.get(key)
        if block is not None:
            bad += _coupling_violations(net, key, block, finite=False)
    return ValidationReport(tuple(bad))


def _subsystem_violations(i: int, sub: Subsystem, finite: bool) -> list[Violation]:
    """Subsystem i's violations; finite says every matrix is known finite."""
    n = sub.A.shape[0]
    if sub.A.shape[1] != n:
        return [Violation(DIMENSION_MISMATCH, (i,), f"A is {sub.A.shape}, not square")]
    if n == 0:
        return [Violation(DIMENSION_MISMATCH, (i,), "A is (0, 0): a subsystem needs a state")]
    bad = []
    for name in () if finite else _SUBSYSTEM_MATRICES:
        if not np.isfinite(getattr(sub, name)).all():
            bad.append(Violation(NON_FINITE, (i,), f"{name} has non-finite entries"))
    for name in ("B1", "B2", "B3"):
        rows = getattr(sub, name).shape[0]
        if rows != n:
            bad.append(
                Violation(DIMENSION_MISMATCH, (i,), f"{name} has {rows} rows, state size is {n}")
            )
    if sub.C.shape[1] != n:
        bad.append(
            Violation(DIMENSION_MISMATCH, (i,), f"C has {sub.C.shape[1]} columns, state size is {n}")
        )
    if sub.C.shape[0] == 0:
        bad.append(Violation(DIMENSION_MISMATCH, (i,), "C has 0 rows: a subsystem needs an output"))
    if sub.B2.shape[1] != sub.C.shape[0]:
        bad.append(
            Violation(
                DIMENSION_MISMATCH,
                (i,),
                f"B2 has {sub.B2.shape[1]} columns but C has {sub.C.shape[0]} rows; "
                "disturbance and output must share a dimension",
            )
        )
    if sub.B3.shape[1] != sub.B1.shape[1]:
        bad.append(
            Violation(
                DIMENSION_MISMATCH,
                (i,),
                f"B3 has {sub.B3.shape[1]} columns but B1 has {sub.B1.shape[1]}; "
                "control and coupling inputs must share a dimension",
            )
        )
    return bad


def _coupling_violations(net: CascadeNetwork, key, block: CouplingBlock, finite: bool) -> list[Violation]:
    if not (isinstance(key, tuple) and len(key) == 2 and all(isinstance(x, (int, np.integer)) for x in key)):
        return [Violation(BAD_INDEX, (), f"coupling key {key!r} is not a pair of integers")]
    i, j = key
    N = net.n_subsystems
    if not (1 <= i <= N and 1 <= j <= N):
        return [Violation(BAD_INDEX, (i, j), "coupling index out of range")]
    if abs(i - j) > 1:
        return [Violation(NON_CASCADE_COUPLING, (i, j), "coupling skips past a nearest neighbor")]
    bad = []
    p = net.subsystems[i - 1].p
    n = net.subsystems[j - 1].n
    if block.h.shape != (p, n):
        bad.append(Violation(DIMENSION_MISMATCH, (i, j), f"h is {block.h.shape}, expected ({p}, {n})"))
    if not (finite or np.isfinite(block.h).all()):
        bad.append(Violation(NON_FINITE, (i, j), "h has non-finite entries"))
    return bad


def _offsets(sizes) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(sizes)])


def assemble_global(net: CascadeNetwork) -> GlobalSystem:
    """Stack a validated network into global matrices.

    Raises InvalidNetwork when validate_network reports violations.
    """
    report = validate_network(net)
    if not report.ok:
        raise InvalidNetwork(report)
    return _stack_network(net)


def _stack_network(net: CascadeNetwork) -> GlobalSystem:
    """assemble_global of a network already validated, such as a design state's."""
    subs = net.subsystems
    ns = [s.n for s in subs]
    ms = [s.m for s in subs]
    ps = [s.p for s in subs]
    nt, mt, pt = sum(ns), sum(ms), sum(ps)
    on, om, op = _offsets(ns), _offsets(ms), _offsets(ps)

    A = np.zeros((nt, nt))
    B1 = np.zeros((nt, pt))
    B2 = np.zeros((nt, mt))
    B3 = np.zeros((nt, pt))
    C = np.zeros((mt, nt))
    H = np.zeros((pt, nt))

    for k, s in enumerate(subs):
        A[on[k]:on[k + 1], on[k]:on[k + 1]] = s.A
        B1[on[k]:on[k + 1], op[k]:op[k + 1]] = s.B1
        B2[on[k]:on[k + 1], om[k]:om[k + 1]] = s.B2
        B3[on[k]:on[k + 1], op[k]:op[k + 1]] = s.B3
        C[om[k]:om[k + 1], on[k]:on[k + 1]] = s.C

    for (i, j), block in net.couplings.items():
        H[op[i - 1]:op[i], on[j - 1]:on[j]] = block.h

    return GlobalSystem(
        A=A, B1=B1, B2=B2, B3=B3, C=C, H=H,
        state_sizes=tuple(ns), input_sizes=tuple(ps),
    )


def extend_network(net: CascadeNetwork, sub: Subsystem, new_couplings) -> CascadeNetwork:
    """Append one subsystem plus its coupling blocks, returning a new network.

    ``new_couplings`` maps absolute (receiver, source) index pairs to
    matrices; None values are skipped. The network's frozen coupling
    blocks are shared, not copied.
    """
    coup = dict(net.couplings)
    for key, h in new_couplings.items():
        if h is not None:
            coup[key] = CouplingBlock(h=h)
    return CascadeNetwork(subsystems=net.subsystems + (sub,), couplings=coup)
