"""Canonical JSON files for networks, design states and cascade additions.

Every document is written by the standard library's JSON encoder in one
canonical form: sorted keys, no whitespace, and each float in Python's
shortest round-trip form (repr), so save followed by load reproduces
arrays bit for bit. A non-finite value cannot be written (MalformedFile).
A save renders the text first and writes it to a new file beside the
target, which then replaces the target, so a save that fails leaves the
target file as it was (a power loss is not covered). A network's
identity is the SHA-256 of its canonical text (network_fingerprint).
Matrix entries must be JSON numbers: a string such as "1.5" or a
boolean is malformed, where numpy would read it as a number.

A state file holds the network and each record's free data: Q, epsilon,
the gains and the route. What a state derives from them, each M_cl and
the global rate, it derives on load as NetworkDesignState does, by the
same function. A state loads only if its network validates, its
closed-loop recursion is positive definite, and each Q passes the
storage tests the oracle also applies (protocol._storage_test: positive
definite above its pivot floor, and Q B2 = C' per output channel), so
every state that loads certifies its own network and can be grown. Keys a
state file does not need, such as the stored M_cl, fingerprint and
global_epsilon of older files, are ignored.
Coupling indices and record indices must be JSON integers.

A load parses each matrix into its read-only array once and checks a
state document in this order, so a document with several defects reports
the first one met (and, within one step, the first record in file order):

1. the document: an object of schema 1 and type "state";
2. the network's structure: each matrix 2-D with JSON numbers for
   entries, each coupling's indices integers and its pair unrepeated;
3. validate_network: shapes, indices, the cascade pattern, finiteness;
4. one record per subsystem, each with an integer index, Q and gains
   with JSON numbers for entries, of the shapes protocol._check_shapes
   requires (checked once all four are parsed), and a finite epsilon;
5. every record matrix finite (one test), then each Q symmetric;
6. the closed-loop recursion that derives each M_cl, positive definite
   and finite at each block;
7. per record: a known route, index >= 1, epsilon > 0, no gains on a
   Verified record, then Q above its storage floor and, for every output
   channel j, max_i |(Q B2 - C')_ij| <= 1e-8 * max(1, max_i |C_ji|);
8. record indices contiguous from 1; the state then takes the margins
   of step 6 as they are, with no second recursion.

The tests on Q run once per stack of records whose subsystems share a
shape.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from itertools import chain

import numpy as np

from . import blockla, protocol
from .model import CascadeNetwork, Subsystem, as_matrix, validate_network
from .protocol import DesignRecord, NetworkDesignState, _check_shapes, _derive_margins, _storage_test

__all__ = [
    "MalformedFile",
    "SCHEMA_VERSION",
    "network_to_dict",
    "network_from_dict",
    "network_fingerprint",
    "save_network",
    "load_network",
    "state_to_dict",
    "state_from_dict",
    "save_state",
    "load_state",
    "save_addition",
    "load_addition",
]

SCHEMA_VERSION = 1


class MalformedFile(ValueError):
    """A document that cannot be interpreted under the current schema."""


def _dumps(doc) -> str:
    """The canonical text of a document: sorted keys, no whitespace."""
    try:
        # Every document is a tree built here, so no reference cycle to check.
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False,
                          check_circular=False, default=lambda a: a.tolist())
    except ValueError:
        raise MalformedFile("non-finite value cannot be serialized") from None


def _write(doc, path) -> None:
    # Rendering first means a document that cannot be written leaves the
    # file as it was; so does a write that fails, because the text goes to
    # a new file beside the target, which then replaces it with its mode.
    text = _dumps(doc)
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.write(text + "\n")
        if os.path.exists(path):
            os.chmod(tmp, os.stat(path).st_mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# np.array reads the JSON string "1.5" as 1.5 and true as 1.0. (null reads
# as NaN, which every load rejects as a non-finite entry.)
_NOT_NUMBERS = frozenset((str, bool))


def _matrix(value, name):
    """value as a read-only 2-D float array; a lone number becomes 1x1."""
    if value is None:
        raise MalformedFile(f"missing matrix {name!r}")
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedFile(f"matrix {name!r} is not numeric: {exc}") from None
    if a.ndim == 0:
        entries, a = (value,), a.reshape(1, 1)
    elif a.ndim == 2:
        entries = chain.from_iterable(value)
    else:
        raise MalformedFile(f"matrix {name!r} must be 2-D, got ndim={a.ndim}")
    if not _NOT_NUMBERS.isdisjoint(map(type, entries)):
        raise MalformedFile(f"matrix {name!r} has an entry that is not a JSON number")
    a.setflags(write=False)
    return a


def _number(value, name) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise MalformedFile(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, name) -> int:
    # JSON true loads as bool, which is a subclass of int.
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedFile(f"{name} must be an integer, got {value!r}")
    return value


def _expect(doc, kind):
    if not isinstance(doc, dict):
        raise MalformedFile("top-level document must be an object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise MalformedFile(f"unsupported schema {doc.get('schema')!r}")
    if doc.get("type") != kind:
        raise MalformedFile(f"expected a {kind!r} document, got {doc.get('type')!r}")


def _subsystem_to_dict(sub: Subsystem) -> dict:
    return {"A": sub.A, "B1": sub.B1, "B2": sub.B2, "B3": sub.B3, "C": sub.C}


def _subsystem_from_dict(d, where) -> Subsystem:
    if not isinstance(d, dict):
        raise MalformedFile(f"{where} must be an object")
    try:
        return Subsystem(
            A=_matrix(d.get("A"), "A"),
            B1=_matrix(d.get("B1"), "B1"),
            B2=_matrix(d.get("B2"), "B2"),
            B3=_matrix(d.get("B3"), "B3"),
            C=_matrix(d.get("C"), "C"),
        )
    except ValueError as exc:
        raise MalformedFile(f"{where}: {exc}") from None


def network_to_dict(net: CascadeNetwork) -> dict:
    couplings = [
        {"i": i, "j": j, "h": net.couplings[(i, j)].h}
        for (i, j) in sorted(net.couplings)
    ]
    return {
        "schema": SCHEMA_VERSION,
        "type": "network",
        "subsystems": [_subsystem_to_dict(s) for s in net.subsystems],
        "couplings": couplings,
    }


def network_from_dict(doc) -> CascadeNetwork:
    _expect(doc, "network")
    subs_doc = doc.get("subsystems")
    if not isinstance(subs_doc, list) or not subs_doc:
        raise MalformedFile("a network needs a non-empty subsystem list")
    subs = [_subsystem_from_dict(d, f"subsystems[{k}]") for k, d in enumerate(subs_doc)]
    coup_doc = doc.get("couplings", [])
    if not isinstance(coup_doc, list):
        raise MalformedFile("couplings must be a list")
    blocks = {}
    for k, entry in enumerate(coup_doc):
        if not isinstance(entry, dict):
            raise MalformedFile(f"couplings[{k}] must be an object")
        i = _integer(entry.get("i"), f"couplings[{k}].i")
        j = _integer(entry.get("j"), f"couplings[{k}].j")
        if (i, j) in blocks:
            raise MalformedFile(f"couplings[{k}] repeats the pair ({i}, {j})")
        blocks[(i, j)] = _matrix(entry.get("h"), f"couplings[{k}].h")
    return CascadeNetwork.from_blocks(subs, blocks)


def network_fingerprint(net: CascadeNetwork) -> str:
    return hashlib.sha256(_dumps(network_to_dict(net)).encode("ascii")).hexdigest()


def save_network(net: CascadeNetwork, path) -> None:
    _write(network_to_dict(net), path)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path}: not valid JSON ({exc})") from None
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text ({exc})") from None


def load_network(path) -> CascadeNetwork:
    return network_from_dict(_load_json(path))


_RECORD_MATRICES = ("Q", "K_self", "K_to_prev", "K_prev_to_self")


def _record_to_dict(rec: DesignRecord) -> dict:
    """A record's free data; its M_cl is derived on load, so not written."""
    return {name: getattr(rec, name) for name in ("index", "epsilon", "route") + _RECORD_MATRICES}


def _record_fields(d, where, sub: Subsystem, prev: Subsystem | None) -> dict:
    """A record's free data, each matrix parsed and of the shape
    protocol._check_shapes requires; prev is None for record 1."""
    if not isinstance(d, dict):
        raise MalformedFile(f"{where} must be an object")
    fields = {"index": _integer(d.get("index"), f"{where}.index")}
    for name in _RECORD_MATRICES:
        value = d.get(name)
        fields[name] = None if value is None and name.startswith("K_") else _matrix(value, f"{where}.{name}")
    try:
        _check_shapes(where, fields, sub, prev)
    except protocol.DimensionMismatch as exc:
        raise MalformedFile(str(exc)) from None
    fields["epsilon"] = _number(d.get("epsilon"), f"{where}.epsilon")
    fields["route"] = str(d.get("route"))
    return fields


def _require_finite(fields) -> None:
    """One finiteness test over every record matrix; only when it fails is
    each matrix tested, to name the first non-finite one."""
    matrices = [f[name] for f in fields for name in _RECORD_MATRICES if f[name] is not None]
    if np.isfinite(np.concatenate(matrices, axis=None)).all():
        return
    for k, f in enumerate(fields):
        for name in _RECORD_MATRICES:
            if f[name] is not None and not np.isfinite(f[name]).all():
                raise MalformedFile(f"records[{k}]: {name} has non-finite entries")


def _symmetrize_storages(fields, groups) -> dict:
    """Each group's stack of Q, made symmetric as blockla.symmetric_part
    makes each Q; each record's Q becomes its view into the stack.

    The symmetry test runs once per stack; symmetric_part runs only on a Q
    that fails it, to raise its message, or whose entries are large enough
    for Q + Q' to overflow.
    """
    stacks, exact = {}, []
    for key, ks in groups.items():
        S = np.array([fields[k]["Q"] for k in ks])
        St = S.transpose(0, 2, 1)
        with np.errstate(over="ignore"):
            skew, H = (S - St).max(axis=(1, 2)), 0.5 * (S + St)
        scale = np.abs(S).max(axis=(1, 2))
        fails = (skew > blockla.SYMMETRY_RTOL * np.maximum(1.0, scale)) | (scale > blockla._HALF_MAX)
        exact += [(ks[j], H, j) for j in np.flatnonzero(fails)]
        stacks[key] = H
    for k, H, j in sorted(exact, key=lambda e: e[0]):
        try:
            H[j] = blockla.symmetric_part(fields[k]["Q"], "Q")
        except blockla.AsymmetricMatrix as exc:
            raise MalformedFile(f"records[{k}]: {exc}") from None
    for key, ks in groups.items():
        stacks[key].setflags(write=False)
        for k, Q in zip(ks, stacks[key]):
            fields[k]["Q"] = Q
    return stacks


def state_to_dict(state: NetworkDesignState) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "type": "state",
        "network": network_to_dict(state.net),
        "records": [_record_to_dict(r) for r in state.records],
    }


def state_from_dict(doc) -> NetworkDesignState:
    """A state whose records certify its network, each M_cl derived.

    Each Q must pass the storage tests of centralized_sp_check
    (protocol._storage_test): positive definite with the pivot floor that
    check sets from the largest |Q_ij| of any record (factoring the
    block-diagonal Q meets exactly each block's own pivots), and Q B2 = C'
    per output channel.
    """
    _expect(doc, "state")
    net = network_from_dict(doc.get("network"))
    report = validate_network(net)
    if not report.ok:
        raise MalformedFile(f"invalid network: {report}")
    recs_doc = doc.get("records")
    if not isinstance(recs_doc, list) or not recs_doc:
        raise MalformedFile("a state needs a non-empty record list")
    subs = net.subsystems
    if len(recs_doc) != len(subs):
        raise MalformedFile(f"{len(subs)} subsystems but {len(recs_doc)} records")
    fields = [
        _record_fields(d, f"records[{k}]", subs[k], subs[k - 1] if k else None)
        for k, d in enumerate(recs_doc)
    ]
    _require_finite(fields)
    groups = {}
    for k, sub in enumerate(subs):
        groups.setdefault(sub.B2.shape, []).append(k)
    stacks = _symmetrize_storages(fields, groups)
    margins, failure = _derive_margins(net, fields)
    if failure is not None:
        what = "not finite" if isinstance(failure, blockla.NonFiniteMatrix) else "not positive definite"
        raise MalformedFile(f"the records do not certify the network: closed-loop block {failure.index} is {what}")
    floor = blockla._pivot_floor(max(float(np.abs(H).max()) for H in stacks.values()))
    faults = {}
    for key, ks in groups.items():
        equal, positive, residual, bound = _storage_test(
            stacks[key], np.array([subs[k].B2 for k in ks]), np.array([subs[k].C for k in ks]), floor)
        for j in np.flatnonzero(~(positive & equal)):
            faults[ks[j]] = "Q is not positive definite" if not positive[j] else (
                f"max |Q B2 - C'| = {residual[j]:.3e} exceeds {bound[j]:.3e}")
    records = []
    for k, f in enumerate(fields):
        try:
            records.append(DesignRecord._from_built(**f))
        except ValueError as exc:
            raise MalformedFile(f"records[{k}]: {exc}") from None
        if k in faults:
            raise MalformedFile(f"records[{k}]: {faults[k]}")
    try:
        return NetworkDesignState._from_built(net, records, margins)
    except ValueError as exc:
        raise MalformedFile(str(exc)) from None


def save_state(state: NetworkDesignState, path) -> None:
    _write(state_to_dict(state), path)


def load_state(path) -> NetworkDesignState:
    return state_from_dict(_load_json(path))


def save_addition(sub: Subsystem, h_self, h_prev, h_to_new, path) -> None:
    """Write the pieces that extend a cascade by one subsystem.

    h_self couples the new subsystem to itself, h_prev to its predecessor,
    and h_to_new is the predecessor's new coupling column; each may be None.
    Each is coerced as model.as_matrix does, so 1-D or 3-D input raises
    ValueError and a scalar is written as a 1x1 matrix.
    """
    doc = {
        "schema": SCHEMA_VERSION,
        "type": "addition",
        "subsystem": _subsystem_to_dict(sub),
        "h_self": None if h_self is None else as_matrix(h_self, "h_self"),
        "h_prev": None if h_prev is None else as_matrix(h_prev, "h_prev"),
        "h_to_new": None if h_to_new is None else as_matrix(h_to_new, "h_to_new"),
    }
    _write(doc, path)


def load_addition(path):
    doc = _load_json(path)
    _expect(doc, "addition")
    sub = _subsystem_from_dict(doc.get("subsystem"), "subsystem")

    def opt(name):
        value = doc.get(name)
        return None if value is None else _matrix(value, name)

    return sub, opt("h_self"), opt("h_prev"), opt("h_to_new")
