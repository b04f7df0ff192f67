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
same function. A state loads only if its network validates and its
records certify it by the one rule a state's constructor applies too
(protocol._derive_margins: the closed-loop recursion positive definite,
then each Q passing the storage tests the oracle also applies), so every
state that loads certifies its own network and can be grown. Keys a
state file does not need, such as the stored M_cl, fingerprint and
global_epsilon of older files, are ignored.
Coupling indices and record indices must be JSON integers.

A load checks a state document in this order, so a document with several
defects reports the first one met (and, within one step, the first
record in file order):

1. the document: an object of schema 1 and type "state";
2. the network's structure: each matrix 2-D with JSON numbers for
   entries, each coupling's indices integers and its pair unrepeated;
3. validate_network: shapes, indices, the cascade pattern, finiteness;
4. one record per subsystem, each with an integer index, Q and gains
   with JSON numbers for entries, of the shapes protocol._record_shapes
   gives (checked once all four are parsed), and a finite epsilon;
5. every record matrix finite, then each Q symmetric;
6. the records' scalar checks: a known route, index >= 1, epsilon > 0,
   no gains on a Verified record;
7. the one certification call, protocol._derive_margins: the recursion
   that derives each M_cl, positive definite and finite at each block,
   then the storages: Q positive definite, each pivot above 1e-12 *
   max(1, max_k |Q_jk|) of its own row j, and, for every output channel
   j, max_i |(Q B2 - C')_ij| <= 1e-8 * max(1, max_i |C_ji|);
8. record indices contiguous from 1; the state then takes the margins
   of step 7 as they are, with no second recursion.

A network or state document runs each step once per stack of matrices
or records of one shape, not once per matrix, and calls the function
that owns each check: its matrices are parsed by one _parse, per stack
of values nested alike, and each loaded matrix is a read-only view of a
read-only stack; their shapes are compared with one table, the record
matrices tested for finiteness by model._all_finite, each stack of
storages of one size for symmetry by blockla._symmetric_parts, each
stack of records sharing B2's shape, (n, m), by one
protocol._storage_test, whose verdict for each record is the one it
would get alone or in the oracle's dense Q, and the diagonal closed-loop
blocks are built per stack of steps of one shape, the coupling blocks
step by step. A document is a tree as json.load returns it. Only when a
stacked test fails does the per-item code of its step run (_matrix,
_record_defect, model._subsystem_violations, protocol._check_shapes), to
word the first defect. An addition document, five to eight matrices, is
parsed matrix by matrix with _matrix.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import chain

import numpy as np

from . import blockla, protocol
from .model import _SUBSYSTEM_MATRICES, CascadeNetwork, Subsystem, _all_finite, as_matrix, validate_network
from .protocol import (
    _RECORD_MATRICES,
    DesignRecord,
    NetworkDesignState,
    _check_shapes,
    _derive_margins,
    _groups,
    _record_shapes,
)

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
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False)
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
# A lone number must also not be null, which _matrix reads as a missing matrix.
_NOT_LONE_NUMBERS = _NOT_NUMBERS | {type(None)}


def _matrix(value, name):
    """value as a read-only 2-D float array; a lone number becomes 1x1.

    An addition's matrices are parsed by this one by one; _parse parses a
    network's or a state's together, and this words the first defect when
    a stacked test of _parse fails.
    """
    if value is None:
        raise MalformedFile(f"missing matrix {name!r}")
    try:
        a = np.array(value, dtype=float)
    except OverflowError:
        raise MalformedFile(f"matrix {name!r} has an entry too large for a float") from None
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


def _parse(values):
    """(matrices, shapes): each of values parsed as _matrix parses it, as a
    read-only view of a read-only stack, and an array of the matrices'
    shapes; or None when a stacked test fails, which it does exactly when
    _matrix fails on one of values.

    The values nested as matrices of one shape make one stack, built by one
    np.array call and then given one test of its nesting and one of its
    entries' types; the other values, which parse only as lone numbers,
    make one more.
    """
    groups = {}
    for k, value in enumerate(values):
        try:
            key = len(value), len(value[0])
        except (TypeError, IndexError, KeyError):
            key = None
        groups.setdefault(key, []).append(k)
    matrices = [None] * len(values)
    shapes = np.ones((len(values), 2), dtype=int)
    for key, ks in groups.items():
        group = [values[k] for k in ks]
        try:
            stack = np.array(group, dtype=float)
        except (TypeError, ValueError, OverflowError):
            return None
        if key is None:
            if stack.ndim != 1 or not _NOT_LONE_NUMBERS.isdisjoint(map(type, group)):
                return None
            stack = stack.reshape(-1, 1, 1)
        elif stack.ndim != 3 or not _NOT_NUMBERS.isdisjoint(
                map(type, chain.from_iterable(chain.from_iterable(group)))):
            return None
        else:
            shapes[ks] = key
        stack.setflags(write=False)
        for k, a in zip(ks, stack):
            matrices[k] = a
    return matrices, shapes


def _is_integer(value) -> bool:
    # JSON true loads as bool, which is a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool)


def _numbers(values):
    """Each of values as a float, or None unless every one is a JSON number
    (not a boolean) that a float holds finitely."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return None
    try:
        a = np.array(values, dtype=float)
    except OverflowError:
        return None
    return a.tolist() if np.isfinite(a).all() else None


def _number(value, name) -> float:
    x = _numbers([value])
    if x is None:
        raise MalformedFile(f"{name} must be a finite number, got {value!r}")
    return x[0]


def _integer(value, name) -> int:
    if not _is_integer(value):
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
    return {name: getattr(sub, name).tolist() for name in _SUBSYSTEM_MATRICES}


def _subsystem_matrices(d, where) -> list:
    """The matrices of the subsystem object d, in _SUBSYSTEM_MATRICES order,
    each parsed by _matrix; MalformedFile at the first defect, worded at
    where."""
    if not isinstance(d, dict):
        raise MalformedFile(f"{where} must be an object")
    try:
        return [_matrix(d.get(name), name) for name in _SUBSYSTEM_MATRICES]
    except MalformedFile as exc:
        raise MalformedFile(f"{where}: {exc}") from None


def network_to_dict(net: CascadeNetwork) -> dict:
    couplings = [
        {"i": i, "j": j, "h": net.couplings[(i, j)].h.tolist()}
        for (i, j) in sorted(net.couplings)
    ]
    return {
        "schema": SCHEMA_VERSION,
        "type": "network",
        "subsystems": [_subsystem_to_dict(s) for s in net.subsystems],
        "couplings": couplings,
    }


def _coupling_defect(coup_doc) -> None:
    """Raise MalformedFile at the first defect of a network's couplings."""
    if not isinstance(coup_doc, list):
        raise MalformedFile("couplings must be a list")
    pairs = set()
    for k, entry in enumerate(coup_doc):
        if not isinstance(entry, dict):
            raise MalformedFile(f"couplings[{k}] must be an object")
        pair = (_integer(entry.get("i"), f"couplings[{k}].i"), _integer(entry.get("j"), f"couplings[{k}].j"))
        if pair in pairs:
            raise MalformedFile(f"couplings[{k}] repeats the pair {pair}")
        pairs.add(pair)
        _matrix(entry.get("h"), f"couplings[{k}].h")


def _subsystem_values(subs_doc) -> list:
    """The matrix values of the subsystem objects subs_doc, five each."""
    return [d.get(name) for d in subs_doc for name in _SUBSYSTEM_MATRICES]


def _subsystems(matrices, count) -> list:
    """The count subsystems whose matrices lead matrices, five each."""
    return [Subsystem._from_built(zip(_SUBSYSTEM_MATRICES, matrices[k:k + 5])) for k in range(0, 5 * count, 5)]


def _stacked_network(subs_doc, coup_doc, values):
    """(subsystems, coupling matrices by pair, rest) of a network's objects,
    its matrices and the further values parsed by one _parse, rest the
    (matrices, shapes) of those values; None when the parse fails, or a
    subsystem or coupling is not an object, or a coupling's indices are not
    integers or repeat a pair."""
    if not (all(isinstance(d, dict) for d in subs_doc) and isinstance(coup_doc, list)
            and all(isinstance(entry, dict) for entry in coup_doc)):
        return None
    pairs = [(entry.get("i"), entry.get("j")) for entry in coup_doc]
    indices = list(chain.from_iterable(pairs))
    if not ((set(map(type, indices)) <= {int} or all(map(_is_integer, indices))) and len(set(pairs)) == len(pairs)):
        return None
    parsed = _parse(_subsystem_values(subs_doc) + [entry.get("h") for entry in coup_doc] + values)
    if parsed is None:
        return None
    matrices, shapes = parsed
    held = 5 * len(subs_doc)
    rest = held + len(pairs)
    return (_subsystems(matrices, len(subs_doc)), dict(zip(pairs, matrices[held:rest])),
            (matrices[rest:], shapes[rest:]))


def _network_from_dict(doc, values):
    """(network, rest): the network of doc and the (matrices, shapes) of
    the further values, all parsed by one _parse; rest is None when the
    values alone fail it. A defect of the network raises as
    network_from_dict words it."""
    _expect(doc, "network")
    subs_doc = doc.get("subsystems")
    if not isinstance(subs_doc, list) or not subs_doc:
        raise MalformedFile("a network needs a non-empty subsystem list")
    coup_doc = doc.get("couplings", [])
    parsed = _stacked_network(subs_doc, coup_doc, values)
    if parsed is None and values:
        # The failure may lie in the further values alone.
        return _network_from_dict(doc, [])[0], None
    if parsed is None:
        for k, d in enumerate(subs_doc):
            _subsystem_matrices(d, f"subsystems[{k}]")
        _coupling_defect(coup_doc)
    subs, blocks, rest = parsed
    return CascadeNetwork._from_built(subs, blocks), rest


def network_from_dict(doc) -> CascadeNetwork:
    return _network_from_dict(doc, [])[0]


def network_fingerprint(net: CascadeNetwork) -> str:
    return hashlib.sha256(_dumps(network_to_dict(net)).encode("ascii")).hexdigest()


def save_network(net: CascadeNetwork, path) -> None:
    _write(network_to_dict(net), path)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text ({exc})") from None
    except ValueError as exc:
        # A JSONDecodeError, or an integer of more digits than int() reads.
        raise MalformedFile(f"{path}: not valid JSON ({exc})") from None


def load_network(path) -> CascadeNetwork:
    return network_from_dict(_load_json(path))


def _record_to_dict(rec: DesignRecord) -> dict:
    """A record's free data; its M_cl is derived on load, so not written."""
    doc = {"index": rec.index, "epsilon": rec.epsilon, "route": rec.route}
    for name in _RECORD_MATRICES:
        a = getattr(rec, name)
        doc[name] = None if a is None else a.tolist()
    return doc


def _record_defect(d, where, shapes) -> None:
    """Raise MalformedFile at the first defect of the record object d (step
    4 of the module docstring), shapes being its row of _record_shapes."""
    if not isinstance(d, dict):
        raise MalformedFile(f"{where} must be an object")
    _integer(d.get("index"), f"{where}.index")
    matrices = {}
    for name in _RECORD_MATRICES:
        value = d.get(name)
        if value is not None or name == "Q":
            matrices[name] = _matrix(value, f"{where}.{name}")
    try:
        _check_shapes(where, matrices, shapes)
    except protocol.DimensionMismatch as exc:
        raise MalformedFile(str(exc)) from None
    _number(d.get("epsilon"), f"{where}.epsilon")


def _record_sites(recs_doc):
    """The site 4 k + c of record k's _RECORD_MATRICES[c], for its Q and each
    gain it carries; None unless recs_doc is a list of objects with integer
    indices."""
    if not (isinstance(recs_doc, list) and all(isinstance(d, dict) and _is_integer(d.get("index")) for d in recs_doc)):
        return None
    return [4 * k + c for k, d in enumerate(recs_doc) for c, name in enumerate(_RECORD_MATRICES)
            if c == 0 or d.get(name) is not None]


def _record_fields(recs_doc, subs, sites, parsed):
    """Each record's free data, one mapping by record field name each, its
    matrices those of parsed, the (matrices, shapes) _parse gave the values
    at sites (_record_sites). The first defect, if any, is raised by
    _record_defect, which runs only when a test over every record fails:
    sites or parsed None, a shape other than _record_shapes's or an epsilon
    that is not a finite number."""
    table = _record_shapes(subs)
    numbers = _numbers([d.get("epsilon") for d in recs_doc]) if sites is not None and parsed is not None else None
    if numbers is not None and np.array_equal(table.reshape(-1, 2)[sites], parsed[1]):
        fields = [
            {"index": d["index"], "epsilon": eps, "route": str(d.get("route")),
             "K_self": None, "K_to_prev": None, "K_prev_to_self": None}
            for d, eps in zip(recs_doc, numbers)
        ]
        for site, a in zip(sites, parsed[0]):
            fields[site // 4][_RECORD_MATRICES[site % 4]] = a
        return fields
    for k, d in enumerate(recs_doc):
        _record_defect(d, f"records[{k}]", table[k])


def _require_finite(fields) -> None:
    """One model._all_finite test of the record matrices; only when it
    fails is each record matrix tested, to name the first non-finite one."""
    if _all_finite([f[name] for f in fields for name in _RECORD_MATRICES if f[name] is not None]):
        return
    for k, f in enumerate(fields):
        for name in _RECORD_MATRICES:
            if f[name] is not None and not np.isfinite(f[name]).all():
                raise MalformedFile(f"records[{k}]: {name} has non-finite entries")


def _symmetrize_storages(fields) -> None:
    """Each record's Q replaced by its symmetric part, a view into the
    stack of the storages of its size, which blockla._symmetric_parts
    checks and symmetrizes in one call; MalformedFile at the first
    asymmetric Q in file order."""
    faults = []
    for ks in _groups([len(f["Q"]) for f in fields]):
        try:
            H = blockla._symmetric_parts(np.array([fields[k]["Q"] for k in ks]), "Q")
        except blockla.AsymmetricMatrix as exc:
            faults.append((ks[exc.index], str(exc)))
            continue
        H.setflags(write=False)
        for k, Q in zip(ks, H):
            fields[k]["Q"] = Q
    if faults:
        k, message = min(faults)
        raise MalformedFile(f"records[{k}]: {message}")


def state_to_dict(state: NetworkDesignState) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "type": "state",
        "network": network_to_dict(state.net),
        "records": [_record_to_dict(r) for r in state.records],
    }


def state_from_dict(doc) -> NetworkDesignState:
    """A state whose records certify its network, each M_cl derived.

    The records are judged as NetworkDesignState judges them, by one call
    of protocol._derive_margins, whose fault is raised as MalformedFile.
    """
    _expect(doc, "state")
    # The records' matrices are parsed with the network's, and checked after it.
    recs_doc = doc.get("records")
    sites = _record_sites(recs_doc)
    values = [] if sites is None else [recs_doc[site // 4].get(_RECORD_MATRICES[site % 4]) for site in sites]
    net, parsed = _network_from_dict(doc.get("network"), values)
    report = validate_network(net)
    if not report.ok:
        raise MalformedFile(f"invalid network: {report}")
    if not isinstance(recs_doc, list) or not recs_doc:
        raise MalformedFile("a state needs a non-empty record list")
    subs = net.subsystems
    if len(recs_doc) != len(subs):
        raise MalformedFile(f"{len(subs)} subsystems but {len(recs_doc)} records")
    fields = _record_fields(recs_doc, subs, sites, parsed)
    _require_finite(fields)
    _symmetrize_storages(fields)
    records = []
    for k, f in enumerate(fields):
        try:
            records.append(DesignRecord._from_built(**f))
        except ValueError as exc:
            raise MalformedFile(f"records[{k}]: {exc}") from None
    margins, fault = _derive_margins(net, fields)
    if fault is not None:
        raise MalformedFile(fault[1])
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
    doc = {"schema": SCHEMA_VERSION, "type": "addition", "subsystem": _subsystem_to_dict(sub)}
    for name, h in (("h_self", h_self), ("h_prev", h_prev), ("h_to_new", h_to_new)):
        doc[name] = None if h is None else as_matrix(h, name).tolist()
    _write(doc, path)


def load_addition(path):
    doc = _load_json(path)
    _expect(doc, "addition")
    sub = Subsystem._from_built(zip(_SUBSYSTEM_MATRICES, _subsystem_matrices(doc.get("subsystem"), "subsystem")))
    h = [None if doc.get(name) is None else _matrix(doc[name], name) for name in ("h_self", "h_prev", "h_to_new")]
    return sub, *h
