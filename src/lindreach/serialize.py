# JSON schemas shared by the library and CLI: matrices, generators,
# resource sets, transport plans, path samples and reports.

from __future__ import annotations

import itertools
import json
import sys

import numpy as np

from .hormander import ResourceSet
from .lindblad import BilinearTerm, JumpTerm, Lindbladian
from .reach import ResourceSetK
from .tangent import PathSample
from .transport import (
    AmplitudeDamp,
    ApplyUnitary,
    TransportPlan,
    Transposition,
)


class SchemaError(ValueError):
    """Raised when a JSON document does not match the expected schema."""


_KINDS = {int: "an integer", float: "a finite number", bool: "a boolean",
          str: "a string", dict: "an object", list: "a list"}


def _field(obj, name: str, kind: type, default=None):
    """obj[name], checked by _value; obj must be a JSON object."""
    if type(obj) is not dict:
        raise SchemaError(f"expected a JSON object with field {name!r}, got {obj!r}")
    return _value(obj.get(name, default), name, kind)


def _value(x, name: str, kind: type):
    """x, required to be of the JSON kind named in _KINDS. int excludes
    booleans, and float admits any finite JSON number and returns it as a
    float."""
    if kind is float:
        ok = type(x) in (int, float) and abs(x) <= sys.float_info.max
    else:
        ok = type(x) is kind
    if not ok:
        raise SchemaError(f"field {name!r} must be {_KINDS[kind]}, got {x!r}")
    return float(x) if kind is float else x


def _positive(obj, name: str) -> int:
    """obj[name], required to be a JSON integer of at least 1."""
    n = _field(obj, name, int)
    if n < 1:
        raise SchemaError(f"field {name!r} must be a positive integer, got {n!r}")
    return n


def matrix_to_json(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    return {"dim": M.shape[0],
            "entries": np.stack([M.real, M.imag], -1).reshape(-1, 2).tolist()}


def matrix_from_json(obj) -> np.ndarray:
    d = _positive(obj, "dim")
    entries = obj.get("entries")
    if not isinstance(entries, list) or len(entries) != d * d:
        raise SchemaError(f"expected a list of {d * d} entries")
    try:
        pairs = np.array(entries)
    except ValueError as exc:
        raise SchemaError(f"matrix entries are ragged: {exc}") from exc
    if pairs.dtype.kind not in "biuf" or pairs.shape != (d * d, 2):
        raise SchemaError("matrix entries must be [re, im] number pairs")
    if not np.all(np.isfinite(pairs)):
        raise SchemaError("matrix entries must be finite numbers")
    # numpy reads true as 1, so booleans are found by type, not by dtype
    if bool in set(map(type, itertools.chain.from_iterable(entries))):
        raise SchemaError("matrix entries must be finite numbers, not booleans")
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(d, d)


def lindbladian_to_json(L: Lindbladian) -> dict:
    out = {"dim": L.dim,
           "hamiltonian": matrix_to_json(L.hamiltonian),
           "jumps": [{"a": matrix_to_json(j.a), "rate": float(j.rate)}
                     for j in L.jumps]}
    if L.bilinear is not None:
        out["bilinear"] = {"ops": [matrix_to_json(a) for a in L.bilinear.ops],
                           "kossakowski": matrix_to_json(L.bilinear.kossakowski)}
    return out


def lindbladian_from_json(obj) -> Lindbladian:
    dim = _positive(obj, "dim")
    H = (matrix_from_json(_field(obj, "hamiltonian", dict))
         if "hamiltonian" in obj else None)
    jumps = [JumpTerm(matrix_from_json(_field(j, "a", dict)),
                      _field(j, "rate", float))
             for j in _field(obj, "jumps", list, [])]
    bil = None
    if obj.get("bilinear") is not None:
        b = obj["bilinear"]
        bil = BilinearTerm([matrix_from_json(m) for m in _field(b, "ops", list)],
                           matrix_from_json(_field(b, "kossakowski", dict)))
    return Lindbladian(dim, hamiltonian=H, jumps=jumps, bilinear=bil)


def resource_set_from_json(obj) -> ResourceSet:
    return ResourceSet(dim=_positive(obj, "dim"),
                       elements=[matrix_from_json(e)
                                 for e in _field(obj, "elements", list)])


def resource_set_k_from_json(obj) -> ResourceSetK:
    return ResourceSetK(
        generators=[lindbladian_from_json(L)
                    for L in _field(obj, "generators", list)],
        cone_combinations=_field(obj, "cone_combinations", bool, False),
        max_total_rate=_field(obj, "max_total_rate", float, 1.0))


def step_to_json(step) -> dict:
    if isinstance(step, ApplyUnitary):
        return {"kind": "unitary", "U": matrix_to_json(step.U)}
    if isinstance(step, AmplitudeDamp):
        return {"kind": "amplitude_damp", "register": int(step.register),
                "retention": float(step.retention)}
    if isinstance(step, Transposition):
        return {"kind": "transposition", "i": int(step.i), "j": int(step.j)}
    raise SchemaError(f"unknown plan step {step!r}")


def step_from_json(obj):
    kind = _field(obj, "kind", str)
    if kind == "unitary":
        return ApplyUnitary(matrix_from_json(_field(obj, "U", dict)))
    if kind == "amplitude_damp":
        return AmplitudeDamp(_field(obj, "register", int),
                             _field(obj, "retention", float))
    if kind == "transposition":
        return Transposition(_field(obj, "i", int), _field(obj, "j", int))
    raise SchemaError(f"unknown plan step kind {kind!r}")


def plan_to_json(plan: TransportPlan) -> dict:
    return {"k": plan.k,
            "steps": [step_to_json(s) for s in plan.steps],
            "counts": plan.counts}


def plan_from_json(obj) -> TransportPlan:
    plan = TransportPlan(_positive(obj, "k"))
    plan.steps.extend(step_from_json(s) for s in _field(obj, "steps", list))
    return plan


def path_sample_to_json(path: PathSample) -> dict:
    out = {"times": [float(t) for t in path.times],
           "states": [matrix_to_json(s) for s in path.states]}
    if path.derivs is not None:
        out["derivs"] = [matrix_to_json(x) for x in path.derivs]
    return out


def path_sample_from_json(obj) -> PathSample:
    times = [_value(t, "times", float) for t in _field(obj, "times", list)]
    states = [matrix_from_json(s) for s in _field(obj, "states", list)]
    derivs = None
    if obj.get("derivs") is not None:
        derivs = [matrix_from_json(x) for x in _field(obj, "derivs", list)]
    return PathSample(times, states, derivs)


def load_json(path: str):
    """Parse a JSON file, reporting the byte offset on malformed input."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed JSON in {path} at byte offset {exc.pos}: {exc.msg}"
        ) from exc


def dump_json(obj, path: str | None = None) -> str:
    """obj as one line of JSON with sorted keys, also written to path (with
    a final newline) when one is given; a report holding NaN or Infinity
    raises ValueError, as JSON has neither. Without indent, json uses its C
    encoder, and floats are written by float.__repr__ either way. A report is
    a tree built for one call, so the circular-reference check (a dict
    insert and delete per [re, im] pair) is skipped, and the only ValueError
    left is the non-finite number."""
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False,
                          check_circular=False)
    except ValueError as exc:
        raise ValueError(f"report contains a non-finite number: {exc}") from exc
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
