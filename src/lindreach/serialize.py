# JSON schemas shared by the library and CLI: matrices, generators,
# resource sets, transport plans, path samples and reports.

from __future__ import annotations

import itertools
import json
import os
import stat
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
    return matrices_to_json([M])[0]


def matrices_to_json(Ms) -> list[dict]:
    """JSON objects of a list or (n, d, d) stack of d x d matrices, their
    [re, im] pairs converted to Python floats in one tolist() call."""
    Ms = np.asarray(Ms, dtype=complex)
    if not len(Ms):
        return []
    n, d = Ms.shape[:2]
    entries = np.stack([Ms.real, Ms.imag], -1).reshape(n, d * d, 2).tolist()
    return [{"dim": d, "entries": e} for e in entries]


def matrix_from_json(obj) -> np.ndarray:
    return matrices_from_json([obj])[0]


def matrices_from_json(objs: list) -> list[np.ndarray]:
    """The matrices of a JSON list of matrix objects. When they share one
    dim and every entry is a valid [re, im] pair, the list is read as one
    stack (see _stack); otherwise each object is decoded on its own, which
    raises the error of the first bad matrix."""
    stack = _stack(objs)
    if stack is None:
        return [_matrix_from_json(obj) for obj in objs]
    return list(stack)


def _stack(objs: list) -> np.ndarray | None:
    """objs as an (n, d, d) complex stack, or None when the list is empty or
    any object breaks a rule of _matrix_from_json, has another dim or holds
    a number that is not a JSON float (what matrix_to_json writes; a list
    with an int takes the per-matrix route). The rules are checked over the
    whole list in a few passes at C speed: each object is a dict with one
    int dim d and a list of d*d entries, each entry a list of two finite
    floats. The pairs are combined as re + 1j*im, as _matrix_from_json
    does, so signed zeros come out alike."""
    if not objs or set(map(type, objs)) != {dict}:
        return None
    dims = [obj.get("dim") for obj in objs]
    entries = [obj.get("entries") for obj in objs]
    if set(map(type, dims)) != {int} or len(set(dims)) != 1:
        return None
    d = dims[0]
    if (d < 1 or set(map(type, entries)) != {list}
            or set(map(len, entries)) != {d * d}):
        return None
    pairs = list(itertools.chain.from_iterable(entries))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    flat = list(itertools.chain.from_iterable(pairs))
    if set(map(type, flat)) != {float}:
        return None
    values = np.fromiter(flat, float, len(flat))
    if not np.isfinite(values).all():
        return None
    values = values.reshape(len(objs), d, d, 2)
    return values[..., 0] + 1j * values[..., 1]


def _matrix_from_json(obj) -> np.ndarray:
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
           "jumps": [{"a": a, "rate": float(j.rate)} for a, j in
                     zip(matrices_to_json([j.a for j in L.jumps]), L.jumps)]}
    if L.bilinear is not None:
        out["bilinear"] = {"ops": matrices_to_json(L.bilinear.ops),
                           "kossakowski": matrix_to_json(L.bilinear.kossakowski)}
    return out


def lindbladian_from_json(obj) -> Lindbladian:
    dim = _positive(obj, "dim")
    H = (matrix_from_json(_field(obj, "hamiltonian", dict))
         if "hamiltonian" in obj else None)
    jumps = _field(obj, "jumps", list, [])
    ops = (_stack([j.get("a") for j in jumps])
           if set(map(type, jumps)) == {dict} else None)
    if ops is None:
        # one jump at a time, so the first bad matrix or rate is reported
        jumps = [JumpTerm(_matrix_from_json(_field(j, "a", dict)),
                          _field(j, "rate", float)) for j in jumps]
    else:
        jumps = [JumpTerm(a, _field(j, "rate", float))
                 for a, j in zip(ops, jumps)]
    bil = None
    if obj.get("bilinear") is not None:
        b = obj["bilinear"]
        bil = BilinearTerm(matrices_from_json(_field(b, "ops", list)),
                           matrix_from_json(_field(b, "kossakowski", dict)))
    return Lindbladian(dim, hamiltonian=H, jumps=jumps, bilinear=bil)


def resource_set_from_json(obj) -> ResourceSet:
    return ResourceSet(dim=_positive(obj, "dim"),
                       elements=matrices_from_json(
                           _field(obj, "elements", list)))


def resource_set_k_from_json(obj) -> ResourceSetK:
    return ResourceSetK(
        generators=[lindbladian_from_json(L)
                    for L in _field(obj, "generators", list)],
        max_total_rate=_field(obj, "max_total_rate", float, 1.0))


def step_to_json(step) -> dict:
    if isinstance(step, ApplyUnitary):
        return {"kind": step.kind, "U": matrix_to_json(step.U)}
    if isinstance(step, AmplitudeDamp):
        return {"kind": step.kind, "register": int(step.register),
                "retention": float(step.retention)}
    if isinstance(step, Transposition):
        return {"kind": step.kind, "i": int(step.i), "j": int(step.j)}
    raise SchemaError(f"unknown plan step {step!r}")


def step_from_json(obj):
    kind = _field(obj, "kind", str)     # obj is an object from here on
    if kind == ApplyUnitary.kind:
        return ApplyUnitary(matrix_from_json(_value(obj.get("U"), "U", dict)))
    if kind == AmplitudeDamp.kind:
        return AmplitudeDamp(_value(obj.get("register"), "register", int),
                             _value(obj.get("retention"), "retention", float))
    if kind == Transposition.kind:
        return Transposition(_value(obj.get("i"), "i", int),
                             _value(obj.get("j"), "j", int))
    raise SchemaError(f"unknown plan step kind {kind!r}")


def plan_to_json(plan: TransportPlan) -> dict:
    return {"k": plan.k,
            "steps": [step_to_json(s) for s in plan.steps],
            "counts": plan.counts}


def plan_from_json(obj) -> TransportPlan:
    plan = TransportPlan(_positive(obj, "k"))
    plan.steps = [step_from_json(s) for s in _field(obj, "steps", list)]
    return plan


def path_sample_to_json(path: PathSample) -> dict:
    out = {"times": [float(t) for t in path.times],
           "states": matrices_to_json(path.states)}
    if path.derivs is not None:
        out["derivs"] = matrices_to_json(path.derivs)
    return out


def path_sample_from_json(obj) -> PathSample:
    times = [_value(t, "times", float) for t in _field(obj, "times", list)]
    states = matrices_from_json(_field(obj, "states", list))
    derivs = None
    if obj.get("derivs") is not None:
        derivs = matrices_from_json(_field(obj, "derivs", list))
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
        write_text(path, text + "\n")
    return text


def write_text(path: str, text: str) -> None:
    """Write text to path in place: the file is created if it is missing,
    overwritten from its first byte and, if it is a regular file, cut to the
    new length; a device or FIFO (/dev/null, a pipe) is only written. As the
    file is never truncated to zero, ext4 does not force the allocation of
    its still-unwritten blocks on close (auto_da_alloc), which otherwise
    every rewrite of a file written moments before pays. A write that fails
    or is killed part-way leaves a partial file."""
    data = memoryview(text.encode())
    size = len(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)
