"""Span tracing installed on lindreach from outside the program.

``Tracer.install`` replaces every module attribute of the loaded lindreach
modules that is bound to a measured function, from-import bindings included
(``reach.apply``, ``transport.propagate``, ``cli.reach_drive``, ...), with a
wrapper that records a span.  ``linalg.expm`` is ``scipy.linalg.expm`` as
the package reaches it through its ``sla`` module binding, so those bindings
get a proxy module whose ``expm`` is wrapped.  ``uninstall`` puts every
original back, so untraced runs execute the unmodified program.

Spans are ``(id, parent, job, name, start, end)`` tuples kept in memory.  A
span's self time is its duration minus its children's; the wrapper's own
bookkeeping (fingerprints, byte counts) is charged to no layer, so it lands
in ``other`` together with the benchmark's own time inside a job span.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.linalg

# span name -> (lindreach module, attribute) of the measured function
MEASURED = {
    "linalg.check_density": ("linalg", "check_density"),
    "linalg.choi": ("linalg", "choi"),
    "linalg.superop_from_action": ("linalg", "superop_from_action"),
    "lindblad.build": ("lindblad", "build"),
    "lindblad.apply": ("lindblad", "apply"),
    "lindblad.propagate": ("lindblad", "propagate"),
    "lindblad.channel_superop": ("lindblad", "channel_superop"),
    "reach.alignment": ("reach", "alignment"),
    "reach.reach_drive": ("reach", "reach_drive"),
    "reach.porcupine_check": ("reach", "porcupine_check"),
    "transport.plan_diagonal_transport": ("transport", "plan_diagonal_transport"),
    "transport.execute_plan": ("transport", "execute_plan"),
    "transport.apply_step": ("transport", "apply_step"),
    "tangent.lift": ("tangent", "lift"),
    "tangent.lift_path": ("tangent", "lift_path"),
    "tangent.in_tangent_cone": ("tangent", "in_tangent_cone"),
    "hormander.lie_closure": ("hormander", "lie_closure"),
    "dilation.simulate_dissipator_via_dilation":
        ("dilation", "simulate_dissipator_via_dilation"),
    "dilation.dilation_error_vs_exact": ("dilation", "dilation_error_vs_exact"),
    "serialize.load": ("serialize", "load_json"),
    "serialize.dump": ("serialize", "dump_json"),
    "cli.main": ("cli", "main"),
}

# apply_step spans are split by step kind
STEP_SPANS = ("transport.apply_step.damp_finite",
              "transport.apply_step.damp_infinite",
              "transport.apply_step.transposition")

SPANS = (["linalg.expm"] + [n for n in MEASURED if n != "transport.apply_step"]
         + list(STEP_SPANS))

# counters summed over a block of jobs; unique_frac is unique / calls
COUNTS = ("reach.steps", "transport.plan.steps", "hormander.lie_closure.depth_used",
          "serialize.bytes_in", "serialize.bytes_out", "linalg.expm.n3",
          "lindblad.build.bytes")
COUNT_UNITS = {"serialize.bytes_in": "B", "serialize.bytes_out": "B",
               "lindblad.build.bytes": "B"}
UNIQUE = ("lindblad.build", "linalg.expm")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTS:
        units[name] = COUNT_UNITS.get(name, "count")
    for name in UNIQUE:
        units[f"{name}.unique_frac"] = "ratio"
    units["other.self_s"] = "s"
    units["trace.job_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


def _lindbladian_digest(L) -> bytes:
    parts = [np.array([L.dim]), L.hamiltonian]
    for j in L.jumps:
        parts += [j.a, np.array([j.rate])]
    if L.bilinear is not None:
        parts += list(L.bilinear.ops) + [L.bilinear.kossakowski]
    return _digest(*parts)


class _ModuleProxy:
    """Stands in for a module binding; overrides some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.unique: dict[str, int] = defaultdict(int)
        self.job_s = 0.0
        self._stack: list[list] = []      # [id, name, start, child seconds]
        self._job_id = None
        self._seen: dict[str, set] = defaultdict(set)
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _push(self, name: str) -> None:
        self._stack.append([len(self.spans) + len(self._stack), name, perf_counter(), 0.0])

    def _pop(self) -> float:
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((sid, parent, self._job_id, name, start, end))
        return dur

    def _book(self, fn, *args) -> None:
        """Run bookkeeping outside every layer's self time."""
        t0 = perf_counter()
        fn(*args)
        self._stack[-1][3] += perf_counter() - t0

    @contextmanager
    def job(self, job_id):
        """Root span of one job; fingerprints are unique within it."""
        self._job_id = job_id
        self._seen.clear()
        self._push("job")
        try:
            yield
        finally:
            self.job_s += self._pop()
            self.calls.pop("job")
            self.self_s.pop("job")
            self._job_id = None

    def _fingerprint(self, layer: str, digest: bytes) -> None:
        if digest not in self._seen[layer]:
            self._seen[layer].add(digest)
            self.unique[layer] += 1

    # ------------------------------------------------------- wrappers

    def _wrap(self, fn, span_name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name(*args) if callable(span_name) else span_name
            if not tracer._stack or name is None:
                return fn(*args, **kwargs)
            if before is not None:
                tracer._book(before, args, kwargs)
            tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop()
            if after is not None:
                tracer._book(after, result, args, kwargs)
            return result

        return traced

    def _before_build(self, args, kwargs):
        L = args[0]
        self.counts["lindblad.build.bytes"] += 16 * L.dim ** 4
        self._fingerprint("lindblad.build", _lindbladian_digest(L))

    def _before_expm(self, args, kwargs):
        A = np.asarray(args[0])
        self.counts["linalg.expm.n3"] += A.shape[0] ** 3
        self._fingerprint("linalg.expm", _digest(A))

    def _after(self, counter, value):
        def after(result, args, kwargs):
            self.counts[counter] += value(result, args)
        return after

    def _hooks(self, name):
        if name == "lindblad.build":
            return self._before_build, None
        if name == "reach.reach_drive":
            return None, self._after("reach.steps", lambda r, a: len(r.generator_schedule))
        if name == "transport.plan_diagonal_transport":
            return None, self._after("transport.plan.steps", lambda r, a: len(r.steps))
        if name == "hormander.lie_closure":
            return None, self._after("hormander.lie_closure.depth_used",
                                     lambda r, a: r.depth_used)
        if name == "serialize.load":
            return None, self._after("serialize.bytes_in",
                                     lambda r, a: os.path.getsize(a[0]))
        if name == "serialize.dump":
            return None, self._after(
                "serialize.bytes_out",
                lambda r, a: os.path.getsize(a[1]) if len(a) > 1 and a[1] else len(r))
        return None, None

    @staticmethod
    def _step_span(step):
        """Span name of one plan step; steps of other kinds get no span."""
        if step.kind == "amplitude_damp":
            return ("transport.apply_step.damp_infinite" if step.retention == 0.0
                    else "transport.apply_step.damp_finite")
        if step.kind == "transposition":
            return "transport.apply_step.transposition"
        return None

    # -------------------------------------------------- install/remove

    def install(self) -> None:
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("lindreach.")}
        wrappers = {}
        for name, (mod, attr) in MEASURED.items():
            fn = getattr(mods[mod], attr)
            before, after = self._hooks(name)
            span = (lambda rho, step, *a: self._step_span(step)) \
                if name == "transport.apply_step" else name
            wrappers[id(fn)] = self._wrap(fn, span, before, after)
        expm = self._wrap(scipy.linalg.expm, "linalg.expm", self._before_expm)
        proxy = _ModuleProxy(scipy.linalg, expm=expm)
        for mod in list(mods.values()) + [sys.modules["lindreach"]]:
            for attr, val in list(vars(mod).items()):
                if val is scipy.linalg:
                    new = proxy
                elif callable(val) and id(val) in wrappers:
                    new = wrappers[id(val)]
                else:
                    continue
                self._restore.append((mod, attr, val))
                setattr(mod, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, val = self._restore.pop()
            setattr(mod, attr, val)

    # ------------------------------------------------------- metrics

    def metrics(self, blocks: int, untraced_s: float) -> dict[str, float]:
        """Per-layer figures per block of jobs; ``blocks`` traced blocks ran."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls.get(name, 0) / blocks
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) / blocks
        for name in COUNTS:
            out[name] = self.counts.get(name, 0) / blocks
        for name in UNIQUE:
            calls = self.calls.get(name, 0)
            out[f"{name}.unique_frac"] = self.unique[name] / calls if calls else 0.0
        layers = sum(self.self_s.values())
        out["other.self_s"] = (self.job_s - layers) / blocks
        out["trace.job_s"] = self.job_s / blocks
        out["trace.overhead_frac"] = self.job_s / untraced_s - 1.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(f'{{"id":{sid},"parent":{"null" if parent is None else parent},'
                         f'"job":{job},"name":"{name}","start":{start!r},"end":{end!r}}}\n')
