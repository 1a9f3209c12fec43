# Command-line surface: stable JSON/CSV formats, reproducible seeds and
# machine-readable validation errors.

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

import numpy as np

from . import serialize as ser
from .hormander import lie_closure
from .linalg import trace_distance
from .lindblad import gamma_form, propagate
from .reach import porcupine_check, reach_drive
from .tangent import SUPPORT_TOL, in_tangent_cone, lift, lift_path
from .transport import (_require_k, execute_plan, plan_diagonal_transport,
                        plan_states)
from .dilation import dilation_error_vs_exact


class ValidationError(ValueError):
    def __init__(self, code: str, message: str, context: dict | None = None):
        super().__init__(message)
        self.code = code
        self.context = context or {}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: str, header: list[str], rows: list[list[float]]):
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    ser.write_text(path, "\n".join(lines) + "\n")


def _emit(obj: dict, args: argparse.Namespace):
    """Write obj, the command's JSON result, to args.out, or to stdout."""
    text = ser.dump_json(obj, args.out)
    if args.out is None:
        print(text)


def _load_matrix(path: str) -> np.ndarray:
    return ser.matrix_from_json(ser.load_json(path))


def _parse_probvec(flag: str, text: str, normalize: bool, n: int) -> np.ndarray:
    def fail(message):
        raise ValidationError("not_a_distribution", f"{flag} {message}",
                              {"vector": text})

    entries = text.split(",")
    v = []
    for x in entries:
        try:
            v.append(float(x))
        except ValueError:
            fail(f"entry {x!r} is not a number")
    if len(v) != n:
        fail(f"has {len(v)} entries, not 2^k = {n}")
    v = np.array(v)
    total = v.sum()
    if normalize:
        if not (np.isfinite(total) and total > 0):
            fail(f"entries sum to {total}, not a positive number")
        v = v / total
    elif not abs(total - 1.0) <= 1e-9:
        fail(f"entries sum to {total}, not 1")
    # the tolerance of transport._require_distribution
    negative = np.flatnonzero(v < -1e-12)
    if negative.size:
        fail(f"entry {entries[negative[0]]!r} is negative")
    return v


def _parse_counts(text: str) -> list[int]:
    try:
        ns = [int(x) for x in text.split(",")]
    except ValueError:
        ns = []
    if not ns or min(ns) < 1:
        raise ValueError("--n must be a comma-separated list of positive "
                         f"integers, got {text!r}")
    return ns


def _cmd_simulate(args):
    L = ser.lindbladian_from_json(ser.load_json(args.lindblad))
    rho = _load_matrix(args.rho)
    result = propagate(L, rho, args.t)
    _emit(ser.matrix_to_json(result), args)


def _cmd_lift(args):
    rho = _load_matrix(args.rho)
    x = _load_matrix(args.x)
    cert = lift(rho, x)
    _emit({"lindbladian": ser.lindbladian_to_json(cert.lindbladian),
           "residual": cert.residual, "cp_margin": cert.cp_margin}, args)


def _cmd_certify_tangent(args):
    rho = _load_matrix(args.rho)
    x = _load_matrix(args.x)
    _emit({"in_tangent_cone": bool(in_tangent_cone(rho, x, args.tol))}, args)


def _cmd_lift_path(args):
    path = ser.path_sample_from_json(ser.load_json(args.path))
    report = lift_path(path)
    if args.csv:
        rows = zip(path.times, report["lambda_min"], report["residual"])
        _write_csv(args.csv, ["t", "lambda_min", "residual"], rows)
    _emit({"integrability": report["integrability"],
           "reconstruction_error": report["reconstruction_error"],
           "generators": [ser.lindbladian_to_json(L)
                          for L in report["generators"]]}, args)


def _cmd_reach(args):
    K = ser.resource_set_k_from_json(ser.load_json(args.K))
    rho = _load_matrix(args.rho)
    sigma = _load_matrix(args.sigma)
    rep = reach_drive(K, rho, sigma, p=args.p, dt=args.dt, t_max=args.t_max,
                      target_tol=args.target_tol)
    if args.csv:
        rows = []
        for i, t in enumerate(rep.trajectory.times):
            chosen = -1.0
            if i > 0:
                chosen = float(rep.generator_schedule[i - 1][2])
            rows.append([t, trace_distance(rep.trajectory.states[i], sigma),
                         chosen])
        _write_csv(args.csv, ["t", "trace_distance", "chosen_generator"], rows)
    _emit({"reached": rep.reached,
           "t_max_exceeded": rep.t_max_exceeded,
           "final_state": ser.matrix_to_json(rep.final_state),
           "stall": None if rep.stall_certificate is None else
           {"eta": ser.matrix_to_json(rep.stall_certificate[0]),
            "min_alignment": rep.stall_certificate[1]},
           "n_steps": len(rep.generator_schedule)}, args)


def _cmd_porcupine(args):
    K = ser.resource_set_k_from_json(ser.load_json(args.K))
    sigma = _load_matrix(args.sigma)
    rep = porcupine_check(K, sigma, args.epsilon, p=args.p,
                          n_samples=args.n_samples, seed=args.seed,
                          diagonal_slice=args.diagonal_slice)
    _emit({"epsilon": rep.epsilon, "p": rep.p, "samples": rep.samples,
           "min_alignment_over_samples": rep.min_alignment_over_samples,
           "obstruction_evidence": rep.obstruction_evidence}, args)


def _cmd_plan(args):
    # k first, so that a bad k is named before a length that follows from it
    _require_k(args.k)
    n = 2 ** args.k
    lam = _parse_probvec("--lambda", args.lam, args.normalize, n)
    mu = _parse_probvec("--mu", args.mu, args.normalize, n)
    plan = plan_diagonal_transport(lam, mu, args.k)
    _emit(ser.plan_to_json(plan), args)


def _cmd_run_plan(args):
    plan = ser.plan_from_json(ser.load_json(args.plan))
    rho = _load_matrix(args.rho)
    if args.csv:
        rows = []
        for i, result in enumerate(plan_states(plan, rho)):
            rows.append([i] + list(np.diag(result).real))
        _write_csv(args.csv,
                   ["step"] + [f"p{i}" for i in range(plan.dim)], rows)
    else:
        result = execute_plan(plan, rho)
    _emit(ser.matrix_to_json(result), args)


def _cmd_check_hormander(args):
    S = ser.resource_set_from_json(ser.load_json(args.resources))
    rep = lie_closure(S)
    _emit({"dim_found": rep.dim_found, "depth_used": rep.depth_used,
           "is_hormander": rep.is_hormander,
           "basis": ser.matrices_to_json(rep.basis)}, args)


def _cmd_dilate(args):
    a = _load_matrix(args.a)
    ns = _parse_counts(args.n)
    errors = dilation_error_vs_exact(a, args.t, ns)
    rows = [[float(n), e] for n, e in zip(ns, errors)]
    if args.csv:
        _write_csv(args.csv, ["n", "choi_trace_norm_error"], rows)
    _emit({"t": args.t, "errors": [{"n": int(n), "error": e}
                                   for n, e in rows]}, args)


def _cmd_gamma_check(args):
    L = ser.lindbladian_from_json(ser.load_json(args.lindblad))
    x = _load_matrix(args.x)
    y = _load_matrix(args.y)
    G = gamma_form(L, x, y)
    _emit({"gamma": ser.matrix_to_json(G),
           "norm": float(np.linalg.norm(G))}, args)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each command's own parser by name."""
    p = argparse.ArgumentParser(prog="lindreach",
                                description="Controllability analysis for "
                                "Markovian open quantum systems")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out",
                        help="write the JSON result to a file instead of stdout")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: argparse.ArgumentParser(
                               parents=[common], **kw))

    s = sub.add_parser("simulate", help="propagate a state under a Lindbladian")
    s.add_argument("--lindblad", required=True)
    s.add_argument("--rho", required=True)
    s.add_argument("--t", type=float, required=True)
    s.set_defaults(func=_cmd_simulate)

    s = sub.add_parser("lift", help="lift a tangent direction to a Lindbladian")
    s.add_argument("--rho", required=True)
    s.add_argument("--x", required=True)
    s.set_defaults(func=_cmd_lift)

    s = sub.add_parser("certify-tangent", help="tangent-cone membership test")
    s.add_argument("--rho", required=True)
    s.add_argument("--x", required=True)
    s.add_argument("--tol", type=float, default=SUPPORT_TOL)
    s.set_defaults(func=_cmd_certify_tangent)

    s = sub.add_parser("lift-path", help="lift a sampled path of states")
    s.add_argument("--path", required=True)
    s.add_argument("--csv")
    s.set_defaults(func=_cmd_lift_path)

    s = sub.add_parser("reach", help="greedy alignment descent toward a target")
    s.add_argument("--K", required=True)
    s.add_argument("--rho", required=True)
    s.add_argument("--sigma", required=True)
    s.add_argument("--p", type=float, default=2.0)
    s.add_argument("--dt", type=float, default=0.01)
    s.add_argument("--t-max", type=float, default=50.0)
    s.add_argument("--target-tol", type=float, default=1e-4)
    s.add_argument("--csv")
    s.set_defaults(func=_cmd_reach)

    s = sub.add_parser("porcupine", help="sampled obstruction check")
    s.add_argument("--K", required=True)
    s.add_argument("--sigma", required=True)
    s.add_argument("--epsilon", type=float, required=True)
    s.add_argument("--p", type=float, default=2.0)
    s.add_argument("--n-samples", type=int, default=2000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--diagonal-slice", action="store_true")
    s.set_defaults(func=_cmd_porcupine)

    s = sub.add_parser("plan", help="synthesize a diagonal transport plan")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated source distribution")
    s.add_argument("--mu", required=True,
                   help="comma-separated target distribution")
    s.add_argument("--normalize", action="store_true")
    s.set_defaults(func=_cmd_plan)

    s = sub.add_parser("run-plan", help="execute a transport plan")
    s.add_argument("--plan", required=True)
    s.add_argument("--rho", required=True)
    s.add_argument("--csv")
    s.set_defaults(func=_cmd_run_plan)

    s = sub.add_parser("check-hormander", help="Lie-closure certification")
    s.add_argument("--resources", required=True)
    s.set_defaults(func=_cmd_check_hormander)

    s = sub.add_parser("dilate", help="Trotterized dilation error sweep")
    s.add_argument("--a", required=True)
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--n", required=True, help="comma-separated Trotter counts")
    s.add_argument("--csv")
    s.set_defaults(func=_cmd_dilate)

    s = sub.add_parser("gamma-check", help="evaluate the gradient form")
    s.add_argument("--lindblad", required=True)
    s.add_argument("--x", required=True)
    s.add_argument("--y", required=True)
    s.set_defaults(func=_cmd_gamma_check)
    return p, sub.choices


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector paused: a command's
    data are acyclic arrays, lists and dicts, which reference counting
    frees, and a collection would only scan the parse tree of a large input
    file. The few cycles an error leaves (a traceback) wait for the first
    collection after the return, which restores the caller's collector
    state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """build_parser().parse_args(argv). The full parser hands everything
    after the command name to that command's parser, so that parser is run
    directly, without the full parser's own pass over every argument. When
    argv does not start with a command, or the command's parser leaves
    arguments over, the full parser runs, so that every usage message, error
    and exit code stays its own."""
    commands = _parsers()[1]
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def _main(argv: list[str] | None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # overflow in a report surfaces as the non-finite error of dump_json,
        # so stderr holds nothing but the JSON error
        with np.errstate(all="ignore"):
            args.func(args)
        return 0
    except ValidationError as exc:
        return _error(exc.code, str(exc), exc.context)
    except (ValueError, OSError) as exc:
        return _error("validation_error", str(exc))
    except MemoryError as exc:
        # an input too large to compute with; numpy names the allocation
        return _error("validation_error", f"out of memory: {exc}")
    except Exception as exc:
        return _error("internal_error", str(exc), status=1)


def _error(code: str, message: str, context: dict | None = None,
           status: int = 2) -> int:
    """Write the JSON error line to stderr; return the exit status."""
    print(json.dumps({"code": code, "message": message, "context": context or {}}),
          file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
