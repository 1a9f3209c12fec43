# Command-line surface: stable JSON/CSV formats, reproducible seeds and
# machine-readable validation errors.

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import serialize as ser
from .hormander import lie_closure
from .linalg import trace_distance
from .lindblad import gamma_form, propagate
from .reach import porcupine_check, reach_drive
from .tangent import in_tangent_cone, lift, lift_path
from .transport import execute_plan, plan_diagonal_transport, plan_states
from .dilation import dilation_error_vs_exact
from .serialize import SchemaError


class ValidationError(ValueError):
    def __init__(self, code: str, message: str, context: dict | None = None):
        super().__init__(message)
        self.code = code
        self.context = context or {}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: str, header: list[str], rows: list[list[float]]):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _emit(obj: dict, out: str | None):
    text = ser.dump_json(obj, out)
    if out is None:
        print(text)


def _load_matrix(path: str) -> np.ndarray:
    return ser.matrix_from_json(ser.load_json(path))


def _parse_probvec(flag: str, text: str, normalize: bool) -> np.ndarray:
    def fail(message):
        raise ValidationError("not_a_distribution", f"{flag} {message}",
                              {"vector": text})

    v = []
    for x in text.split(","):
        try:
            v.append(float(x))
        except ValueError:
            fail(f"entry {x!r} is not a number")
    v = np.array(v)
    total = v.sum()
    if normalize:
        if not (np.isfinite(total) and total > 0):
            fail(f"entries sum to {total}, not a positive number")
        return v / total
    if not abs(total - 1.0) <= 1e-9:
        fail(f"entries sum to {total}, not 1")
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


def _cmd_simulate(args, out):
    L = ser.lindbladian_from_json(ser.load_json(args.lindblad))
    rho = _load_matrix(args.rho)
    result = propagate(L, rho, args.t)
    _emit(ser.matrix_to_json(result), out)


def _cmd_lift(args, out):
    rho = _load_matrix(args.rho)
    x = _load_matrix(args.x)
    cert = lift(rho, x)
    _emit({"lindbladian": ser.lindbladian_to_json(cert.lindbladian),
           "residual": cert.residual, "cp_margin": cert.cp_margin}, out)


def _cmd_certify_tangent(args, out):
    rho = _load_matrix(args.rho)
    x = _load_matrix(args.x)
    _emit({"in_tangent_cone": bool(in_tangent_cone(rho, x, args.tol))}, out)


def _cmd_lift_path(args, out):
    path = ser.path_sample_from_json(ser.load_json(args.path))
    report = lift_path(path)
    if args.csv:
        rows = zip(path.times, report["lambda_min"], report["residual"])
        _write_csv(args.csv, ["t", "lambda_min", "residual"], rows)
    _emit({"integrability": report["integrability"],
           "reconstruction_error": report["reconstruction_error"],
           "generators": [ser.lindbladian_to_json(L)
                          for L in report["generators"]]}, out)


def _cmd_reach(args, out):
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
                chosen = float(np.argmax(rep.generator_schedule[i - 1][2]))
            rows.append([t, trace_distance(rep.trajectory.states[i], sigma),
                         chosen])
        _write_csv(args.csv, ["t", "trace_distance", "chosen_generator"], rows)
    _emit({"reached": rep.reached,
           "t_max_exceeded": rep.t_max_exceeded,
           "final_state": ser.matrix_to_json(rep.final_state),
           "stall": None if rep.stall_certificate is None else
           {"eta": ser.matrix_to_json(rep.stall_certificate[0]),
            "min_alignment": rep.stall_certificate[1]},
           "n_steps": len(rep.generator_schedule)}, out)


def _cmd_porcupine(args, out):
    K = ser.resource_set_k_from_json(ser.load_json(args.K))
    sigma = _load_matrix(args.sigma)
    rep = porcupine_check(K, sigma, args.epsilon, p=args.p,
                          n_samples=args.n_samples, seed=args.seed,
                          diagonal_slice=args.diagonal_slice)
    _emit({"epsilon": rep.epsilon, "p": rep.p, "samples": rep.samples,
           "min_alignment_over_samples": rep.min_alignment_over_samples,
           "obstruction_evidence": rep.obstruction_evidence}, out)


def _cmd_plan(args, out):
    lam = _parse_probvec("--lambda", args.lam, args.normalize)
    mu = _parse_probvec("--mu", args.mu, args.normalize)
    plan = plan_diagonal_transport(lam, mu, args.k)
    _emit(ser.plan_to_json(plan), out)


def _cmd_run_plan(args, out):
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
    _emit(ser.matrix_to_json(result), out)


def _cmd_check_hormander(args, out):
    S = ser.resource_set_from_json(ser.load_json(args.resources))
    rep = lie_closure(S, max_depth=args.max_depth)
    _emit({"dim_found": rep.dim_found, "depth_used": rep.depth_used,
           "is_hormander": rep.is_hormander,
           "basis": [ser.matrix_to_json(b) for b in rep.basis]}, out)


def _cmd_dilate(args, out):
    a = _load_matrix(args.a)
    ns = _parse_counts(args.n)
    errors = dilation_error_vs_exact(a, args.t, ns)
    rows = [[float(n), e] for n, e in zip(ns, errors)]
    if args.csv:
        _write_csv(args.csv, ["n", "choi_trace_norm_error"], rows)
    _emit({"t": args.t, "errors": [{"n": int(n), "error": e}
                                   for n, e in rows]}, out)


def _cmd_gamma_check(args, out):
    L = ser.lindbladian_from_json(ser.load_json(args.lindblad))
    x = _load_matrix(args.x)
    y = _load_matrix(args.y)
    G = gamma_form(L, x, y)
    _emit({"gamma": ser.matrix_to_json(G),
           "norm": float(np.linalg.norm(G))}, out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
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
    s.add_argument("--tol", type=float, default=1e-10)
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
    s.add_argument("--max-depth", type=int, default=20)
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
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # overflow in a report surfaces as the non-finite error of dump_json,
        # so stderr holds nothing but the JSON error
        with np.errstate(all="ignore"):
            args.func(args, args.out)
        return 0
    except ValidationError as exc:
        print(json.dumps({"code": exc.code, "message": str(exc),
                          "context": exc.context}), file=sys.stderr)
        return 2
    except (SchemaError, ValueError, FileNotFoundError) as exc:
        print(json.dumps({"code": "validation_error", "message": str(exc),
                          "context": {}}), file=sys.stderr)
        return 2
    except Exception as exc:
        print(json.dumps({"code": "internal_error", "message": str(exc),
                          "context": {}}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
