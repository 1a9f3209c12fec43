"""Seeded job streams for the four benchmark workloads.

A job is one ``lindreach.cli.main(argv)`` call on input files written here.
The i-th input set of a workload (a transport plan and its run-plan jobs
share one) draws its random content from ``default_rng([seed, i])`` and its
sizes from a fixed cycle, so every seed runs the same size mix and the same
seed runs the same jobs.  Only numpy is used; the program sees nothing but
the generated files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from oracles import (
    check_certify,
    check_dilate,
    check_gamma,
    check_hormander,
    check_lift,
    check_lift_path,
    check_plan,
    check_porcupine,
    check_reach,
    check_run_plan,
    check_simulate,
    dag,
    to_obj,
)


@dataclass
class Job:
    kind: str
    argv: list[str]
    out: str                          # the file the job's report goes to
    check: Callable[[dict], None]     # raises oracles.Mismatch


@dataclass
class Workload:
    why: str
    jobs: Callable[[int, str], Iterator[Job]]   # (seed, workdir) -> jobs
    trace_block: int                  # jobs per traced block (whole cycles)


# ------------------------------------------------------------ random inputs

def density(rng, d: int, rank: int | None = None, floor: float = 0.0) -> np.ndarray:
    r = rank or d
    G = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    rho = G @ dag(G)
    rho = rho / np.trace(rho).real
    return (1 - floor) * rho + floor * np.eye(d) / d


def unitary(rng, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def hermitian(rng, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (G + dag(G)) / 2


def unit(d: int, r: int, s: int) -> np.ndarray:
    a = np.zeros((d, d), dtype=complex)
    a[r, s] = 1.0
    return a


def probvec(rng, n: int) -> np.ndarray:
    v = rng.uniform(0.05, 1.0, n)
    return v / v.sum()


def replacer_jumps(sigma: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """R_sigma - id: Kraus sqrt(w_i)|v_i><j| at rate 1/2 (factor-2 dissipator)."""
    d = sigma.shape[0]
    w, V = np.linalg.eigh((sigma + dag(sigma)) / 2)
    return [(np.sqrt(w[i]) * np.outer(V[:, i], np.eye(d)[j]), 0.5)
            for i in range(d) if w[i] > 1e-15 for j in range(d)]


def chain_jumps(mu: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Nearest-neighbour detailed-balance chain with stationary state diag(mu)."""
    d = len(mu)
    out = []
    for r in range(d - 1):
        beta = mu[r] / mu[r + 1]
        out += [(unit(d, r, r + 1), beta ** 0.5), (unit(d, r + 1, r), beta ** -0.5)]
    return out


def lindbladian_obj(d: int, jumps, H: np.ndarray | None = None) -> dict:
    obj = {"dim": d, "jumps": [{"a": to_obj(a), "rate": float(r)} for a, r in jumps]}
    if H is not None:
        obj["hamiltonian"] = to_obj(H)
    return obj


class Files:
    """Writes a job's input files into the run's work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, obj) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def matrix(self, name: str, M: np.ndarray) -> str:
        return self.write(name, to_obj(M))


def fmt(x: float) -> str:
    return repr(float(x))


# ------------------------------------------------------------ reach_descent

REACH_DT, REACH_TMAX = 0.05, 1.0
# (d, p): 3/8 of jobs at d=4, 3/8 at d=6, 2/8 at d=8, so the median job is
# a d=6 job and p90 a d=8 job, each well inside its size class.
REACH_CYCLE = [(4, 2.0), (6, 2.0), (8, 2.0), (4, 3.0), (6, 3.0), (4, 2.0),
               (8, 3.0), (6, 2.0)]


def reach_jobs(seed: int, workdir: str) -> Iterator[Job]:
    f = Files(workdir)
    for i in itertools.count():
        d, p = REACH_CYCLE[i % len(REACH_CYCLE)]
        rng = np.random.default_rng([seed, i])
        rho0, sigma = density(rng, d), density(rng, d)
        r, s = sorted(rng.choice(d, 2, replace=False))
        K = {"generators": [
            lindbladian_obj(d, replacer_jumps(sigma)),
            lindbladian_obj(d, chain_jumps(probvec(rng, d))),
            lindbladian_obj(d, [(unit(d, r, s), 1.0)]),
        ]}
        out = f.path("out.json")
        argv = ["reach", "--K", f.write("K.json", K),
                "--rho", f.matrix("rho.json", rho0),
                "--sigma", f.matrix("sigma.json", sigma),
                "--p", fmt(p), "--dt", fmt(REACH_DT), "--t-max", fmt(REACH_TMAX),
                "--out", out]
        yield Job("reach", argv, out,
                  lambda o, rho0=rho0, sigma=sigma, p=p:
                  check_reach(o, rho0, sigma, p, REACH_DT, REACH_TMAX))


# --------------------------------------------------------- porcupine_sphere

PORCUPINE_EPS = 0.05
# (d, p, diagonal_slice, pure_sigma, n_generators, n_samples, with_replacer).
# A pure sigma is sampled on the diagonal slice, where most sphere points
# stay states; the full sphere around a pure sigma rejects most draws.  The
# d=2 entry is the known obstruction: K = {D_|1><0|} around |0><0|.
PORCUPINE_CYCLE = [
    (3, 2.0, False, False, 3, 200, True), (4, 2.0, True, False, 3, 200, False),
    (3, 3.0, True, True, 4, 200, False), (4, 3.0, False, False, 3, 200, False),
    (3, 2.0, True, True, 3, 250, True), (4, 2.0, False, False, 4, 200, False),
    (3, 3.0, False, False, 5, 300, False), (4, 3.0, True, True, 3, 200, False),
    (2, 2.0, False, True, 1, 250, False),
]


def porcupine_jobs(seed: int, workdir: str) -> Iterator[Job]:
    f = Files(workdir)
    for i in itertools.count():
        d, p, diag, pure, m, n, has_replacer = PORCUPINE_CYCLE[i % len(PORCUPINE_CYCLE)]
        rng = np.random.default_rng([seed, i])
        if d == 2:
            sigma = unit(2, 0, 0)
            gens = [lindbladian_obj(2, [(unit(2, 1, 0), 1.0)])]
            expect = True
        else:
            if pure:
                j = int(rng.integers(d))
                sigma = unit(d, j, j)
            else:
                sigma = density(rng, d, floor=0.5)
            pool = [lindbladian_obj(d, chain_jumps(probvec(rng, d))),
                    lindbladian_obj(d, [(rng.standard_normal((d, d))
                                         + 1j * rng.standard_normal((d, d)), 0.3)]),
                    lindbladian_obj(d, [], H=hermitian(rng, d))]
            pool += [lindbladian_obj(d, [(unit(d, *rng.choice(d, 2, replace=False)), 1.0)])
                     for _ in range(2)]
            gens = ([lindbladian_obj(d, replacer_jumps(sigma))] if has_replacer else [])
            gens += pool[:m - len(gens)]
            expect = None
        out = f.path("out.json")
        argv = ["porcupine", "--K", f.write("K.json", {"generators": gens}),
                "--sigma", f.matrix("sigma.json", sigma),
                "--epsilon", fmt(PORCUPINE_EPS), "--p", fmt(p),
                "--n-samples", str(n), "--seed", str(int(rng.integers(2 ** 31))),
                "--out", out] + (["--diagonal-slice"] if diag else [])
        yield Job("porcupine", argv, out,
                  lambda o, n=n, p=p, hr=has_replacer, ex=expect:
                  check_porcupine(o, n, PORCUPINE_EPS, p, hr, ex))


# ----------------------------------------------------------- transport_plan

# (k, run-plan jobs on the plan).  Per cycle: 3 plan jobs and 7 run-plan
# jobs, 4 of them at k=3, so the median job is a k=3 run-plan and p90 a
# k=4 run-plan, each well inside its class.
TRANSPORT_CYCLE = [(2, 1), (3, 4), (4, 2)]


def transport_jobs(seed: int, workdir: str) -> Iterator[Job]:
    f = Files(workdir)
    for i in itertools.count():
        k, runs = TRANSPORT_CYCLE[i % len(TRANSPORT_CYCLE)]
        rng = np.random.default_rng([seed, i])
        lam, mu = probvec(rng, 2 ** k), probvec(rng, 2 ** k)
        plan = f.path("plan.json")
        yield Job("plan", ["plan", "--k", str(k),
                           "--lambda", ",".join(fmt(x) for x in lam),
                           "--mu", ",".join(fmt(x) for x in mu), "--out", plan],
                  plan, lambda o, k=k: check_plan(o, k))
        for _ in range(runs):
            # any state works: the plan first collapses it to |0><0|
            rho = density(rng, 2 ** k)
            out = f.path("out.json")
            yield Job("run-plan", ["run-plan", "--plan", plan,
                                   "--rho", f.matrix("rho.json", rho), "--out", out],
                      out, lambda o, mu=mu: check_run_plan(o, mu))


# ------------------------------------------------------------------ cli_mix

def simulate_job(f: Files, rng, i: int) -> Job:
    d = 4 + i % 5
    H = hermitian(rng, d)
    jumps = [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
              float(rng.uniform(0.1, 0.5))) for _ in range(3)]
    rho, t = density(rng, d), float(rng.uniform(0.2, 1.0))
    out = f.path("out.json")
    argv = ["simulate", "--lindblad", f.write("L.json", lindbladian_obj(d, jumps, H)),
            "--rho", f.matrix("rho.json", rho), "--t", fmt(t), "--out", out]
    return Job("simulate", argv, out,
               lambda o: check_simulate(o, H, jumps, rho, t))


def tangent_pair(rng, d: int, rank: int, inside: bool):
    """A rank-`rank` state and a direction whose perp block has eigenvalues
    >= 0.1 (inside the tangent cone) or one eigenvalue <= -0.1 (outside)."""
    U = unitary(rng, d)
    w = np.zeros(d)
    w[:rank] = probvec(rng, rank)
    rho = U @ np.diag(w) @ dag(U)
    xb = hermitian(rng, d)
    if rank < d:
        perp = rng.uniform(0.1, 1.0, d - rank)
        if not inside:
            perp[0] = -rng.uniform(0.1, 1.0)
        V = unitary(rng, d - rank)
        xb[rank:, rank:] = V @ np.diag(perp) @ dag(V)
    xb[:rank, :rank] -= np.trace(xb).real / rank * np.eye(rank)
    return rho, U @ xb @ dag(U)


def certify_job(f: Files, rng, i: int) -> Job:
    d = 3 + i % 4
    rank = d if i % 3 == 0 else d - 1 - i % 2
    inside = rank == d or i % 2 == 0
    rho, x = tangent_pair(rng, d, rank, inside)
    out = f.path("out.json")
    argv = ["certify-tangent", "--rho", f.matrix("rho.json", rho),
            "--x", f.matrix("x.json", x), "--out", out]
    return Job("certify-tangent", argv, out, lambda o: check_certify(o, inside))


def lift_job(f: Files, rng, i: int) -> Job:
    d = 3 + i % 4
    rho, x = tangent_pair(rng, d, d - i % 2, True)
    out = f.path("out.json")
    argv = ["lift", "--rho", f.matrix("rho.json", rho),
            "--x", f.matrix("x.json", x), "--out", out]
    return Job("lift", argv, out, lambda o: check_lift(o, rho, x))


def lift_path_job(f: Files, rng, i: int) -> Job:
    d = 3 + i % 4
    rho, sigma = density(rng, d, floor=0.2), density(rng, d, floor=0.2)
    times = np.linspace(0.0, math.pi / 2, 24)
    u = np.exp(-np.tan(times))
    u[-1] = 0.0
    states = [ui * rho + (1 - ui) * sigma for ui in u]
    path = {"times": [float(t) for t in times], "states": [to_obj(s) for s in states]}
    out = f.path("out.json")
    argv = ["lift-path", "--path", f.write("path.json", path), "--out", out]
    return Job("lift-path", argv, out, lambda o: check_lift_path(o, times, states))


def hormander_job(f: Files, rng, i: int) -> Job:
    d = 3 + i % 4
    generic = i % 3 != 2
    if generic:
        elems = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                 for _ in range(2)]
    else:
        elems = [np.diag(rng.standard_normal(d)) for _ in range(3)]
    out = f.path("out.json")
    argv = ["check-hormander", "--resources",
            f.write("S.json", {"dim": d, "elements": [to_obj(e) for e in elems]}),
            "--out", out]
    return Job("check-hormander", argv, out, lambda o: check_hormander(o, generic, d))


DILATE_NS = [16, 64, 256]


def dilate_job(f: Files, rng, i: int) -> Job:
    d = 2 + i % 3
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a /= np.linalg.norm(a, 2)
    out = f.path("out.json")
    argv = ["dilate", "--a", f.matrix("a.json", a),
            "--t", fmt(rng.uniform(0.3, 1.0)),
            "--n", ",".join(map(str, DILATE_NS)), "--out", out]
    return Job("dilate", argv, out, lambda o: check_dilate(o, DILATE_NS))


def gamma_job(f: Files, rng, i: int) -> Job:
    d = 3 + i % 4
    H = hermitian(rng, d)
    jumps = [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
              float(rng.uniform(0.1, 1.0))) for _ in range(2)]
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    xf = f.matrix("x.json", x)
    out = f.path("out.json")
    argv = ["gamma-check", "--lindblad", f.write("L.json", lindbladian_obj(d, jumps, H)),
            "--x", xf, "--y", xf, "--out", out]
    return Job("gamma-check", argv, out, lambda o: check_gamma(o, jumps, x))


# Jobs of each kind in one cli_mix cycle, chosen so that every kind takes
# a similar share of the time (about 0.2 s per kind per cycle).  Sizes
# rotate per kind across cycles; four cycles cover every lift-path size.
MIX_WEIGHTS = [(gamma_job, 70), (certify_job, 60), (simulate_job, 40),
               (dilate_job, 36), (lift_job, 17), (hormander_job, 10),
               (lift_path_job, 1)]
# kinds interleaved evenly: the j-th job of a kind with n per cycle sits at
# (j + 1/2) / n of the cycle
MIX_CYCLE = [make for _, _, make in sorted(((j + 0.5) / n, i, make)
                                        for i, (make, n) in enumerate(MIX_WEIGHTS)
                                        for j in range(n))]


def mix_jobs(seed: int, workdir: str) -> Iterator[Job]:
    f = Files(workdir)
    made = dict.fromkeys(MIX_CYCLE, 0)   # per-kind index, which sets the sizes
    for i in itertools.count():
        make = MIX_CYCLE[i % len(MIX_CYCLE)]
        yield make(f, np.random.default_rng([seed, i]), made[make])
        made[make] += 1


WORKLOADS = {
    "reach_descent": Workload(
        why="greedy reach steps re-build and re-exponentiate the same few "
            "generators every step: the most reuse in lindblad.build and linalg.expm",
        jobs=reach_jobs, trace_block=len(REACH_CYCLE)),
    "porcupine_sphere": Workload(
        why="thousands of alignment calls rebuilding unchanged generators with no "
            "propagation: batching shows here, an expm cache should not",
        jobs=porcupine_jobs, trace_block=len(PORCUPINE_CYCLE)),
    "transport_plan": Workload(
        why="each finite damp builds and exponentiates a fresh 4^k x 4^k generator "
            "for a fresh t (no reuse), plus pure-Python planning and plan JSON",
        jobs=transport_jobs,
        trace_block=sum(1 + runs for _, runs in TRANSPORT_CYCLE)),
    "cli_mix": Workload(
        why="the other subcommands, so tangent, hormander, dilation, choi, "
            "superop_from_action and serialize are measured",
        jobs=mix_jobs, trace_block=4 * len(MIX_CYCLE)),
}
