"""Acceptance suite: one test per criterion, each emitting a single
PASS/FAIL line. Tolerances are pinned in the assertions."""

import math
import sys

import numpy as np
import pytest

from lindreach.linalg import (
    apply_superop,
    dag,
    hermitize,
    mat_exp,
    schatten_norm,
    superop_from_action,
    tensor,
    trace_distance,
)
from lindreach.lindblad import (
    JumpTerm,
    Lindbladian,
    apply,
    chain_lindbladian,
    dissipator,
    gamma_form,
    gamma_span_criterion,
    propagate,
    replacer_lindbladian,
    spectral_gap,
    stationary_states,
)
from lindreach.hormander import ResourceSet, haar_unitary, lie_closure
from lindreach.tangent import (
    in_tangent_cone,
    lift,
    linear_admissible,
    second_order_witness,
)
from lindreach.reach import (
    ResourceSetK,
    lowering_jump,
    porcupine_check,
    reach_drive,
    replacer_overshoot,
    sparse_alignment_diagonal,
    tan_schedule,
    alignment,
)
from lindreach.transport import base_case_4, execute_plan, plan_diagonal_transport
from lindreach.dilation import (
    dilation_error_vs_exact,
    mixture_vs_semigroup_error,
    reduced_generator,
)

from conftest import random_complex, random_density, random_hermitian

LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)


def report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {name}: {status}", file=sys.stderr)
    assert not failures, failures


def test_criterion_01_amplitude_damping_closed_form(rng):
    failures = []
    for t in (0.1, 1.0, 5.0):
        S = mat_exp(t * dissipator(LOWER))

        def closed(rho):
            return np.array([
                [rho[0, 0] + (1 - np.exp(-2 * t)) * rho[1, 1],
                 np.exp(-t) * rho[0, 1]],
                [np.exp(-t) * rho[1, 0], np.exp(-2 * t) * rho[1, 1]],
            ])

        S_closed = superop_from_action(closed, 2)
        err = np.max(np.abs(S - S_closed))
        if err > 1e-10:
            failures.append(f"t={t}: entrywise error {err}")
    report(1, "amplitude-damping closed form", failures)


def test_criterion_02_dephasing_identity():
    failures = []
    e_inf = superop_from_action(lambda A: np.diag(np.diag(A)), 2)
    err = np.max(np.abs(dissipator(Z) - 4 * (e_inf - np.eye(4))))
    if err > 1e-12:
        failures.append(f"superoperator identity error {err}")
    err_lim = np.max(np.abs(mat_exp(20.0 * dissipator(Z)) - e_inf))
    if err_lim > 1e-8:
        failures.append(f"long-time limit error {err_lim}")
    report(2, "dephasing identity", failures)


def test_criterion_03_tangent_cone_strictness():
    failures = []
    if not in_tangent_cone(GROUND, X):
        failures.append("x = X not recognized in the cone")
    if linear_admissible(GROUND, X) is not None:
        failures.append("linear_admissible should return none")
    w = second_order_witness(GROUND, X)
    if w["eps_max"] <= 0:
        failures.append("eps_max not positive")
    for eps in (0.05, 0.1, 0.2):
        M = GROUND + eps * X + eps ** 2 * w["x2"]
        err = abs(np.linalg.det(M).real - eps ** 2 * (1 - 4 * eps ** 2))
        if err > 1e-12:
            failures.append(f"determinant law off by {err} at eps={eps}")
    report(3, "tangent-cone strictness", failures)


def test_criterion_04_lift_correctness(rng):
    failures = []
    dims = [2, 3, 4, 8]
    count = 0
    for i in range(300):
        d = dims[i % 4]
        rank = d if i % 2 == 0 else max(1, d // 2)  # half rank-deficient
        rho = random_density(rng, d, rank)
        L0 = Lindbladian(d, hamiltonian=random_hermitian(rng, d),
                         jumps=[JumpTerm(random_complex(rng, d), 0.5),
                                JumpTerm(random_complex(rng, d), 0.3)])
        x = apply(L0, rho)
        cert = lift(rho, x, tol=1e-9)
        count += 1
        if cert.residual > 1e-8:
            failures.append(f"pair {i} (d={d}): residual {cert.residual}")
        if cert.cp_margin < -1e-9:
            failures.append(f"pair {i} (d={d}): Choi margin {cert.cp_margin}")
    for i in range(300):
        d = dims[i % 4]
        rho = random_density(rng, d, max(1, int(rng.integers(1, d + 1))))
        L0 = Lindbladian(d, hamiltonian=random_hermitian(rng, d),
                         jumps=[JumpTerm(random_complex(rng, d), 0.5)])
        if not in_tangent_cone(rho, apply(L0, rho), 1e-8):
            failures.append(f"converse pair {i} (d={d}) fails cone membership")
    report(4, "lift correctness", failures[:5])


def test_criterion_05_finite_time_replacer(rng):
    failures = []
    rho = np.diag([0.62, 0.38]).astype(complex)
    sigma = np.eye(2, dtype=complex) / 2
    for eps in (1.0, 0.5, 1 / 9):
        out = replacer_overshoot(rho, sigma, eps)
        td = trace_distance(out["trajectory"].states[-1], sigma)
        if td > 1e-10:
            failures.append(f"eps={eps}: endpoint distance {td}")
        if not math.isclose(out["hit_time"], math.log(1 + 1 / eps)):
            failures.append(f"eps={eps}: wrong hit time")
    tan = tan_schedule(random_density(rng, 2), sigma, 65)
    td = trace_distance(tan["trajectory"].states[-1], sigma)
    if td > 1e-10:
        failures.append(f"tan-schedule endpoint distance {td}")
    report(5, "finite-time replacer", failures)


def test_criterion_06_alignment_descent(rng):
    failures = []
    # replacer descent with monotone p-norm decrease
    sigma3 = random_density(rng, 3)
    rho0 = random_density(rng, 3)
    K = ResourceSetK([replacer_lindbladian(sigma3)])
    for p in (1.5, 2.0, 3.0):
        rep = reach_drive(K, rho0, sigma3, p=p, dt=0.05, t_max=80,
                          target_tol=1e-4)
        if not rep.reached:
            failures.append(f"replacer descent p={p} did not reach")
        dists = [schatten_norm(s - sigma3, p) for s in rep.trajectory.states]
        if not all(b < a + 1e-13 for a, b in zip(dists, dists[1:])):
            failures.append(f"p={p}: p-norm not monotone")
    # Example Noise toward-set reaches the ground state
    sigma = np.diag([1.0, 0.0, 0.0]).astype(complex)
    eps = 0.05
    eta0 = np.diag([1 - 2 * eps, eps, eps]).astype(complex)
    toward = ResourceSetK([lowering_jump(0, 1, 3), lowering_jump(1, 2, 3)])
    rep = reach_drive(toward, eta0, sigma, p=2.0, dt=0.02, t_max=100,
                      target_tol=1e-4)
    if not (rep.reached and trace_distance(rep.final_state, sigma) <= 1e-4):
        failures.append("toward-set did not reach |0><0| to 1e-4")
    # away-set porcupine obstruction on the diagonal slice
    away = ResourceSetK([lowering_jump(1, 0, 3), lowering_jump(2, 1, 3)])
    pc = porcupine_check(away, sigma, 0.05, p=2.0, n_samples=2000, seed=0,
                         diagonal_slice=True)
    if not pc.obstruction_evidence:
        failures.append(
            "away-set porcupine obstruction_evidence is false: min sampled "
            f"alignment {pc.min_alignment_over_samples:.6f} < 0. Shifting "
            "mass from a larger middle-level population to a smaller top "
            "level strictly decreases the p-norm distance to |0><0| even "
            "though |0><0| itself stays unreachable, so the sphere criterion "
            "genuinely fails for this generator set.")
    report(6, "alignment descent", failures)


def test_criterion_07_sparse_formula(rng):
    failures = []
    for i in range(200):
        d = int(rng.integers(2, 6))
        r, s = (int(v) for v in rng.choice(d, 2, replace=False))
        rho = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
        sig = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
        if np.max(np.abs(rho - sig)) < 1e-12:
            continue
        gen = alignment(lowering_jump(r, s, d), rho, sig, 2.0)
        closed = sparse_alignment_diagonal(rho, sig, r, s)
        if abs(gen - closed) > 1e-10:
            failures.append(f"pair {i}: {gen} vs {closed}")
    for i in range(50):
        d = int(rng.integers(2, 6))
        rho = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
        sig = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
        vals = [sparse_alignment_diagonal(rho, sig, r, s)
                for r in range(d) for s in range(d) if r != s]
        if min(vals) >= 0:
            failures.append(f"no negative pair for sample {i}")
    report(7, "sparse-Lindbladian formula", failures[:5])


def test_criterion_08_detailed_balance_chain(rng):
    failures = []
    for i in range(50):
        d = int(rng.integers(2, 7))
        mu = rng.dirichlet(np.full(d, 2.0))
        mu = np.clip(mu, 1e-3, None)
        mu /= mu.sum()
        L = chain_lindbladian(mu)
        target = np.diag(mu).astype(complex)
        resid = np.max(np.abs(apply(L, target)))
        if resid > 1e-10:
            failures.append(f"mu {i}: kernel residual {resid}")
        ss = stationary_states(L)
        if len(ss) != 1 or trace_distance(ss[0], target) > 1e-8:
            failures.append(f"mu {i}: stationary set not {{diag(mu)}}")
        gap = spectral_gap(L)
        if gap <= 0:
            failures.append(f"mu {i}: nonpositive gap")
        if i < 10:  # long-time propagation spot checks
            for _ in range(5):
                rho = random_density(rng, d)
                out = propagate(L, rho, 50.0 / gap)
                if trace_distance(out, target) > 1e-6:
                    failures.append(f"mu {i}: long-time distance too large")
    report(8, "detailed-balance chain", failures[:5])


def test_criterion_09_transport_algorithm(rng):
    failures = []
    res = base_case_4(np.array([0.4, 0.3, 0.2, 0.1]))
    if not math.isclose(res["alpha"], 0.6):
        failures.append("alpha formula mismatch")
    if not math.isclose(res["gamma"], 0.4 / 0.6):
        failures.append("gamma formula mismatch")
    for k in (2, 3):
        for i in range(50):
            lam = rng.dirichlet(np.ones(2 ** k))
            mu = rng.dirichlet(np.ones(2 ** k))
            plan = plan_diagonal_transport(lam, mu, k)
            out = execute_plan(plan, np.diag(lam).astype(complex))
            td = trace_distance(out, np.diag(mu))
            if td > 1e-8:
                failures.append(f"k={k} sample {i}: endpoint distance {td}")
            if plan.counts["infinite_damps"] > 3 * k + 4:
                failures.append(f"k={k} sample {i}: too many infinite damps")
            if not plan.ratio_ledger.is_nondecreasing():
                failures.append(f"k={k} sample {i}: ledger not monotone")
    report(9, "transport algorithm", failures[:5])


def test_criterion_10_dilation_pipeline(rng):
    failures = []
    for i in range(100):
        d = (2, 3, 4)[i % 3]
        a = random_complex(rng, d)
        err = np.max(np.abs(reduced_generator(a) - dissipator(a)))
        if err > 1e-12:
            failures.append(f"a {i}: reduced generator error {err}")
    ts = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    errs = np.array([mixture_vs_semigroup_error(Z, t) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    if not 1.8 <= slope <= 2.2:
        failures.append(f"mixture error slope {slope}")
    [trotter] = dilation_error_vs_exact(LOWER, 1.0, [4096])
    if trotter > 1e-3:
        failures.append(f"Trotter dilation error {trotter}")
    report(10, "dilation pipeline", failures[:5])


def test_criterion_11_hormander_certification(rng):
    failures = []
    rep = lie_closure(ResourceSet(2, [1j * X, 1j * Y]))
    if not (rep.is_hormander and rep.dim_found == 3):
        failures.append("{iX, iY} not certified")
    rep = lie_closure(ResourceSet(2, [1j * Z]))
    if rep.is_hormander or rep.dim_found != 1:
        failures.append("{iZ} not rejected")
    I2 = np.eye(2)
    els = [1j * tensor(X, I2), 1j * tensor(Z, I2),
           1j * tensor(I2, X), 1j * tensor(I2, Z), 1j * tensor(Z, Z)]
    rep = lie_closure(ResourceSet(4, els))
    if not (rep.is_hormander and rep.dim_found == 15):
        failures.append("2-local set not certified")
    U = haar_unitary(4, rng)
    rep2 = lie_closure(ResourceSet(4, [dag(U) @ e @ U for e in els]))
    if rep2.dim_found != rep.dim_found:
        failures.append("conjugation changed dim_found")
    report(11, "Hoermander certification", failures)


def test_criterion_12_unital_obstruction(rng):
    failures = []
    for i in range(50):
        d = int(rng.integers(2, 5))
        jumps = [JumpTerm(random_hermitian(rng, d), 0.5),
                 JumpTerm(random_hermitian(rng, d), 0.3)]
        L = Lindbladian(d, hamiltonian=random_hermitian(rng, d), jumps=jumps)
        resid = np.max(np.abs(apply(L, np.eye(d) / d)))
        if resid > 1e-12:
            failures.append(f"sample {i}: I/d residual {resid}")
        sigma = random_density(rng, d)
        if trace_distance(sigma, np.eye(d) / d) < 1e-3:
            continue
        rep = reach_drive(ResourceSetK([L]), np.eye(d, dtype=complex) / d,
                          sigma, p=2.0, dt=0.05, t_max=2.0)
        if rep.stall_certificate is None or len(rep.generator_schedule) > 0:
            failures.append(f"sample {i}: did not stall immediately")
    report(12, "unital obstruction", failures[:5])


def test_criterion_13_gamma_identities(rng):
    failures = []
    for i in range(20):
        d = int(rng.integers(2, 5))
        Lh = Lindbladian(d, hamiltonian=random_hermitian(rng, d))
        x, y = random_complex(rng, d), random_complex(rng, d)
        if np.max(np.abs(gamma_form(Lh, x, y))) > 1e-10:
            failures.append(f"sample {i}: derivation Gamma nonzero")
        a = random_complex(rng, d)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        La = Lindbladian(d, jumps=[JumpTerm(a, 1.0)])
        Ls = Lindbladian(d, jumps=[JumpTerm(a + lam * np.eye(d), 1.0)])
        if np.max(np.abs(gamma_form(La, x, y) - gamma_form(Ls, x, y))) > 1e-10:
            failures.append(f"sample {i}: scalar shift changed Gamma")
    for i in range(100):
        d = int(rng.integers(2, 5))
        basis = [random_complex(rng, d) for _ in range(2)]
        coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        inside = (coeffs[0] * basis[0] + coeffs[1] * basis[1]
                  + complex(rng.standard_normal()) * np.eye(d))
        if not gamma_span_criterion(inside, basis):
            failures.append(f"trial {i}: planted span element rejected")
        outside = random_complex(rng, d)
        cols = [np.eye(d).reshape(-1)] + [b.reshape(-1) for b in basis]
        A = np.stack(cols, axis=1)
        coef, *_ = np.linalg.lstsq(A, outside.reshape(-1), rcond=None)
        if np.linalg.norm(A @ coef - outside.reshape(-1)) > 1e-6:
            if gamma_span_criterion(outside, basis):
                failures.append(f"trial {i}: non-span element accepted")
    report(13, "Gamma-form identities", failures[:5])
