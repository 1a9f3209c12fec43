import math

import numpy as np
import pytest

from lindreach.linalg import check_density, dag, trace_distance
from lindreach.lindblad import JumpTerm, Lindbladian, propagate
from lindreach.transport import (
    AmplitudeDamp,
    TransportPlan,
    Transposition,
    apply_step,
    apply_step_diag,
    base_case_4,
    execute_plan,
    full_state_transport,
    plan_diagonal_transport,
    prepare_pure_plan,
)

from conftest import random_density


def diag_density(v):
    return np.diag(np.asarray(v, dtype=float)).astype(complex)


def test_prepare_pure_k1():
    plan = prepare_pure_plan(1)
    assert plan.counts["infinite_damps"] == 1
    out = execute_plan(plan, diag_density([0.3, 0.7]))
    assert trace_distance(out, diag_density([1.0, 0.0])) <= 1e-10


def test_prepare_pure_k2_counts():
    plan = prepare_pure_plan(2)
    assert plan.counts["infinite_damps"] == 2
    out = execute_plan(plan, diag_density([0.1, 0.2, 0.3, 0.4]))
    target = np.zeros(4)
    target[0] = 1.0
    assert trace_distance(out, diag_density(target)) <= 1e-10


def test_prepare_pure_uniform_k3():
    plan = prepare_pure_plan(3)
    out = execute_plan(plan, np.eye(8, dtype=complex) / 8)
    target = np.zeros(8)
    target[0] = 1.0
    assert trace_distance(out, diag_density(target)) <= 1e-10


def test_prepare_pure_input_independent(rng):
    plan = prepare_pure_plan(3)
    target = np.zeros(8)
    target[0] = 1.0
    for _ in range(5):
        lam = rng.dirichlet(np.ones(8))
        out = execute_plan(plan, diag_density(lam))
        assert trace_distance(out, diag_density(target)) <= 1e-10


def test_base_case_4_formulas():
    mu = np.array([0.4, 0.3, 0.2, 0.1])
    res = base_case_4(mu)
    assert math.isclose(res["alpha"], 0.6)
    assert math.isclose(res["gamma"], 0.4 / 0.6)
    assert abs(res["beta"]) <= 1e-12
    out = execute_plan(res["plan"], diag_density([1.0, 0, 0, 0]))
    assert trace_distance(out, diag_density(mu)) <= 1e-10


def test_base_case_4_degenerate_and_uniform():
    res = base_case_4(np.array([1.0, 0, 0, 0]))
    assert res["alpha"] == 1.0 and res["gamma"] == 1.0
    out = execute_plan(res["plan"], diag_density([1.0, 0, 0, 0]))
    assert trace_distance(out, diag_density([1.0, 0, 0, 0])) <= 1e-10
    res = base_case_4(np.full(4, 0.25))
    out = execute_plan(res["plan"], diag_density([1.0, 0, 0, 0]))
    assert trace_distance(out, diag_density(np.full(4, 0.25))) <= 1e-10


def test_plan_diagonal_random(rng):
    for k in (2, 3):
        for _ in range(20):
            lam = rng.dirichlet(np.ones(2 ** k))
            mu = rng.dirichlet(np.ones(2 ** k))
            plan = plan_diagonal_transport(lam, mu, k)
            out = execute_plan(plan, diag_density(lam))
            assert trace_distance(out, diag_density(mu)) <= 1e-8
            c = plan.counts
            assert c["infinite_damps"] <= 3 * k + 4
            assert c["transpositions"] <= 8 * 2 ** k
            assert plan.ratio_ledger.is_nondecreasing()


def test_plan_identity_route(rng):
    lam = rng.dirichlet(np.ones(4))
    plan = plan_diagonal_transport(lam, lam, 2)
    out = execute_plan(plan, diag_density(lam))
    assert trace_distance(out, diag_density(lam)) <= 1e-10
    assert plan.counts["infinite_damps"] >= 1  # routes through the pure state


@pytest.mark.parametrize("lam", [[np.nan, np.nan], [np.nan, 1.0]])
def test_plan_rejects_non_finite_distribution(lam):
    with pytest.raises(ValueError, match="probability vectors"):
        plan_diagonal_transport(np.array(lam), np.array([0.5, 0.5]), 1)
    with pytest.raises(ValueError, match="probability vectors"):
        plan_diagonal_transport(np.array([0.5, 0.5]), np.array(lam), 1)


def test_full_state_transport(rng):
    for d in (2, 4, 8):
        rho = random_density(rng, d)
        sigma = random_density(rng, d)
        plan = full_state_transport(rho, sigma)
        assert trace_distance(execute_plan(plan, rho), sigma) <= 1e-8


def test_full_state_transport_to_uniform(rng):
    rho = random_density(rng, 4)
    plan = full_state_transport(rho, np.eye(4, dtype=complex) / 4)
    out = execute_plan(plan, rho)
    assert trace_distance(out, np.eye(4) / 4) <= 1e-8


def test_full_state_rejects_non_power_of_two(rng):
    with pytest.raises(ValueError):
        full_state_transport(random_density(rng, 3), random_density(rng, 3))


def test_execute_empty_plan(rng):
    rho = random_density(rng, 4)
    assert np.allclose(execute_plan(TransportPlan(2), rho), rho)


def test_single_damp_closed_form():
    alpha = math.exp(-2.0)
    plan = TransportPlan(1, steps=[AmplitudeDamp(0, alpha)])
    out = execute_plan(plan, diag_density([0.0, 1.0]))
    assert trace_distance(out, diag_density([1 - alpha, alpha])) <= 1e-10


def test_intermediate_states_valid(rng):
    lam = rng.dirichlet(np.ones(8))
    mu = rng.dirichlet(np.ones(8))
    plan = plan_diagonal_transport(lam, mu, 3)
    state = diag_density(lam)
    for step in plan.steps:
        state = apply_step(state, step, 3)
        check_density(state, eig_tol=1e-8)
        assert abs(np.trace(state).real - 1.0) <= 1e-10


def test_adjacent_transposition_count():
    plan = TransportPlan(3, steps=[Transposition(0, 5), Transposition(2, 3)])
    c = plan.counts
    assert c["transpositions"] == 2
    assert c["adjacent_transpositions"] == (2 * 5 - 1) + (2 * 1 - 1)


def test_retention_bounds():
    with pytest.raises(ValueError):
        AmplitudeDamp(0, 1.5)
    with pytest.raises(ValueError):
        Transposition(2, 2)


def damp_jump(register, k):
    """|0><1| on one register; register 0 is the most significant bit."""
    ops = [np.eye(2)] * k
    ops[register] = np.array([[0, 1], [0, 0]])
    out = np.ones((1, 1))
    for op in ops:
        out = np.kron(out, op)
    return out.astype(complex)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_damp_matches_lindblad_propagation(rng, k):
    for register in range(k):
        a = damp_jump(register, k)
        L = Lindbladian(2 ** k, jumps=[JumpTerm(a, 1.0)])
        for alpha in (0.3, 0.9, 1.0):
            rho = random_density(rng, 2 ** k)
            ref = propagate(L, rho, -0.5 * math.log(alpha))
            out = apply_step(rho, AmplitudeDamp(register, alpha), k)
            assert np.max(np.abs(out - ref)) <= 1e-12
        rho = random_density(rng, 2 ** k)
        p0 = np.eye(2 ** k) - dag(a) @ a
        ref = p0 @ rho @ p0 + a @ rho @ dag(a)
        out = apply_step(rho, AmplitudeDamp(register, 0.0), k)
        assert np.max(np.abs(out - ref)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_transposition_matches_permutation_unitary(rng, k):
    d = 2 ** k
    rho = random_density(rng, d)
    for i in range(d):
        for j in range(i + 1, d):
            U = np.eye(d)
            U[[i, j]] = U[[j, i]]
            out = apply_step(rho, Transposition(i, j), k)
            assert np.array_equal(out, U @ rho @ dag(U))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_step_diagonal_matches_full_step(rng, k):
    lam = rng.dirichlet(np.ones(2 ** k))
    plan = plan_diagonal_transport(lam, rng.dirichlet(np.ones(2 ** k)), k)
    p = lam
    for step in plan.steps:
        full = np.diag(apply_step(diag_density(p), step, k)).real
        p = apply_step_diag(p, step, k)
        assert np.max(np.abs(full - p)) <= 1e-15


def test_random_plan_k5_reaches_target(rng):
    mu = rng.dirichlet(np.ones(32))
    plan = plan_diagonal_transport(rng.dirichlet(np.ones(32)), mu, 5)
    out = execute_plan(plan, random_density(rng, 32))
    assert trace_distance(out, diag_density(mu)) <= 1e-8
