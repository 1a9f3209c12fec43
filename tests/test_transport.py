import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindreach.linalg import (check_density, dag, hermitize, require_dim,
                              trace_distance)
from lindreach.lindblad import JumpTerm, Lindbladian, propagate
from lindreach.transport import (
    RATIO_TOL,
    AmplitudeDamp,
    RatioLedger,
    TransportPlan,
    Transposition,
    _build_from_pure,
    apply_step,
    apply_step_diag,
    base_case_4,
    execute_plan,
    full_state_transport,
    plan_diagonal_transport,
    plan_states,
    prepare_pure_plan,
)

from conftest import random_complex, random_density


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


@pytest.mark.parametrize("mu", [[np.nan, 0.5, 0.25, 0.25], [0.5, 0.5, 0.0],
                                [0.5, 0.5, np.inf, -np.inf]])
def test_base_case_4_requires_a_distribution(mu):
    """A NaN entry passed the old range checks and gave alpha = nan."""
    with pytest.raises(ValueError, match="mu must be a probability vector"):
        base_case_4(np.array(mu))


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


def test_step_kind_is_fixed_by_class():
    assert AmplitudeDamp(0, 0.5).kind == "amplitude_damp"
    assert Transposition(0, 1).kind == "transposition"
    with pytest.raises(TypeError):
        AmplitudeDamp(0, 0.5, kind="x")


# The recursive pair-matching builder that the register loop replaced, kept
# verbatim as the reference for its steps, populations and ledger.
def _reference_build_from_pure(mu, k, steps, register_offset, ledger, sim):
    if k == 0:
        return
    n = 2 ** k
    half = n // 2
    sums = mu[:half] + mu[half:]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(sums > RATIO_TOL, mu[half:] / np.where(sums > 0, sums, 1.0), 0.0)
    order = np.argsort(ratios, kind="stable")
    sorted_sums = sums[order]
    sorted_ratios = ratios[order]
    total_k = register_offset + k  # registers in the simulated system
    _reference_build_from_pure(sorted_sums, k - 1, steps, register_offset + 1, None, sim)

    matched = sorted_ratios <= RATIO_TOL  # parked pairs are final already

    def emit(step, record=False):
        steps.append(step)
        sim[0] = apply_step_diag(sim[0], step, total_k)
        if record and ledger is not None:
            dd = sim[0]
            vals = []
            for j in range(half):
                if not matched[j]:
                    continue
                s = dd[j] + dd[half + j]
                vals.append(dd[half + j] / s if s > RATIO_TOL else 0.0)
            ledger.record(vals)

    # split phase: ascending target ratio, global damps interleaved
    for j in range(half):
        r = sorted_ratios[j]
        r_next = sorted_ratios[j + 1] if j + 1 < half else 1.0
        if r > RATIO_TOL:
            matched[j] = True
            emit(Transposition(j, half + j), record=True)
        retention = r / r_next if r_next > RATIO_TOL else 1.0
        if r > RATIO_TOL and retention < 1.0 - 1e-15:
            emit(AmplitudeDamp(register_offset, float(retention)), record=True)
    # final permutation returning sorted pairs to their target slots
    perm = np.empty(n, dtype=int)
    for j in range(half):
        perm[j] = order[j]
        perm[half + j] = order[j] + half
    _reference_emit_permutation(perm, emit)


def _reference_emit_permutation(perm, emit):
    n = len(perm)
    seen = np.zeros(n, dtype=bool)
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        for idx in cyc[1:]:
            emit(Transposition(cyc[0], idx))


def _targets(rng, family, n):
    if family == "dirichlet":
        return rng.dirichlet(np.ones(n))
    if family == "spiky":
        return rng.dirichlet(np.full(n, 0.05))
    if family == "rounded":  # multiples of 0.1: ties and zeros
        return rng.multinomial(10, rng.dirichlet(np.ones(n))) / 10
    if family == "uniform":
        return np.full(n, 1.0 / n)
    return np.eye(n)[rng.integers(n)]  # point mass


def _near_threshold(rng, k, pair_sum, j, split):
    """A Dirichlet target whose register-0 pair (j, j + 2^(k-1)) sums to
    pair_sum, split between its entries in the ratio split : 1 - split."""
    mu = rng.dirichlet(np.ones(2 ** k))
    half = 2 ** (k - 1)
    j %= half
    rest = np.ones(2 ** k, dtype=bool)
    rest[[j, half + j]] = False
    mu[rest] *= (1.0 - pair_sum) / mu[rest].sum()
    mu[j], mu[half + j] = pair_sum * split, pair_sum * (1.0 - split)
    return mu


@pytest.mark.parametrize("family", ["dirichlet", "spiky", "rounded",
                                    "uniform", "point"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_register_loop_matches_recursive_reference(k, family):
    rng = np.random.default_rng([k, len(family)])
    for _ in range(12):
        mu = _targets(rng, family, 2 ** k)
        ref_steps, ref_ledger, sim = [], RatioLedger(), [np.eye(1, 2 ** k)[0]]
        _reference_build_from_pure(mu, k, ref_steps, 0, ref_ledger, sim)
        ledger = RatioLedger()
        steps, pop = _build_from_pure(mu, k, ledger)
        assert steps == ref_steps  # dataclass equality: same class and fields
        assert np.array_equal(pop, sim[0])
        assert ledger.entries == ref_ledger.entries
        assert ledger.is_nondecreasing()


@pytest.mark.parametrize("k", [3, 4, 5])
def test_register_loop_matches_reference_near_threshold(k):
    """Targets with a register-0 pair just above RATIO_TOL: the steps and
    populations are the reference's. The ledger is monotone, and it differs
    from the reference's only where that called an activated pair empty
    because its simulated sum rounded to RATIO_TOL or below."""
    rng = np.random.default_rng(k)
    for i in range(40):
        mu = _near_threshold(rng, k, rng.uniform(1e-14, 1.002e-14), i,
                             rng.uniform())
        ref_steps, ref_ledger, sim = [], RatioLedger(), [np.eye(1, 2 ** k)[0]]
        _reference_build_from_pure(mu, k, ref_steps, 0, ref_ledger, sim)
        ledger = RatioLedger()
        steps, pop = _build_from_pure(mu, k, ledger)
        assert steps == ref_steps and np.array_equal(pop, sim[0])
        assert ledger.is_nondecreasing()
        for row, ref_row in zip(ledger.entries, ref_ledger.entries, strict=True):
            assert len(row) == len(ref_row)
            assert all(x == y or y == 0.0 for x, y in zip(row, ref_row))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.integers(3, 5), pair_sum=st.floats(1e-14, 1.002e-14),
       j=st.integers(0, 15), split=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_plan_with_pair_just_above_ratio_tol(k, pair_sum, j, split, seed):
    """A pair summing just above RATIO_TOL is activated, and its simulated
    sum may round to or below RATIO_TOL: planning must not call it empty."""
    rng = np.random.default_rng(seed)
    mu = _near_threshold(rng, k, pair_sum, j, split)
    lam = rng.dirichlet(np.ones(2 ** k))
    plan = plan_diagonal_transport(lam, mu, k)
    out = execute_plan(plan, diag_density(lam))
    assert np.max(np.abs(out - diag_density(mu))) <= 1e-8


# Plan execution as it was before states were checked once, with every step
# applied to the d x d matrix, hermitized and checked, kept as the reference.
def _reference_plan_states(plan, rho):
    require_dim(plan.dim, rho=rho)
    rho = check_density(rho)
    yield rho
    for step in plan.steps:
        rho = check_density(hermitize(apply_step(rho, step, plan.k)), eig_tol=1e-8)
        yield rho


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["diagonal", "full", "transpositions"]),
       k=st.integers(1, 5), diagonal_input=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_plan_states_match_all_matrix_reference(family, k, diagonal_input, seed):
    """Skipping the check after a transposition and stepping the population
    vector of an exactly diagonal state give the reference's states bit for
    bit, unitary steps and an input that is not exactly Hermitian included."""
    rng = np.random.default_rng(seed)
    d = 2 ** k
    lam = rng.dirichlet(np.ones(d))
    rho = diag_density(lam) if diagonal_input else random_density(rng, d)
    if family == "diagonal":
        plan = plan_diagonal_transport(lam, rng.dirichlet(np.ones(d)), k)
    elif family == "full":
        plan = full_state_transport(rho, random_density(rng, d))
    else:
        pairs = rng.choice(d, size=(rng.integers(1, 3 * d), 2))
        plan = TransportPlan(k, [Transposition(i, j) for i, j in pairs if i != j])
        skew = random_complex(rng, d) * 1e-14
        rho = rho + skew - dag(skew)        # Hermitian within tolerance only
    ref = list(_reference_plan_states(plan, rho))
    got = list(plan_states(plan, rho))
    assert len(got) == len(ref) == len(plan.steps) + 1
    for x, y in zip(got, ref):
        assert x.shape == (d, d) and np.array_equal(x, y)
    assert np.array_equal(execute_plan(plan, rho), ref[-1])


@pytest.mark.parametrize("step, message", [
    (Transposition(0, 2), r"transposition \(0, 2\) outside 0\.\.1"),
    (Transposition(-1, 0), r"transposition \(-1, 0\) outside 0\.\.1"),
    (AmplitudeDamp(1, 0.5), "register 1 outside 0..0")])
def test_population_steps_keep_the_matrix_argument_checks(step, message):
    """A step on the population vector is rejected as on the matrix, with
    the same message."""
    for x in (np.array([0.25, 0.75]), diag_density([0.25, 0.75])):
        with pytest.raises(ValueError, match=message):
            apply_step(x, step, 1)
