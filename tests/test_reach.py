import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lindreach.linalg import (EIG_TOL, _check_state, apply_superop,
                              check_density, hermitize, mat_exp,
                              require_positive, schatten_norm, trace_distance)
from lindreach.hormander import haar_unitary
from lindreach.tangent import PathSample
from lindreach.lindblad import (
    BilinearTerm,
    JumpTerm,
    Lindbladian,
    _gksl,
    _herm_coords,
    _herm_matrix,
    _real_form,
    apply,
    chain_lindbladian,
    propagate,
    replacer_lindbladian,
)
from lindreach import reach, serialize as ser
from lindreach.transport import full_state_transport
from lindreach.reach import (
    STALL_TOL,
    ReachReport,
    ResourceSetK,
    _check_p,
    _descends,
    _rate,
    _spectral_weight,
    _sphere_samples,
    _weight,
    alignment,
    lowering_jump,
    porcupine_check,
    reach_drive,
    replacer_overshoot,
    sparse_alignment_diagonal,
    tan_schedule,
)

from conftest import random_complex, random_density, random_hermitian, svd_schatten


def test_alignment_replacer_closed_form(rng):
    sigma = random_density(rng, 3)
    eta = random_density(rng, 3)
    L = replacer_lindbladian(sigma)
    for p in (1.5, 2.0, 3.0):
        val = alignment(L, eta, sigma, p)
        assert math.isclose(val, -schatten_norm(eta - sigma, p) ** p,
                            rel_tol=1e-9)


def test_alignment_p2_consistency(rng):
    L = Lindbladian(3, hamiltonian=random_hermitian(rng, 3),
                    jumps=[JumpTerm(random_complex(rng, 3), 0.5)])
    eta = random_density(rng, 3)
    sigma = random_density(rng, 3)
    direct = np.trace(apply(L, eta) @ (eta - sigma)).real
    assert abs(alignment(L, eta, sigma, 2.0) - direct) <= 1e-11


def test_alignment_linearity(rng):
    L1 = Lindbladian(2, jumps=[JumpTerm(random_complex(rng, 2), 1.0)])
    L2 = Lindbladian(2, jumps=[JumpTerm(random_complex(rng, 2), 1.0)])
    both = Lindbladian(2, jumps=L1.jumps + L2.jumps)
    eta = random_density(rng, 2)
    sigma = random_density(rng, 2)
    a1 = alignment(L1, eta, sigma, 2.0)
    a2 = alignment(L2, eta, sigma, 2.0)
    assert abs(alignment(both, eta, sigma, 2.0) - a1 - a2) <= 1e-11


def test_alignment_rejects_equal_states(rng):
    rho = random_density(rng, 2)
    L = replacer_lindbladian(rho)
    with pytest.raises(ValueError):
        alignment(L, rho, rho, 2.0)


def test_reach_replacer_monotone(rng):
    sigma = random_density(rng, 3)
    rho0 = random_density(rng, 3)
    K = ResourceSetK([replacer_lindbladian(sigma)])
    for p in (1.5, 2.0, 3.0):
        rep = reach_drive(K, rho0, sigma, p=p, dt=0.05, t_max=60,
                          target_tol=1e-4)
        assert rep.reached
        dists = [schatten_norm(s - sigma, p) for s in rep.trajectory.states]
        assert all(b < a + 1e-13 for a, b in zip(dists, dists[1:]))


def test_reach_trivial_target(rng):
    sigma = random_density(rng, 2)
    K = ResourceSetK([replacer_lindbladian(sigma)])
    rep = reach_drive(K, sigma, sigma, target_tol=1e-6)
    assert rep.reached and len(rep.generator_schedule) == 0


def test_reach_without_steps_reports_one_sample():
    """At the target, or stalled at once, the trajectory is the one computed
    sample at t = 0."""
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)
    at_target = reach_drive(ResourceSetK([replacer_lindbladian(sigma)]),
                            sigma, sigma)
    # a diagonal Hamiltonian leaves diagonal states in place: alignment 0
    stalled = reach_drive(ResourceSetK([Lindbladian(2, hamiltonian=np.diag(
        [1.0, -1.0]))]), rho0, sigma)
    assert at_target.reached and stalled.stall_certificate is not None
    for rep, eta in ((at_target, sigma), (stalled, rho0)):
        assert np.array_equal(rep.trajectory.times, [0.0])
        assert np.array_equal(rep.trajectory.states, eta[None])


@pytest.mark.parametrize("rate", [1.0, 2.0])
def test_reach_bilinear_generator_matches_jump(rate):
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)

    def run(L):
        K = ResourceSetK([L], max_total_rate=rate)
        return reach_drive(K, rho0, sigma, dt=0.05, t_max=1.0)

    jump = run(Lindbladian(2, jumps=[JumpTerm(a, 1.0)]))
    bil = run(Lindbladian(2, bilinear=BilinearTerm([a], [[1.0]])))
    assert np.array_equal(bil.trajectory.times, jump.trajectory.times)
    assert len(jump.trajectory.states) > 2
    for x, y in zip(bil.trajectory.states, jump.trajectory.states):
        assert np.max(np.abs(x - y)) <= 1e-12
    # max_total_rate scales the rate: populations decay like exp(-2 rate t)
    t = jump.trajectory.times[-1]
    assert abs(jump.final_state[1, 1].real - np.exp(-2 * rate * t)) <= 1e-10


def greedy_reference(gens, eta, sigma, p, dt, t_max, tol):
    """reach_drive's greedy loop at unit rate, rebuilding every
    superoperator from _gksl, and its real form in the orthonormal Hermitian
    basis, at every step; returns the states and the (t0, t1, index, rate)
    schedule on the i dt grid."""
    def superop(L):
        return _gksl(L.hamiltonian, [j.a for j in L.jumps],
                     np.diag([j.rate for j in L.jumps]))

    states, schedule = [eta], []
    while schatten_norm(eta - sigma, p) > tol and len(schedule) * dt < t_max:
        W, _ = _weight(hermitize(eta - sigma), p)
        vals = [float(_rate(apply_superop(superop(L), eta), W)) for L in gens]
        idx = int(np.argmin(vals))
        if not _descends(vals[idx], schatten_norm(eta - sigma, p), p):
            break
        out = mat_exp(dt * _real_form(superop(gens[idx]))) @ _herm_coords(eta)
        eta = check_density(_herm_matrix(out), eig_tol=1e-8)[0]
        i = len(schedule)
        states.append(eta)
        schedule.append((i * dt, (i + 1) * dt, idx, 1.0))
    return states, schedule


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("d", [4, 8])
def test_reach_matches_rebuilding_reference(rng, d, p):
    """Generators that build their superoperator once give the same reach,
    bit for bit, as rebuilding it for every alignment and propagation."""
    rho0, sigma = random_density(rng, d), random_density(rng, d)
    lower = np.zeros((d, d), dtype=complex)
    lower[0, d - 1] = 1.0
    gens = [replacer_lindbladian(sigma),
            chain_lindbladian(rng.random(d) + 0.1),
            Lindbladian(d, hamiltonian=random_hermitian(rng, d),
                        jumps=[JumpTerm(lower, 1.0)])]
    rep = reach_drive(ResourceSetK(gens), rho0, sigma, p=p, dt=0.05,
                      t_max=1.0, target_tol=1e-4)
    states, schedule = greedy_reference(gens, rho0, sigma, p, 0.05, 1.0, 1e-4)
    assert len(states) > 2
    assert np.array_equal(rep.trajectory.states, states)
    assert np.array_equal(rep.final_state, states[-1])
    assert rep.generator_schedule == schedule


def _reference_reach_drive(K, rho0, sigma, p, dt, t_max, target_tol):
    """reach_drive as it was before one eigendecomposition per state served
    both the distance and the weight: alignment computes its own weight,
    the distance comes from schatten_norm, and propagate rechecks eta.
    Steps are counted on the i dt grid, as in reach_drive."""
    require_positive(dt=dt, t_max=t_max, target_tol=target_tol)
    _check_p(p)
    eta = _check_state(rho0, "rho0", K.dim)[0]
    sigma = _check_state(sigma, "sigma", K.dim)[0]
    states, schedule = [eta], []
    dist = schatten_norm(eta - sigma, p)
    reached = dist <= target_tol
    stall = None
    exceeded = False
    while not reached:
        i = len(schedule)
        if i * dt >= t_max:
            exceeded = True
            break
        vals = [alignment(L, eta, sigma, p) for L in K.generators]
        idx = int(np.argmin(vals))
        rate = K.max_total_rate
        val = rate * vals[idx]
        if not _descends(val, dist, p):
            stall = (eta, float(val))
            break
        eta = propagate(K.generators[idx], eta, rate * dt)
        states.append(eta)
        schedule.append((i * dt, (i + 1) * dt, idx, rate))
        dist = schatten_norm(eta - sigma, p)
        reached = dist <= target_tol
    return ReachReport(reached=reached, final_state=eta,
                       trajectory=PathSample(dt * np.arange(len(states)), states),
                       generator_schedule=schedule,
                       stall_certificate=stall, t_max_exceeded=exceeded)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), p=st.sampled_from([1.5, 2.0, 3.0]),
       near=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_reach_drive_matches_reference_loop(d, p, near, seed):
    """One eigendecomposition per state, shared by the distance and every
    alignment, and no recheck of eta before each step give the reference's
    report exactly: reached, stalled (a Hamiltonian can only stall) or out
    of time, with the same states, schedule and step count."""
    rng = np.random.default_rng(seed)
    sigma = random_density(rng, d)
    rho0 = 0.997 * sigma + 0.003 * random_density(rng, d) if near else random_density(rng, d)
    gens = [replacer_lindbladian(sigma), chain_lindbladian(rng.random(d) + 0.1),
            Lindbladian(d, hamiltonian=random_hermitian(rng, d))]
    K = ResourceSetK(gens[int(rng.integers(3)):],
                     max_total_rate=float(rng.uniform(0.5, 2.0)))
    args = (K, rho0, sigma, p, 0.1, 1.0, 1e-3)
    got, ref = reach_drive(*args), _reference_reach_drive(*args)
    assert (got.reached, got.t_max_exceeded) == (ref.reached, ref.t_max_exceeded)
    assert np.array_equal(got.final_state, ref.final_state)
    assert np.array_equal(got.trajectory.times, ref.trajectory.times)
    assert np.array_equal(got.trajectory.states, ref.trajectory.states)
    assert got.generator_schedule == ref.generator_schedule
    assert (got.stall_certificate is None) == (ref.stall_certificate is None)
    if ref.stall_certificate is not None:
        assert np.array_equal(got.stall_certificate[0], ref.stall_certificate[0])
        assert got.stall_certificate[1] == ref.stall_certificate[1]


STEP_GRID = [(dt, t_max)
             for dt in (0.01, 0.02, 0.025, 0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.7)
             for t_max in (0.1, 0.3, 0.5, 0.7, 1, 1.5, 2, 3, 5, 7, 10)
             if abs(t_max / dt - round(t_max / dt)) < 1e-9
             and round(t_max / dt) <= 200]


def test_reach_drive_counts_round_t_max_over_dt_steps():
    """A run that neither reaches nor stalls takes round(t_max / dt) steps
    whenever t_max is a whole multiple of dt: a jump at rate 1e-3 barely
    moves I/2 toward |0><0|. Summing t += dt instead takes one step too
    many on 15 of these 73 pairs, (0.1, 1) among them."""
    K = ResourceSetK([Lindbladian(2, jumps=[JumpTerm(np.eye(2, k=1), 1e-3)])])
    rho0 = np.eye(2, dtype=complex) / 2
    sigma = np.diag([1.0, 0.0]).astype(complex)
    assert len(STEP_GRID) == 73
    wrong = []
    for dt, t_max in STEP_GRID:
        rep = reach_drive(K, rho0, sigma, dt=dt, t_max=t_max)
        assert rep.t_max_exceeded and rep.stall_certificate is None
        if len(rep.generator_schedule) != round(t_max / dt):
            wrong.append((dt, t_max, len(rep.generator_schedule)))
    assert wrong == []


NAN, INF = math.nan, math.inf
SCRIPTED_VALUES = [[0.5], [NAN], [1.0, NAN, 0.0], [2.0, 1.0, NAN, NAN, 0.0],
                   [NAN, -INF], [-1.0, 0.0, -1.0], [3.0, -2.0, -2.0, 5.0],
                   [0.0, -0.0], [-0.0, 0.0], [INF, INF], [INF, -INF, -INF],
                   [1e-300, 5e-324, 0.0, 5e-324]]


@pytest.mark.parametrize("vals", SCRIPTED_VALUES, ids=str)
def test_first_least_keeps_numpy_argmin_rule(vals):
    """reach_drive's choice over a Python list is np.argmin's: the first NaN
    if there is one, else the first least value (ties, signed zeros)."""
    assert reach._first_least(list(vals)) == int(np.argmin(vals))


def test_reach_drive_chooses_by_the_argmin_rule(monkeypatch):
    """Scripted alignments: a tie goes to the first generator of least
    value, and a NaN alignment (apply can overflow on a finite superoperator
    with entries near 1e308) is chosen over every number and stalls the
    run, since NaN descends by no margin."""
    script = iter([-1.0, -2.0, -2.0, -3.0, -3.0, 0.0, 0.0, NAN, -5.0])
    monkeypatch.setattr(reach, "alignment", lambda *args, **kwargs: next(script))
    d = 2
    K = ResourceSetK([lowering_jump(0, 1, d), lowering_jump(1, 0, d),
                      Lindbladian(d, hamiltonian=np.diag([1.0, -1.0]))])
    rep = reach_drive(K, np.eye(d) / d, np.diag([0.9, 0.1]), dt=0.01, t_max=1.0)
    assert [index for *_, index, _ in rep.generator_schedule] == [1, 0]
    assert math.isnan(rep.stall_certificate[1])
    assert next(script, None) is None


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 4), p=st.sampled_from([1.5, 2.0, 3.0]),
       dt=st.sampled_from([0.05, 0.1, 0.3, 0.7]),
       t_max=st.floats(0.1, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_reach_schedule_replays_the_trajectory(d, p, dt, t_max, seed):
    """Entry i of the schedule is (i dt, (i+1) dt, index, rate): propagating
    state i by generator index for rate dt gives state i+1 bit for bit, the
    rate is max_total_rate, and the trajectory times are i dt."""
    rng = np.random.default_rng(seed)
    sigma = random_density(rng, d)
    gens = [chain_lindbladian(rng.random(d) + 0.1), replacer_lindbladian(sigma),
            Lindbladian(d, jumps=[JumpTerm(random_complex(rng, d), 0.5)])]
    K = ResourceSetK(gens, max_total_rate=float(rng.uniform(0.5, 2.0)))
    rep = reach_drive(K, random_density(rng, d), sigma, p=p, dt=dt,
                      t_max=t_max, target_tol=1e-3)
    states = rep.trajectory.states
    assert len(states) == len(rep.generator_schedule) + 1
    assert np.array_equal(rep.trajectory.times, dt * np.arange(len(states)))
    rate = K.max_total_rate
    for i, (t0, t1, index, r) in enumerate(rep.generator_schedule):
        assert (t0, t1, r) == (i * dt, (i + 1) * dt, rate)
        assert np.array_equal(propagate(K.generators[index], states[i], r * dt),
                              states[i + 1])


@pytest.mark.parametrize("p", [1.3, 2.0, 3.5])
def test_alignment_with_shared_weight_is_bit_identical(rng, p):
    """alignment given the shared weight equals alignment that computes it,
    bit for bit, and the shared distance is the p-norm of the singular
    values."""
    for d in (2, 3, 6):
        eta, sigma = random_density(rng, d), random_density(rng, d)
        W, dist = _weight(hermitize(eta - sigma), p)
        for L in (replacer_lindbladian(sigma), chain_lindbladian(rng.random(d) + 0.1)):
            assert alignment(L, eta, sigma, p, weight=W) == alignment(L, eta, sigma, p)
        assert math.isclose(dist, svd_schatten(eta - sigma, p), rel_tol=1e-13)


def _weight_by_eigh(delta, p):
    """_weight by one eigendecomposition whatever delta and p are: the
    reference for its closed forms."""
    w, V = np.linalg.eigh(delta)
    f = np.where(np.abs(w) > 0, np.sign(w) * np.abs(w) ** (p - 1), 0.0)
    return (V * f[..., None, :]) @ V.conj().swapaxes(-1, -2), svd_schatten(delta, p)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 6), n=st.integers(1, 4), p=st.floats(1.5, 40),
       diagonal=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_weight_closed_forms_match_the_eigen_solve(d, n, p, diagonal, seed):
    """At p = 2, W = delta; on an exactly diagonal stack W acts on the
    diagonal entrywise, 0 where an entry is 0. Both agree with the
    eigendecomposition: W within 1e-14 of its largest entry, the distance
    within 1e-13 relative."""
    rng = np.random.default_rng(seed)
    if diagonal:
        x = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.8)
        delta = x[..., None] * np.eye(d, dtype=complex)
    else:
        p = 2.0
        delta = hermitize(rng.standard_normal((n, d, d))
                          + 1j * rng.standard_normal((n, d, d)))
    W, dist = _weight(delta, p)
    W_ref, dist_ref = _weight_by_eigh(delta, p)
    assert W.shape == W_ref.shape and np.shape(dist) == (n,)
    assert np.max(np.abs(W - W_ref)) <= 1e-14 * np.max(np.abs(W_ref))
    assert np.all(np.abs(dist - dist_ref) <= 1e-13 * dist_ref)


def _spectral_weight_by_where(w, V, p):
    """_spectral_weight with f(0) = 0 as a case of its own: the reference
    for the form without one."""
    f = np.where(np.abs(w) > 0, np.sign(w) * np.abs(w) ** (p - 1), 0.0)
    if V is None:
        return np.eye(w.shape[-1]) * f[..., None, :]
    return (V * f[..., None, :]) @ V.conj().swapaxes(-1, -2)


_finite_eigenvalues = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, -2.2e-308]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(w=st.integers(1, 5).flatmap(lambda d: st.lists(
           st.lists(_finite_eigenvalues, min_size=d, max_size=d), min_size=1,
           max_size=3)),
       p=st.one_of(st.sampled_from([1.5, 2.0, 3.0, 10.0]), st.floats(1.0, 50.0,
                                                                    exclude_min=True)),
       unitary=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_spectral_weight_needs_no_case_for_zero(w, p, unitary, seed):
    """For every finite spectrum, ±0.0 and subnormals included, the weight
    without a case for f(0) is the np.where form bit for bit, signed zeros
    too: at p > 1, sign(±0.0) |±0.0|^(p-1) is +0.0."""
    w = np.array(w)
    V = (np.stack([haar_unitary(w.shape[-1], np.random.default_rng([seed, i]))
                   for i in range(len(w))]) if unitary else None)
    with np.errstate(all="ignore"):
        got = _spectral_weight(w, V, p)
        ref = _spectral_weight_by_where(w, V, p)
    assert got.dtype == ref.dtype
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_reach_drive_within_eq_tol_of_sigma_reports(rng):
    """rho0 within EQ_TOL of sigma but farther than target_tol: the shared
    weight defines the alignment, so reach_drive reports instead of raising.
    A replacer contracts at rate 1, far below STALL_TOL at this distance, so
    the descent stalls at once, and the certificate holds the checked rho0,
    hermitize(rho0), and the alignment that was computed there."""
    sigma = random_density(rng, 3)
    rho0 = sigma + np.diag([3e-13, -3e-13, 0.0])
    K = ResourceSetK([replacer_lindbladian(sigma)])
    with pytest.raises(ValueError, match="eta equals sigma"):
        alignment(K.generators[0], rho0, sigma, 2.0)
    rep = reach_drive(K, rho0, sigma, target_tol=1e-15)
    assert not rep.reached and not rep.t_max_exceeded
    assert rep.generator_schedule == []
    eta, value = rep.stall_certificate
    assert np.array_equal(eta, hermitize(rho0))
    W, _ = _weight(eta - hermitize(sigma), 2.0)
    assert value == alignment(K.generators[0], eta, sigma, 2.0, weight=W)


def test_example_noise_reach():
    sigma = np.diag([1.0, 0.0, 0.0]).astype(complex)
    eps = 0.05
    eta0 = np.diag([1 - 2 * eps, eps, eps]).astype(complex)
    toward = ResourceSetK([lowering_jump(0, 1, 3), lowering_jump(1, 2, 3)])
    rep = reach_drive(toward, eta0, sigma, p=2.0, dt=0.02, t_max=100,
                      target_tol=1e-4)
    assert rep.reached
    assert trace_distance(rep.final_state, sigma) <= 1e-4
    away = ResourceSetK([lowering_jump(1, 0, 3), lowering_jump(2, 1, 3)])
    rep2 = reach_drive(away, eta0, sigma, p=2.0, dt=0.02, t_max=20,
                       target_tol=1e-4)
    assert not rep2.reached


def test_example_noise_alignment_signs():
    # toward-set generators never increase the distance on the slice
    sigma = np.diag([1.0, 0.0, 0.0]).astype(complex)
    eps = 0.05
    eta = np.diag([1 - 2 * eps, eps, eps]).astype(complex)
    for (r, s) in ((0, 1), (1, 2)):
        assert alignment(lowering_jump(r, s, 3), eta, sigma, 2.0) <= 1e-12


def test_porcupine_replacer_is_unobstructed(rng):
    sigma = np.eye(3, dtype=complex) / 3
    K = ResourceSetK([replacer_lindbladian(random_density(rng, 3))])
    rep = porcupine_check(K, sigma, 0.05, n_samples=200, seed=3)
    assert not rep.obstruction_evidence or rep.min_alignment_over_samples >= 0
    K2 = ResourceSetK([replacer_lindbladian(sigma)])
    rep2 = porcupine_check(K2, sigma, 0.05, n_samples=200, seed=3)
    assert not rep2.obstruction_evidence
    assert rep2.min_alignment_over_samples < 0


def test_porcupine_reproducible():
    sigma = np.diag([1.0, 0.0, 0.0]).astype(complex)
    K = ResourceSetK([lowering_jump(1, 0, 3)])
    r1 = porcupine_check(K, sigma, 0.05, n_samples=100, seed=11,
                         diagonal_slice=True)
    r2 = porcupine_check(K, sigma, 0.05, n_samples=100, seed=11,
                         diagonal_slice=True)
    assert r1.min_alignment_over_samples == r2.min_alignment_over_samples


def _sphere_samples_loop(sigma, epsilon, p, n_samples, rng, diagonal_slice,
                        eig_tol=1e-10):
    """One draw at a time: the reference the chunked sampler must match. Its
    norm is the p-norm of the singular values, not lindreach's."""
    d = sigma.shape[0]
    out = []
    attempts = 0
    while len(out) < n_samples and attempts < 50 * max(n_samples, 1):
        attempts += 1
        if diagonal_slice:
            g = rng.standard_normal(d)
            g -= g.mean()
            X = np.diag(g).astype(complex)
        else:
            G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            X = hermitize(G)
            X -= (np.trace(X).real / d) * np.eye(d)
        nrm = np.sum(np.linalg.svd(X, compute_uv=False) ** p) ** (1 / p)
        if nrm < 1e-12:
            continue
        eta = sigma + (epsilon / nrm) * X
        if np.linalg.eigvalsh(hermitize(eta)).min() >= -eig_tol:
            out.append(hermitize(eta))
    return out


def _sphere(sigma, epsilon, p, n_samples, rng, diagonal_slice):
    """_sphere_samples with the lambda_min(sigma) that porcupine_check takes
    from check_density's eigen-solve."""
    lmin = np.linalg.eigvalsh(hermitize(np.asarray(sigma, dtype=complex))).min()
    return _sphere_samples(sigma, epsilon, p, n_samples, rng, diagonal_slice, lmin)


def _sigma(kind, rng, d):
    """A full-rank state, a diagonal pure state, a rank-deficient state in
    a random basis (a boundary state with no diagonal structure), or a
    diagonal state with between one and d - 1 exact zeros."""
    if kind == "mixed":
        return random_density(rng, d)
    if kind == "pure":
        return np.diag(np.eye(d)[int(rng.integers(d))]).astype(complex)
    if kind == "zeros":
        w = rng.random(d) + 0.1
        w[rng.choice(d, int(rng.integers(1, d)), replace=False)] = 0.0
        return np.diag(w / w.sum()).astype(complex)
    U = haar_unitary(d, rng)
    return hermitize(U @ random_density(rng, d, rank=d - 1) @ U.conj().T)


SIGMA_KINDS = ["mixed", "pure", "rotated"]


@pytest.mark.parametrize("kind", SIGMA_KINDS)
@pytest.mark.parametrize("diagonal_slice", [False, True], ids=["full", "diag"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_porcupine_matches_per_draw_reference(d, p, diagonal_slice, kind):
    rng = np.random.default_rng([d, int(2 * p), diagonal_slice,
                                 SIGMA_KINDS.index(kind)])
    sigma = _sigma(kind, rng, d)
    K = ResourceSetK([Lindbladian(d, hamiltonian=random_hermitian(rng, d)),
                      Lindbladian(d, jumps=[JumpTerm(random_complex(rng, d), 0.3)]),
                      replacer_lindbladian(random_density(rng, d)),
                      lowering_jump(0, 1, d)])
    eps, n, seed = 0.05, 40, int(rng.integers(2 ** 31))
    ref = _sphere_samples_loop(sigma, eps, p, n, np.random.default_rng(seed),
                               diagonal_slice)
    samples = _sphere(sigma, eps, p, n, np.random.default_rng(seed),
                      diagonal_slice)[0]
    assert samples.shape == (len(ref), d, d)
    if ref:
        assert np.max(np.abs(samples - np.array(ref))) <= 1e-15
    try:
        rep = porcupine_check(K, sigma, eps, p=p, n_samples=n, seed=seed,
                              diagonal_slice=diagonal_slice)
    except ValueError:
        # an empty or (around a boundary sigma) too thin intersection
        assert len(ref) < n // 10
        return
    best = min(alignment(L, eta, sigma, p) for eta in ref for L in K.generators)
    assert rep.samples == len(ref)
    assert rep.obstruction_evidence == (not _descends(best, eps, p))
    # exact zeros (a generator commuting with every sample) may come out
    # as rounding-level values
    assert math.isclose(rep.min_alignment_over_samples, best,
                        rel_tol=1e-12, abs_tol=1e-15)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), p=st.floats(1.5, 40), diagonal_slice=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sphere_inside_the_state_space_keeps_every_draw(d, p, diagonal_slice,
                                                        seed):
    """Around a sigma with lambda_min > epsilon every sphere point is a
    state, since ||X||_inf <= ||X||_p: nothing is rejected, so porcupine's
    too-few check cannot fire there."""
    rng = np.random.default_rng(seed)
    sigma = 0.5 * random_density(rng, d) + 0.5 * np.eye(d) / d
    eps = 0.99 * np.linalg.eigvalsh(sigma).min()
    samples = _sphere(sigma, eps, p, 50, rng, diagonal_slice)[0]
    assert samples.shape == (50, d, d)
    norms = [np.sum(np.linalg.svd(s - sigma, compute_uv=False) ** p) ** (1 / p)
             for s in samples]
    assert np.allclose(norms, eps, rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), p=st.floats(1.5, 40), diagonal_slice=st.booleans(),
       ratio=st.one_of(st.just(1.0), st.floats(0.05, 3.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sphere_inside_the_state_space_matches_per_draw_reference(
        d, p, diagonal_slice, ratio, seed):
    """Around a sigma with lambda_min >= epsilon no draw is eigen-solved,
    and the samples are the per-draw reference's, which eigen-solves every
    draw, up to epsilon = lambda_min itself; beyond it, draws are tested
    and some leave the state space."""
    rng = np.random.default_rng(seed)
    sigma = hermitize(0.5 * random_density(rng, d) + 0.5 * np.eye(d) / d)
    eps = ratio * np.linalg.eigvalsh(sigma).min()
    ref = _sphere_samples_loop(sigma, eps, p, 40, np.random.default_rng(seed),
                               diagonal_slice)
    samples = _sphere(sigma, eps, p, 40, np.random.default_rng(seed),
                      diagonal_slice)[0]
    assert samples.shape == (len(ref), d, d)
    assert ratio > 1 or len(ref) == 40
    if ref:
        assert np.max(np.abs(samples - np.array(ref))) <= 1e-15


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), p=st.sampled_from([1.5, 2.0, 3.0]),
       diagonal_slice=st.booleans(),
       kind=st.sampled_from(SIGMA_KINDS + ["zeros"]),
       eps=st.sampled_from([0.01, 0.05, 0.5]), n=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=5, p=3.0, diagonal_slice=False, kind="pure", eps=0.5, n=20, seed=0)
@example(d=5, p=1.5, diagonal_slice=True, kind="pure", eps=0.5, n=20, seed=1)
@example(d=3, p=2.0, diagonal_slice=True, kind="zeros", eps=0.01, n=40, seed=2)
def test_sphere_samples_match_per_draw_reference(d, p, diagonal_slice, kind,
                                                 eps, n, seed):
    """Whatever chunk sizes the acceptance rate picks, and whichever draws
    the scale bound drops before their p-norm, the samples are the per-draw
    reference's, sample for sample; a run that keeps fewer than n took
    exactly the cap of 50 n draws (the first two examples end there, one
    with no sample and one with 7 of 20)."""
    sigma = _sigma(kind, np.random.default_rng(seed), d)
    ref = _sphere_samples_loop(sigma, eps, p, n, np.random.default_rng(seed),
                               diagonal_slice)
    samples, _, drawn = _sphere(sigma, eps, p, n, np.random.default_rng(seed),
                                diagonal_slice)
    assert samples.shape == (len(ref), d, d)
    if ref:
        assert np.max(np.abs(samples - np.array(ref))) <= 1e-15
    assert drawn == 50 * n if len(ref) < n else drawn <= 50 * n


@pytest.mark.parametrize("diagonal_slice, n", [(True, 1000), (False, 100)],
                         ids=["diag", "full"])
def test_sphere_chunks_stay_within_the_memory_budget(diagonal_slice, n):
    """Around |0><0| at d = 5 and epsilon = 0.5 few draws are states, so the
    chunks after the first grow until the budget of _CHUNK_FLOATS normal
    draws stops them; the first is n draws, and the run ends at the cap."""
    d = 5
    sizes = []

    class CountingDraws:
        def __init__(self):
            self.rng = np.random.default_rng(3)

        def standard_normal(self, shape):
            sizes.append(shape[0])
            return self.rng.standard_normal(shape)

    sigma = np.diag(np.eye(d)[0]).astype(complex)
    samples, _, drawn = _sphere(sigma, 0.5, 2.0, n, CountingDraws(), diagonal_slice)
    rows = reach._CHUNK_FLOATS // (d if diagonal_slice else 2 * d * d)
    assert len(samples) < n and drawn == sum(sizes) == 50 * n
    assert sizes[0] == n and max(sizes) == rows > n


class _ScriptedDraws:
    """standard_normal that hands out the given numbers in order, then
    zeros (zero-norm draws, which count toward the cap)."""

    def __init__(self, rows):
        self.flat = np.asarray(rows, dtype=float).ravel()
        self.pos = 0

    def standard_normal(self, shape):
        out = np.zeros(math.prod(np.atleast_1d(shape)))
        take = self.flat[self.pos:self.pos + len(out)]
        out[:len(take)] = take
        self.pos += len(out)
        return out.reshape(shape)


def test_sphere_scale_bound_drops_nothing_the_exact_test_keeps(monkeypatch):
    """Diagonal-slice draws x = (-t, 1, t - 1) around sigma = diag(0, 1/2,
    1/2) put the exact test's first entry -epsilon t/||x||_p on both sides
    of -EIG_TOL, some within a relative 1e-9 of it, and the bound's entry
    -epsilon t/||x||_1 = -epsilon t/2 on both sides of -2 EIG_TOL. The
    sampler keeps exactly the draws whose exact entry is >= -EIG_TOL, as the
    per-draw reference does, and the bound drops some draws before their
    p-norm is computed."""
    eps, p, n = 0.05, 3.0, 60
    sigma = np.diag([0.0, 0.5, 0.5]).astype(complex)
    norm = lambda t: (t ** p + 1 + (1 - t) ** p) ** (1 / p)
    t_exact = 0.0
    for _ in range(5):                           # eps t / norm(t) = EIG_TOL
        t_exact = EIG_TOL * norm(t_exact) / eps
    t_bound = 4 * EIG_TOL / eps
    ts = np.concatenate([np.linspace(0, 2 * t_bound, 41),
                         t_exact * (1 + np.array([-1e-9, 1e-9, -1e-3, 1e-3])),
                         t_bound * (1 + np.array([-1e-9, 1e-9]))])
    ts = np.random.default_rng(0).permutation(ts)
    rows = np.stack([-ts, np.ones_like(ts), ts - 1], axis=1)
    exact = np.array([-eps * t / norm(t) for t in ts])
    assert (exact >= -EIG_TOL).any() and (exact < -EIG_TOL).any()

    ref = _sphere_samples_loop(sigma, eps, p, n, _ScriptedDraws(rows), True)
    rows_normed = []
    pnorm = reach._pnorm
    monkeypatch.setattr(reach, "_pnorm",
                        lambda s, q: rows_normed.append(len(s)) or pnorm(s, q))
    samples, _, drawn = _sphere(sigma, eps, p, n, _ScriptedDraws(rows), True)
    monkeypatch.undo()
    assert drawn == 50 * n
    assert samples.shape == (len(ref), 3, 3)
    assert np.allclose(samples[:, 0, 0].real, exact[exact >= -EIG_TOL],
                       rtol=1e-14, atol=0)
    assert np.count_nonzero(np.abs(exact / EIG_TOL + 1) < 1e-8) == 2
    assert np.max(np.abs(samples - np.array(ref))) <= 1e-15
    # the draws past t_bound never reach the p-norm
    assert sum(rows_normed) == drawn - np.count_nonzero(ts > t_bound)


class _EigenSpy:
    """Records the argument of every np.linalg.eigh and eigvalsh call."""

    def __init__(self, monkeypatch):
        self.calls = []
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, self._wrap(name, getattr(np.linalg, name)))

    def _wrap(self, name, f):
        def spy(A, *args, **kwargs):
            self.calls.append((name, np.array(A)))
            return f(A, *args, **kwargs)
        return spy


@pytest.mark.parametrize("diagonal_slice", [False, True], ids=["full", "diag"])
def test_porcupine_p2_inside_the_state_space_eigen_solves_only_sigma(
        rng, monkeypatch, diagonal_slice):
    """At p = 2 the norm is the Frobenius sum and W = eta - sigma, and
    around a sigma with lambda_min >= epsilon every draw is a state: the
    only eigen-solve is check_density's of sigma, whose least eigenvalue
    also decides that test."""
    d = 4
    sigma = 0.5 * random_density(rng, d) + 0.5 * np.eye(d) / d
    K = ResourceSetK([replacer_lindbladian(random_density(rng, d)),
                      Lindbladian(d, jumps=[JumpTerm(random_complex(rng, d), 0.3)])])
    spy = _EigenSpy(monkeypatch)
    rep = porcupine_check(K, sigma, 0.05, p=2.0, n_samples=200, seed=7,
                          diagonal_slice=diagonal_slice)
    assert rep.samples == 200
    assert [name for name, _ in spy.calls] == ["eigvalsh"]
    assert np.array_equal(spy.calls[0][1], hermitize(sigma))


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "boundary"])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_porcupine_full_sphere_eigen_solves_each_draw_once(rng, monkeypatch,
                                                           p, inside):
    """On the full sphere at p != 2 the one eigh of each direction gives its
    norm and the weight at its sample: no draw or sample is eigen-solved
    again, beyond the PSD test of a sigma on the boundary, and sigma only by
    check_density. The weights and the minimum alignment agree within 1e-13
    relative with the two-solve reference, which eigen-solves delta = eta -
    sigma of each sample."""
    d, n, eps = 4, 200, 0.05
    sigma = (0.5 * random_density(rng, d) + 0.5 * np.eye(d) / d if inside
             else _sigma("rotated", rng, d))
    K = ResourceSetK([replacer_lindbladian(random_density(rng, d)),
                      Lindbladian(d, jumps=[JumpTerm(random_complex(rng, d), 0.3)])])
    spy = _EigenSpy(monkeypatch)
    rep = porcupine_check(K, sigma, eps, p=p, n_samples=n, seed=7)
    monkeypatch.undo()
    names = [name for name, _ in spy.calls]
    assert names[0] == "eigvalsh"                       # sigma, once
    assert np.array_equal(spy.calls[0][1], hermitize(sigma))
    # per chunk, one eigh of the directions, then, around a boundary sigma,
    # one eigvalsh of the samples left by the diagonal test
    per_chunk = ["eigh"] if inside else ["eigh", "eigvalsh"]
    chunks = (len(names) - 1) // len(per_chunk)
    assert names[1:] == per_chunk * chunks and (chunks == 1 or not inside)

    samples, W, drawn = _sphere(sigma, eps, p, n, np.random.default_rng(7), False)
    # whatever the chunk sizes, the eigh rows are the draws the sampler
    # took, each solved once, and it took at most 50 n of them
    solved = np.concatenate([A for name, A in spy.calls if name == "eigh"])
    assert len(solved) == drawn <= 50 * n
    assert len({A.tobytes() for A in solved}) == drawn
    assert rep.samples == len(samples) == len(W)
    W_ref, _ = _weight(hermitize(samples - sigma), p)
    assert np.max(np.abs(W - W_ref)) <= 1e-13 * np.max(np.abs(W_ref))
    best = min(float(_rate(np.stack([apply(L, eta) for eta in samples]), W_ref).min())
               for L in K.generators)
    assert math.isclose(rep.min_alignment_over_samples, best, rel_tol=1e-13)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_porcupine_sphere_at_sigma_is_rejected(p):
    """A sphere too small to tell eta from sigma is an error, also where the
    weights come from the draws' own eigendecomposition."""
    K = ResourceSetK([lowering_jump(1, 0, 2)])
    with pytest.raises(ValueError, match="eta equals sigma"):
        porcupine_check(K, np.diag([0.3, 0.7]), 1e-13, p=p, n_samples=20)


def test_reach_drive_p2_eigen_solves_only_to_check_states(rng, monkeypatch):
    """At p = 2 a reach step needs no eigendecomposition: the weight is
    eta - sigma and the distance the Frobenius sum. The only eigen-solves
    are check_density's, one of rho0, one of sigma and one of each state a
    step produces."""
    d = 3
    sigma, rho0 = random_density(rng, d), random_density(rng, d)
    K = ResourceSetK([replacer_lindbladian(sigma), chain_lindbladian(rng.random(d) + 0.1)])
    spy = _EigenSpy(monkeypatch)
    rep = reach_drive(K, rho0, sigma, p=2.0, dt=0.05, t_max=1.0, target_tol=1e-4)
    assert len(rep.trajectory.states) > 2
    checked = [rho0, sigma] + list(rep.trajectory.states[1:])
    assert [name for name, _ in spy.calls] == ["eigvalsh"] * len(checked)
    for (_, A), rho in zip(spy.calls, checked):
        assert np.array_equal(A, hermitize(rho))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 4), p=st.floats(1.5, 40), eps=st.floats(1e-9, 0.2),
       maximally_mixed=st.booleans(), diagonal_slice=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_porcupine_flag_is_the_shared_descent_rule(d, p, eps, maximally_mixed,
                                                   diagonal_slice, seed):
    """obstruction_evidence is the reach stall test at distance epsilon,
    applied to the minimum alignment of the per-draw reference; a p that the
    rule cannot scale at that distance is rejected by both."""
    rng = np.random.default_rng(seed)
    sigma = (np.eye(d, dtype=complex) / d if maximally_mixed
             else random_density(rng, d))
    # a Hamiltonian commutes with W at sigma = I/d: alignment 0, no descent
    K = ResourceSetK([Lindbladian(d, hamiltonian=random_hermitian(rng, d)),
                      Lindbladian(d, jumps=[JumpTerm(random_complex(rng, d), 0.3)])]
                     [:1 + int(rng.integers(2))])
    n = 20
    ref = _sphere_samples_loop(sigma, eps, p, n, np.random.default_rng(seed),
                               diagonal_slice)
    try:
        rep = porcupine_check(K, sigma, eps, p=p, n_samples=n, seed=seed,
                              diagonal_slice=diagonal_slice)
    except ValueError as exc:
        if len(ref) >= max(n // 10, 1):
            assert str(exc).startswith(f"p = {p}")
        return
    best = min(alignment(L, eta, sigma, p) for eta in ref for L in K.generators)
    assert rep.obstruction_evidence == (not _descends(best, eps, p))


@pytest.mark.parametrize("eps, p", [(0.05, 8.0), (1e-9, 2.0)])
def test_porcupine_sees_descent_below_an_absolute_tolerance(eps, p):
    """D_{|1><0|} moves every point of a small sphere around diag(0.3, 0.7)
    toward it, at alignments above -1e-9 that are a large rate relative to
    eps^(p-1): no obstruction."""
    K = ResourceSetK([lowering_jump(1, 0, 2)])
    sigma = np.diag([0.3, 0.7]).astype(complex)
    rep = porcupine_check(K, sigma, eps, p=p, n_samples=200)
    assert -1e-9 < rep.min_alignment_over_samples < 0
    assert not rep.obstruction_evidence


def _descends_by_numpy(value, dist, p):
    """The descent rule with dist^(p-1) a numpy power, its overflow and
    underflow warnings silenced: the reference for the float power."""
    with np.errstate(over="ignore", under="ignore"):
        scale = float(np.float64(dist) ** (p - 1))
    if not sys.float_info.min <= scale < math.inf:
        raise ValueError(f"p = {p} is too large for the distance {dist}: "
                         f"{dist}^(p-1) is not a normal float")
    return value / scale < -STALL_TOL


def _rule_outcome(rule, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return rule(*args)
        except ValueError as exc:
            return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(value=st.floats(-1e3, 1e3), dist=st.floats(1e-300, 1e300),
       p=st.floats(1.0, 1e6, exclude_min=True))
@example(value=-1.0, dist=1e200, p=1e6)        # overflow
@example(value=-1.0, dist=1e-200, p=1e6)       # underflow to 0
@example(value=-1.0, dist=0.5, p=1061.0)       # 2^-1060, subnormal
@example(value=-1.0, dist=2.0, p=1024.0)       # 2^1023, the largest power of 2
@example(value=-1e-3, dist=0.3, p=2.0)         # ordinary: descends
@example(value=-1e-11, dist=1.0, p=3.0)        # ordinary: stalls
def test_descent_rule_matches_the_numpy_power(value, dist, p):
    """The float power returns and raises as the numpy power does, message
    included, and warns of nothing."""
    assert (_rule_outcome(_descends, value, dist, p)
            == _rule_outcome(_descends_by_numpy, value, dist, p))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from([(), (1,), (3,), (2, 4)]), d=st.integers(1, 5),
       log_scale=st.floats(-300, 300), diagonal=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_weight_at_p2_is_the_schatten_norm_bit_for_bit(shape, d, log_scale,
                                                       diagonal, seed):
    """On hermitized matrices and stacks, _weight at p = 2 returns delta
    itself and schatten_norm(delta, 2) bit for bit, as a float or an array
    alike."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((*shape, d, d)) + 1j * rng.standard_normal((*shape, d, d))
    if diagonal:
        G *= np.eye(d)
    delta = hermitize(10.0 ** log_scale * G)
    W, dist = _weight(delta, 2)
    ref = schatten_norm(delta, 2)
    assert W is delta
    assert type(dist) is type(ref) and np.array_equal(dist, ref)


def test_descent_rule_rejects_a_scale_that_is_not_a_normal_float():
    assert _descends(-1e-3, 0.3, 2.0) and not _descends(0.0, 0.3, 2.0)
    for dist, p in ((0.3, 700.0), (1.5, 2000.0), (1e-200, 3.0)):
        with pytest.raises(ValueError, match=f"p = {p}"):
            _descends(-1.0, dist, p)
    K = ResourceSetK([lowering_jump(1, 0, 2)])
    rho0, sigma = np.diag([0.6, 0.4]), np.diag([0.3, 0.7])
    with pytest.raises(ValueError, match="p = 700"):
        reach_drive(K, rho0, sigma, p=700.0)
    with pytest.raises(ValueError, match="p = 700"):
        porcupine_check(K, sigma, 0.05, p=700.0, n_samples=20)


@pytest.mark.parametrize("diagonal_slice", [False, True], ids=["full", "diag"])
def test_sphere_samples_zero_norm_draws_count_toward_cap(diagonal_slice):
    class ZeroDraws:
        drawn = 0

        def standard_normal(self, shape):
            self.drawn += math.prod(np.atleast_1d(shape))
            return np.zeros(shape)

    sigma = np.eye(3, dtype=complex) / 3
    counts = []
    for sampler in (_sphere_samples_loop, lambda *a: _sphere(*a)[0]):
        rng = ZeroDraws()
        assert len(sampler(sigma, 0.05, 2.0, 7, rng, diagonal_slice)) == 0
        counts.append(rng.drawn)
    per_draw = 3 if diagonal_slice else 2 * 3 * 3
    assert counts == [50 * 7 * per_draw] * 2
    assert _sphere(sigma, 0.05, 2.0, 7, ZeroDraws(), diagonal_slice)[2] == 50 * 7


def test_porcupine_rejects_degenerate_inputs(rng):
    K = ResourceSetK([replacer_lindbladian(random_density(rng, 2))])
    with pytest.raises(ValueError):
        porcupine_check(K, np.eye(2, dtype=complex) / 2, 0.05, n_samples=0)


def test_replacer_overshoot_hit_times():
    rho = np.diag([0.62, 0.38]).astype(complex)
    sigma = np.eye(2, dtype=complex) / 2
    for eps in (1.0, 0.5, 1 / 9):
        out = replacer_overshoot(rho, sigma, eps)
        assert math.isclose(out["hit_time"], math.log(1 + 1 / eps))
        assert trace_distance(out["trajectory"].states[-1], sigma) <= 1e-10


def test_replacer_overshoot_psd_guard(rng):
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.05, 0.95]).astype(complex)
    with pytest.raises(ValueError):
        replacer_overshoot(rho, sigma, 5.0)


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1.0])
def test_replacer_overshoot_requires_positive_eps(eps):
    """NaN passed eps <= 0 and gave a path whose times were all NaN."""
    rho = np.diag([0.62, 0.38]).astype(complex)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        replacer_overshoot(rho, np.eye(2) / 2, eps)


@pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0])
def test_resource_set_requires_positive_rate_budget(rate):
    with pytest.raises(ValueError,
                       match="max_total_rate must be finite and positive"):
        ResourceSetK([lowering_jump(0, 1, 2)], max_total_rate=rate)


def test_resource_set_file_sets_the_step_rate():
    """A resource set file that gives only max_total_rate: 2 runs every reach
    step at rate 2, and its schedule says so."""
    L = Lindbladian(2, jumps=[JumpTerm(np.eye(2, k=1), 1.0)])
    K = ser.resource_set_k_from_json({"generators": [ser.lindbladian_to_json(L)],
                                      "max_total_rate": 2})
    rep = reach_drive(K, np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), dt=0.05,
                      t_max=0.5)
    assert len(rep.generator_schedule) == 10
    assert {entry[3] for entry in rep.generator_schedule} == {2.0}
    assert abs(rep.final_state[1, 1].real - np.exp(-2 * 2.0 * 0.5)) <= 1e-10


@pytest.mark.parametrize("make", [
    lambda rho, sigma: replacer_overshoot(rho, sigma, 0.1),
    lambda rho, sigma: tan_schedule(rho, sigma, 8),
    full_state_transport,
    lambda rho, sigma: sparse_alignment_diagonal(rho, sigma, 0, 1),
], ids=["replacer_overshoot", "tan_schedule", "full_state_transport",
        "sparse_alignment_diagonal"])
def test_sigma_of_another_dimension_is_named(make):
    """A sigma of another dimension than rho is refused by name, before any
    arithmetic mixes the two."""
    with pytest.raises(ValueError, match=r"^sigma has shape \(4, 4\), not \(2, 2\)"):
        make(np.eye(2) / 2, np.eye(4) / 4)


def test_tan_schedule(rng):
    rho = random_density(rng, 2)
    sigma = random_density(rng, 2)
    out = tan_schedule(rho, sigma, 33)
    traj = out["trajectory"]
    assert trace_distance(traj.states[0], rho) <= 1e-12
    assert trace_distance(traj.states[-1], sigma) <= 1e-12
    mid = math.exp(-1) * rho + (1 - math.exp(-1)) * sigma
    assert trace_distance(traj.states[16], mid) <= 1e-10  # t = pi/4
    assert out["generator_norms"][-1] == 0.0


def test_sparse_alignment_examples():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([0.9, 0.1]).astype(complex)
    assert math.isclose(sparse_alignment_diagonal(rho, sigma, 0, 1), -0.8)
    assert sparse_alignment_diagonal(rho, rho, 0, 1) == 0.0
    with pytest.raises(ValueError):
        sparse_alignment_diagonal(rho, sigma, 1, 1)


@pytest.mark.parametrize("r, s", [(-1, 0), (0, -1), (3, 0), (0, 3)])
def test_level_index_outside_the_levels_is_named(r, s):
    """lowering_jump and sparse_alignment_diagonal name an index outside
    0..d-1. At d = 3, -1 used to wrap: lowering_jump(-1, 0, 3) was |2><0|,
    and sparse_alignment_diagonal gave the value of the pair (2, 0); 3
    raised numpy's IndexError."""
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    sigma = np.diag([0.2, 0.3, 0.5]).astype(complex)
    bad = r if not 0 <= r < 3 else s
    for call in (lambda: lowering_jump(r, s, 3),
                 lambda: sparse_alignment_diagonal(rho, sigma, r, s)):
        with pytest.raises(ValueError, match=f"^index {bad} is outside 0..2$"):
            call()


def test_sparse_alignment_matches_general(rng):
    for _ in range(50):
        d = int(rng.integers(2, 5))
        r, s = rng.choice(d, 2, replace=False)
        rho = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
        sigma = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
        if np.max(np.abs(rho - sigma)) < 1e-12:
            continue
        general = alignment(lowering_jump(int(r), int(s), d), rho, sigma, 2.0)
        closed = sparse_alignment_diagonal(rho, sigma, int(r), int(s))
        assert abs(general - closed) <= 1e-10


def test_sparse_always_a_negative_pair(rng):
    for _ in range(30):
        d = int(rng.integers(2, 5))
        rho = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
        sigma = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
        vals = [sparse_alignment_diagonal(rho, sigma, r, s)
                for r in range(d) for s in range(d) if r != s]
        assert min(vals) < 0
