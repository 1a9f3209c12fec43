import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindreach.linalg import (apply_superop, check_density, hermitize,
                              mat_exp, require_positive, schatten_norm,
                              trace_distance)
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
from lindreach.reach import (
    ReachReport,
    ResourceSetK,
    _check_p,
    _check_state,
    _descends,
    _sphere_samples,
    _trace_against_weight,
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


@pytest.mark.parametrize("cone", [False, True])
def test_reach_bilinear_generator_matches_jump(cone):
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)

    def run(L):
        K = ResourceSetK([L], cone_combinations=cone, max_total_rate=2.0)
        return reach_drive(K, rho0, sigma, dt=0.05, t_max=1.0)

    jump = run(Lindbladian(2, jumps=[JumpTerm(a, 1.0)]))
    bil = run(Lindbladian(2, bilinear=BilinearTerm([a], [[1.0]])))
    assert np.array_equal(bil.trajectory.times, jump.trajectory.times)
    assert len(jump.trajectory.states) > 2
    for x, y in zip(bil.trajectory.states, jump.trajectory.states):
        assert np.max(np.abs(x - y)) <= 1e-12
    # the cone budget scales the rate: populations decay like exp(-2 w t)
    w = 2.0 if cone else 1.0
    t = jump.trajectory.times[-1]
    assert abs(jump.final_state[1, 1].real - np.exp(-2 * w * t)) <= 1e-10


def greedy_reference(gens, eta, sigma, p, dt, t_max, tol):
    """reach_drive's greedy loop with unit weights, rebuilding every
    superoperator from _gksl, and its real form in the orthonormal Hermitian
    basis, at every step; returns the states and the (t0, t1, generator
    index) schedule."""
    def superop(L):
        return _gksl(L.hamiltonian, [j.a for j in L.jumps],
                     np.diag([j.rate for j in L.jumps]))

    states, schedule, t = [eta], [], 0.0
    while schatten_norm(eta - sigma, p) > tol and t < t_max:
        vals = [float(_trace_against_weight(apply_superop(superop(L), eta),
                                            eta, sigma, p)) for L in gens]
        idx = int(np.argmin(vals))
        if not _descends(vals[idx], schatten_norm(eta - sigma, p), p):
            break
        out = mat_exp(dt * _real_form(superop(gens[idx]))) @ _herm_coords(eta)
        eta = check_density(_herm_matrix(out), eig_tol=1e-8)
        t += dt
        states.append(eta)
        schedule.append((t - dt, t, idx))
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
    assert [(t0, t1, int(np.argmax(w))) for t0, t1, w in
            rep.generator_schedule] == schedule
    assert all(np.count_nonzero(w) == 1 for _, _, w in rep.generator_schedule)


def _reference_reach_drive(K, rho0, sigma, p, dt, t_max, target_tol):
    """reach_drive as it was before one eigendecomposition per state served
    both the distance and the weight: alignment computes its own weight,
    the distance comes from schatten_norm, and propagate rechecks eta."""
    require_positive(dt=dt, t_max=t_max, target_tol=target_tol)
    _check_p(p)
    eta = _check_state(K, "rho0", rho0)
    sigma = _check_state(K, "sigma", sigma)
    times, states, schedule = [0.0], [eta], []
    t = 0.0
    dist = schatten_norm(eta - sigma, p)
    reached = dist <= target_tol
    stall = None
    exceeded = False
    while not reached:
        if t >= t_max:
            exceeded = True
            break
        vals = [alignment(L, eta, sigma, p) for L in K.generators]
        idx = int(np.argmin(vals))
        budget = K.max_total_rate if K.cone_combinations else 1.0
        weights = budget * np.eye(len(vals))[idx]
        val = budget * vals[idx]
        if not _descends(val, dist, p):
            stall = (eta, float(val))
            break
        eta = propagate(K.generators[idx], eta, weights[idx] * dt)
        t += dt
        times.append(t)
        states.append(eta)
        schedule.append((t - dt, t, weights))
        dist = schatten_norm(eta - sigma, p)
        reached = dist <= target_tol
    return ReachReport(reached=reached, final_state=eta,
                       trajectory=PathSample(np.array(times), states),
                       generator_schedule=schedule,
                       stall_certificate=stall, t_max_exceeded=exceeded)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), p=st.sampled_from([1.5, 2.0, 3.0]),
       cone=st.booleans(), near=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_reach_drive_matches_reference_loop(d, p, cone, near, seed):
    """One eigendecomposition per state, shared by the distance and every
    alignment, and no recheck of eta before each step give the reference's
    report exactly: reached, stalled (a Hamiltonian can only stall) or out
    of time, with the same states, schedule and step count."""
    rng = np.random.default_rng(seed)
    sigma = random_density(rng, d)
    rho0 = 0.997 * sigma + 0.003 * random_density(rng, d) if near else random_density(rng, d)
    gens = [replacer_lindbladian(sigma), chain_lindbladian(rng.random(d) + 0.1),
            Lindbladian(d, hamiltonian=random_hermitian(rng, d))]
    K = ResourceSetK(gens[int(rng.integers(3)):], cone_combinations=cone,
                     max_total_rate=float(rng.uniform(0.5, 2.0)))
    args = (K, rho0, sigma, p, 0.1, 1.0, 1e-3)
    got, ref = reach_drive(*args), _reference_reach_drive(*args)
    assert (got.reached, got.t_max_exceeded) == (ref.reached, ref.t_max_exceeded)
    assert np.array_equal(got.final_state, ref.final_state)
    assert np.array_equal(got.trajectory.times, ref.trajectory.times)
    assert np.array_equal(got.trajectory.states, ref.trajectory.states)
    assert len(got.generator_schedule) == len(ref.generator_schedule)
    for (a0, a1, wa), (b0, b1, wb) in zip(got.generator_schedule, ref.generator_schedule):
        assert (a0, a1) == (b0, b1) and np.array_equal(wa, wb)
    assert (got.stall_certificate is None) == (ref.stall_certificate is None)
    if ref.stall_certificate is not None:
        assert np.array_equal(got.stall_certificate[0], ref.stall_certificate[0])
        assert got.stall_certificate[1] == ref.stall_certificate[1]


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


def test_reach_drive_within_eq_tol_of_sigma_reports(rng):
    """rho0 within EQ_TOL of sigma but farther than target_tol: the shared
    weight defines the alignment, so reach_drive reports instead of raising.
    A replacer contracts at rate 1, far below STALL_TOL at this distance, so
    the descent stalls at once, and the certificate holds the alignment that
    was computed."""
    sigma = random_density(rng, 3)
    rho0 = sigma + np.diag([3e-13, -3e-13, 0.0])
    K = ResourceSetK([replacer_lindbladian(sigma)])
    with pytest.raises(ValueError, match="eta equals sigma"):
        alignment(K.generators[0], rho0, sigma, 2.0)
    rep = reach_drive(K, rho0, sigma, target_tol=1e-15)
    assert not rep.reached and not rep.t_max_exceeded
    assert rep.generator_schedule == []
    eta, value = rep.stall_certificate
    assert np.array_equal(eta, rho0)
    W, _ = _weight(hermitize(rho0 - sigma), 2.0)
    assert value == alignment(K.generators[0], rho0, sigma, 2.0, weight=W)


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


def _sigma(kind, rng, d):
    """A full-rank state, a diagonal pure state, or a rank-deficient state in
    a random basis (a boundary state with no diagonal structure)."""
    if kind == "mixed":
        return random_density(rng, d)
    if kind == "pure":
        return np.diag(np.eye(d)[int(rng.integers(d))]).astype(complex)
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
    samples = _sphere_samples(sigma, eps, p, n, np.random.default_rng(seed),
                              diagonal_slice)
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
    samples = _sphere_samples(sigma, eps, p, 50, rng, diagonal_slice)
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
    samples = _sphere_samples(sigma, eps, p, 40, np.random.default_rng(seed),
                              diagonal_slice)
    assert samples.shape == (len(ref), d, d)
    assert ratio > 1 or len(ref) == 40
    assert np.max(np.abs(samples - np.array(ref))) <= 1e-15


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
    only eigen-solves are of sigma, by check_density and by that test."""
    d = 4
    sigma = 0.5 * random_density(rng, d) + 0.5 * np.eye(d) / d
    K = ResourceSetK([replacer_lindbladian(random_density(rng, d)),
                      Lindbladian(d, jumps=[JumpTerm(random_complex(rng, d), 0.3)])])
    spy = _EigenSpy(monkeypatch)
    rep = porcupine_check(K, sigma, 0.05, p=2.0, n_samples=200, seed=7,
                          diagonal_slice=diagonal_slice)
    assert rep.samples == 200
    assert [name for name, _ in spy.calls] == ["eigvalsh", "eigvalsh"]
    assert all(np.array_equal(A, hermitize(sigma)) for _, A in spy.calls)


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
    for sampler in (_sphere_samples_loop, _sphere_samples):
        rng = ZeroDraws()
        assert len(sampler(sigma, 0.05, 2.0, 7, rng, diagonal_slice)) == 0
        counts.append(rng.drawn)
    per_draw = 3 if diagonal_slice else 2 * 3 * 3
    assert counts == [50 * 7 * per_draw] * 2


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
