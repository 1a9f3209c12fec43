import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from lindreach.linalg import (
    SPAN_TOL,
    apply_superop,
    check_density,
    dag,
    extend_basis,
    hermitize,
    is_cp,
    is_tp,
    kron_superop,
    mat_exp,
    span_residual,
    superop_from_action,
    trace_distance,
)
from lindreach.lindblad import (
    BilinearTerm,
    JumpTerm,
    Lindbladian,
    _gksl,
    _herm_coords,
    _herm_matrix,
    _evolve,
    _propagate_checked,
    apply,
    bilinear_dissipator,
    build,
    chain_lindbladian,
    channel_superop,
    dissipator,
    gamma_form,
    gamma_span_criterion,
    propagate,
    replacer_lindbladian,
    spectral_gap,
    stationary_states,
    unital_fixed_point_check,
)
from lindreach import lindblad
from lindreach.hormander import haar_unitary
from lindreach.reach import alignment

from conftest import random_complex, random_density, random_hermitian

LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def amplitude_damp_closed_form(rho, t):
    return np.array([
        [rho[0, 0] + (1 - np.exp(-2 * t)) * rho[1, 1], np.exp(-t) * rho[0, 1]],
        [np.exp(-t) * rho[1, 0], np.exp(-2 * t) * rho[1, 1]],
    ])


def test_dissipator_zero():
    assert np.allclose(dissipator(np.zeros((3, 3))), np.zeros((9, 9)))


def test_amplitude_damping_closed_form(rng):
    for t in (0.1, 1.0, 5.0):
        S = mat_exp(t * dissipator(LOWER))
        rho = random_density(rng, 2)
        out = apply_superop(S, rho)
        assert np.max(np.abs(out - amplitude_damp_closed_form(rho, t))) <= 1e-10


def test_dephasing_identity():
    e_inf = superop_from_action(lambda A: np.diag(np.diag(A)), 2)
    assert np.max(np.abs(dissipator(Z) - 4 * (e_inf - np.eye(4)))) <= 1e-12


def test_bilinear_diagonal_matches_dissipator():
    assert np.allclose(bilinear_dissipator(LOWER, LOWER), dissipator(LOWER))


def test_bilinear_sum_rule(rng):
    a = random_complex(rng, 3)
    b = random_complex(rng, 3)
    lhs = dissipator(a + b)
    rhs = (bilinear_dissipator(a, a) + bilinear_dissipator(b, b)
           + bilinear_dissipator(a, b) + bilinear_dissipator(b, a))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_bilinear_identity_pairing(rng):
    a = random_complex(rng, 2)
    I = np.eye(2)
    rho = random_density(rng, 2)
    single = apply_superop(bilinear_dissipator(a, I), rho)
    assert np.max(np.abs(single - single.conj().T)) > 1e-8
    paired = apply_superop(bilinear_dissipator(a, I) + bilinear_dissipator(I, a), rho)
    assert np.max(np.abs(paired - paired.conj().T)) <= 1e-10


def pair_dissipator(a, b, rho):
    return 2 * a @ rho @ dag(b) - dag(b) @ a @ rho - rho @ dag(b) @ a


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), n_jumps=st.integers(0, 3), n_ops=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_build_matches_operator_form(d, n_jumps, n_ops, seed):
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, d)
    jumps = [JumpTerm(random_complex(rng, d), rng.random()) for _ in range(n_jumps)]
    B = random_complex(rng, n_ops)
    g = B @ dag(B)  # PSD with nonzero off-diagonal entries
    ops = [random_complex(rng, d) for _ in range(n_ops)]
    L = Lindbladian(d, hamiltonian=H, jumps=jumps, bilinear=BilinearTerm(ops, g))

    def action(rho):
        out = -1j * (H @ rho - rho @ H)
        for j in jumps:
            out = out + j.rate * pair_dissipator(j.a, j.a, rho)
        for k, a in enumerate(ops):
            for m, b in enumerate(ops):
                out = out + g[k, m] * pair_dissipator(a, b, rho)
        return out

    ref = superop_from_action(action, d)
    assert np.max(np.abs(build(L) - ref)) <= 1e-12 * np.max(np.abs(ref))
    # one off-diagonal term alone is not Hermiticity preserving
    a, b = ops[0], random_complex(rng, d)
    ref = superop_from_action(lambda rho: pair_dissipator(a, b, rho), d)
    assert np.max(np.abs(bilinear_dissipator(a, b) - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 4), n_jumps=st.integers(0, 3), n_ops=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_generator_is_immutable_and_builds_once(d, n_jumps, n_ops, seed):
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, d)
    A = [random_complex(rng, d) for _ in range(n_jumps)]
    rates = rng.random(n_jumps)
    ops = [random_complex(rng, d) for _ in range(n_ops)]
    B = random_complex(rng, n_ops)
    g = B @ dag(B)
    inputs = [H, g, *A, *ops]
    copies = [M.copy() for M in inputs]
    L = Lindbladian(d, hamiltonian=H,
                    jumps=[JumpTerm(a, r) for a, r in zip(A, rates)],
                    bilinear=BilinearTerm(ops, g) if n_ops else None)
    S = build(L)
    assert np.array_equal(S, _gksl(H, A + ops, sla.block_diag(np.diag(rates), g)))
    assert build(L) is S and L.superop is S and not S.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        S[0, 0] = 0
    assert isinstance(L.jumps, tuple)
    held = [L.hamiltonian, *(j.a for j in L.jumps)]
    if n_ops:
        assert isinstance(L.bilinear.ops, tuple)
        held += [L.bilinear.kossakowski, *L.bilinear.ops]
    assert not any(M.flags.writeable for M in held)
    for obj, name in [(L, "dim"), (L, "hamiltonian"), (L, "jumps"),
                      (L, "bilinear"), (JumpTerm(H, 1.0), "rate"),
                      (BilinearTerm([H], [[1.0]]), "ops")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    assert all(M.flags.writeable and np.array_equal(M, M0)
               for M, M0 in zip(inputs, copies))


def test_kossakowski_psd_required():
    with pytest.raises(ValueError):
        BilinearTerm([LOWER, Z], np.diag([1.0, -1.0]))


def test_bilinear_term_shapes_and_hermiticity_required():
    with pytest.raises(ValueError, match="Hermitian"):
        BilinearTerm([LOWER, Z], [[1.0, 2.0], [0.0, 1.0]])
    for g in ([1.0], np.eye(3), np.ones((2, 3))):
        with pytest.raises(ValueError, match="Kossakowski matrix shape"):
            BilinearTerm([LOWER, Z], g)
    with pytest.raises(ValueError, match="bilinear.ops"):
        Lindbladian(2, bilinear=BilinearTerm([np.eye(3)], [[1.0]]))


def test_hamiltonian_phase_rotation():
    plus = np.full((2, 2), 0.5, dtype=complex)
    L = Lindbladian(2, hamiltonian=Z)
    out = propagate(L, plus, np.pi / 2)
    assert np.isclose(out[0, 1], 0.5 * np.exp(-2j * (np.pi / 2)))


def test_decay_endpoint():
    L = Lindbladian(2, jumps=[JumpTerm(LOWER, 1.0)])
    out = propagate(L, np.diag([0.0, 1.0]).astype(complex), 20.0)
    assert trace_distance(out, np.diag([1.0, 0.0])) <= 1e-10


def test_replacer_closed_form(rng):
    sigma = random_density(rng, 3)
    rho = random_density(rng, 3)
    L = replacer_lindbladian(sigma)
    for t in (0.3, 1.0, 2.5):
        expected = np.exp(-t) * rho + (1 - np.exp(-t)) * sigma
        assert trace_distance(propagate(L, rho, t), expected) <= 1e-10


def replacer_jumps_loop(sigma):
    """The double loop that replacer_lindbladian replaces."""
    d = sigma.shape[0]
    w, V = np.linalg.eigh(hermitize(sigma))
    jumps = []
    for i in range(d):
        if w[i] <= 1e-15:
            continue
        for j in range(d):
            jumps.append(np.sqrt(w[i]) * np.outer(V[:, i], np.eye(d)[j].conj()))
    return jumps


@pytest.mark.parametrize("d, rank", [(2, 1), (3, 2), (4, 1), (4, 3), (5, 5)])
def test_replacer_jumps_match_loop(rng, d, rank):
    sigma = random_density(rng, d, rank)
    jumps = replacer_lindbladian(sigma).jumps
    ref = replacer_jumps_loop(sigma)
    assert len(jumps) == len(ref) == d * rank
    assert all(np.array_equal(j.a, a) and j.rate == 0.5 for j, a in zip(jumps, ref))


def test_detailed_balance_pair(rng):
    """The two-level chain [beta, 1] is the qubit generator
    beta^{1/2} D_{|0><1|} + beta^{-1/2} D_{|1><0|}, stationary at
    diag(beta, 1) / (1 + beta)."""
    L = chain_lindbladian([4.0, 1.0])
    assert [j.rate for j in L.jumps] == [2.0, 0.5]
    target = np.diag([0.8, 0.2]).astype(complex)
    assert np.max(np.abs(apply(L, target))) <= 1e-12
    ss = stationary_states(L)
    assert len(ss) == 1
    assert trace_distance(ss[0], target) <= 1e-10
    uniform = stationary_states(chain_lindbladian([1.0, 1.0]))
    assert trace_distance(uniform[0], np.eye(2) / 2) <= 1e-10
    with pytest.raises(ValueError):
        chain_lindbladian([-1.0, 1.0])


def test_chain_lindbladian(rng):
    mu = np.array([1 / 2, 1 / 3, 1 / 6])
    L = chain_lindbladian(mu)
    assert np.max(np.abs(apply(L, np.diag(mu).astype(complex)))) <= 1e-12
    gap = spectral_gap(L)
    assert gap > 0
    rho = random_density(rng, 3)
    out = propagate(L, rho, 50.0 / gap)
    assert trace_distance(out, np.diag(mu)) <= 1e-6


def test_chain_stationary_random(rng):
    for _ in range(10):
        d = int(rng.integers(2, 6))
        mu = rng.dirichlet(np.ones(d))
        ss = stationary_states(chain_lindbladian(mu))
        assert len(ss) == 1
        assert trace_distance(ss[0], np.diag(mu)) <= 1e-10


def test_dark_state_damping_stationary_states():
    """a = |0>(<1| + <2|) leaves |-> = (|1> - |2>)/sqrt(2) dark: the extreme
    stationary states are the two rank-1 states |0><0| and |-><-|."""
    a = np.zeros((3, 3), dtype=complex)
    a[0, 1] = a[0, 2] = 1.0
    ss = stationary_states(Lindbladian(3, jumps=[JumpTerm(a, 1.0)]))
    minus = np.array([0.0, 1.0, -1.0]) / np.sqrt(2)
    expect = [np.diag([1.0, 0.0, 0.0]), np.outer(minus, minus)]
    assert len(ss) == 2
    for s, e in zip(ss, expect):
        assert np.max(np.abs(s - e)) <= 1e-10


def test_dephasing_stationary_structure():
    ss = stationary_states(Lindbladian(2, jumps=[JumpTerm(Z, 1.0)]))
    assert len(ss) == 2  # kernel dimension 2: all diagonal densities
    for s in ss:
        assert np.max(np.abs(s - np.diag(np.diag(s)))) <= 1e-8


def test_near_degenerate_dephasing_projects_each_seed_twice(monkeypatch):
    """Dephasing by a self-adjoint jump with the close eigenvalues 1 and
    1 + 1e-3, in a Haar-random basis (seeds 0-11): the coherence between
    them decays at (1e-3)^2, so the kernel is close to the rest of the
    spectrum, and I/d is stationary. Each of the d + 1 seeds costs at most
    two projections onto the kernel of real_superop, each turned into a
    matrix once by _herm_matrix. At least one state is returned, each a
    density matrix with max|L(rho)| <= 1e-12, and I/d lies within SPAN_TOL
    of their span. (Projected on the complex superoperator's kernel and
    hermitized, every seed moved by more than 1e-12 under a second
    projection, and no state was returned on any of the twelve.)"""
    d = 5
    calls = []

    def counted(x):
        calls.append(x.shape)
        return _herm_matrix(x)

    monkeypatch.setattr(lindblad, "_herm_matrix", counted)
    for seed in range(12):
        U = haar_unitary(d, np.random.default_rng(seed))
        L = Lindbladian(d, jumps=[JumpTerm(U @ np.diag([0, 1, 1 + 1e-3, 2, 3]) @ dag(U), 1.0)])
        S = build(L)
        calls.clear()
        ss = stationary_states(L)
        assert 0 < len(calls) <= 2 * (d + 1)
        assert ss
        for s in ss:
            check_density(s)
            assert np.max(np.abs(apply_superop(S, s))) <= 1e-12
        span = extend_basis(np.zeros((0, d, d), dtype=complex), np.array(ss))
        assert span_residual(span, np.eye(d) / d) <= SPAN_TOL


def _structured_generator(kind, d, n_jumps, rng):
    """A generator with a structured kernel: jumps block-diagonal in a random
    basis, self-adjoint jumps (dephasing) in a random basis, jumps a (x) I on
    C^d (x) C^2 (a decoherence-free subsystem), or jumps |0><v| with v
    orthogonal to |0> (dark states: |0> and the complement of the v's)."""
    rates = rng.uniform(0.1, 2.0, n_jumps)
    U = haar_unitary(d, rng)
    if kind == "block":
        k = int(rng.integers(1, d))
        ops = [sla.block_diag(random_complex(rng, k), random_complex(rng, d - k))
               for _ in rates]
        ops = [U @ a @ dag(U) for a in ops]
    elif kind == "dephasing":
        ops = [U @ np.diag(rng.standard_normal(d)) @ dag(U) for _ in rates]
    elif kind == "subsystem":
        ops = [np.kron(random_complex(rng, d), np.eye(2)) for _ in rates]
        d *= 2
    else:
        ops = [np.zeros((d, d), dtype=complex) for _ in rates]
        for a in ops:
            a[0, 1:] = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
    return Lindbladian(d, jumps=[JumpTerm(a, r) for a, r in zip(ops, rates)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["block", "dephasing", "subsystem", "dark"]),
       d=st.integers(2, 5), n_jumps=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stationary_states_are_stationary_densities(kind, d, n_jumps, seed):
    """Every state stationary_states returns on a structured generator is a
    density matrix in the kernel, up to rounding that grows with the
    generator's scale."""
    L = _structured_generator(kind, d, n_jumps, np.random.default_rng(seed))
    S = build(L)
    for rho in stationary_states(L):
        check_density(rho)
        assert np.max(np.abs(apply_superop(S, rho))) <= 1e-9 * max(1.0, np.max(np.abs(S)))


def test_spectral_gap_zero_for_trivial():
    assert spectral_gap(Lindbladian(2)) == 0.0


def test_build_commutes_with_unitary_conjugation(rng):
    # a -> U^* a U and H -> U^* H U conjugate the superoperator by Ad(U^*)
    L = Lindbladian(2, jumps=[JumpTerm(dag(X) @ LOWER @ X, 1.0)])
    assert np.allclose(build(L), dissipator(LOWER.conj().T))
    U = haar_unitary(3, rng)
    H = random_hermitian(rng, 3)
    a = random_complex(rng, 3)
    L3 = Lindbladian(3, hamiltonian=H, jumps=[JumpTerm(a, 0.7)])
    Lu = Lindbladian(3, hamiltonian=dag(U) @ H @ U,
                     jumps=[JumpTerm(dag(U) @ a @ U, 0.7)])
    ad_u = kron_superop(U, dag(U))
    ad_udag = kron_superop(dag(U), U)
    assert np.max(np.abs(build(Lu) - ad_udag @ build(L3) @ ad_u)) <= 1e-11


def test_unital_fixed_point(rng):
    assert unital_fixed_point_check(
        Lindbladian(2, jumps=[JumpTerm(Z, 1.0), JumpTerm(X, 0.5)]))
    assert not unital_fixed_point_check(
        Lindbladian(2, jumps=[JumpTerm(LOWER, 1.0)]))
    assert unital_fixed_point_check(
        Lindbladian(3, hamiltonian=random_hermitian(rng, 3)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from([2, 3, 4, 6]), log_rate=st.floats(-6, 8),
       unitary=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_unital_check_scales_with_generator(d, log_rate, unitary, seed):
    """The rounding in L(I/d) grows with the rates. Under a Hamiltonian of
    scale 1e3, the check keeps self-adjoint and unitary jumps unital and
    amplitude damping non-unital at every rate in 1e-6..1e8."""
    rng = np.random.default_rng(seed)
    rate = 10.0 ** log_rate
    H = 1e3 * random_hermitian(rng, d)
    a = haar_unitary(d, rng) if unitary else random_hermitian(rng, d)
    assert unital_fixed_point_check(Lindbladian(d, H, [JumpTerm(a, rate)]))
    lower = np.zeros((d, d))
    lower[0, 1] = 1.0
    assert not unital_fixed_point_check(Lindbladian(d, H, [JumpTerm(lower, rate)]))


def complex_spectral_gap(L):
    """spectral_gap from the eigenvalues of the complex superoperator, as it
    was computed before it read real_superop; kept as its reference."""
    ev = np.linalg.eigvals(build(L))
    nz = ev[np.abs(ev) > lindblad.NULL_TOL]
    return 0.0 if nz.size == 0 else float(np.min(-nz.real))


def complex_unital_check(L):
    """unital_fixed_point_check on the complex superoperator, as it was
    computed before it read real_superop; kept as its reference."""
    S = build(L)
    residual = np.max(np.abs(apply_superop(S, np.eye(L.dim) / L.dim)))
    return bool(residual <= 1e-11 * max(1.0, np.max(np.abs(S))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), adjoint=st.lists(st.booleans(), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_real_form_gap_and_unitality_match_complex_route(d, adjoint, seed):
    """real_superop is unitarily similar to the complex superoperator, so the
    gap read from it agrees with the complex one within 1e-12 relative and
    the unital verdict is the same, for a Hamiltonian plus 1-3 jumps, each
    self-adjoint (unital) or not."""
    rng = np.random.default_rng(seed)
    jumps = [JumpTerm(random_hermitian(rng, d) if h else random_complex(rng, d),
                      rng.uniform(0.1, 2.0)) for h in adjoint]
    L = Lindbladian(d, random_hermitian(rng, d), jumps)
    gap = complex_spectral_gap(L)
    assert abs(spectral_gap(L) - gap) <= 1e-12 * gap
    assert unital_fixed_point_check(L) == complex_unital_check(L) == all(adjoint)


@pytest.mark.parametrize("t", [np.nan, -1.0, 1e20, 1e300])
def test_channel_superop_names_bad_t(t):
    """channel_superop and propagate name a bad t, and that error is the
    only signal: an exp(tL) that overflows warns nothing first."""
    L = chain_lindbladian([2.0, 1.0])
    for evolve in (lambda: channel_superop(L, t),
                   lambda: propagate(L, np.eye(2) / 2, t)):
        with pytest.raises(ValueError, match="^t must"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            evolve()


def test_non_finite_superoperator_names_the_generator(rng):
    """A generator whose superoperator is not finite is refused where the
    superoperator is built, with an error that names its operators and
    rates, not t, and no warning before it: a finite jump whose a^*a
    overflows, a NaN jump, or a NaN Kossakowski matrix. The reference
    builders dissipator and bilinear_dissipator refuse the same operators.
    (A finite generator still names t when exp(tL) overflows:
    test_channel_superop_names_bad_t.)"""
    huge = JumpTerm(np.full((2, 2), 1e200), 1.0)
    nan = JumpTerm(np.array([[0, np.nan], [0, 0]]), 1.0)
    term = BilinearTerm((LOWER, X), np.array([[1.0, np.nan], [np.nan, 1.0]]))
    eta, sigma = random_density(rng, 2), random_density(rng, 2)
    uses = [lambda a=j.a: dissipator(a) for j in (huge, nan)]
    uses += [lambda a=j.a: bilinear_dissipator(a, a) for j in (huge, nan)]
    for L in (Lindbladian(2, jumps=[huge]), Lindbladian(2, jumps=[nan]),
              Lindbladian(2, bilinear=term)):
        uses += [lambda L=L: build(L),
                 lambda L=L: propagate(L, np.eye(2) / 2, 1e-300),
                 lambda L=L: alignment(L, eta, sigma, 2.0)]
    for use in uses:
        with pytest.raises(ValueError, match="^generator superoperator is "
                           "not finite: operators and rates"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            use()


def hermitian_basis(d):
    """The orthonormal Hermitian basis F_ij = W E_ij + conj(W) E_ji, W =
    (1 + i)/2, in row-major (i, j) order, as a (d^2, d, d) stack."""
    E = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    W = (1 + 1j) / 2
    return (W * E + np.conj(W) * E.transpose(1, 0, 2, 3)).reshape(d * d, d, d)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 6), n_jumps=st.integers(0, 3), n_ops=st.integers(0, 2),
       t=st.floats(0, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_real_form_matches_complex_route(d, n_jumps, n_ops, t, seed):
    """The real exponential in the orthonormal Hermitian basis gives the
    complex route's channel and states, and the imaginary part the real form
    drops is rounding. Operators have unit Frobenius norm and the Kossakowski
    matrix unit trace, so t||S|| stays below about 50: two exponentials of
    the same generator agree only to about eps t||S||."""
    rng = np.random.default_rng(seed)

    def unit(M):
        return M / np.linalg.norm(M)

    ops = [unit(random_complex(rng, d)) for _ in range(n_ops)]
    g = random_density(rng, n_ops) if n_ops else None
    L = Lindbladian(d, hamiltonian=unit(random_hermitian(rng, d)),
                    jumps=[JumpTerm(unit(random_complex(rng, d)), r)
                           for r in rng.random(n_jumps)],
                    bilinear=BilinearTerm(ops, g) if n_ops else None)
    S = build(L)
    T = hermitian_basis(d).transpose(0, 2, 1).reshape(d * d, d * d).T
    R = dag(T) @ S @ T
    scale = max(1.0, np.max(np.abs(S)))
    assert np.max(np.abs(R.imag)) <= 1e-13 * scale
    assert np.max(np.abs(R.real - L.real_superop)) <= 1e-13 * scale
    assert L.real_superop.dtype == float and not L.real_superop.flags.writeable
    assert L.real_superop is L.real_superop
    P = sla.expm(t * S)
    tol = 1e-13 * max(1.0, np.max(np.abs(P)))
    assert np.max(np.abs(channel_superop(L, t) - P)) <= tol
    rho = random_density(rng, d)
    out = propagate(L, rho, t)
    assert np.array_equal(out, dag(out))
    assert np.max(np.abs(out - apply_superop(P, rho))) <= tol


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), d=st.integers(1, 6), log_scale=st.floats(-100, 100),
       seed=st.integers(0, 2 ** 32 - 1))
def test_herm_coordinates(data, d, log_scale, seed):
    """_herm_matrix(x) is exactly Hermitian, and its diagonal is exactly the
    coordinates x_ii at positions i(d + 1), with zero imaginary part, so its
    trace is their sum. _herm_coords gives x back to rounding, and the
    coordinates of a Hermitian rho have its Frobenius norm. x holds no
    subnormal, whose halving rounds."""
    x = np.array(data.draw(st.lists(
        st.floats(-1e300, 1e300, allow_subnormal=False),
        min_size=d * d, max_size=d * d)))
    rho = _herm_matrix(x)
    assert np.array_equal(rho, dag(rho))
    assert np.array_equal(rho.diagonal().real, x[::d + 1])
    assert not np.any(rho.diagonal().imag)
    err = np.max(np.abs(_herm_coords(rho) - x))
    assert err <= 4 * np.finfo(float).eps * np.max(np.abs(x))
    H = 10.0 ** log_scale * random_hermitian(np.random.default_rng(seed), d)
    norm = np.linalg.norm(H)
    assert abs(np.linalg.norm(_herm_coords(H)) - norm) <= 1e-15 * norm


@pytest.mark.parametrize("fault, message", [
    ("trace", "trace"), ("negative", "eigenvalue"), ("nan", "non-finite")])
def test_propagated_state_is_rejected_as_check_density_rejects_it(rng, fault,
                                                                   message):
    """A propagated state that is not a density matrix (here from an input
    that skipped its check) raises check_density's exception and message:
    the state is exactly Hermitian, so its check runs check_density's other
    tests on it unchanged."""
    L = Lindbladian(3, hamiltonian=random_hermitian(rng, 3),
                    jumps=[JumpTerm(random_complex(rng, 3), 0.3)])
    rho = random_density(rng, 3)
    if fault == "trace":
        rho = 1.001 * rho
    elif fault == "negative":
        U = haar_unitary(3, rng)
        rho = (U * [1.2, -0.1, -0.1]) @ dag(U)
    else:
        rho[1, 2] = np.nan
    for t in (0.0, 0.05):
        with pytest.raises(ValueError) as ref:
            check_density(_evolve(L, rho, t), eig_tol=1e-8)
        with pytest.raises(ValueError) as got:
            _propagate_checked(L, rho, t)
        assert str(got.value) == str(ref.value)
        assert message in str(got.value)


def test_exponentials_cptp(rng):
    for _ in range(5):
        d = int(rng.integers(2, 4))
        L = Lindbladian(d, hamiltonian=random_hermitian(rng, d),
                        jumps=[JumpTerm(random_complex(rng, d), 0.5)])
        for t in (0.1, 1.0, 10.0):
            S = channel_superop(L, t)
            assert is_cp(S) and is_tp(S)


def test_trace_and_hermiticity_preservation(rng):
    for _ in range(50):
        d = int(rng.integers(2, 5))
        L = Lindbladian(d, hamiltonian=random_hermitian(rng, d),
                        jumps=[JumpTerm(random_complex(rng, d), 0.5),
                               JumpTerm(random_complex(rng, d), 0.2)])
        rho = random_density(rng, d)
        out = apply(L, rho)
        assert abs(np.trace(out).real) <= 1e-11
        assert np.max(np.abs(out - out.conj().T)) <= 1e-11


def test_trotter_consistency(rng):
    L1 = Lindbladian(2, jumps=[JumpTerm(LOWER, 1.0)])
    L2 = Lindbladian(2, hamiltonian=X)
    t = 1.0
    full = mat_exp(t * (build(L1) + build(L2)))
    ns = np.array([4, 8, 16, 32])
    errs = [np.linalg.norm(full - np.linalg.matrix_power(
        mat_exp(t * build(L1) / n) @ mat_exp(t * build(L2) / n), n))
        for n in ns]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert -1.2 <= slope <= -0.8


def test_semigroup_law(rng):
    L = Lindbladian(3, hamiltonian=random_hermitian(rng, 3),
                    jumps=[JumpTerm(random_complex(rng, 3), 0.4)])
    rho = random_density(rng, 3)
    lhs = propagate(L, propagate(L, rho, 0.4), 0.9)
    rhs = propagate(L, rho, 1.3)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_gamma_derivation_vanishes(rng):
    L = Lindbladian(3, hamiltonian=random_hermitian(rng, 3))
    x, y = random_complex(rng, 3), random_complex(rng, 3)
    assert np.max(np.abs(gamma_form(L, x, y))) <= 1e-10


def test_gamma_scalar_shift_invariance(rng):
    a = random_complex(rng, 3)
    lam = 0.7 - 0.2j
    La = Lindbladian(3, jumps=[JumpTerm(a, 1.0)])
    Lshift = Lindbladian(3, jumps=[JumpTerm(a + lam * np.eye(3), 1.0)])
    x, y = random_complex(rng, 3), random_complex(rng, 3)
    assert np.max(np.abs(gamma_form(La, x, y) - gamma_form(Lshift, x, y))) <= 1e-10


def test_gamma_span_criterion(rng):
    b1 = random_complex(rng, 3)
    b1 = b1 + 1j * b1 @ b1  # make it non-normal
    assert gamma_span_criterion(b1 + 2 * np.eye(3), [b1])
    assert not gamma_span_criterion(b1.conj().T, [b1])


def test_gamma_span_criterion_dependent_basis(rng):
    """A dependent basis, the identity among it, spans what its independent
    part spans over the complex numbers."""
    b1, b2, off = (random_complex(rng, 3) for _ in range(3))
    basis = [b1, b2, b1 - (0.5 + 2j) * b2, 3 * np.eye(3)]
    inside = 1j * b1 + (2 - 1j) * b2 + (0.5 - 0.5j) * np.eye(3)
    assert gamma_span_criterion(inside, basis)
    assert gamma_span_criterion(inside + 1e-11 * off, basis)
    assert not gamma_span_criterion(inside + 1e-6 * off, basis)
    assert not gamma_span_criterion(b1.conj().T, basis)
