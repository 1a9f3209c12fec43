import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindreach.linalg import apply_superop, dag, hermitize, trace_distance
from lindreach.lindblad import (
    JumpTerm,
    Lindbladian,
    apply,
    channel_superop,
)
from lindreach.tangent import (
    LIFT_TOL,
    PathSample,
    central_differences,
    in_tangent_cone,
    lift,
    lift_path,
    linear_admissible,
    second_order_witness,
    support_projection,
)
from lindreach.hormander import haar_unitary

from conftest import random_complex, random_density, random_hermitian

X = np.array([[0, 1], [1, 0]], dtype=complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)


def random_cone_element(rng, rho, d):
    """Tangent vector obtained by applying a random Lindbladian to rho."""
    L = Lindbladian(d, hamiltonian=random_hermitian(rng, d),
                    jumps=[JumpTerm(random_complex(rng, d), 0.5),
                           JumpTerm(random_complex(rng, d), 0.3)])
    return apply(L, rho)


def support_projector(dec):
    V = dec.basis[:, :dec.rank]
    return V @ dag(V)


def test_support_projection_interior():
    dec = support_projection(np.eye(3, dtype=complex) / 3)
    assert dec.rank == 3
    assert np.allclose(support_projector(dec), np.eye(3))
    assert np.allclose(dec.p, [1 / 3] * 3)


def test_support_projection_pure():
    dec = support_projection(GROUND)
    assert dec.rank == 1
    assert np.allclose(support_projector(dec), GROUND)
    assert np.allclose(dec.p, [1.0, 0.0])


def test_support_projection_rank2():
    rho = np.diag([0.3, 0.0, 0.7]).astype(complex)
    dec = support_projection(rho)
    assert dec.rank == 2
    assert np.allclose(dec.p, [0.7, 0.3, 0.0])
    assert np.allclose((dec.basis * dec.p) @ dag(dec.basis), rho)


def test_rho_is_validated_before_any_answer():
    """Neither is a state; a direction with tr x != 0 is no reason to answer
    before rho is checked."""
    with pytest.raises(ValueError, match="eigenvalue"):
        support_projection(np.diag([2.0, -1.0]))
    with pytest.raises(ValueError, match="trace"):
        in_tangent_cone(np.diag([2.0, -1.5]), np.diag([1.0, 0.0]))


def test_cone_boundary_examples():
    assert in_tangent_cone(GROUND, X)
    assert not in_tangent_cone(GROUND, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        in_tangent_cone(GROUND, np.array([[0, 1], [0, 0]], dtype=complex))


def test_cone_interior_all_traceless(rng):
    rho = random_density(rng, 3)
    x = random_hermitian(rng, 3)
    x -= np.trace(x).real / 3 * np.eye(3)
    assert in_tangent_cone(rho, x)


def test_cone_rejects_nonzero_trace(rng):
    """T+ holds only traceless directions: at a full-rank rho, where the
    block rule holds for every x, a Hermitian x with tr x = 0.3 is outside;
    within the trace tolerance it is inside."""
    rho = random_density(rng, 3)
    x = random_hermitian(rng, 3)
    x -= (np.trace(x).real - 0.3) / 3 * np.eye(3)
    assert not in_tangent_cone(rho, x)
    assert in_tangent_cone(rho, x, tol=0.5)


def test_cone_closed_under_sums(rng):
    rho = random_density(rng, 4, rank=2)
    x1 = random_cone_element(rng, rho, 4)
    x2 = random_cone_element(rng, rho, 4)
    assert in_tangent_cone(rho, 0.7 * x1 + 1.3 * x2, 1e-8)


def test_cone_unitary_covariance(rng):
    rho = random_density(rng, 3, rank=2)
    x = random_cone_element(rng, rho, 3)
    U = haar_unitary(3, rng)
    assert in_tangent_cone(rho, x, 1e-8) == in_tangent_cone(
        U @ rho @ dag(U), U @ x @ dag(U), 1e-8)


def test_linear_admissible_examples():
    Z = np.diag([1.0, -1.0]).astype(complex)
    assert math.isclose(linear_admissible(np.eye(2) / 2, Z / 2), 1.0,
                        abs_tol=1e-9)
    assert linear_admissible(GROUND, X) is None
    assert linear_admissible(GROUND, np.zeros((2, 2))) == math.inf
    # rho = diag(1/2, 1/2, 0, 0) and x = -I on the support, perp block
    # diag(1, 0), cross entry 1 between e0 and e2: S = diag(-1, -1) -
    # diag(1, 0) and P^{-1/2} S P^{-1/2} = diag(-4, -2), so eps_max = 1/4,
    # where the {e0, e2} block [[1/4, 1/4], [1/4, 1/4]] turns singular
    rho = np.diag([0.5, 0.5, 0.0, 0.0])
    x = np.diag([-1.0, -1.0, 1.0, 0.0])
    x[0, 2] = x[2, 0] = 1.0
    assert math.isclose(linear_admissible(rho, x), 0.25, rel_tol=1e-12)
    x[0, 3] = x[3, 0] = 1e-6        # the cross block leaves x22's range
    assert linear_admissible(rho, x) is None


def _admissibility_case(rng, d, rank, kind):
    """rho of the given rank (support eigenvalues at least 0.2 / d) and a
    Hermitian x: generic, or, in rho's eigenbasis, with a positive definite
    perp block, or with a rank-1 perp block vv^* and a cross block vu^* in
    its range."""
    U = haar_unitary(d, rng)
    p = np.zeros(d)
    p[:rank] = rng.uniform(0.2, 1.0, rank)
    rho = hermitize((U * (p / p.sum())) @ dag(U))
    xb = random_hermitian(rng, d)
    m = d - rank
    if kind == "psd-perp":
        g = random_complex(rng, d)[:m, :m]
        xb[rank:, rank:] = g @ dag(g) + 0.5 * np.eye(m)
    elif kind == "rank1-perp" and m:
        v, u = random_complex(rng, d)[:2]
        v = v[:m] / np.linalg.norm(v[:m])
        xb[rank:, rank:] = np.outer(v, v.conj())
        xb[rank:, :rank] = np.outer(v, u[:rank].conj())
        xb[:rank, rank:] = dag(xb[rank:, :rank])
    return rho, hermitize(U @ xb @ dag(U))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 6), data=st.data(),
       kind=st.sampled_from(["generic", "psd-perp", "rank1-perp"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_linear_admissible_is_the_boundary(d, data, kind, seed):
    """A finite eps_max is where rho + eps x leaves the PSD cone: PSD at
    eps_max within 1e-12 of its norm (eigvalsh's rounding), not PSD at
    (1 + 1e-6) eps_max."""
    rank = data.draw(st.integers(1, d))
    rho, x = _admissibility_case(np.random.default_rng(seed), d, rank, kind)
    eps = linear_admissible(rho, x)
    if eps is None or eps == math.inf:
        return
    w = np.linalg.eigvalsh(rho + eps * x)
    assert w.min() >= -1e-12 * max(1.0, np.abs(w).max())
    assert np.linalg.eigvalsh(rho + eps * (1 + 1e-6) * x).min() < 0


def test_second_order_witness_nonconv():
    w = second_order_witness(GROUND, X)
    assert np.allclose(w["x2"], np.diag([-2.0, 2.0]), atol=1e-10)
    for eps in (0.05, 0.1, 0.2):
        M = GROUND + eps * X + eps ** 2 * w["x2"]
        assert abs(np.linalg.det(M).real - eps ** 2 * (1 - 4 * eps ** 2)) <= 1e-12


def test_second_order_witness_strict_perp_block(rng):
    rho = np.diag([0.6, 0.4, 0.0]).astype(complex)
    x = np.diag([-0.5, -0.5, 1.0]).astype(complex)  # x22 strictly positive
    w = second_order_witness(rho, x)
    assert np.max(np.abs(w["x2"])) <= 1e-12
    assert w["eps_max"] > 0


def test_second_order_witness_random_rank_deficient(rng):
    for _ in range(5):
        rho = random_density(rng, 4, rank=2)
        x = random_cone_element(rng, rho, 4)
        w = second_order_witness(rho, x, tol=1e-8)
        assert w["eps_max"] > 0


def test_lift_interior_replacer(rng):
    rho = random_density(rng, 3)
    x = random_hermitian(rng, 3)
    x -= np.trace(x).real / 3 * np.eye(3)
    cert = lift(rho, x)
    assert cert.residual <= 1e-10
    assert len(cert.lindbladian.jumps) > 0
    assert np.max(np.abs(cert.lindbladian.hamiltonian)) <= 1e-12


def test_lift_pure_state_hamiltonian_cross():
    cert = lift(GROUND, X)
    assert cert.residual <= 1e-12
    assert np.max(np.abs(apply(cert.lindbladian, GROUND) - X)) <= 1e-12


def test_lift_spectral_jumps():
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    x = np.diag([-1.0, 0.5, 0.5]).astype(complex)
    cert = lift(rho, x)
    assert cert.residual <= 1e-10
    assert cert.cp_margin >= -1e-9


def test_lift_round_trip(rng):
    for d in (2, 3, 4, 8):
        for i in range(8):
            rank = d if i % 2 == 0 else max(1, d // 2)
            rho = random_density(rng, d, rank)
            x = random_cone_element(rng, rho, d)
            cert = lift(rho, x, tol=1e-9)
            assert cert.residual <= 1e-8
            assert cert.cp_margin >= -1e-9


def test_lift_rejects_non_cone():
    with pytest.raises(ValueError):
        lift(GROUND, np.diag([1.0, -1.0]))


def test_central_differences_quadratic():
    ts = np.linspace(0, 1, 9)
    states = [np.diag([t ** 2, 1 - t ** 2]).astype(complex) for t in ts]
    derivs = central_differences(PathSample(ts, states))
    for t, d in zip(ts, derivs):
        assert np.max(np.abs(d - np.diag([2 * t, -2 * t]))) <= 1e-10


def central_differences_loop(path):
    """The per-sample loop that central_differences replaces."""
    t, s = path.times, path.states
    n = len(t)
    out = []
    for i in range(n):
        if i == 0:
            i0, i1, i2 = 0, 1, 2
        elif i == n - 1:
            i0, i1, i2 = n - 3, n - 2, n - 1
        else:
            i0, i1, i2 = i - 1, i, i + 1
        t0, t1, t2 = t[i0], t[i1], t[i2]
        ti = t[i]
        d0 = (2 * ti - t1 - t2) / ((t0 - t1) * (t0 - t2))
        d1 = (2 * ti - t0 - t2) / ((t1 - t0) * (t1 - t2))
        d2 = (2 * ti - t0 - t1) / ((t2 - t0) * (t2 - t1))
        out.append(hermitize(d0 * s[i0] + d1 * s[i1] + d2 * s[i2]))
    return out


@pytest.mark.parametrize("n", [3, 5, 24])
def test_central_differences_match_loop_bitwise(rng, n):
    ts = np.cumsum(rng.uniform(0.05, 1.0, n))
    path = PathSample(ts, [random_density(rng, 3) for _ in range(n)])
    out = central_differences(path)
    assert out.shape == (n, 3, 3)
    assert np.array_equal(out, np.stack(central_differences_loop(path)))


def _perp_block_direction(rng, x22):
    """Tangent direction at diag(0.7, 0.3, 0, 0) with perp block x22, a
    random cross block and a compensating support block."""
    x = np.zeros((4, 4), dtype=complex)
    x[2:, 2:] = x22
    x[2:, :2] = random_complex(rng, 2)
    x[:2, 2:] = dag(x[2:, :2])
    x[:2, :2] = random_hermitian(rng, 2)
    x[:2, :2] -= (np.trace(x).real / 2) * np.eye(2)
    return np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex), x


@pytest.mark.parametrize("eigs, n_spectral", [((0.2, 0.2), 2),
                                              ((0.3, -1e-9), 1)],
                         ids=["repeated", "clipped"])
def test_lift_perp_block_spectral_jumps(rng, eigs, n_spectral):
    U = haar_unitary(2, rng)
    rho, x = _perp_block_direction(rng, U @ np.diag(eigs) @ dag(U))
    cert = lift(rho, x)
    assert cert.residual <= LIFT_TOL
    assert cert.cp_margin >= -1e-9
    # spectral jumps map into the kernel of rho; replacer jumps into its support
    into_kernel = [np.max(np.abs(j.a[:2])) <= 1e-12 for j in cert.lindbladian.jumps]
    assert sum(into_kernel) == n_spectral


@pytest.mark.parametrize("states, derivs, match", [
    ([np.eye(2) / 2, np.eye(2) / 2, [[1.0, 0.0], [0.0]]], None, "ragged"),
    ([np.eye(2) / 2, np.eye(2) / 2, np.eye(3) / 3], None, "ragged"),
    ([np.ones((2, 3)) / 2] * 3, None, "square"),
    ([np.eye(2) / 2] * 3, [np.zeros((2, 2))] * 2, "derivs"),
    ([np.eye(2) / 2] * 3, [np.zeros((3, 3))] * 3, "derivs"),
], ids=["ragged-rows", "mixed-dims", "not-square", "derivs-length",
        "derivs-dim"])
def test_path_sample_rejects_bad_shapes(states, derivs, match):
    with pytest.raises(ValueError, match=match):
        PathSample([0.0, 0.5, 1.0], states, derivs)


def test_lift_path_names_the_sample_it_cannot_lift():
    zero = np.zeros((2, 2))
    path = PathSample([0.0, 0.5, 1.0], [GROUND] * 3,
                      [np.diag([1.0, -1.0]), zero, zero])
    with pytest.raises(ValueError, match="sample 0: x is not in the tangent"):
        lift_path(path)


def test_lift_path_constant():
    ts = np.linspace(0, 1, 5)
    rho = np.diag([0.6, 0.4]).astype(complex)
    rep = lift_path(PathSample(ts, [rho] * 5))
    assert rep["reconstruction_error"] <= 1e-10
    for L in rep["generators"]:
        assert np.max(np.abs(apply(L, rho))) <= 1e-10


def test_lift_path_self_consistency(rng):
    rho0 = random_density(rng, 2)
    from lindreach.lindblad import replacer_lindbladian
    L = replacer_lindbladian(np.eye(2, dtype=complex) / 2)

    def run(gen, n):
        ts = np.linspace(0, 1, n)
        states = [hermitize(apply_superop(channel_superop(gen, t), rho0))
                  for t in ts]
        return lift_path(PathSample(ts, states))["reconstruction_error"]

    assert run(L, 64) <= 1e-3
    # error shrinks roughly like the step size for a generic generator
    Lr = Lindbladian(2, hamiltonian=random_hermitian(rng, 2),
                     jumps=[JumpTerm(random_complex(rng, 2), 0.3)])
    ratio = run(Lr, 32) / run(Lr, 64)
    assert 1.5 <= ratio <= 2.8


def test_lift_path_boundary_integrability():
    # lambda_min(t) = (1 - t) / 2 along a straight diagonal path
    ts = np.linspace(0, 0.99, 200)
    states = [np.diag([(1 + t) / 2, (1 - t) / 2]).astype(complex) for t in ts]
    rep = lift_path(PathSample(ts, states))
    exact = 2 * math.log(1 / (1 - 0.99))  # integral of 2/(1-t)
    assert abs(rep["integrability"]["int_inv_lambda"] - exact) / exact < 0.05
    exact_sqrt = (2 * math.sqrt(2)) * (1 - math.sqrt(1 - 0.99))
    assert abs(rep["integrability"]["int_inv_sqrt_lambda"] - exact_sqrt) / exact_sqrt < 0.05


def test_converse_lindblad_applications_in_cone(rng):
    for _ in range(30):
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        x = random_cone_element(rng, rho, d)
        assert in_tangent_cone(rho, x, 1e-8)


@pytest.mark.parametrize("check", [in_tangent_cone, lift, linear_admissible,
                                   second_order_witness])
def test_operands_share_one_dimension(check):
    """x of another dimension than rho is rejected by name, whether rho has
    full rank or not."""
    for rho, x in ((np.eye(2) / 2, np.diag([1.0, -1.0, 0.0])),
                   (np.eye(3) / 3, X), (GROUND, np.diag([1.0, -1.0, 0.0]))):
        with pytest.raises(ValueError, match=r"x has shape"):
            check(rho, x)


@pytest.mark.parametrize("check", [in_tangent_cone, lift, linear_admissible,
                                   second_order_witness])
def test_non_hermitian_x_is_rejected_by_name(check):
    """|0><1| is not a direction in the state space; lifting or measuring
    its Hermitian part instead would answer for another x."""
    with pytest.raises(ValueError, match="x must be Hermitian"):
        check(np.eye(2) / 2, np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [np.nan] * 3,
                                   [0.0, 0.5, np.inf], [0.0, 0.5, 0.5]])
def test_path_sample_requires_finite_increasing_times(times):
    with pytest.raises(ValueError, match="times must be finite and strictly"):
        PathSample(times, [np.eye(2) / 2] * 3)
