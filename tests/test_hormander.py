import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindreach.hormander import (
    ResourceSet,
    haar_unitary,
    lie_closure,
    orbit_span,
)
from lindreach.linalg import dag, hermitize, tensor, vectorize

from conftest import random_complex

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2)


def test_pauli_pair_generates_su2():
    rep = lie_closure(ResourceSet(2, [1j * X, 1j * Y]))
    assert rep.dim_found == 3 and rep.is_hormander


def test_abelian_singleton():
    rep = lie_closure(ResourceSet(2, [1j * Z]))
    assert rep.dim_found == 1 and not rep.is_hormander


def test_two_local_set_generates_su4():
    els = [1j * tensor(X, I2), 1j * tensor(Z, I2),
           1j * tensor(I2, X), 1j * tensor(I2, Z), 1j * tensor(Z, Z)]
    rep = lie_closure(ResourceSet(4, els))
    assert rep.dim_found == 15 and rep.is_hormander


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        lie_closure(ResourceSet(2, []))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_element_rejected_by_index(bad):
    with pytest.raises(ValueError, match="resource element 1 has non-finite"):
        ResourceSet(2, [1j * X, np.diag([bad, 0])])


@pytest.mark.parametrize("depth", [0, -1, np.nan, np.inf, 2.0, 2.5, True, "3"])
def test_max_depth_must_be_an_integer_of_at_least_one(depth):
    with pytest.raises(ValueError, match="max_depth must be an integer >= 1"):
        lie_closure(ResourceSet(2, [1j * X, 1j * Y]), max_depth=depth)


def test_numpy_integer_max_depth_accepted():
    rep = lie_closure(ResourceSet(2, [1j * X, 1j * Y]), max_depth=np.int64(1))
    assert rep.depth_used == 1 and rep.dim_found == 2


def test_monotone_in_elements():
    small = lie_closure(ResourceSet(2, [1j * Z]))
    big = lie_closure(ResourceSet(2, [1j * Z, 1j * X]))
    assert big.dim_found >= small.dim_found


def test_conjugation_invariance(rng):
    els = [1j * tensor(X, I2), 1j * tensor(Z, I2),
           1j * tensor(I2, X), 1j * tensor(I2, Z), 1j * tensor(Z, Z)]
    U = haar_unitary(4, rng)
    rep = lie_closure(ResourceSet(4, [dag(U) @ e @ U for e in els]))
    assert rep.dim_found == 15


def test_basis_orthonormal():
    rep = lie_closure(ResourceSet(2, [1j * X, 1j * Y]))
    for i, a in enumerate(rep.basis):
        for j, b in enumerate(rep.basis):
            ip = np.real(np.trace(dag(a) @ b))
            assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-10


def _closure_sets(rng, d, kind):
    """Three resource sets of one kind, and the dim_found each must give."""
    for i in range(3):
        if kind == "generic":
            yield [random_complex(rng, d) for _ in range(2)], d * d - 1
        elif kind == "diagonal":
            V = rng.standard_normal((3, d))
            if i == 2:  # a dependent element, up to the identity
                V[2] = V[0] - 2 * V[1] + 0.5
            rank = np.linalg.matrix_rank(V - V.mean(axis=1, keepdims=True))
            yield [np.diag(v) for v in V], rank
        else:
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            yield [c[0] * np.eye(d), c[1] * np.eye(d)], 0


@pytest.mark.parametrize("kind", ["generic", "diagonal", "identity"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_closure_basis_properties(rng, d, kind):
    for els, dim in _closure_sets(rng, d, kind):
        rep = lie_closure(ResourceSet(d, els))
        assert rep.dim_found == dim == len(rep.basis)
        assert rep.is_hormander == (dim == d * d - 1)
        if kind == "diagonal":  # commuting: the first round adds nothing
            assert rep.depth_used == 1
        if dim == 0:  # nothing to close: no round after depth 1 adds one
            assert rep.depth_used == 1
            continue
        B = np.array(rep.basis)
        # orthonormal under Re tr(A^*B), anti-Hermitian and traceless
        gram = np.real(np.einsum("kij,lij->kl", B.conj(), B))
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
        assert np.max(np.abs(B + B.conj().swapaxes(1, 2))) <= 1e-12
        assert np.max(np.abs(np.trace(B, axis1=1, axis2=2))) <= 1e-12
        # closed under commutators: [b_k, b_l] lies in the real span
        C = (B[:, None] @ B[None] - B[None] @ B[:, None]).reshape(-1, d, d)
        coef = np.real(np.einsum("kij,nij->nk", B.conj(), C))
        resid = C - np.einsum("nk,kij->nij", coef, B)
        assert np.max(np.linalg.norm(resid, axis=(1, 2))) <= 1e-8


def test_depth_used_is_last_round_that_added():
    """[iX, iY] adds iZ at depth 2, which completes su(2); on one qubit of
    two the same su(2) is saturated at depth 2 and depth 3 adds nothing."""
    assert lie_closure(ResourceSet(2, [1j * X, 1j * Y])).depth_used == 2
    rep = lie_closure(ResourceSet(4, [1j * tensor(X, I2), 1j * tensor(Y, I2)]))
    assert (rep.dim_found, rep.depth_used, rep.is_hormander) == (3, 2, False)


def test_haar_seeded_reproducible():
    U1 = haar_unitary(3, np.random.default_rng(7))
    U2 = haar_unitary(3, np.random.default_rng(7))
    assert np.array_equal(U1, U2)


def test_orbit_probe_lowering():
    a = np.zeros((2, 2), dtype=complex)
    a[0, 1] = 1.0
    rep = orbit_span(a)
    assert rep["contains_e01"]


def test_orbit_probe_self_adjoint():
    rep = orbit_span(Z)
    assert not rep["contains_e01"]
    assert (rep["rank"], rep["span_dim"]) == (1, 3)


def test_orbit_probe_generic_non_normal():
    a = np.zeros((2, 2), dtype=complex)
    a[0, 1] = 1.0
    a[1, 0] = 0.3
    rep = orbit_span(a)
    assert rep["contains_e01"]


@pytest.mark.parametrize("a", [np.eye(1), np.zeros((2, 3)),
                               np.diag([1.0, np.nan])],
                         ids=["d=1", "2x3", "nan"])
def test_orbit_span_rejects_malformed_a(a):
    with pytest.raises(ValueError, match="^a has"):
        orbit_span(a)


def _orbit_probe_reference(a, seed):
    """The sampled probe as a rank loop: the real rank of all Haar samples
    of {a, a^*} so far after each one (matrix_rank, tol 1e-10), until five
    samples add nothing, then one least-squares residual."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    a = a - (np.trace(a) / d) * np.eye(d)
    rng = np.random.default_rng(seed)
    e01 = np.zeros((d, d), dtype=complex)
    e01[0, 1] = 1.0
    cols, span_dim, stagnant = [], 0, 0
    for _ in range(200):
        U = haar_unitary(d, rng)
        cols += [vectorize(dag(U) @ a @ U), vectorize(dag(U) @ dag(a) @ U)]
        A = np.stack(cols, axis=1)
        new_dim = int(np.linalg.matrix_rank(np.concatenate([A.real, A.imag]),
                                            tol=1e-10))
        stagnant = 0 if new_dim > span_dim else stagnant + 1
        span_dim = new_dim
        if stagnant >= 5 or span_dim >= 2 * d * d:
            break
    A = np.stack(cols, axis=1)
    AR = np.concatenate([A.real, A.imag])
    target = np.concatenate([vectorize(e01).real, vectorize(e01).imag])
    coef, *_ = np.linalg.lstsq(AR, target, rcond=None)
    residual = float(np.linalg.norm(AR @ coef - target))
    return {"contains_e01": residual < 1e-8, "span_dim": span_dim}


def _orbit_operator(kind, rng, d):
    """One operator of the given kind, drawn from rng."""
    G = random_complex(rng, d)
    z = complex(*rng.standard_normal(2))
    if kind == "generic":
        return G
    if kind == "hermitian":
        return hermitize(G)
    if kind == "i_hermitian":
        return 1j * hermitize(G)
    if kind == "z_hermitian":
        return z * hermitize(G)
    if kind == "diagonal":
        return np.diag(G[0].real)
    if kind == "superdiagonal":
        return z * np.eye(d, k=1)
    if kind == "identity":
        return z * np.eye(d)
    return haar_unitary(d, rng)


ORBIT_KINDS = ["generic", "hermitian", "i_hermitian", "z_hermitian",
               "diagonal", "superdiagonal", "identity", "haar_unitary"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(ORBIT_KINDS), op_seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_orbit_probe_matches_rank_reference(d, seed, kind, op_seed):
    """orbit_span agrees with the sampled reference (Haar samples drawn from
    seed) on every drawn operator, and span_dim is rank * (d^2 - 1) with
    rank the real rank of the traceless {a0, a0^*}."""
    a = _orbit_operator(kind, np.random.default_rng(op_seed), d)
    got, ref = orbit_span(a), _orbit_probe_reference(a, seed)
    for key in ("contains_e01", "span_dim"):
        assert got[key] == ref[key], key
    a0 = a - np.trace(a) / d * np.eye(d)
    V = np.stack([vectorize(a0), vectorize(dag(a0))])
    rank = int(np.linalg.matrix_rank(np.concatenate([V.real, V.imag], axis=1),
                                     tol=1e-10))
    assert got["rank"] == rank
    assert got["span_dim"] == rank * (d * d - 1)
    assert got["contains_e01"] == (rank == 2)
