import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindreach.linalg import (
    apply_superop,
    check_density,
    check_populations,
    choi,
    dag,
    devectorize,
    extend_basis,
    hermitize,
    is_cp,
    is_diagonal,
    is_tp,
    kron_superop,
    mat_exp,
    partial_trace,
    schatten_norm,
    span_residual,
    superop_from_action,
    tensor,
    trace_distance,
    vectorize,
)
from lindreach.lindblad import replacer_lindbladian, channel_superop

from conftest import random_complex, random_density, svd_schatten

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_tensor_identity():
    assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_block_convention():
    out = tensor(X, np.diag([1.0, 0.0]).astype(complex))
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[2, 0] = 1.0
    assert np.allclose(out, expected)


def test_tensor_mixed_product(rng):
    A, B, C, D = (random_complex(rng, 3) for _ in range(4))
    lhs = tensor(A, B) @ tensor(C, D)
    rhs = tensor(A @ C, B @ D)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1, np.max(np.abs(rhs)))


def test_partial_trace_pure_ancilla(rng):
    rho = random_density(rng, 3)
    e00 = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(partial_trace(tensor(rho, e00), [3, 2], [0]), rho)


def test_partial_trace_all_factors(rng):
    M = random_complex(rng, 4)
    out = partial_trace(M, [2, 2], [])
    assert out.shape == (1, 1)
    assert np.isclose(out[0, 0], np.trace(M))


def test_partial_trace_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    proj = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(proj, [2, 2], [0]), np.eye(2) / 2)


def test_partial_trace_first_factor_rule(rng):
    A = random_complex(rng, 2)
    B = random_complex(rng, 3)
    out = partial_trace(tensor(A, B), [2, 3], [0])
    assert np.max(np.abs(out - np.trace(B) * A)) <= 1e-12


def test_mat_exp_zero():
    assert np.allclose(mat_exp(np.zeros((3, 3))), np.eye(3))


def test_mat_exp_trotter_slope(rng):
    A = random_complex(rng, 4)
    B = random_complex(rng, 4)
    A, B = A / np.linalg.norm(A), B / np.linalg.norm(B)
    ns = np.array([4, 8, 16, 32, 64])
    errs = []
    for n in ns:
        prod = np.linalg.matrix_power(mat_exp(A / n) @ mat_exp(B / n), n)
        errs.append(np.linalg.norm(mat_exp(A + B) - prod))
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert -1.2 <= slope <= -0.8


def test_vectorize_round_trip(rng):
    M = random_complex(rng, 3)
    assert np.allclose(devectorize(vectorize(M), 3), M)


@pytest.mark.parametrize("p", [1, 2, 3, np.inf])
def test_stack_primitives_match_per_matrix(rng, p):
    A = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    mats = A.reshape(-1, 4, 4)
    assert np.array_equal(dag(A).reshape(-1, 4, 4), [M.conj().T for M in mats])
    assert np.array_equal(hermitize(A).reshape(-1, 4, 4),
                          [hermitize(M) for M in mats])
    assert np.array_equal(vectorize(A).reshape(-1, 16), [vectorize(M) for M in mats])
    assert np.array_equal(devectorize(vectorize(A), 4), A)
    H = hermitize(A)
    norms = schatten_norm(H, p)
    assert norms.shape == (2, 3)
    single = [schatten_norm(M, p) for M in H.reshape(-1, 4, 4)]
    assert all(type(n) is float for n in single)
    assert np.allclose(norms.reshape(-1), single, rtol=1e-14, atol=0)
    assert schatten_norm(np.zeros((0, 0)), p) == 0.0


@pytest.mark.parametrize("p", [2.0, 700.0, 1e308])
def test_schatten_norm_does_not_underflow_for_large_p(p):
    """||diag(0.3, -0.3)||_p = 0.3 2^(1/p), although 0.3^p underflows."""
    A = np.diag([0.3, -0.3])
    expect = 0.3 * 2 ** (1 / p)
    assert abs(schatten_norm(A, p) - expect) <= 1e-15
    norms = schatten_norm(np.stack([A, 3 * A, np.zeros((2, 2))]), p)
    assert np.all(np.abs(norms - [expect, 3 * expect, 0.0]) <= [1e-15, 3e-15, 0])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 6), n=st.integers(1, 4),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 40.0, np.inf]),
       scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 32 - 1))
def test_schatten_norm_of_hermitian_stacks_is_the_singular_value_norm(
        d, n, p, scale, seed):
    """On Hermitian input the eigenvalue magnitudes are the singular values:
    the norm agrees with the SVD definition within 1e-14 relative."""
    rng = np.random.default_rng(seed)
    H = scale * hermitize(random_complex(rng, d) if n == 1 else
                          rng.standard_normal((n, d, d))
                          + 1j * rng.standard_normal((n, d, d)))
    expect = svd_schatten(H, p)
    got = schatten_norm(H, p)
    assert np.shape(got) == np.shape(expect)
    assert np.all(np.abs(got - expect) <= 1e-14 * expect)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 6), n=st.integers(1, 4), zero=st.integers(0, 4),
       scale=st.sampled_from([1e-200, 1e-3, 1.0, 1e3, 1e150, 1e200]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_schatten_2_norm_is_the_frobenius_sum(d, n, zero, scale, seed):
    """At p = 2 the norm is the Frobenius sum of the entries, taken without
    an eigen-solve and scaled so that no square overflows or underflows: it
    agrees with the SVD definition within 1e-14 relative, on stacks holding
    a zero matrix too."""
    rng = np.random.default_rng(seed)
    H = hermitize(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
    if zero < n:
        H[zero] = 0
    expect = scale * svd_schatten(H, 2.0)
    got = schatten_norm(scale * H, 2.0)
    assert got.shape == (n,)
    assert np.all(np.abs(got - expect) <= 1e-14 * expect)
    assert np.all((got == 0) == (expect == 0))


def test_superop_from_action_identity():
    assert np.allclose(superop_from_action(lambda E: E, 3), np.eye(9))


def test_superop_xax():
    S = superop_from_action(lambda A: X @ A @ X, 2)
    assert np.allclose(S, np.kron(X.conj(), X))
    assert np.allclose(S, kron_superop(X, X))


def test_choi_identity_and_transpose():
    ident = np.eye(4)
    J = choi(ident)
    assert is_cp(ident) and is_tp(ident)
    # maximally entangled projector times d
    w = np.linalg.eigvalsh(hermitize(J))
    assert np.isclose(w[-1], 2.0) and np.allclose(w[:-1], 0.0)
    T = superop_from_action(lambda A: A.T, 2)
    assert not is_cp(T)
    assert np.isclose(np.linalg.eigvalsh(hermitize(choi(T))).min(), -1.0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_choi_reshuffle_properties(d, seed):
    rng = np.random.default_rng(seed)
    S = random_complex(rng, d * d)
    assert np.array_equal(choi(choi(S)), S)
    ref = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d))
            E[i, j] = 1.0
            ref += np.kron(E, apply_superop(S, E))
    assert np.max(np.abs(choi(S) - ref)) <= 1e-14 * np.max(np.abs(S))
    # X -> a X b^* has Choi matrix vec(a) vec(b)^*
    a, b = random_complex(rng, d), random_complex(rng, d)
    J = choi(kron_superop(a, dag(b)))
    assert np.max(np.abs(J - np.outer(vectorize(a), vectorize(b).conj()))) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), n_kraus=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_is_tp_random_kraus_channel(d, n_kraus, seed):
    rng = np.random.default_rng(seed)
    # an isometry W (n_kraus d x d) splits into Kraus operators with sum K^*K = I
    W, _ = np.linalg.qr(rng.standard_normal((n_kraus * d, d))
                        + 1j * rng.standard_normal((n_kraus * d, d)))
    S = sum(kron_superop(K, dag(K)) for K in W.reshape(n_kraus, d, d))
    assert is_tp(S)
    assert not is_tp(S + 1e-6 * random_complex(rng, d * d))
    assert not is_tp(random_complex(rng, d * d))


def test_replacer_channel_cptp(rng):
    sigma = random_density(rng, 3)
    S = channel_superop(replacer_lindbladian(sigma), 5.0)
    assert is_cp(S) and is_tp(S)


def test_trace_distance():
    assert np.isclose(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), 1.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_span_residual_matches_lstsq(rng, d):
    """Distance from the real span against a least-squares reference, with
    a dependent element among the spanning set."""
    for m in range(5):
        ops = np.array([random_complex(rng, d) for _ in range(m)]).reshape(m, d, d)
        if m >= 2:
            ops = np.concatenate([ops, (ops[0] - 3 * ops[1])[None]])
        basis = extend_basis(np.zeros((0, d, d), dtype=complex), ops)
        assert len(basis) == min(m, 2 * d * d)
        gram = np.real(np.einsum("kij,lij->kl", basis.conj(), basis))
        assert np.abs(gram - np.eye(len(basis))).max(initial=0.0) <= 1e-12
        # the real span as real columns (re, im) of the spanning set
        A = np.concatenate([vectorize(ops).real, vectorize(ops).imag], axis=1).T
        for M in (random_complex(rng, d),
                  np.tensordot(rng.standard_normal(len(ops)), ops, 1)):
            b = np.concatenate([vectorize(M).real, vectorize(M).imag])
            coef = np.linalg.lstsq(A, b, rcond=None)[0]
            ref = float(np.linalg.norm(A @ coef - b))
            assert abs(span_residual(basis, M) - ref) <= 1e-10


def _populations(d, seed, fault):
    """A probability vector of length d with one fault: a NaN or infinite
    entry, an entry just below -1e-8, or a trace just outside 1 +- 1e-8."""
    p = np.random.default_rng(seed).dirichlet(np.ones(d))
    if fault == "nan":
        p[seed % d] = np.nan
    elif fault == "inf":
        p[seed % d] = -np.inf
    elif fault == "negative":
        i, j = seed % d, (seed + 1) % d
        p[i], p[j] = -1.5e-8, p[j] + p[i] + 1.5e-8      # trace still 1
    elif fault == "trace":
        p *= 1.0 + 1.2e-8 * (-1) ** seed
    return p


@pytest.mark.parametrize("fault", [None, "nan", "inf", "negative", "trace"])
@pytest.mark.parametrize("d", [2, 5, 16, 200])
def test_population_check_is_check_density_of_the_diagonal_matrix(d, fault):
    """Valid populations pass both checks, and each fault raises the same
    message from both, figures included: the trace is summed in the same
    order, and a diagonal matrix's eigenvalues are its diagonal."""
    for seed in range(4):
        p = _populations(d, seed, fault)
        if fault is None:
            assert check_populations(p, eig_tol=1e-8) is not None
            check_density(np.diag(p), eig_tol=1e-8)
            continue
        with pytest.raises(ValueError) as vec:
            check_populations(p, eig_tol=1e-8)
        with pytest.raises(ValueError) as mat:
            check_density(np.diag(p), eig_tol=1e-8)
        assert str(vec.value) == str(mat.value)
        assert {"nan": "non-finite", "inf": "non-finite", "negative": "eigenvalue",
                "trace": "trace"}[fault] in str(vec.value)


def test_is_diagonal(rng):
    for d in (1, 2, 5):
        A = np.diag(rng.standard_normal(d)).astype(complex)
        assert is_diagonal(A) and is_diagonal(np.stack([A, A]))
        for i in range(d):
            for j in range(d):
                if i != j:
                    B = A.copy()
                    B[i, j] = 1e-300j
                    assert not is_diagonal(B)
                    assert not is_diagonal(np.stack([[A, A], [A, B]]))
