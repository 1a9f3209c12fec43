import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindreach.linalg import (
    BUILT_EIG_TOL,
    EIG_TOL,
    _check_built,
    _check_state,
    _pnorm,
    apply_superop,
    check_density,
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
    require_dim,
    schatten_norm,
    span_residual,
    superop_from_action,
    tensor,
    trace_distance,
    vectorize,
)
from lindreach import linalg
from lindreach.lindblad import (JumpTerm, Lindbladian, _herm_coords,
                               _herm_matrix, chain_lindbladian, channel_superop,
                               propagate, replacer_lindbladian)
from lindreach.reach import (ResourceSetK, lowering_jump, porcupine_check,
                             reach_drive, replacer_overshoot, tan_schedule)
from lindreach.transport import (TransportPlan, Transposition, execute_plan,
                                 full_state_transport, plan_diagonal_transport,
                                 plan_states)
from lindreach.hormander import haar_unitary

from conftest import (random_complex, random_density, random_hermitian,
                      svd_schatten)

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


def _same_bits(a, b) -> bool:
    """Equal floats with the same sign (so 0.0 is not -0.0), or both NaN."""
    a, b = float(a), float(b)
    return (a != a and b != b) or (a == b and math.copysign(1, a) == math.copysign(1, b))


def _pnorm_numpy_form(s, p):
    """_pnorm's reduction in numpy, as it is applied to a stack."""
    n = s.max(-1, initial=0.0)
    if not np.isinf(p):
        r = s / np.where(n > 0, n, 1.0)[..., None]
        n = n * (r ** p).sum(-1) ** (1.0 / p)
    return n


_PNORM_PS = [1.5, 2.0, 3.0, 10.0, np.inf]
# entries of the nonnegative vectors _pnorm takes, with zeros, subnormals
# and the non-finite values among them
_pnorm_entries = st.one_of(
    st.floats(0, 1e300), st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2e-308,
                                          np.inf, -np.inf, np.nan]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 4).flatmap(lambda k: st.lists(
           st.lists(_pnorm_entries, min_size=k, max_size=k), min_size=1, max_size=4)),
       p=st.sampled_from(_PNORM_PS))
def test_pnorm_of_a_vector_matches_its_stack_row(rows, p):
    """A vector's p-norm is the numpy form on that vector, bit for bit (the
    root a numpy float64 power, which is libm's pow), and its max, division,
    powers and sum are those of its row in a stack. Only the root can move
    the last bits, since a stack takes it with numpy's power loop: row and
    vector agree bit for bit at p = inf, and within 4 ulp elsewhere."""
    S = np.array(rows)
    with np.errstate(all="ignore"):
        stack = _pnorm(S, p)
        for i, s in enumerate(S):
            got = _pnorm(s, p)
            assert type(got) is float
            assert _same_bits(got, _pnorm_numpy_form(s, p))
            if np.isinf(p):
                assert _same_bits(got, stack[i])
                continue
            m = S.max(-1, initial=0.0)
            total = ((S / np.where(m > 0, m, 1.0)[:, None]) ** p).sum(-1)[i]
            assert _same_bits(got, m[i] * float(total) ** (1.0 / p))
            if np.isfinite(got):
                assert abs(got - stack[i]) <= 4 * np.spacing(got)
            else:
                assert _same_bits(got, stack[i])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 6), real=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_apply_superop_is_the_vectorize_form(d, real, seed):
    """apply_superop(S, M) is devectorize(S @ vectorize(M), d) bit for bit,
    for a complex or a real M, and has its dtype and shape. Stacks of
    superoperators and of matrices broadcast in the one row product
    devectorize(vectorize(M) @ S^T, d), bit for bit, and each image is the
    single one to rounding."""
    rng = np.random.default_rng(seed)
    S = random_complex(rng, d * d)
    M = rng.standard_normal((d, d)) if real else random_complex(rng, d)
    Ms = np.stack([M, 2 * M, random_complex(rng, d)])
    Ss = np.stack([S, random_complex(rng, d * d)])
    for S_, M_ in ((S, M), (S, Ms), (Ss, M), (Ss, Ms)):
        got = apply_superop(S_, M_)
        ref = (devectorize(S @ vectorize(M), d) if S_.ndim == M_.ndim == 2
               else devectorize(vectorize(M_) @ S_.swapaxes(-1, -2), d))
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                              np.ascontiguousarray(ref).view(np.int64))
    images = apply_superop(Ss, Ms)
    for i, k in np.ndindex(len(Ss), len(Ms)):
        assert np.allclose(images[i, k], apply_superop(Ss[i], Ms[k]),
                           rtol=1e-12, atol=1e-12)


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
            assert _check_built(p) is p
            check_density(np.diag(p), BUILT_EIG_TOL)
            continue
        with pytest.raises(ValueError) as vec:
            _check_built(p)
        with pytest.raises(ValueError) as mat:
            check_density(np.diag(p), BUILT_EIG_TOL)
        assert str(vec.value) == str(mat.value)
        assert {"nan": "non-finite", "inf": "non-finite", "negative": "eigenvalue",
                "trace": "trace"}[fault] in str(vec.value)


def _outcome(check, *args):
    """check(*args), or the type and message of the exception it raises;
    any warning raises too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return check(*args)
        except (ValueError, RuntimeWarning) as exc:
            return type(exc), str(exc)


def _built_reference(x):
    """What _check_built tests x against: check_density at BUILT_EIG_TOL."""
    return check_density(x, BUILT_EIG_TOL)[0]


def _same_outcome(got, ref):
    if isinstance(ref, tuple):
        return got == ref
    return isinstance(got, np.ndarray) and np.array_equal(got, ref)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), d=st.integers(1, 5),
       built_by=st.sampled_from(["hermitize", "herm_matrix"]),
       fault=st.sampled_from([None, "trace", "negative", "nan", "inf", "-inf", "raw"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_built_density_check_matches_check_density(data, d, built_by, fault, seed):
    """On a matrix built exactly Hermitian, by hermitize or by
    lindblad._herm_matrix, _check_built returns the matrix check_density
    returns at BUILT_EIG_TOL, or raises its exception with its message: a
    trace off by 1e-6, an eigenvalue below -1e-8, a NaN or an infinite
    entry, or raw entries up to 1e300 in size. hermitize leaves such a
    matrix as it is, so the Hermiticity test it skips cannot fail."""
    rng = np.random.default_rng(seed)
    if fault == "raw":
        A = np.array(data.draw(st.lists(st.floats(-1e300, 1e300), min_size=2 * d * d,
                                        max_size=2 * d * d))).view(complex).reshape(d, d)
    else:
        w = rng.dirichlet(np.ones(d))
        if fault == "negative":
            # trace still 1; for d = 1 the trace test fails first
            w[0], w[-1] = -2e-8, w[-1] + w[0] + 2e-8
        U = haar_unitary(d, rng)
        A = (U * w) @ dag(U)          # Hermitian to rounding only
        if fault == "trace":
            A *= 1.0 + 1e-6 * rng.choice([-1, 1])
        elif fault in ("nan", "inf", "-inf"):
            A[tuple(rng.integers(d, size=2))] = float(fault)
    with np.errstate(invalid="ignore"):     # an infinite entry may make NaNs
        H = hermitize(A) if built_by == "hermitize" else _herm_matrix(_herm_coords(A))
    if np.isfinite(H).all():
        assert np.array_equal(hermitize(H), H)
    ref = _outcome(_built_reference, H)
    got = _outcome(_check_built, H)
    assert _same_outcome(got, ref)
    if not isinstance(ref, tuple):
        assert got is H
    expected = {"trace": "trace", "negative": "eigenvalue" if d > 1 else "trace",
                "nan": "non-finite", "inf": "non-finite", "-inf": "non-finite"}
    if fault in expected:
        assert expected[fault] in ref[1]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), d=st.integers(1, 8),
       fault=st.sampled_from([None, "nan", "inf", "-inf", "pair", "negative",
                              "raw"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_population_check_parity_without_warnings(data, d, fault, seed):
    """_check_built(p) returns p, or raises what check_density(diag(p))
    raises at BUILT_EIG_TOL, message included, with warnings made errors: a
    NaN, an inf, the pair [inf, -inf], a negative population, or any float
    entries."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(d))
    i, j = rng.integers(d, size=2)
    if fault in ("nan", "inf", "-inf"):
        p[i] = float(fault)
    elif fault == "pair":
        p = np.insert(p, [i, j], [np.inf, -np.inf])
    elif fault == "negative":
        p = np.append(p, -2e-8)
        p[0] += 2e-8
    elif fault == "raw":
        p = np.array(data.draw(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                                        min_size=1, max_size=8)))
    ref = _outcome(_built_reference, np.diag(p))
    got = _outcome(_check_built, p)
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert np.array_equal(got, p)


def test_eigh_check_takes_the_spectrum_test_from_its_eigh(rng):
    """check_density returns H = hermitize(rho), and with vectors eigh(H), and
    its spectrum test is that of check_density without vectors on the same
    least eigenvalue, to rounding: only the printed eigenvalue may differ in
    its last digits."""
    for d in (1, 2, 4, 7):
        rho = random_density(rng, d, rank=max(d - 2, 1))
        got, w, V = check_density(rho, vectors=True)
        w_ref, V_ref = np.linalg.eigh(check_density(rho)[0])
        assert np.array_equal(got, hermitize(rho))
        assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)
        assert check_density(rho)[2] is None
    bad = np.diag([1.0 + 3e-8, -3e-8]).astype(complex)
    # finite and Hermitian, but hermitize overflows the off-diagonal entries,
    # so the spectrum is NaN, which a test written lmin < -eig_tol passes;
    # the error is the only signal, with no overflow warning before it
    nan_spectrum = np.array([[0.5, 1.5e308], [1.5e308, 0.5]])
    for case, message in ((bad, "eigenvalue -3e-08 below"),
                          (bad * 2, "trace 2.0"), (np.ones((2, 3)), "square"),
                          (np.array([[0.5, 1.0], [0.0, 0.5]]), "Hermitian"),
                          (np.diag([np.nan, 1.0]), "non-finite"),
                          (nan_spectrum, "spectrum is not finite")):
        for vectors in (False, True):
            with pytest.raises(ValueError, match=message), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                check_density(case, vectors=vectors)


def _exactly_hermitian(A) -> bool:
    return np.array_equal(A, dag(A))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 2), size=st.floats(0.0, 0.9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_state_is_exactly_hermitian_from_its_check_on(k, size, seed):
    """Densities made inexactly Hermitian by an anti-Hermitian term inside
    check_density's Hermiticity tolerance: the checked state is
    hermitize(rho), and every state built from it, by a propagation, a reach
    step, a plan step (a leading transposition, unitaries and damps) or a
    replacer mixture, is exactly Hermitian. propagate gives the same bits
    for rho and for hermitize(rho)."""
    rng = np.random.default_rng(seed)
    d = 2 ** k

    def perturbed():
        # lambda_min >= 1/(2d), so the overshoot target below is a state
        rho = (random_density(rng, d) + np.eye(d) / d) / 2
        A = random_complex(rng, d)
        A = A - dag(A)
        # rho - rho^* = 2 c A, within the tolerance EIG_TOL for d <= 100
        return rho + size * EIG_TOL / (2 * np.max(np.abs(A))) * A

    rho, sigma = perturbed(), perturbed()
    checked = _check_state(rho, "rho")[0]
    assert _exactly_hermitian(checked)
    assert np.array_equal(checked, hermitize(rho))
    L = Lindbladian(d, hamiltonian=random_hermitian(rng, d),
                    jumps=[JumpTerm(random_complex(rng, d), 0.3)])
    out = propagate(L, rho, 0.2)
    assert _exactly_hermitian(out)
    assert np.array_equal(out, propagate(L, hermitize(rho), 0.2))
    K = ResourceSetK([lowering_jump(0, 1, d), replacer_lindbladian(sigma), L])
    rep = reach_drive(K, rho, sigma, dt=0.05, t_max=0.5)
    assert all(_exactly_hermitian(x) for x in rep.trajectory.states)
    full = full_state_transport(rho, sigma)
    plan = TransportPlan(k, [Transposition(0, d - 1), *full.steps])
    assert all(_exactly_hermitian(x) for x in plan_states(plan, rho))
    for path in (replacer_overshoot(rho, sigma, 0.05)["trajectory"],
                 tan_schedule(rho, sigma, 8)["trajectory"]):
        assert _exactly_hermitian(path.states)


def _message(f, *args, **kwargs):
    with pytest.raises(ValueError) as info:
        f(*args, **kwargs)
    return str(info.value)


def test_state_check_names_the_state(rng):
    """_check_state returns what check_density returns, raises its
    errors with the state's name before them, and tests the dimension it is
    given first."""
    rho = random_density(rng, 3)
    for vectors in (False, True):
        got = _check_state(rho, "rho", 3, vectors=vectors)
        ref = check_density(rho, vectors=vectors)
        for g, r in zip(got, ref):
            assert g is r is None or np.array_equal(g, r)
    bad = np.diag([1.0 + 3e-8, -3e-8]).astype(complex)
    for case in (bad, bad * 2, np.ones((2, 3)), np.diag([np.nan, 1.0]),
                 np.array([[0.5, 1.0], [0.0, 0.5]])):
        for vectors in (False, True):
            assert _message(_check_state, case, "sigma", vectors=vectors) == (
                "sigma: " + _message(check_density, case))
    assert _message(_check_state, bad * 2, "rho0", 3) == _message(
        require_dim, 3, rho0=bad)


def test_check_density_counts_each_caller_supplied_state_once(rng, monkeypatch):
    """Every caller-supplied state goes through linalg.check_density, the
    function the benchmark's tracer wraps, once; a state that a step builds
    is never counted: reach_drive checks rho0 and sigma, porcupine_check
    sigma, and execute_plan and propagate their input."""
    calls = []
    check = linalg.check_density

    def counting(rho, *args, **kwargs):
        calls.append(rho)
        return check(rho, *args, **kwargs)

    monkeypatch.setattr(linalg, "check_density", counting)
    sigma = random_density(rng, 3)
    K = ResourceSetK([replacer_lindbladian(sigma), chain_lindbladian([0.5, 0.3, 0.2])])
    lam = np.array([0.1, 0.2, 0.3, 0.4])
    plan = plan_diagonal_transport(lam, np.array([0.4, 0.3, 0.2, 0.1]), 2)

    def counted(run):
        calls.clear()
        out = run()
        return len(calls), out

    n, rep = counted(lambda: reach_drive(K, np.eye(3) / 3, sigma, dt=0.05, t_max=1.0))
    assert n == 2 and len(rep.trajectory.states) > 2
    assert counted(lambda: porcupine_check(K, sigma, 0.05, n_samples=50))[0] == 1
    n, states = counted(lambda: list(plan_states(plan, np.diag(lam))))
    assert n == 1 and len(states) == len(plan.steps) + 1 > 2
    assert counted(lambda: execute_plan(plan, np.diag(lam)))[0] == 1
    assert counted(lambda: propagate(K.generators[1], sigma, 0.3))[0] == 1


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
