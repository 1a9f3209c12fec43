import numpy as np
import pytest

from lindreach import dilation
from lindreach.dilation import (
    _dilation_step,
    _reduce,
    dilated_hamiltonian,
    dilation_error_vs_exact,
    mixture_vs_semigroup_error,
    prep_channel,
    reduced_generator,
    simulate_dissipator_via_dilation,
    unitary_mixture_step,
)
from lindreach.linalg import (
    apply_superop,
    dag,
    is_cp,
    is_tp,
    mat_exp,
    partial_trace,
    schatten_norm,
    superop_from_action,
    tensor,
)
from lindreach.lindblad import dissipator

from conftest import random_complex, random_density, random_hermitian

LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_dilated_hamiltonian_blocks():
    H = dilated_hamiltonian(LOWER)
    assert np.max(np.abs(H - H.conj().T)) <= 1e-12
    # environment-block structure [[0, a], [a^*, 0]] after reordering:
    # entries couple |j>|0> with a|j>|1>
    assert np.isclose(H[1, 0], 0.0)  # no coupling inside the same E sector


def test_dilated_hamiltonian_is_the_kron_form_exactly_hermitian(rng):
    """The two strided blocks are a (x) |1><0| + a^* (x) |0><1|, and the
    matrix equals its adjoint bit for bit."""
    e10 = np.array([[0, 0], [1, 0]], dtype=complex)
    for d in (1, 2, 3, 5):
        a = random_complex(rng, d)
        H = dilated_hamiltonian(a)
        assert np.array_equal(H, tensor(a, e10) + tensor(dag(a), dag(e10)))
        assert np.array_equal(H, dag(H))


def test_prep_channel(rng):
    rho = random_density(rng, 2)
    big = prep_channel(rho)
    assert np.allclose(partial_trace(big, [2, 2], [0]), rho)
    e00 = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(big, tensor(rho, e00))


def test_reduced_generator_zero():
    assert np.max(np.abs(reduced_generator(np.zeros((2, 2))))) <= 1e-12


def test_reduced_generator_matches_dissipator(rng):
    assert np.max(np.abs(reduced_generator(LOWER) - dissipator(LOWER))) <= 1e-12
    for d in (2, 3, 4):
        for _ in range(5):
            a = random_complex(rng, d)
            assert np.max(np.abs(reduced_generator(a) - dissipator(a))) <= 1e-12


def test_unitary_mixture_identity_at_zero():
    assert np.allclose(unitary_mixture_step(Z, 0.0), np.eye(4))


def test_unitary_mixture_cptp(rng):
    H = np.array([[0.3, 0.5 - 0.2j], [0.5 + 0.2j, -0.1]])
    for t in (0.1, 1.0, 4.0):
        S = unitary_mixture_step(H, t)
        assert is_cp(S) and is_tp(S)


def mixture_reference(H, t):
    """Unitary mixture probed on matrix units, as the pipeline once built it."""
    U = mat_exp(1j * np.sqrt(2 * t) * H)
    return superop_from_action(
        lambda rho: 0.5 * (U @ rho @ dag(U) + dag(U) @ rho @ U), H.shape[0])


def test_unitary_mixture_matches_action_reference(rng):
    for d in (2, 3, 4):
        H = random_hermitian(rng, d)
        for t in (0.0, 0.01, 0.3, 2.0):
            ref = mixture_reference(H, t)
            assert np.max(np.abs(unitary_mixture_step(H, t) - ref)) <= 1e-12


def test_trotter_dilation_matches_prep_trace_reference(rng):
    for d in (2, 3, 4):
        a = random_complex(rng, d)
        H = dilated_hamiltonian(a)
        for t, n in ((0.4, 1), (1.0, 3), (0.7, 16)):
            M = mixture_reference(H, t / n)
            step = superop_from_action(
                lambda rho: partial_trace(apply_superop(M, prep_channel(rho)),
                                          [d, 2], [0]), d)
            ref = np.linalg.matrix_power(step, n)
            S = simulate_dissipator_via_dilation(a, t, n)
            assert np.max(np.abs(S - ref)) <= 1e-12


def test_kraus_step_matches_reduced_dilated_channel(rng):
    """One Trotter step from the four d x d Kraus blocks is, within 1e-14,
    the partial trace of the (2d)^2 x (2d)^2 unitary mixture it replaces."""
    for d in (2, 3, 4, 5):
        for _ in range(4):
            a = random_complex(rng, d)
            t, n = rng.uniform(0.1, 2.0), int(rng.integers(1, 300))
            ref = _reduce(unitary_mixture_step(dilated_hamiltonian(a), t / n), d)
            assert np.max(np.abs(_dilation_step(a, t / n) - ref)) <= 1e-14


def test_mixture_error_slope():
    ts = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    errs = np.array([mixture_vs_semigroup_error(Z, t) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_trotter_dilation_identity_at_zero():
    S = simulate_dissipator_via_dilation(LOWER, 0.0, 8)
    assert np.max(np.abs(S - np.eye(4))) <= 1e-12


def test_trotter_dilation_cptp():
    S = simulate_dissipator_via_dilation(LOWER, 1.0, 64)
    assert is_cp(S) and is_tp(S)


def test_trotter_dilation_convergence():
    ns = [64, 128, 256]
    errs = dict(zip(ns, dilation_error_vs_exact(LOWER, 1.0, ns)))
    assert errs[128] < errs[64] and errs[256] < errs[128]
    for n in (64, 128):
        ratio = errs[n] / errs[2 * n]
        assert 1.6 <= ratio <= 2.4


def test_trotter_dilation_accuracy():
    assert dilation_error_vs_exact(LOWER, 1.0, [4096])[0] <= 1e-3


def test_choi_matrices_given_to_schatten_norm_are_hermitian(rng, monkeypatch):
    """schatten_norm takes Hermitian input; both error reports give it the
    Choi matrix of a difference of Hermiticity-preserving maps."""
    seen = []

    def spy(A, p):
        seen.append(np.asarray(A))
        return schatten_norm(A, p)

    monkeypatch.setattr(dilation, "schatten_norm", spy)
    for d in (2, 3, 4):
        mixture_vs_semigroup_error(random_hermitian(rng, d), 0.3)
        dilation_error_vs_exact(random_complex(rng, d), 0.7, [16])
    assert len(seen) == 6
    for J in seen:
        assert np.max(np.abs(J - dag(J))) <= 1e-12
