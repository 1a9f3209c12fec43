# Environment-assisted simulation: one-qubit dilation Hamiltonians, the
# prep / partial-trace pipeline and unitary-mixture approximation of
# dissipative semigroups.

from __future__ import annotations

import math

import numpy as np

from .linalg import (choi, dag, hermitize, kron_superop, mat_exp,
                     require_nonnegative, schatten_norm, tensor)
from .lindblad import JumpTerm, Lindbladian, channel_superop, dissipator


def dilated_hamiltonian(a: np.ndarray) -> np.ndarray:
    """The Hermitian H_AE = a (x) |1><0|_E + a^* (x) |0><1|_E on system (x)
    environment qubit.

    In the environment-block picture this is [[0, a], [a^*, 0]] with the
    block adjoint placement fixed by the reduction identity
    tr_E(L_H(rho (x) |0><0|)) = D_a(rho).
    """
    a = np.asarray(a, dtype=complex)
    e10 = np.array([[0, 0], [1, 0]], dtype=complex)
    H = tensor(a, e10) + tensor(dag(a), dag(e10))
    return hermitize(H)


def prep_channel(rho_A: np.ndarray) -> np.ndarray:
    """rho_A (x) |0><0| on system (x) environment."""
    e00 = np.zeros((2, 2), dtype=complex)
    e00[0, 0] = 1.0
    return tensor(np.asarray(rho_A, dtype=complex), e00)


def _reduce(S: np.ndarray, d: int) -> np.ndarray:
    """Superoperator of rho -> tr_E S(rho (x) |0><0|) for S on system (x) qubit.

    S.reshape(D, D, D, D) has the axes (col out, row out, col in, row in) under
    column stacking, and each axis splits as (system, environment).
    """
    T = S.reshape(d, 2, d, 2, d, 2, d, 2)[..., 0, :, 0]
    return np.einsum("aebecg->abcg", T).reshape(d * d, d * d)


def reduced_generator(a: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> tr_E(L_{H_AE}(prep(rho))); equals
    dissipator(a) exactly."""
    a = np.asarray(a, dtype=complex)
    return _reduce(dissipator(dilated_hamiltonian(a)), a.shape[0])


def unitary_mixture_step(H: np.ndarray, t: float) -> np.ndarray:
    """Superoperator of (Ad_{exp(i sqrt(2t) H)} + Ad_{exp(-i sqrt(2t) H)})/2."""
    require_nonnegative(t=t)
    U = mat_exp(1j * math.sqrt(2 * t) * np.asarray(H, dtype=complex))
    return 0.5 * (kron_superop(U, dag(U)) + kron_superop(dag(U), U))


def _semigroup(a: np.ndarray, t: float) -> np.ndarray:
    """exp(t D_a) as a superoperator, by lindblad.channel_superop."""
    return channel_superop(Lindbladian(len(a), jumps=[JumpTerm(a, 1.0)]), t)


def mixture_vs_semigroup_error(H: np.ndarray, t: float) -> float:
    """Choi trace-norm distance between the unitary mixture and exp(t D_H)."""
    diff = unitary_mixture_step(H, t) - _semigroup(H, t)
    return schatten_norm(choi(diff), 1.0)


def simulate_dissipator_via_dilation(a: np.ndarray, t: float,
                                     n_trotter: int) -> np.ndarray:
    """n-fold composition of tr_E o unitary_mixture_step(H_AE, t/n) o prep,
    as a superoperator on the system; converges to exp(t dissipator(a))."""
    if n_trotter < 1:
        raise ValueError("n_trotter must be at least 1")
    a = np.asarray(a, dtype=complex)
    M = unitary_mixture_step(dilated_hamiltonian(a), t / n_trotter)
    return np.linalg.matrix_power(_reduce(M, a.shape[0]), n_trotter)


def dilation_error_vs_exact(a: np.ndarray, t: float,
                            counts: list[int]) -> list[float]:
    """Choi trace-norm distance of the Trotterized dilation from the closed
    form exp(t dissipator(a)), one per Trotter count; the closed form is
    formed once."""
    # the dilations first: they reject a bad t before exp(t D) is formed
    approx = [simulate_dissipator_via_dilation(a, t, n) for n in counts]
    if not all(np.all(np.isfinite(M)) for M in approx):
        raise ValueError("t must be small enough for both channels to be "
                         f"finite; t = {t} overflows")
    exact = _semigroup(a, t)
    return [schatten_norm(choi(M - exact), 1.0) for M in approx]
