# GKSL generators and derived channels: construction, exponentiation,
# stationarity analysis and gradient forms.

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.linalg as sla

from .linalg import (
    EIG_TOL,
    SPAN_TOL,
    apply_superop,
    check_density,
    choi,
    dag,
    devectorize,
    extend_basis,
    hermitize,
    is_hermitian,
    mat_exp,
    require_dim,
    require_nonnegative,
    span_residual,
    vectorize,
)

NULL_TOL = 1e-9


def _frozen(a) -> np.ndarray:
    """A read-only complex copy of a; the caller's array stays writable."""
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class JumpTerm:
    a: np.ndarray
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "a", _frozen(self.a))
        if not 0 <= self.rate < np.inf:
            raise ValueError(f"jump rate {self.rate} is not finite and nonnegative")


@dataclass(frozen=True)
class BilinearTerm:
    ops: tuple[np.ndarray, ...]
    kossakowski: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(_frozen(a) for a in self.ops))
        object.__setattr__(self, "kossakowski", _frozen(self.kossakowski))
        g = self.kossakowski
        m = len(self.ops)
        if g.shape != (m, m):
            raise ValueError(f"Kossakowski matrix shape {g.shape} does not "
                             f"match {m} bilinear ops")
        if np.any(np.abs(g - dag(g)) > 1e-10 * max(1, m)):
            raise ValueError("Kossakowski matrix must be Hermitian")
        if np.any(np.linalg.eigvalsh(g) < -EIG_TOL):
            raise ValueError("Kossakowski matrix must be PSD")


@dataclass(frozen=True)
class Lindbladian:
    """An immutable GKSL generator: every operator is a read-only copy, so
    the superoperator computed on first use stays valid for its lifetime."""
    dim: int
    hamiltonian: np.ndarray | None = None
    jumps: tuple[JumpTerm, ...] = ()
    bilinear: BilinearTerm | None = None

    def __post_init__(self):
        H = self.hamiltonian
        object.__setattr__(self, "hamiltonian", _frozen(
            np.zeros((self.dim, self.dim)) if H is None else H))
        object.__setattr__(self, "jumps", tuple(self.jumps))
        if self.hamiltonian.shape != (self.dim, self.dim):
            raise ValueError("Hamiltonian dimension mismatch")
        if not is_hermitian(self.hamiltonian, 1e-10 * max(1, self.dim)):
            raise ValueError("Hamiltonian must be Hermitian")
        for j in self.jumps:
            if j.a.shape != (self.dim, self.dim):
                raise ValueError("jump operator dimension mismatch")
        if self.bilinear is not None:
            for a in self.bilinear.ops:
                if a.shape != (self.dim, self.dim):
                    raise ValueError("bilinear.ops operator dimension mismatch")

    @cached_property
    def superop(self) -> np.ndarray:
        """Read-only GKSL superoperator with Kossakowski matrix diag(rates)
        (+) bilinear, computed on first use."""
        ops = [j.a for j in self.jumps]
        g = np.diag([j.rate for j in self.jumps])
        if self.bilinear is not None:
            ops += self.bilinear.ops
            g = sla.block_diag(g, self.bilinear.kossakowski)
        S = _gksl(self.hamiltonian, ops, g)
        S.setflags(write=False)
        return S

    @cached_property
    def real_superop(self) -> np.ndarray:
        """Read-only real d^2 x d^2 matrix of the generator in the
        orthonormal Hermitian basis (_real_form of build(self)), computed on
        first use."""
        R = _real_form(build(self))
        R.setflags(write=False)
        return R


@cache
def _basis_maps(d: int):
    """T, whose columns are the column-stacked orthonormal Hermitian basis
    E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2 for i < j (in triu
    order), and T^*, each as two terms per row: M = (index, coef) has
    (M X)[r] = coef[0, r] X[index[0, r]] + coef[1, r] X[index[1, r]]. A
    diagonal entry is split into two halves."""
    i, j = np.triu_indices(d, 1)
    m = len(i)
    diag, a, b = np.arange(d) * (d + 1), i + j * d, j + i * d   # vec positions of E_ii, E_ij, E_ji
    re, im = d + np.arange(m), d + m + np.arange(m)            # coordinates of the pair (i, j)
    s = 1 / math.sqrt(2)
    index, coef = np.empty((2, d * d), dtype=int), np.empty((2, d * d), dtype=complex)
    index[:, diag], coef[:, diag] = np.arange(d), 0.5
    index[:, a] = index[:, b] = re, im
    coef[:, a], coef[:, b] = [[s], [1j * s]], [[s], [-1j * s]]
    # row k of T^* is the conjugate of column k of T
    adj_index, adj_coef = np.empty_like(index), np.empty_like(coef)
    adj_index[:, :d], adj_coef[:, :d] = diag, 0.5
    adj_index[:, re] = adj_index[:, im] = a, b
    adj_coef[:, re], adj_coef[:, im] = s, [[-1j * s], [1j * s]]
    adjoint = adj_index, adj_coef
    for M in (index, coef, *adjoint):
        M.setflags(write=False)
    return (index, coef), adjoint


def _times(M, X: np.ndarray, conj: bool = False) -> np.ndarray:
    """M X along X's first axis for M = (index, coef) of _basis_maps, or
    conj(M) X."""
    index, coef = M
    if conj:
        coef = coef.conj()
    return coef[0][:, None] * X[index[0]] + coef[1][:, None] * X[index[1]]


def _real_form(S: np.ndarray) -> np.ndarray:
    """Re(T^* S T) = Re(T^* (T^T S^T)^T): a Hermiticity-preserving
    superoperator S in the orthonormal Hermitian basis, where it is real up
    to rounding."""
    _, adjoint = _basis_maps(math.isqrt(len(S)))
    return _times(adjoint, _times(adjoint, S.T, conj=True).T).real


def _gksl(H: np.ndarray, ops: list[np.ndarray], g: np.ndarray) -> np.ndarray:
    """Superoperator of
    rho -> -i[H, rho] + sum_jk g_jk (2 a_j rho a_k^* - a_k^*a_j rho - rho a_k^*a_j).

    With G = sum_jk g_jk a_k^*a_j this is rho -> K rho + rho M + 2 sum_jk
    g_jk a_j rho a_k^* for K = -iH - G and M = iH - G (M = K^* when g is
    Hermitian). As choi(rho -> a rho b^*) = vec(a) vec(b)^* and choi is its
    own inverse, it is the choi of vec(K) vec(I)^* + vec(I) vec(M^*)^*
    + 2 V g V^*, where V has the columns vec(a_j).
    """
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    A = np.asarray(ops, dtype=complex).reshape(-1, d, d)
    # G = [a_1^* ... a_m^*] @ [b_1; ...; b_m] with b_k = sum_j g_jk a_j
    G = dag(A.reshape(-1, d)) @ (g.T @ A.reshape(len(A), d * d)).reshape(-1, d)
    V = vectorize(A).T
    one = vectorize(np.eye(d))
    return choi(np.outer(vectorize(-1j * H - G), one)
                + np.outer(one, vectorize(dag(1j * H - G)).conj())
                + 2 * V @ g @ dag(V))


def dissipator(a: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> 2 a rho a^* - a^*a rho - rho a^*a."""
    return _gksl(np.zeros_like(a), [a], np.eye(1))


def bilinear_dissipator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sesquilinear dissipator rho -> 2 a rho b^* - b^*a rho - rho b^*a.

    The diagonal piece equals dissipator(a); a PSD-weighted sum over a family
    of operators is a valid GKSL dissipative part, and the sum rule
    L_{a+b} = L_{a,a} + L_{b,b} + L_{a,b} + L_{b,a} holds.
    """
    return _gksl(np.zeros_like(a), [a, b], np.array([[0.0, 1.0], [0.0, 0.0]]))


def build(L: Lindbladian) -> np.ndarray:
    """L's superoperator, built once per generator (Lindbladian.superop)."""
    return L.superop


def apply(L: Lindbladian, rho: np.ndarray) -> np.ndarray:
    return apply_superop(build(L), rho)


def _real_channel(L: Lindbladian, t: float) -> np.ndarray:
    """exp(t L) in the orthonormal Hermitian basis, a real matrix, for a
    finite nonnegative t small enough for it to be finite; an error names t
    otherwise. The one place exp(t L) is formed."""
    require_nonnegative(t=t)
    P = mat_exp(t * L.real_superop)
    if not np.all(np.isfinite(P)):
        raise ValueError("t must be small enough for exp(t L) to be finite; "
                         f"t = {t} overflows")
    return P


def channel_superop(L: Lindbladian, t: float) -> np.ndarray:
    """exp(t L) as a superoperator: T P T^* = T (conj(T) P^T)^T for the
    real P = _real_channel."""
    T, _ = _basis_maps(L.dim)
    return _times(T, _times(T, _real_channel(L, t).T, conj=True).T)


@cache
def _coord_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions, in the float view of a row-major complex d x d matrix, of
    Re rho_ii, Re rho_ij and Im rho_ij for i < j (in _basis_maps' order),
    and the weights (1 and sqrt2) that make them coordinates in the
    orthonormal Hermitian basis."""
    i, j = np.triu_indices(d, 1)
    diag, upper = np.arange(d) * (d + 1), i * d + j
    index = np.concatenate([2 * diag, 2 * upper, 2 * upper + 1])
    weight = np.repeat([1.0, math.sqrt(2)], [d, d * d - d])
    for a in (index, weight):
        a.setflags(write=False)
    return index, weight


def _herm_coords(rho: np.ndarray) -> np.ndarray:
    """Real coordinates of rho in the orthonormal Hermitian basis:
    (rho_ii, sqrt2 Re rho_ij, sqrt2 Im rho_ij) for i < j, read from the
    diagonal and the upper triangle."""
    index, weight = _coord_index(len(rho))
    return np.ascontiguousarray(rho, dtype=complex).reshape(-1).view(float)[index] * weight


def _herm_matrix(x: np.ndarray) -> np.ndarray:
    """The exactly Hermitian matrix with coordinates x (_herm_coords): U + U^*
    for U holding half the diagonal and the upper triangle."""
    d = math.isqrt(len(x))
    index, weight = _coord_index(d)
    U = np.zeros((d, d), dtype=complex)
    U.reshape(-1).view(float)[index] = x * (weight / 2)
    return U + dag(U)


def _evolve(L: Lindbladian, rho: np.ndarray, t: float) -> np.ndarray:
    """exp(t L) applied, in real coordinates, to the Hermitian matrix with
    rho's diagonal and upper triangle; the result is exactly Hermitian."""
    return _herm_matrix(_real_channel(L, t) @ _herm_coords(rho))


def propagate(L: Lindbladian, rho: np.ndarray, t: float) -> np.ndarray:
    """exp(t L) applied to rho, revalidated as a density matrix."""
    rho = check_density(rho)
    require_dim(L.dim, rho=rho)
    return _propagate_checked(L, rho, t)


def _propagate_checked(L: Lindbladian, rho: np.ndarray, t: float) -> np.ndarray:
    """propagate for a rho already checked as a density matrix of L's
    dimension."""
    return check_density(_evolve(L, rho, t), eig_tol=1e-8)


def _lower(i: int, j: int, d: int) -> np.ndarray:
    a = np.zeros((d, d), dtype=complex)
    a[i, j] = 1.0
    return a


def chain_lindbladian(mu: np.ndarray) -> Lindbladian:
    """Nearest-neighbour detailed-balance chain with stationary state diag(mu)."""
    mu = np.asarray(mu, dtype=float)
    d = len(mu)
    if np.any(mu <= 0):
        raise ValueError("mu entries must be strictly positive")
    jumps = []
    for r in range(d - 1):
        beta_r = mu[r] / mu[r + 1]
        jumps.append(JumpTerm(_lower(r, r + 1, d), beta_r ** 0.5))
        jumps.append(JumpTerm(_lower(r + 1, r, d), beta_r ** -0.5))
    return Lindbladian(d, jumps=jumps)


def replacer_lindbladian(sigma: np.ndarray) -> Lindbladian:
    """R_sigma - id as a jump-operator Lindbladian.

    Kraus operators of R_sigma are sqrt(l_i) |v_i><j|; with the factor-2
    dissipator each enters at rate 1/2.
    """
    sigma = check_density(sigma)
    d = sigma.shape[0]
    w, V = np.linalg.eigh(hermitize(sigma))
    keep = w > 1e-15
    # K[i, j] = sqrt(l_i) |v_i><j|, i-major over the kept eigenvalues
    K = np.einsum("ai,jb->ijab", V[:, keep] * np.sqrt(w[keep]), np.eye(d))
    return Lindbladian(d, jumps=[JumpTerm(k, 0.5) for k in K.reshape(-1, d, d)])


def _kernel_basis(S: np.ndarray) -> np.ndarray:
    _, s, Vh = np.linalg.svd(S)
    return Vh[s <= NULL_TOL * max(1.0, s[0])].conj().T  # columns span the kernel


def stationary_states(L: Lindbladian) -> list[np.ndarray]:
    """Extreme stationary densities: kernel of the superoperator intersected
    with the density cone by iterated projection from matrix-unit seeds."""
    S = build(L)
    d = L.dim
    K = _kernel_basis(S)
    if K.shape[1] == 0:
        return []
    # orthogonal projector onto the kernel, as acting on vectorized operators
    P = K @ dag(K)

    def proj_kernel(M):
        return devectorize(P @ vectorize(M), d)

    found: list[np.ndarray] = []
    seeds = [np.eye(d) / d] + [_lower(i, i, d) for i in range(d)]
    for seed in seeds:
        M = proj_kernel(seed)
        ok = False
        for _ in range(500):
            M = hermitize(M)
            w, V = np.linalg.eigh(M)
            Mp = (V * np.clip(w, 0, None)) @ dag(V)
            tr = np.trace(Mp).real
            if tr < 1e-12:
                break
            Mp = Mp / tr
            M2 = proj_kernel(Mp)
            if np.max(np.abs(M2 - Mp)) < 1e-12:
                M = M2
                ok = True
                break
            M = M2
        if not ok:
            continue
        M = hermitize(M / np.trace(M).real)
        if all(np.max(np.abs(M - F)) > 1e-8 for F in found):
            found.append(M)
    # keep a linearly independent basis, preferring extreme (low-rank) states
    found.sort(key=lambda F: int(np.sum(np.linalg.eigvalsh(F) > 1e-8)))
    kept: list[np.ndarray] = []
    basis = np.zeros((0, d, d), dtype=complex)
    for F in found:
        if span_residual(basis, F) > SPAN_TOL:
            kept.append(F)
            basis = extend_basis(basis, F[None])
    return kept


def spectral_gap(L: Lindbladian) -> float:
    ev = np.linalg.eigvals(build(L))
    nz = ev[np.abs(ev) > NULL_TOL]
    if nz.size == 0:
        return 0.0
    return float(np.min(-nz.real))


def unital_fixed_point_check(L: Lindbladian) -> bool:
    """Whether L(I/d) = 0, up to rounding that grows with the generator's
    scale: 1e-11 max(1, max|S|)."""
    S = build(L)
    d = L.dim
    residual = np.max(np.abs(apply_superop(S, np.eye(d) / d)))
    return bool(residual <= 1e-11 * max(1.0, np.max(np.abs(S))))


def gamma_form(L: Lindbladian, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient form Gamma(x, y) = L(x^*y) - L(x)^*y - x^*L(y) with L acting
    in the Heisenberg picture: dag(build(L)), the adjoint under the trace
    pairing <A,B> = tr(A^*B)."""
    require_dim(L.dim, x=x, y=y)
    Sh = dag(build(L))
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return (apply_superop(Sh, dag(x) @ y) - dag(apply_superop(Sh, x)) @ y
            - dag(x) @ apply_superop(Sh, y))


def gamma_span_criterion(a: np.ndarray, basis: list[np.ndarray]) -> bool:
    """Whether a lies in the complex span of {1, b_1, ..., b_m}, which is the
    real span of {1, b_i, i 1, i b_i}."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    ops = np.concatenate([np.eye(d)[None], np.reshape(basis, (-1, d, d))])
    span = extend_basis(np.zeros((0, d, d), dtype=complex),
                        np.concatenate([ops, 1j * ops]))
    return span_residual(span, a) < SPAN_TOL

