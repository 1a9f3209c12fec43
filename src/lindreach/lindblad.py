# GKSL generators and derived channels: construction, exponentiation,
# stationarity analysis and gradient forms.

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    EIG_TOL,
    SPAN_TOL,
    _check_built,
    _check_state,
    apply_superop,
    choi,
    dag,
    extend_basis,
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
        rates = [j.rate for j in self.jumps]
        g = np.diag(rates)
        if self.bilinear is not None:
            ops += self.bilinear.ops
            g = np.pad(self.bilinear.kossakowski, (len(rates), 0))
            g[:len(rates), :len(rates)] = np.diag(rates)
        S = _gksl(self.hamiltonian, ops, g)
        S.setflags(write=False)
        return S

    @cached_property
    def real_superop(self) -> np.ndarray:
        """Read-only real d^2 x d^2 matrix of the generator in the basis
        F_ij (_real_form of build(self)), computed on first use."""
        R = _real_form(build(self))
        R.setflags(write=False)
        return R


# F_ij = W E_ij + conj(W) E_ji is Hermitian, F_ii = E_ii, and the F_ij form an
# orthonormal basis of the d x d matrices; the real coordinate of a Hermitian
# rho on F_ij is tr(F_ij rho) = Re rho_ij + Im rho_ij
W = (1 + 1j) / 2


def _pair(X: np.ndarray, w: complex, axes: tuple[int, int] = (0, 1)) -> np.ndarray:
    """w X + conj(w) X with the given two axes swapped. Over those axes, for
    w = W it is sum_kl X_kl F_kl, and for w = conj(W) the coordinates
    tr(F_kl X)."""
    return w * X + w.conjugate() * X.swapaxes(*axes)


def _real_form(S: np.ndarray) -> np.ndarray:
    """Re tr(F_ij S(F_kl)) = Re(W S(F_kl)_ji + conj(W) S(F_kl)_ij): a
    Hermiticity-preserving superoperator S in the basis F_ij, where it is
    real up to rounding. Re(W z) = (Re z - Im z)/2 and Re(conj(W) z) =
    (Re z + Im z)/2, so only the real parts are formed."""
    d = math.isqrt(len(S))
    S4 = S.reshape(d, d, d, d).transpose(1, 0, 3, 2)   # S4[a, b, k, l] = S(E_kl)_ab
    A = _pair(S4, W, (2, 3))                           # A[a, b, k, l] = S(F_kl)_ab
    R = (A.real + A.imag) + (A.real - A.imag).transpose(1, 0, 2, 3)
    R *= 0.5
    return R.reshape(d * d, d * d)


def _gksl(H: np.ndarray, ops: list[np.ndarray], g: np.ndarray) -> np.ndarray:
    """Superoperator of
    rho -> -i[H, rho] + sum_jk g_jk (2 a_j rho a_k^* - a_k^*a_j rho - rho a_k^*a_j).

    With G = sum_jk g_jk a_k^*a_j this is rho -> K rho + rho M + 2 sum_jk
    g_jk a_j rho a_k^* for K = -iH - G and M = iH - G (M = K^* when g is
    Hermitian). As choi(rho -> a rho b^*) = vec(a) vec(b)^* and choi is its
    own inverse, it is the choi of vec(K) vec(I)^* + vec(I) vec(M^*)^*
    + 2 V g V^*, where V has the columns vec(a_j). A non-finite one is
    refused here, where every GKSL superoperator is formed.
    """
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    A = np.asarray(ops, dtype=complex).reshape(-1, d, d)
    # an overflow is the error below, not a warning before it
    with np.errstate(over="ignore", invalid="ignore"):
        # G = [a_1^* ... a_m^*] @ [b_1; ...; b_m] with b_k = sum_j g_jk a_j
        G = dag(A.reshape(-1, d)) @ (g.T @ A.reshape(len(A), d * d)).reshape(-1, d)
        V = vectorize(A).T
        one = vectorize(np.eye(d))
        S = choi(np.outer(vectorize(-1j * H - G), one)
                 + np.outer(one, vectorize(dag(1j * H - G)).conj())
                 + 2 * V @ g @ dag(V))
    if not np.isfinite(S).all():
        raise ValueError("generator superoperator is not finite: operators "
                         "and rates must be finite, with rate * a^*a finite")
    return S


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
    """exp(t L) in the basis F_ij, a real matrix, for a finite nonnegative t
    small enough for it to be finite; an error names t otherwise. The one
    place exp(t L) is formed."""
    require_nonnegative(t=t)
    # an overflow is the error below, not a warning before it
    with np.errstate(over="ignore", invalid="ignore"):
        P = mat_exp(t * L.real_superop)
    if not np.isfinite(P).all():
        raise ValueError("t must be small enough for exp(t L) to be finite; "
                         f"t = {t} overflows")
    return P


def channel_superop(L: Lindbladian, t: float) -> np.ndarray:
    """exp(t L) as a superoperator: sum_ijkl F_ij P[ij, kl] tr(F_kl .) for the
    real P = _real_channel."""
    d = L.dim
    P4 = _real_channel(L, t).reshape(d, d, d, d)
    # C[a, b, c, e] is the coefficient of X_ce in the channel's output at ab
    C = _pair(_pair(P4, W.conjugate(), (2, 3)), W)
    return C.transpose(1, 0, 3, 2).reshape(d * d, d * d)


def _herm_coords(rho: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian rho in the basis F_ij, in row-major
    order: tr(F_ij rho) = Re rho_ij + Im rho_ij."""
    return (rho.real + rho.imag).reshape(-1)


def _herm_matrix(x: np.ndarray) -> np.ndarray:
    """The exactly Hermitian matrix with coordinates x (_herm_coords): W Q +
    conj(W) Q^T for Q = x as d x d, whose entries ij and ji add the same two
    halves. Its diagonal is x_ii unless halving x_ii rounds (a subnormal)."""
    d = math.isqrt(len(x))
    return _pair(x.reshape(d, d), W)


def _evolve(L: Lindbladian, rho: np.ndarray, t: float) -> np.ndarray:
    """exp(t L) applied to a Hermitian rho in real coordinates; the result is
    exactly Hermitian."""
    return _herm_matrix(_real_channel(L, t) @ _herm_coords(rho))


def propagate(L: Lindbladian, rho: np.ndarray, t: float) -> np.ndarray:
    """exp(t L) applied to rho, revalidated as a density matrix."""
    return _propagate_checked(L, _check_state(rho, "rho", L.dim)[0], t)


def _propagate_checked(L: Lindbladian, rho: np.ndarray, t: float) -> np.ndarray:
    """propagate for a rho already checked as a density matrix of L's
    dimension; the state it builds is exactly Hermitian, so its check skips
    the Hermiticity test (_check_built)."""
    return _check_built(_evolve(L, rho, t))


def _require_index(d: int, *indices: int) -> None:
    """Raise naming the first index outside 0..d-1."""
    for i in indices:
        if not 0 <= i < d:
            raise ValueError(f"index {i} is outside 0..{d - 1}")


def _lower(i: int, j: int, d: int) -> np.ndarray:
    _require_index(d, i, j)
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
    sigma, w, V = _check_state(sigma, "sigma", vectors=True)
    d = sigma.shape[0]
    keep = w > 1e-15
    # K[i, j] = sqrt(l_i) |v_i><j|, i-major over the kept eigenvalues
    K = np.einsum("ai,jb->ijab", V[:, keep] * np.sqrt(w[keep]), np.eye(d))
    return Lindbladian(d, jumps=[JumpTerm(k, 0.5) for k in K.reshape(-1, d, d)])


def stationary_states(L: Lindbladian) -> list[np.ndarray]:
    """Stationary densities, low rank first: the seeds I/d and |i><i|, as
    coordinates c in the basis F_ij, projected once onto the kernel
    U(0 (+) sum_k M_{n_k} (x) omega_k)U* of real_superop (Baumgartner and
    Narnhofer, Rev. Math. Phys. 24, 2012) as K^T (K c), which maps PSD to PSD,
    with rounding clipped and the trace normalized. A state that a second
    projection moves by 1e-12 is skipped."""
    d = L.dim
    _, s, Vh = np.linalg.svd(L.real_superop)
    K = Vh[s <= NULL_TOL * max(1.0, s[0])]  # orthonormal rows span the kernel
    E = np.eye(d * d)[::d + 1]              # the |i><i|; their mean is I/d
    found: list[np.ndarray] = []
    for c in [E.mean(0), *E]:
        w, V = np.linalg.eigh(_herm_matrix(K.T @ (K @ c)))
        M = (V * np.clip(w, 0, None)) @ dag(V)
        tr = np.trace(M).real
        if tr < 1e-12:
            continue
        M = M / tr
        M2 = _herm_matrix(K.T @ (K @ _herm_coords(M)))
        if np.max(np.abs(M2 - M)) >= 1e-12:
            continue
        M = M2 / np.trace(M2).real
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
    ev = np.linalg.eigvals(L.real_superop)
    nz = ev[np.abs(ev) > NULL_TOL]
    if nz.size == 0:
        return 0.0
    return float(np.min(-nz.real))


def unital_fixed_point_check(L: Lindbladian) -> bool:
    """Whether L(I/d) = 0, up to rounding that grows with the generator's
    scale: R(c) within 1e-11 max(1, max|R|) for R = real_superop and c the
    coordinates of I/d."""
    R = L.real_superop
    residual = np.max(np.abs(R @ (np.eye(L.dim).ravel() / L.dim)))
    return bool(residual <= 1e-11 * max(1.0, np.max(np.abs(R))))


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

