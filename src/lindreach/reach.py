# Reachability machinery: alignment functionals, greedy descent steering
# with restricted generator sets, sampled porcupine obstruction checks and
# finite-time replacer constructions.

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import (EIG_TOL, _pnorm, check_density, dag, devectorize,
                     hermitize, is_diagonal, require_dim, require_positive,
                     schatten_norm, vectorize)
from .lindblad import (JumpTerm, Lindbladian, _lower, _propagate_checked, apply,
                       build)
from .tangent import PathSample

STALL_TOL = 1e-10
EQ_TOL = 1e-12


@dataclass
class ResourceSetK:
    generators: list[Lindbladian]
    cone_combinations: bool = False
    max_total_rate: float = 1.0

    def __post_init__(self):
        if not self.generators:
            raise ValueError("resource set must be nonempty")
        dims = {L.dim for L in self.generators}
        if len(dims) != 1:
            raise ValueError("generators must share a dimension")
        require_positive(max_total_rate=self.max_total_rate)

    @property
    def dim(self) -> int:
        return self.generators[0].dim


@dataclass
class ReachReport:
    reached: bool
    final_state: np.ndarray
    trajectory: PathSample
    generator_schedule: list[tuple[float, float, np.ndarray]]
    stall_certificate: tuple[np.ndarray, float] | None = None
    t_max_exceeded: bool = False


@dataclass
class PorcupineReport:
    epsilon: float
    p: float
    samples: int
    min_alignment_over_samples: float
    obstruction_evidence: bool


def _check_p(p: float) -> None:
    if not 1.0 < p < math.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")


def _weight(delta: np.ndarray, p: float) -> tuple[np.ndarray, float | np.ndarray]:
    """W = delta|delta|^{p-2} and ||delta||_p for the Hermitian delta; a
    (..., d, d) stack gives stacks. W is 0 on the kernel of delta, the
    continuity convention for p < 2. Only a non-diagonal delta at p != 2 is
    eigen-solved: at p = 2, W = delta; on a stack that is exactly diagonal,
    the diagonal is the spectrum and W acts on it entrywise."""
    if p == 2:
        return delta, schatten_norm(delta, 2)
    diagonal = is_diagonal(delta)
    if diagonal:
        w, V = delta.diagonal(axis1=-2, axis2=-1).real, np.eye(delta.shape[-1])
    else:
        w, V = np.linalg.eigh(delta)
    f = np.where(np.abs(w) > 0, np.sign(w) * np.abs(w) ** (p - 1), 0.0)
    W = V * f[..., None, :]                       # V diag(f)
    return (W if diagonal else W @ dag(V)), _pnorm(np.abs(w), p)


def _trace_against_weight(Leta: np.ndarray, eta: np.ndarray, sigma: np.ndarray,
                          p: float, weight: np.ndarray | None = None) -> np.ndarray:
    """tr(L(eta) W) for W = _weight(delta, p)[0], delta = eta - sigma made
    Hermitian, which a caller that holds it passes as weight; (..., d, d)
    stacks of L(eta) and eta broadcast. Without a weight, an eta within
    EQ_TOL of sigma is an error; a caller's weight is taken as it is, since
    it was computed from delta however small."""
    _check_p(p)
    if weight is None:
        delta = hermitize(np.asarray(eta, dtype=complex) - np.asarray(sigma, dtype=complex))
        if np.any(np.max(np.abs(delta), axis=(-2, -1)) < EQ_TOL):
            raise ValueError("eta equals sigma within tolerance")
        weight, _ = _weight(delta, p)
    return np.einsum("...ij,...ji->...", Leta, weight).real


def alignment(L: Lindbladian, eta: np.ndarray, sigma: np.ndarray, p: float,
              weight: np.ndarray | None = None) -> float:
    """tr(L(eta)(eta - sigma)|eta - sigma|^{p-2}), the derivative of
    (1/p)||eta - sigma||_p^p along the flow of L; weight is W of
    _trace_against_weight, when the caller holds it."""
    return float(_trace_against_weight(apply(L, eta), eta, sigma, p, weight))


def _descends(value: float, dist: float, p: float) -> bool:
    """Whether an alignment value lowers ||eta - sigma||_p = dist faster than
    STALL_TOL: the rate d/dt ||eta - sigma||_p is value / dist^(p-1), and the
    one test behind both a reach stall and a porcupine obstruction."""
    with np.errstate(over="ignore", under="ignore"):
        scale = float(np.float64(dist) ** (p - 1))
    if not sys.float_info.min <= scale < math.inf:
        raise ValueError(f"p = {p} is too large for the distance {dist}: "
                         f"{dist}^(p-1) is not a normal float")
    return value / scale < -STALL_TOL


def _check_state(K: ResourceSetK, name: str, rho: np.ndarray) -> np.ndarray:
    rho = check_density(rho)
    require_dim(K.dim, **{name: rho})
    return rho


def reach_drive(K: ResourceSetK, rho0: np.ndarray, sigma: np.ndarray,
                p: float = 2.0, dt: float = 0.01, t_max: float = 50.0,
                target_tol: float = 1e-4) -> ReachReport:
    """Greedy closed-loop steering of rho0 toward sigma.

    At each step the generator (or budgeted cone weight vector) minimizing
    the alignment at the current state is applied for time dt. Terminates on
    target_tol proximity in the Schatten p-norm, on stall (no strictly
    descending choice) or at t_max.
    """
    require_positive(dt=dt, t_max=t_max, target_tol=target_tol)
    _check_p(p)
    eta = _check_state(K, "rho0", rho0)
    sigma = _check_state(K, "sigma", sigma)
    times = [0.0]
    states = [eta]
    schedule: list[tuple[float, float, np.ndarray]] = []
    t = 0.0
    stall = None
    exceeded = False
    while True:
        # one _weight of eta - sigma per state: its W aligns every
        # generator, and its p-distance decides reached and scales the
        # stall test
        W, dist = _weight(hermitize(eta - sigma), p)
        reached = dist <= target_tol
        if reached:
            break
        if t >= t_max:
            exceeded = True
            break
        # linear in L: the best point of the rate-budget simplex is a vertex
        vals = [alignment(L, eta, sigma, p, weight=W) for L in K.generators]
        idx = int(np.argmin(vals))
        budget = K.max_total_rate if K.cone_combinations else 1.0
        weights = budget * np.eye(len(vals))[idx]
        val = budget * vals[idx]
        if not _descends(val, dist, p):
            stall = (eta, float(val))
            break
        # eta was checked when it was produced
        eta = _propagate_checked(K.generators[idx], eta, weights[idx] * dt)
        t += dt
        times.append(t)
        states.append(eta)
        schedule.append((t - dt, t, weights))
    return ReachReport(reached=reached, final_state=eta,
                       trajectory=PathSample(np.array(times), states),
                       generator_schedule=schedule,
                       stall_certificate=stall, t_max_exceeded=exceeded)


def _sphere_samples(sigma: np.ndarray, epsilon: float, p: float,
                    n_samples: int, rng: np.random.Generator,
                    diagonal_slice: bool) -> np.ndarray:
    """(n, d, d) stack of states on the radius-epsilon p-sphere around sigma
    that remain inside the state space; boundary sigma keeps only the
    intersected part. At most 50 chunks of n_samples draws consume the random
    stream as one draw at a time would, so the first n_samples accepted are
    the ones a per-draw loop with a cap of 50 n_samples draws keeps.

    A state has a nonnegative diagonal, so a draw with a diagonal entry below
    -EIG_TOL is dropped before its eigenvalues are computed. No draw is
    eigen-solved where the PSD test is decided without it: on the diagonal
    slice around an exactly diagonal sigma every eta is diagonal, and its
    diagonal is its spectrum; around a sigma with lambda_min >= epsilon,
    lambda_min(eta) >= lambda_min(sigma) - ||eta - sigma||_inf >= 0, since
    ||X||_inf <= ||X||_p (the rounding is far below EIG_TOL)."""
    d = sigma.shape[0]
    m = max(n_samples, 1)
    decided = ((diagonal_slice and is_diagonal(sigma))
               or np.linalg.eigvalsh(hermitize(sigma)).min() >= epsilon)
    kept = []
    for _ in range(50):
        if diagonal_slice:
            g = rng.standard_normal((m, d))
            g -= g.mean(axis=1, keepdims=True)
            nrm = _pnorm(np.abs(g), p)
            X = np.zeros((m, d, d), dtype=complex)
            X.reshape(m, d * d)[:, ::d + 1] = g
        else:
            G = rng.standard_normal((m, 2, d, d))
            X = hermitize(G[:, 0] + 1j * G[:, 1])
            X -= (np.trace(X, axis1=1, axis2=2).real / d)[:, None, None] * np.eye(d)
            nrm = schatten_norm(X, p)
        X, nrm = X[nrm >= 1e-12], nrm[nrm >= 1e-12]
        scale = epsilon / nrm
        x = X.diagonal(axis1=1, axis2=2).real
        keep = (sigma.diagonal().real + scale[:, None] * x).min(axis=1) >= -EIG_TOL
        eta = hermitize(sigma + scale[keep, None, None] * X[keep])
        kept.append(eta if decided else eta[np.linalg.eigvalsh(eta).min(axis=1) >= -EIG_TOL])
        if sum(map(len, kept)) >= n_samples:
            break
    return np.concatenate(kept)[:n_samples]


def porcupine_check(K: ResourceSetK, sigma: np.ndarray, epsilon: float,
                    p: float = 2.0, n_samples: int = 2000, seed: int = 0,
                    diagonal_slice: bool = False) -> PorcupineReport:
    """Sampled obstruction test on the epsilon-sphere around sigma.

    obstruction_evidence is true when no generator descends (the test of a
    reach stall, at distance epsilon) at any sampled sphere point, so no
    admissible generator points inward anywhere on the sphere.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive; a vacuous report is invalid")
    require_positive(epsilon=epsilon)
    _check_p(p)
    sigma = _check_state(K, "sigma", sigma)
    rng = np.random.default_rng(seed)
    samples = _sphere_samples(sigma, epsilon, p, n_samples, rng, diagonal_slice)
    if not len(samples):
        raise ValueError("ball lies outside the state space and the sphere "
                         "does not intersect it")
    # around a sigma with lambda_min > epsilon every draw is a state, since
    # ||X||_inf <= ||X||_p: only a boundary sigma can keep too few
    if len(samples) < n_samples // 10:
        raise ValueError("too few sphere points intersect the state space")
    # L(eta) for every (generator, sample) pair in one stacked product
    S = np.stack([build(L) for L in K.generators])
    Leta = devectorize(vectorize(samples) @ S.swapaxes(1, 2), sigma.shape[0])
    best = float(_trace_against_weight(Leta, samples, sigma, p).min())
    return PorcupineReport(epsilon=epsilon, p=p, samples=len(samples),
                           min_alignment_over_samples=best,
                           obstruction_evidence=not _descends(best, epsilon, p))


def replacer_overshoot(rho: np.ndarray, sigma: np.ndarray, eps: float) -> dict:
    """Replacer trajectory with overshoot target sigma_tilde = sigma +
    eps (sigma - rho); hits sigma exactly at s = ln(1 + 1/eps)."""
    rho = check_density(rho)
    sigma = check_density(sigma)
    require_positive(eps=eps)
    sigma_t = sigma + eps * (sigma - rho)
    if np.linalg.eigvalsh(hermitize(sigma_t)).min() < -1e-12:
        raise ValueError("overshoot target is not positive semidefinite; "
                         "decrease eps")
    s = math.log(1.0 + 1.0 / eps)
    ts = np.linspace(0.0, s, 64)
    u = np.exp(-ts)[:, None, None]
    states = hermitize(u * rho + (1 - u) * sigma_t)
    return {"trajectory": PathSample(ts, states), "hit_time": s}


def tan_schedule(rho: np.ndarray, sigma: np.ndarray, n_steps: int) -> dict:
    """Time-compressed replacer path e^{-tan t} rho + (1 - e^{-tan t}) sigma
    on [0, pi/2]; the endpoint is sigma and generator norms vanish there."""
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")
    rho = check_density(rho)
    sigma = check_density(sigma)
    ts = np.linspace(0.0, math.pi / 2, n_steps)
    # every time but the last, which linspace puts exactly at pi/2: there
    # the state is sigma and the generator norm 0
    t = ts[:-1]
    u = np.exp(-np.tan(t))
    states = hermitize(u[:, None, None] * rho + (1 - u)[:, None, None] * sigma)
    # generator scale of the reparameterized replacer flow
    gen_norms = 1.0 / np.cos(t) ** 2 * u * np.linalg.norm(rho - sigma)
    return {"trajectory": PathSample(ts, np.concatenate([states, sigma[None]])),
            "generator_norms": np.append(gen_norms, 0.0)}


def sparse_alignment_diagonal(rho: np.ndarray, sigma: np.ndarray,
                              r: int, s: int) -> float:
    """Closed-form p=2 alignment of dissipator(|r><s|) on diagonal states:
    2 rho_ss (rho_rr - rho_ss - sigma_rr + sigma_ss)."""
    if r == s:
        raise ValueError("r and s must differ")
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    for M in (rho, sigma):
        if np.max(np.abs(M - np.diag(np.diag(M)))) > 1e-12:
            raise ValueError("states must be diagonal")
    pr, ps = rho[r, r].real, rho[s, s].real
    qr, qs = sigma[r, r].real, sigma[s, s].real
    return 2.0 * ps * (pr - ps - qr + qs)


def lowering_jump(r: int, s: int, d: int) -> Lindbladian:
    """Single-jump generator with jump |r><s| at unit rate."""
    return Lindbladian(d, jumps=[JumpTerm(_lower(r, s, d), 1.0)])
