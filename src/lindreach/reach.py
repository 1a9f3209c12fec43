# Reachability machinery: alignment functionals, greedy descent steering
# with restricted generator sets, sampled porcupine obstruction checks and
# finite-time replacer constructions.

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import (EIG_TOL, _check_built, _check_state, _pnorm,
                     apply_superop, dag, hermitize, is_diagonal, require_dim,
                     require_nonnegative, require_positive)
from .lindblad import (JumpTerm, Lindbladian, _evolve, _lower, _require_index,
                       _superops, apply)
from .tangent import PathSample

STALL_TOL = 1e-10
EQ_TOL = 1e-12
# the most steps reach_drive takes: a run that could take more is refused
# before its first step, so a tiny dt cannot make it loop without end
MAX_STEPS = 10 ** 6


@dataclass
class ResourceSetK:
    generators: list[Lindbladian]
    max_total_rate: float = 1.0

    def __post_init__(self):
        if not self.generators:
            raise ValueError("generators must be nonempty")
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
    generator_schedule: list[tuple[float, float, int, float]]
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
        # schatten_norm(delta, 2) without its hermitize, a no-op on delta
        return delta, _pnorm(np.abs(delta).reshape(*delta.shape[:-2], -1), 2)
    if is_diagonal(delta):
        w, V = delta.diagonal(axis1=-2, axis2=-1).real, None
    else:
        w, V = np.linalg.eigh(delta)
    return _spectral_weight(w, V, p), _pnorm(np.abs(w), p)


def _spectral_weight(w: np.ndarray, V: np.ndarray | None, p: float) -> np.ndarray:
    """V diag(f(w)) V* for f(x) = sign(x)|x|^(p-1), with f(0) = 0; V None
    stands for the identity. f(0) = 0 needs no case of its own: p > 1
    (_check_p), so |0|^(p-1) = 0, and sign(0) = sign(-0.0) = 0.0, so f(±0)
    is +0.0."""
    f = np.sign(w) * np.abs(w) ** (p - 1)
    if V is None:
        return np.eye(w.shape[-1]) * f[..., None, :]
    return (V * f[..., None, :]) @ dag(V)


def _apart(delta: np.ndarray) -> np.ndarray:
    """delta = eta - sigma, or a stack of them; an eta within EQ_TOL of
    sigma is an error."""
    if np.any(np.max(np.abs(delta), axis=(-2, -1)) < EQ_TOL):
        raise ValueError("eta equals sigma within tolerance")
    return delta


def _checked_delta(eta: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """eta - sigma made Hermitian, for an eta that no check has made so;
    an eta within EQ_TOL of sigma is an error."""
    return _apart(hermitize(np.asarray(eta, dtype=complex)
                            - np.asarray(sigma, dtype=complex)))


def _rate(Leta: np.ndarray, W: np.ndarray) -> np.ndarray:
    """tr(L(eta) W), the one alignment contraction: with W = _weight(delta,
    p)[0] for delta = eta - sigma it is the alignment of L at eta; (..., d,
    d) stacks broadcast."""
    return np.einsum("...ij,...ji->...", Leta, W).real


def alignment(L: Lindbladian, eta: np.ndarray, sigma: np.ndarray, p: float,
              weight: np.ndarray | None = None) -> float:
    """tr(L(eta)(eta - sigma)|eta - sigma|^{p-2}), the derivative of
    (1/p)||eta - sigma||_p^p along the flow of L. A caller's weight W =
    _weight(eta - sigma, p)[0] is taken as it is; without one, an eta within
    EQ_TOL of sigma is an error."""
    Leta = apply(L, eta)
    _check_p(p)
    if weight is None:
        weight, _ = _weight(_checked_delta(eta, sigma), p)
    return float(_rate(Leta, weight))


def _descends(value: float, dist: float, p: float) -> bool:
    """Whether an alignment value lowers ||eta - sigma||_p = dist faster than
    STALL_TOL: the rate d/dt ||eta - sigma||_p is value / dist^(p-1), and the
    one test behind both a reach stall and a porcupine obstruction. The
    power is a Python float power, which raises on overflow where numpy's
    would warn."""
    try:
        scale = float(dist) ** (float(p) - 1)
    except OverflowError:           # beyond the largest float
        scale = math.inf
    if not sys.float_info.min <= scale < math.inf:
        raise ValueError(f"p = {p} is too large for the distance {dist}: "
                         f"{dist}^(p-1) is not a normal float")
    return value / scale < -STALL_TOL


def _first_least(vals: list[float]) -> int:
    """np.argmin's choice over a list of floats, without converting it to an
    array: the first NaN if there is one (an overflow in apply can make
    one), else the first least value."""
    for i, v in enumerate(vals):
        if v != v:
            return i
    return vals.index(min(vals))


def reach_drive(K: ResourceSetK, rho0: np.ndarray, sigma: np.ndarray,
                p: float = 2.0, dt: float = 0.01, t_max: float = 50.0,
                target_tol: float = 1e-4) -> ReachReport:
    """Greedy closed-loop steering of rho0 toward sigma.

    Step i runs the generator of least alignment at the current state over
    [i dt, (i+1) dt], at rate max_total_rate (alignment is linear in L, so
    the best point of the rate simplex is a vertex), and is recorded as
    (t0, t1, index, rate).
    Terminates on target_tol proximity in the Schatten p-norm, on stall (no
    strictly descending choice) or at the first i with i dt >= t_max, so
    after at most MAX_STEPS steps: MAX_STEPS dt < t_max raises.
    """
    require_positive(dt=dt, t_max=t_max, target_tol=target_tol)
    if MAX_STEPS * dt < t_max:
        raise ValueError(f"t_max / dt must be at most MAX_STEPS = {MAX_STEPS}: "
                         f"dt = {dt}, t_max = {t_max}")
    _check_p(p)
    eta = _check_state(rho0, "rho0", K.dim)[0]
    sigma = _check_state(sigma, "sigma", K.dim)[0]
    rate = K.max_total_rate
    states = [eta]
    schedule: list[tuple[float, float, int, float]] = []
    stall = None
    exceeded = False
    while True:
        # one _weight of eta - sigma per state: its W aligns every
        # generator, and its p-distance decides reached and scales the
        # stall test
        W, dist = _weight(eta - sigma, p)
        reached = dist <= target_tol
        if reached:
            break
        i = len(schedule)
        if i * dt >= t_max:
            exceeded = True
            break
        vals = [alignment(L, eta, sigma, p, weight=W) for L in K.generators]
        idx = _first_least(vals)
        val = rate * vals[idx]
        if not _descends(val, dist, p):
            stall = (eta, float(val))
            break
        eta = _check_built(_evolve(K.generators[idx], eta, rate * dt))
        states.append(eta)
        schedule.append((i * dt, (i + 1) * dt, idx, rate))
    return ReachReport(reached=reached, final_state=eta,
                       trajectory=PathSample(dt * np.arange(len(states)), states),
                       generator_schedule=schedule,
                       stall_certificate=stall, t_max_exceeded=exceeded)


# normal draws in one sampler chunk after the first, at most: 512 KiB of
# float64, or the first chunk's n_samples draws if those are more
_CHUNK_FLOATS = 1 << 16


def _sphere_samples(sigma: np.ndarray, epsilon: float, p: float,
                    n_samples: int, rng: np.random.Generator,
                    diagonal_slice: bool, lmin: float,
                    ) -> tuple[np.ndarray, np.ndarray | None, int]:
    """(n, d, d) stack of states on the radius-epsilon p-sphere around sigma
    that remain inside the state space; boundary sigma keeps only the
    intersected part. lmin is lambda_min(sigma). At most 50 n_samples draws
    are taken, in chunks that consume the random stream as one draw at a
    time would, so the first n_samples accepted are the ones a per-draw loop
    with that cap keeps, whatever the chunk sizes. The first chunk is
    n_samples draws; each later one is sized from the acceptance rate so
    far, doubles while nothing is kept, and holds at most _CHUNK_FLOATS
    normal draws unless n_samples draws are more.

    A state has a nonnegative diagonal, so a draw with a diagonal entry below
    -EIG_TOL is dropped before its eigenvalues are computed. No draw is
    eigen-solved where the PSD test is decided without it: on the diagonal
    slice around an exactly diagonal sigma every eta is diagonal, and its
    diagonal is its spectrum; around a sigma with lambda_min >= epsilon,
    lambda_min(eta) >= lambda_min(sigma) - ||eta - sigma||_inf >= 0, since
    ||X||_inf <= ||X||_p (the rounding is far below EIG_TOL).

    On the diagonal slice a direction stays a real vector x, and a d x d
    matrix is formed only for a kept draw. Since ||x||_p <= ||x||_1, the
    draw's scale is at least epsilon/||x||_1, and sigma_ii + scale x_i only
    falls as the scale grows where x_i < 0 (elsewhere it is at least
    lambda_min(sigma) >= -EIG_TOL): a draw with sigma_ii + x_i
    epsilon/||x||_1 < -2 EIG_TOL for some i leaves the state space and is
    dropped before its p-norm is computed. Rounding moves that test by far
    less than its margin of EIG_TOL, so it drops no draw the exact test
    keeps.

    The second return value is None, except on the full sphere at p != 2:
    there the one eigh of each direction X = V diag(w) V* gives both
    ||X||_p and the weight of its sample, V f(s w) V* with s =
    epsilon/||X||_p and f of _spectral_weight, which _weight would take from
    a second eigen-solve of eta - sigma = s X. The third is the number of
    draws taken."""
    d = sigma.shape[0]
    m = max(n_samples, 1)
    cap = 50 * m
    budget = max(m, _CHUNK_FLOATS // (d if diagonal_slice else 2 * d * d))
    decided = (diagonal_slice and is_diagonal(sigma)) or lmin >= epsilon
    s = sigma.diagonal().real
    # s_i + (epsilon/||x||_1) x_i >= -2 EIG_TOL, as x_i >= floor_i ||x||_1
    floor = (-2 * EIG_TOL - s) / epsilon
    kept, weights = [], []
    size, drawn, n_kept = m, 0, 0
    while n_kept < n_samples and drawn < cap:
        size = min(size, cap - drawn, budget)
        drawn += size
        w = None
        if diagonal_slice:
            raw = rng.standard_normal((size, d))
            # the bound test runs on the transpose, where the sums over d are
            # fast; its centering may round apart from the one below, by far
            # less than the margin
            xt = np.ascontiguousarray(raw.T)
            xt -= xt.mean(axis=0)
            l1 = np.abs(xt).sum(axis=0)
            idx = np.flatnonzero((xt >= floor[:, None] * l1).all(axis=0))
            x = raw[idx]
            x -= x.mean(axis=1, keepdims=True)
            nrm = _pnorm(np.abs(x), p)
        else:
            G = rng.standard_normal((size, 2, d, d))
            X = hermitize(G[:, 0] + 1j * G[:, 1])
            X -= (np.trace(X, axis1=1, axis2=2).real / d)[:, None, None] * np.eye(d)
            x = X.diagonal(axis1=1, axis2=2).real
            idx = np.arange(size)
            if p == 2:
                nrm = _pnorm(np.abs(X).reshape(size, -1), 2)  # X is Hermitian
            else:
                w, V = np.linalg.eigh(X)
                nrm = _pnorm(np.abs(w), p)
        ok = nrm >= 1e-12
        idx, x, scale = idx[ok], x[ok], epsilon / nrm[ok]
        keep = (s + scale[:, None] * x).min(axis=1) >= -EIG_TOL
        idx, x, scale = idx[keep], x[keep], scale[keep]
        need = n_samples - n_kept
        if decided:
            idx, x, scale = idx[:need], x[:need], scale[:need]
        if diagonal_slice:
            X = np.zeros((len(idx), d, d), dtype=complex)
            X.reshape(len(idx), d * d)[:, ::d + 1] = x
        else:
            X = X[idx]
        eta = sigma + scale[:, None, None] * X
        if not decided:
            psd = np.flatnonzero(np.linalg.eigvalsh(eta).min(axis=1) >= -EIG_TOL)[:need]
            idx, scale, eta = idx[psd], scale[psd], eta[psd]
        kept.append(eta)
        if w is not None:
            weights.append(_spectral_weight(scale[:, None] * w[idx], V[idx], p))
        n_kept += len(eta)
        # the draws the rest should take at the rate so far, and a tenth
        # more: a chunk costs a fixed overhead, and a spare draw little on
        # the slice but an eigh on the full sphere
        size = (2 * size if not n_kept
                else math.ceil(1.1 * (n_samples - n_kept) * drawn / n_kept))
    return (np.concatenate(kept), np.concatenate(weights) if weights else None,
            drawn)


def porcupine_check(K: ResourceSetK, sigma: np.ndarray, epsilon: float,
                    p: float = 2.0, n_samples: int = 2000, seed: int = 0,
                    diagonal_slice: bool = False) -> PorcupineReport:
    """Sampled obstruction test on the epsilon-sphere around sigma.

    obstruction_evidence is true when no generator descends (the test of a
    reach stall, at distance epsilon) at any sampled sphere point, so no
    admissible generator points inward anywhere on the sphere.

    The generators' superoperators come from one batched build per check
    (lindblad._superops), which neither reads nor fills their cached
    superop. sigma and every sample are exactly Hermitian, so delta = eta -
    sigma is taken as it is, and at p = 2 the weight is delta itself, with
    no norm formed.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive; a vacuous report is invalid")
    require_positive(epsilon=epsilon)
    require_nonnegative(seed=seed)
    _check_p(p)
    sigma, w, _ = _check_state(sigma, "sigma", K.dim)
    rng = np.random.default_rng(seed)
    samples, W, drawn = _sphere_samples(sigma, epsilon, p, n_samples, rng,
                                        diagonal_slice, float(w.min()))
    # around a sigma with lambda_min > epsilon every draw is a state, since
    # ||X||_inf <= ||X||_p: only a boundary sigma can keep too few
    need = max(n_samples // 10, 1)
    if len(samples) < need:
        raise ValueError("too few sphere points intersect the state space: "
                         f"{len(samples)} of {drawn} draws kept, {need} needed")
    # L(eta) for every (generator, sample) pair in one stacked product
    Leta = apply_superop(_superops(K.generators), samples)
    delta = _apart(samples - sigma)
    if W is None:
        W = delta if p == 2 else _weight(delta, p)[0]
    best = float(_rate(Leta, W).min())
    return PorcupineReport(epsilon=epsilon, p=p, samples=len(samples),
                           min_alignment_over_samples=best,
                           obstruction_evidence=not _descends(best, epsilon, p))


def replacer_overshoot(rho: np.ndarray, sigma: np.ndarray, eps: float) -> dict:
    """Replacer trajectory with overshoot target sigma_tilde = sigma +
    eps (sigma - rho); hits sigma exactly at s = ln(1 + 1/eps)."""
    rho = _check_state(rho, "rho")[0]
    sigma = _check_state(sigma, "sigma", len(rho))[0]
    require_positive(eps=eps)
    sigma_t = sigma + eps * (sigma - rho)
    if np.linalg.eigvalsh(sigma_t).min() < -1e-12:
        raise ValueError("overshoot target is not positive semidefinite; "
                         "decrease eps")
    s = math.log(1.0 + 1.0 / eps)
    ts = np.linspace(0.0, s, 64)
    u = np.exp(-ts)[:, None, None]
    states = u * rho + (1 - u) * sigma_t
    return {"trajectory": PathSample(ts, states), "hit_time": s}


def tan_schedule(rho: np.ndarray, sigma: np.ndarray, n_steps: int) -> dict:
    """Time-compressed replacer path e^{-tan t} rho + (1 - e^{-tan t}) sigma
    on [0, pi/2]; the endpoint is sigma and generator norms vanish there."""
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")
    rho = _check_state(rho, "rho")[0]
    sigma = _check_state(sigma, "sigma", len(rho))[0]
    ts = np.linspace(0.0, math.pi / 2, n_steps)
    # every time but the last, which linspace puts exactly at pi/2: there
    # the state is sigma and the generator norm 0
    t = ts[:-1]
    u = np.exp(-np.tan(t))
    states = u[:, None, None] * rho + (1 - u)[:, None, None] * sigma
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
    require_dim(len(rho), sigma=sigma)
    _require_index(len(rho), r, s)
    for M in (rho, sigma):
        if np.max(np.abs(M - np.diag(np.diag(M)))) > 1e-12:
            raise ValueError("states must be diagonal")
    pr, ps = rho[r, r].real, rho[s, s].real
    qr, qs = sigma[r, r].real, sigma[s, s].real
    return 2.0 * ps * (pr - ps - qr + qs)


def lowering_jump(r: int, s: int, d: int) -> Lindbladian:
    """Single-jump generator with jump |r><s| at unit rate."""
    return Lindbladian(d, jumps=[JumpTerm(_lower(r, s, d), 1.0)])
