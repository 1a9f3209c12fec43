# Tangent-cone geometry of the density state space: support decompositions,
# cone membership, second-order curve witnesses and constructive Lindbladian
# lifting of tangent directions and of sampled paths.

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _check_state,
    dag,
    hermitize,
    is_hermitian,
    require_dim,
    require_nonnegative,
    trace_distance,
    vectorize,
)
from .lindblad import JumpTerm, Lindbladian, _evolve, _replacer_jumps, apply

SUPPORT_TOL = 1e-10
TRACE_TOL = 1e-10
LIFT_TOL = 1e-8
PATH_TOL = 1e-7


@dataclass
class SupportDecomposition:
    basis: np.ndarray             # unitary eigenbasis of rho, support first
    rank: int                     # eigenvalues above the support cut
    p: np.ndarray                 # eigenvalues of rho, descending
    rho: np.ndarray               # rho as checked, exactly Hermitian


@dataclass
class LiftCertificate:
    lindbladian: Lindbladian
    residual: float
    cp_margin: float


@dataclass
class PathSample:
    times: np.ndarray
    states: np.ndarray            # (n, d, d) complex stack
    derivs: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        try:
            self.states = np.asarray(self.states, dtype=complex)
            if self.derivs is not None:
                self.derivs = np.asarray(self.derivs, dtype=complex)
        except ValueError as exc:
            raise ValueError(f"path matrices are ragged: {exc}") from exc
        n = len(self.states)
        if self.states.ndim != 3 or self.states.shape[1] != self.states.shape[2]:
            raise ValueError("states must be square matrices of one dimension")
        if self.times.shape != (n,):
            raise ValueError("times and states length mismatch")
        if not (np.all(np.isfinite(self.times)) and np.all(np.diff(self.times) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        if self.derivs is not None and self.derivs.shape != self.states.shape:
            raise ValueError(f"derivs have shape {self.derivs.shape}, "
                             f"states {self.states.shape}")


def support_projection(rho: np.ndarray, tol: float = SUPPORT_TOL) -> SupportDecomposition:
    """Validate rho and eigendecompose it once; the support is the span of
    the eigenvectors whose eigenvalue exceeds tol."""
    rho, w, V = _check_state(rho, "rho", vectors=True)
    p, V = w[::-1], V[:, ::-1]
    return SupportDecomposition(basis=V, rank=int(np.sum(p > tol)), p=p, rho=rho)


def _in_cone(dec: SupportDecomposition, xb: np.ndarray, tol: float) -> bool:
    """The T+_rho membership rule for Hermitian x, given in rho's eigenbasis
    as xb = V^* x V: tr x = 0 within max(TRACE_TOL, tol), and the block of x
    on the eigenvectors with eigenvalue at most min(tol, SUPPORT_TOL) is PSD
    within tol."""
    if abs(np.trace(xb).real) > max(TRACE_TOL, tol):
        return False
    r = int(np.sum(dec.p > min(tol, SUPPORT_TOL)))
    return r == len(xb) or bool(np.linalg.eigvalsh(hermitize(xb[r:, r:])).min() >= -tol)


def _adapted(dec: SupportDecomposition, x: np.ndarray, tol: float) -> np.ndarray:
    """V^* x V for rho's eigenbasis V, once tol is finite and nonnegative and
    x is a Hermitian matrix of rho's dimension within max(1e-10, tol)."""
    require_nonnegative(tol=tol)
    require_dim(len(dec.p), x=x)
    x = np.asarray(x, dtype=complex)
    if not is_hermitian(x, max(1e-10, tol)):
        raise ValueError(f"x must be Hermitian within {max(1e-10, tol)}")
    return dag(dec.basis) @ hermitize(x) @ dec.basis


def in_tangent_cone(rho: np.ndarray, x: np.ndarray, tol: float = SUPPORT_TOL) -> bool:
    """Membership in T+_rho: tr x = 0 and the doubly-perp block of x is PSD."""
    dec = support_projection(rho)
    return _in_cone(dec, _adapted(dec, x, tol), tol)


def linear_admissible(rho: np.ndarray, x: np.ndarray) -> float | None:
    """Largest eps with rho + eps x PSD; None if no eps > 0 exists;
    math.inf when the direction never leaves the cone.

    In rho's eigenbasis rho = P (+) 0 with P = diag(p) > 0 on the support.
    When the perp block x22 is PSD and the cross block x21 ranges into it,
    rho + eps x is PSD iff the Schur complement P + eps S is, for
    S = x11 - x12 x22^+ x21; so eps_max = 1 / lambda_max(-P^{-1/2} S P^{-1/2}).
    """
    dec = support_projection(rho)
    xb = _adapted(dec, x, SUPPORT_TOL)
    if np.max(np.abs(x)) <= SUPPORT_TOL:
        return math.inf
    r = dec.rank
    w22, V22 = np.linalg.eigh(hermitize(xb[r:, r:]))
    x21 = dag(V22) @ xb[r:, :r]           # cross block in x22's eigenbasis
    kernel = w22 <= SUPPORT_TOL
    if np.any(w22 < -SUPPORT_TOL) or np.max(np.abs(x21[kernel]), initial=0.0) > 1e-8:
        return None
    if np.linalg.eigvalsh(xb).min() >= -SUPPORT_TOL:
        return math.inf
    c = x21[~kernel] / np.sqrt(w22[~kernel])[:, None]
    s = xb[:r, :r] - dag(c) @ c
    q = 1.0 / np.sqrt(dec.p[:r])
    lam = np.linalg.eigvalsh(hermitize(-(q[:, None] * s * q))).max()
    # S can be PSD while x is not when x21 meets ker x22 within 1e-8
    return float(1.0 / lam) if lam > 0 else math.inf


def second_order_witness(rho: np.ndarray, x: np.ndarray,
                         tol: float = SUPPORT_TOL) -> dict:
    """Curve witness rho + t x + t^2 x2 staying PSD on (0, eps_max].

    x2 lives on the doubly-perp block (kernel of the perp block of x) with a
    trace-compensating term on the support block; validity is certified by
    eigenchecks on a t-grid.
    """
    dec = support_projection(rho, tol=tol)
    r, d, V = dec.rank, len(dec.p), dec.basis
    xb = _adapted(dec, x, tol)
    if not _in_cone(dec, xb, tol):
        raise ValueError("x is not in the tangent cone at rho")
    x2b = np.zeros((d, d), dtype=complex)
    if r < d:
        x22 = hermitize(xb[r:, r:])
        w22, V22 = np.linalg.eigh(x22)
        Vker = V22[:, w22 <= tol]          # doubly-perp directions
        if Vker.size:
            x13 = xb[:r, r:] @ Vker        # support -> kernel cross block
            B = 2.0 * dag(x13) @ (x13 / dec.p[:r, None])
            x2b[r:, r:] += Vker @ B @ dag(Vker)
            x2b[:r, :r] -= (np.trace(B) / r) * np.eye(r)
    # certify, in rho's eigenbasis: largest eps with the curve PSD on a
    # refinement grid
    def curve_ok(eps):
        ts = np.linspace(eps / 32, eps, 32)[:, None, None]
        curve = np.diag(dec.p) + ts * xb + ts * ts * x2b
        return np.linalg.eigvalsh(curve).min() >= -1e-11
    eps = 1.0
    while eps > 1e-8 and not curve_ok(eps):
        eps *= 0.5
    if not curve_ok(eps):
        raise ValueError("could not certify a positive eps_max")
    return {"x2": hermitize(V @ x2b @ dag(V)), "eps_max": eps}


def _dissipative_choi_margin(L: Lindbladian) -> float:
    """lambda_min of the Choi matrix 2 V diag(r) V^* of the CP jump part
    sum 2 r_j a_j . a_j^*, where V has the columns vec(a_j)."""
    if not L.jumps:
        return 0.0
    V = vectorize([j.a for j in L.jumps]).T
    r = np.array([j.rate for j in L.jumps])
    return float(np.linalg.eigvalsh(2 * (V * r) @ dag(V)).min())


def lift(rho: np.ndarray, x: np.ndarray, tol: float = SUPPORT_TOL,
         lift_tol: float = LIFT_TOL) -> LiftCertificate:
    """Constructive Lindbladian with L(rho) = x for a tangent direction x.

    Three parts: a Hamiltonian cross term for the support/perp blocks,
    spectral jumps for the perp block, and a replacer generator for the
    in-support remainder.
    """
    dec = support_projection(rho, tol=tol)
    rho, r, d, V = dec.rho, dec.rank, len(dec.p), dec.basis
    p = dec.p[:r]                     # descending, so p[0] is the largest
    xb = _adapted(dec, x, tol)
    if not _in_cone(dec, xb, max(tol, PATH_TOL)):
        raise ValueError("x is not in the tangent cone at rho")
    H = np.zeros((d, d), dtype=complex)
    jumps: list[JumpTerm] = []
    if r < d:
        # clip tiny cone violations coming from sampled derivatives
        w22, V22 = np.linalg.eigh(hermitize(xb[r:, r:]))
        w22 = np.clip(w22, 0.0, None)
        xb[r:, r:] = (V22 * w22) @ dag(V22)
        xb = hermitize(xb)
        xb[:r, :r] -= (np.trace(xb).real / r) * np.eye(r)
        # Hamiltonian cross term i x21 rho11^{-1}, rho11 being diagonal
        h = 1j * xb[r:, :r] / p
        Hb = np.zeros((d, d), dtype=complex)
        Hb[r:, :r] = h
        Hb[:r, r:] = dag(h)
        H = V @ Hb @ dag(V)
        # spectral jumps |e_m><phi| at rate s_m / 2p_0 for the perp block's
        # eigenpairs (s_m, e_m) with s_m > tol, phi the top support vector;
        # they draw sum s_m out of phi, which the replacer puts back
        keep = w22 > tol
        E = V[:, r:] @ V22[:, keep]
        jumps = [JumpTerm(np.outer(e, V[:, 0].conj()), s / (2 * p[0]))
                 for e, s in zip(E.T, w22[keep])]
        xb[0, 0] += w22[keep].sum()
    # in-support remainder through a replacer generator
    y = hermitize(V[:, :r] @ xb[:r, :r] @ dag(V[:, :r]))
    ynorm = float(np.linalg.norm(y, ord=2))
    if ynorm > tol:
        eps = 0.5 * float(p.min()) / ynorm
        if eps < 1e-12:
            raise ValueError("replacer step underflow: lambda_min(rho11) too "
                             "small relative to the in-support target")
        target = rho + eps * y
        jumps.extend(_replacer_jumps(target, 0.5 / eps))
    L = Lindbladian(d, hamiltonian=hermitize(H), jumps=jumps)
    x = hermitize(np.asarray(x, dtype=complex))
    residual = float(np.linalg.norm(apply(L, rho) - x))
    cert = LiftCertificate(lindbladian=L, residual=residual,
                           cp_margin=_dissipative_choi_margin(L))
    if cert.residual > lift_tol:
        raise ValueError(f"lift residual {cert.residual} exceeds {lift_tol}")
    return cert


def central_differences(path: PathSample) -> np.ndarray:
    """Second-order differences; one-sided second order at the endpoints.
    Sample i differentiates the Lagrange interpolant through the samples
    c - 1, c, c + 1 at t_i, where c = clip(i, 1, n - 2)."""
    t, s = path.times, path.states
    n = len(t)
    if n < 3:
        raise ValueError("need at least three samples to differentiate")
    c = np.clip(np.arange(n), 1, n - 2)
    ti, t0, t1, t2 = (u[:, None, None] for u in (t, t[c - 1], t[c], t[c + 1]))
    d0 = (2 * ti - t1 - t2) / ((t0 - t1) * (t0 - t2))
    d1 = (2 * ti - t0 - t2) / ((t1 - t0) * (t1 - t2))
    d2 = (2 * ti - t0 - t1) / ((t2 - t0) * (t2 - t1))
    return hermitize(d0 * s[c - 1] + d1 * s[c] + d2 * s[c + 1])


def lift_path(path: PathSample) -> dict:
    """Per-sample Lindbladian lifts along a sampled path with their lift
    residuals, trapezoidal integrability estimates of 1/lambda_min and
    lambda_min^{-1/2} and a piecewise-constant-generator reconstruction
    error."""
    derivs = path.derivs if path.derivs is not None else central_differences(path)
    d = path.states.shape[1]
    xdot = hermitize(derivs)
    xdot = xdot - (np.trace(xdot, axis1=1, axis2=2).real / d)[:, None, None] * np.eye(d)
    # one lift per sample: the support rank, and with it the block
    # structure of the lift, can change from sample to sample
    gens: list[Lindbladian] = []
    residual = []
    for idx, (rho_t, x) in enumerate(zip(path.states, xdot)):
        try:
            cert = lift(rho_t, x, tol=1e-8, lift_tol=10 * PATH_TOL)
        except ValueError as exc:
            raise ValueError(f"sample {idx}: {exc}") from exc
        gens.append(cert.lindbladian)
        residual.append(cert.residual)
    w = np.linalg.eigvalsh(hermitize(path.states))
    lam = np.min(w, axis=1, where=w > 1e-8, initial=np.inf)
    lam[np.isinf(lam)] = 0.0         # no eigenvalue above the 1e-8 cut
    t = path.times
    integ = {
        "int_inv_lambda": float(np.trapezoid(1.0 / lam, t)),
        "int_inv_sqrt_lambda": float(np.trapezoid(lam ** -0.5, t)),
    }
    # piecewise-constant reconstruction from the initial sample: a sequential
    # composition of channels, one step at a time
    eta = path.states[0]
    for i in range(len(t) - 1):
        eta = _evolve(gens[i], eta, t[i + 1] - t[i])
    err = trace_distance(eta, path.states[-1])
    return {"generators": gens, "integrability": integ, "lambda_min": lam,
            "residual": np.asarray(residual), "reconstruction_error": float(err)}
