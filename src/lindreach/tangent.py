# Tangent-cone geometry of the density state space: support decompositions,
# cone membership, second-order curve witnesses and constructive Lindbladian
# lifting of tangent directions and of sampled paths.

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    apply_superop,
    check_density,
    dag,
    hermitize,
    trace_distance,
    vectorize,
)
from .lindblad import JumpTerm, Lindbladian, apply, channel_superop, replacer_lindbladian

SUPPORT_TOL = 1e-10
TRACE_TOL = 1e-10
LIFT_TOL = 1e-8
PATH_TOL = 1e-7


@dataclass
class SupportDecomposition:
    f: np.ndarray                 # projector onto supp(rho)
    basis: np.ndarray             # unitary, support columns first
    rank: int
    rho11: np.ndarray             # positive definite support block

    def blocks(self, x: np.ndarray):
        """(x11, x12, x21, x22) of a Hermitian x in the adapted basis."""
        xb = dag(self.basis) @ x @ self.basis
        r = self.rank
        return xb[:r, :r], xb[:r, r:], xb[r:, :r], xb[r:, r:]


@dataclass
class LiftCertificate:
    lindbladian: Lindbladian
    residual: float
    cp_margin: float


@dataclass
class PathSample:
    times: np.ndarray
    states: list[np.ndarray]
    derivs: list[np.ndarray] | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.states):
            raise ValueError("times and states length mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.derivs is not None and len(self.derivs) != len(self.states):
            raise ValueError("derivs length mismatch")


def support_projection(rho: np.ndarray, tol: float = SUPPORT_TOL) -> SupportDecomposition:
    rho = check_density(rho)
    w, V = np.linalg.eigh(hermitize(rho))
    order = np.argsort(w)[::-1]
    w, V = w[order], V[:, order]
    r = int(np.sum(w > tol))
    f = V[:, :r] @ dag(V[:, :r])
    return SupportDecomposition(f=f, basis=V, rank=r, rho11=np.diag(w[:r]).astype(complex))


def in_tangent_cone(rho: np.ndarray, x: np.ndarray, tol: float = SUPPORT_TOL) -> bool:
    """Membership in T+_rho: tr x = 0 and the doubly-perp block of x is PSD."""
    x = np.asarray(x, dtype=complex)
    if np.max(np.abs(x - dag(x))) > max(1e-10, tol):
        raise ValueError("tangent candidate must be Hermitian")
    if abs(np.trace(x).real) > max(TRACE_TOL, tol):
        return False
    dec = support_projection(rho, tol=min(tol, SUPPORT_TOL))
    if dec.rank == rho.shape[0]:
        return True
    _, _, _, x22 = dec.blocks(x)
    return bool(np.linalg.eigvalsh(hermitize(x22)).min() >= -tol)


def linear_admissible(rho: np.ndarray, x: np.ndarray,
                      tol: float = SUPPORT_TOL) -> float | None:
    """Largest eps with rho + eps x PSD; None if no eps > 0 exists;
    math.inf when the direction never leaves the cone."""
    rho = check_density(rho)
    x = hermitize(np.asarray(x, dtype=complex))
    if np.max(np.abs(x)) <= tol:
        return math.inf
    dec = support_projection(rho, tol=tol)
    r, d = dec.rank, rho.shape[0]
    if r < d:
        # feasibility for small eps: perp block PSD and cross block ranging
        # into the support of the perp block
        _, _, x21, x22 = dec.blocks(x)
        w22, V22 = np.linalg.eigh(hermitize(x22))
        if w22.min() < -tol:
            return None
        kernel = V22[:, w22 <= tol]
        if kernel.size and np.max(np.abs(dag(kernel) @ x21)) > 1e-8:
            return None
    if np.linalg.eigvalsh(x).min() >= -tol:
        return math.inf
    # bracket then bisect on lambda_min(rho + eps x) >= 0
    hi = 1.0
    while np.linalg.eigvalsh(rho + hi * x).min() >= -tol and hi < 1e12:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.linalg.eigvalsh(rho + mid * x).min() >= -tol:
            lo = mid
        else:
            hi = mid
    return lo


def second_order_witness(rho: np.ndarray, x: np.ndarray,
                         tol: float = SUPPORT_TOL) -> dict:
    """Curve witness rho + t x + t^2 x2 staying PSD on (0, eps_max].

    x2 lives on the doubly-perp block (kernel of the perp block of x) with a
    trace-compensating term on the support block; validity is certified by
    eigenchecks on a t-grid.
    """
    rho = check_density(rho)
    x = hermitize(np.asarray(x, dtype=complex))
    if not in_tangent_cone(rho, x, tol):
        raise ValueError("x is not in the tangent cone at rho")
    dec = support_projection(rho, tol=tol)
    r, d = dec.rank, rho.shape[0]
    V = dec.basis
    xb = dag(V) @ x @ V
    x2b = np.zeros((d, d), dtype=complex)
    if r < d:
        x22 = hermitize(xb[r:, r:])
        w22, V22 = np.linalg.eigh(x22)
        Vker = V22[:, w22 <= tol]          # doubly-perp directions
        if Vker.size:
            x13 = xb[:r, r:] @ Vker        # support -> kernel cross block
            B = 2.0 * dag(x13) @ np.linalg.solve(dec.rho11, x13)
            x2b[r:, r:] += Vker @ B @ dag(Vker)
            x2b[:r, :r] -= (np.trace(B) / r) * np.eye(r)
    x2 = V @ x2b @ dag(V)
    # certify: largest eps with the curve PSD on a refinement grid
    def curve_ok(eps):
        ts = np.linspace(eps / 32, eps, 32)
        return all(np.linalg.eigvalsh(rho + t * x + t * t * x2).min() >= -1e-11
                   for t in ts)
    eps = 1.0
    while eps > 1e-8 and not curve_ok(eps):
        eps *= 0.5
    if not curve_ok(eps):
        raise ValueError("could not certify a positive eps_max")
    return {"x2": hermitize(x2), "eps_max": eps}


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
    rho = check_density(rho)
    x = hermitize(np.asarray(x, dtype=complex))
    if not in_tangent_cone(rho, x, max(tol, PATH_TOL)):
        raise ValueError("x is not in the tangent cone at rho")
    dec = support_projection(rho, tol=tol)
    r, d = dec.rank, rho.shape[0]
    V = dec.basis
    xb = dag(V) @ x @ V
    # clip tiny cone violations coming from sampled derivatives
    if r < d:
        w22, V22 = np.linalg.eigh(hermitize(xb[r:, r:]))
        xb[r:, r:] = (V22 * np.clip(w22, 0.0, None)) @ dag(V22)
        xb = hermitize(xb)
        xb[:r, :r] -= (np.trace(xb).real / r) * np.eye(r)

    H = np.zeros((d, d), dtype=complex)
    jumps: list[JumpTerm] = []
    correction = np.zeros((r, r), dtype=complex)
    if r < d:
        x21 = xb[r:, :r]
        h = 1j * x21 @ np.linalg.solve(dec.rho11, np.eye(r))
        Hb = np.zeros((d, d), dtype=complex)
        Hb[r:, :r] = h
        Hb[:r, r:] = dag(h)
        H = V @ Hb @ dag(V)
        # spectral jumps for the perp block
        x22 = hermitize(xb[r:, r:])
        w22, V22 = np.linalg.eigh(x22)
        pvals = np.diag(dec.rho11).real
        p = float(pvals.max())
        phi = V[:, int(np.argmax(pvals))]
        phi_b = np.zeros(r)
        phi_b[int(np.argmax(pvals))] = 1.0
        for m in range(len(w22)):
            s = float(w22[m])
            if s <= tol:
                continue
            e_full = V[:, r:] @ V22[:, m]
            c = np.outer(e_full, phi.conj())
            jumps.append(JumpTerm(c, s / (2 * p)))
            correction -= s * np.outer(phi_b, phi_b.conj())
    # in-support remainder through a replacer generator
    y_b = xb[:r, :r] - correction
    y = V[:, :r] @ y_b @ dag(V[:, :r])
    y = hermitize(y)
    ynorm = float(np.linalg.norm(y, ord=2))
    if ynorm > tol:
        lmin = float(np.linalg.eigvalsh(dec.rho11).min().real)
        eps = 0.5 * lmin / ynorm
        if eps < 1e-12:
            raise ValueError("replacer step underflow: lambda_min(rho11) too "
                             "small relative to the in-support target")
        target = hermitize(rho + eps * y)
        rep = replacer_lindbladian(check_density(target, eig_tol=1e-9))
        jumps.extend(JumpTerm(j.a, j.rate / eps) for j in rep.jumps)
    L = Lindbladian(d, hamiltonian=hermitize(H), jumps=jumps)
    residual = float(np.linalg.norm(apply(L, rho) - x))
    cert = LiftCertificate(lindbladian=L, residual=residual,
                           cp_margin=_dissipative_choi_margin(L))
    if cert.residual > lift_tol:
        raise ValueError(f"lift residual {cert.residual} exceeds {lift_tol}")
    return cert


def central_differences(path: PathSample) -> list[np.ndarray]:
    """Second-order differences; one-sided second order at the endpoints."""
    t, s = path.times, path.states
    n = len(t)
    if n < 3:
        raise ValueError("need at least three samples to differentiate")
    out = []
    for i in range(n):
        if i == 0:
            i0, i1, i2 = 0, 1, 2
        elif i == n - 1:
            i0, i1, i2 = n - 3, n - 2, n - 1
        else:
            i0, i1, i2 = i - 1, i, i + 1
        t0, t1, t2 = t[i0], t[i1], t[i2]
        ti = t[i]
        # derivative of the Lagrange interpolant at t_i
        d0 = (2 * ti - t1 - t2) / ((t0 - t1) * (t0 - t2))
        d1 = (2 * ti - t0 - t2) / ((t1 - t0) * (t1 - t2))
        d2 = (2 * ti - t0 - t1) / ((t2 - t0) * (t2 - t1))
        out.append(hermitize(d0 * s[i0] + d1 * s[i1] + d2 * s[i2]))
    return out


def lift_path(path: PathSample, path_tol: float = PATH_TOL,
              support_tol: float = 1e-8) -> dict:
    """Per-sample Lindbladian lifts along a sampled path with their lift
    residuals, trapezoidal integrability estimates of 1/lambda_min and
    lambda_min^{-1/2} and a piecewise-constant-generator reconstruction
    error."""
    derivs = path.derivs if path.derivs is not None else central_differences(path)
    lam = []
    gens: list[Lindbladian] = []
    residual = []
    for idx, (rho_t, xdot) in enumerate(zip(path.states, derivs)):
        xdot = hermitize(xdot)
        xdot = xdot - (np.trace(xdot).real / rho_t.shape[0]) * np.eye(rho_t.shape[0])
        if not in_tangent_cone(rho_t, xdot, path_tol):
            raise ValueError(f"sample {idx} fails tangent-cone membership")
        w = np.linalg.eigvalsh(hermitize(rho_t))
        wpos = w[w > support_tol]
        lam.append(float(wpos.min()) if wpos.size else 0.0)
        cert = lift(rho_t, xdot, tol=support_tol,
                    lift_tol=max(LIFT_TOL, 10 * path_tol))
        gens.append(cert.lindbladian)
        residual.append(cert.residual)
    lam = np.asarray(lam)
    t = path.times
    integ = {
        "int_inv_lambda": float(np.trapezoid(1.0 / lam, t)),
        "int_inv_sqrt_lambda": float(np.trapezoid(lam ** -0.5, t)),
    }
    # piecewise-constant reconstruction from the initial sample
    eta = path.states[0]
    for i in range(len(t) - 1):
        dt = t[i + 1] - t[i]
        S = channel_superop(gens[i], dt)
        eta = hermitize(apply_superop(S, eta))
    err = trace_distance(eta, path.states[-1])
    return {"generators": gens, "integrability": integ, "lambda_min": lam,
            "residual": np.asarray(residual), "reconstruction_error": float(err)}
