"""Output checks for benchmark jobs, written with numpy and scipy only.

Nothing here imports lindreach: each check recomputes what the job's JSON
report claims from the job's inputs, with its own formulas, and raises
``Mismatch`` when the report disagrees.  Vectorization here is row-major
(``vec(A X B) = (A kron B^T) vec(X)``), the opposite convention to the
package, so a shared convention bug cannot cancel out.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla


class Mismatch(Exception):
    """A job's report disagrees with the oracle."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# ----------------------------------------------------------- JSON matrices

def to_obj(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    return {"dim": int(M.shape[0]),
            "entries": [[float(z.real), float(z.imag)] for z in M.reshape(-1)]}


def from_obj(obj: dict) -> np.ndarray:
    d = int(obj["dim"])
    entries = np.asarray(obj["entries"], dtype=float)
    require(entries.shape == (d * d, 2), f"matrix entries have shape {entries.shape}")
    return (entries[:, 0] + 1j * entries[:, 1]).reshape(d, d)


def jumps_from_obj(L: dict) -> tuple[np.ndarray, list[tuple[np.ndarray, float]]]:
    d = int(L["dim"])
    H = from_obj(L["hamiltonian"]) if L.get("hamiltonian") else np.zeros((d, d))
    jumps = [(from_obj(j["a"]), float(j["rate"])) for j in L.get("jumps", [])]
    require(L.get("bilinear") is None, "bilinear terms are not expected here")
    return H, jumps


# ------------------------------------------------------------ linear algebra

def dag(A: np.ndarray) -> np.ndarray:
    return A.conj().T


def herm_eigs(A: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((A + dag(A)) / 2)


def schatten(A: np.ndarray, p: float) -> float:
    """Schatten p-norm of a Hermitian matrix."""
    return float((np.abs(herm_eigs(A)) ** p).sum() ** (1.0 / p))


def require_density(rho: np.ndarray, tol: float, what: str) -> None:
    require(bool(np.all(np.isfinite(rho))), f"{what} has non-finite entries")
    require(np.max(np.abs(rho - dag(rho))) <= tol, f"{what} is not Hermitian")
    require(abs(np.trace(rho).real - 1.0) <= tol, f"{what} trace is not 1")
    require(herm_eigs(rho).min() >= -tol, f"{what} is not PSD")


def gksl_apply(H: np.ndarray, jumps, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_r rate (2 a rho a^* - a^*a rho - rho a^*a)."""
    out = -1j * (H @ rho - rho @ H)
    for a, rate in jumps:
        aa = dag(a) @ a
        out = out + rate * (2 * a @ rho @ dag(a) - aa @ rho - rho @ aa)
    return out


def gksl_superop(H: np.ndarray, jumps) -> np.ndarray:
    """Row-major matrix of gksl_apply: vec(A X B) = (A kron B^T) vec(X)."""
    d = H.shape[0]
    eye = np.eye(d)
    S = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for a, rate in jumps:
        aa = dag(a) @ a
        S = S + rate * (2 * np.kron(a, a.conj()) - np.kron(aa, eye)
                        - np.kron(eye, aa.T))
    return S


def three_point_derivs(times: np.ndarray, states: list[np.ndarray]) -> list[np.ndarray]:
    """Derivative of the three-point Lagrange interpolant at each sample
    (one-sided at the ends)."""
    n = len(times)
    out = []
    for i in range(n):
        c = min(max(i, 1), n - 2)
        idx = (c - 1, c, c + 1)
        t = [times[j] for j in idx]
        w = [(2 * times[i] - t[(m + 1) % 3] - t[(m + 2) % 3])
             / ((t[m] - t[(m + 1) % 3]) * (t[m] - t[(m + 2) % 3]))
             for m in range(3)]
        out.append(sum(wm * states[j] for wm, j in zip(w, idx)))
    return out


# ------------------------------------------------------------------ checks

def check_reach(out: dict, rho0, sigma, p: float, dt: float, t_max: float) -> None:
    final = from_obj(out["final_state"])
    require_density(final, 1e-8, "final state")
    start = schatten(rho0 - sigma, p)
    end = schatten(final - sigma, p)
    require(end <= start + 1e-12, f"p-distance grew from {start} to {end}")
    if not out["reached"] and out["stall"] is None:
        want = round(t_max / dt)
        require(out["n_steps"] == want, f"n_steps {out['n_steps']} != {want}")


def check_porcupine(out: dict, n_samples: int, epsilon: float, p: float,
                    has_replacer: bool, expect_obstruction: bool | None) -> None:
    require(out["samples"] == n_samples,
            f"samples {out['samples']} != n_samples {n_samples}")
    best = out["min_alignment_over_samples"]
    require(math.isfinite(best), "min alignment is not finite")
    if has_replacer and p == 2:
        # alignment of R_sigma - id is tr((sigma - eta)(eta - sigma)) = -eps^2
        require(best <= -epsilon ** 2 * (1 - 1e-9),
                f"min alignment {best} > -eps^2 = {-epsilon ** 2}")
    if expect_obstruction is not None:
        require(out["obstruction_evidence"] is expect_obstruction,
                f"obstruction_evidence is {out['obstruction_evidence']}")


def check_plan(out: dict, k: int) -> None:
    counts = out["counts"]
    require(counts["infinite_damps"] == k,
            f"infinite_damps {counts['infinite_damps']} != k = {k}")
    require(out["k"] == k and len(out["steps"]) > 0, "plan header is wrong")


def check_run_plan(out: dict, mu: np.ndarray) -> None:
    M = from_obj(out)
    require(np.max(np.abs(np.diag(M).real - mu)) <= 1e-8, "diagonal differs from mu")
    off = M - np.diag(np.diag(M))
    require(np.max(np.abs(off)) <= 1e-8, "off-diagonal entries are not 0")


def check_simulate(out: dict, H, jumps, rho, t: float) -> None:
    d = rho.shape[0]
    want = (sla.expm(t * gksl_superop(H, jumps)) @ rho.reshape(-1)).reshape(d, d)
    got = from_obj(out)
    err = float(np.max(np.abs(got - want)))
    require(err <= 1e-8, f"simulate differs from expm reference by {err}")


def check_certify(out: dict, expected: bool) -> None:
    require(out["in_tangent_cone"] is expected,
            f"in_tangent_cone is {out['in_tangent_cone']}, expected {expected}")


def check_lift(out: dict, rho, x) -> None:
    H, jumps = jumps_from_obj(out["lindbladian"])
    require(all(rate >= 0 for _, rate in jumps), "negative jump rate")
    resid = float(np.linalg.norm(gksl_apply(H, jumps, rho) - x))
    require(resid <= 1e-8, f"recomputed lift residual {resid}")
    require(abs(resid - out["residual"]) <= 1e-9,
            f"reported residual {out['residual']} != recomputed {resid}")


def check_lift_path(out: dict, times, states) -> None:
    gens = out["generators"]
    require(len(gens) == len(states), f"{len(gens)} generators for {len(states)} samples")
    for i, (L, rho, x) in enumerate(zip(gens, states, three_point_derivs(times, states))):
        H, jumps = jumps_from_obj(L)
        require(all(rate >= 0 for _, rate in jumps), f"sample {i}: negative jump rate")
        resid = float(np.linalg.norm(gksl_apply(H, jumps, rho) - x))
        require(resid <= 1e-6, f"sample {i}: L(rho) misses the derivative by {resid}")
    require(math.isfinite(out["reconstruction_error"]), "reconstruction error not finite")


def check_hormander(out: dict, expected: bool, d: int) -> None:
    require(out["is_hormander"] is expected,
            f"is_hormander is {out['is_hormander']}, expected {expected}")
    require(len(out["basis"]) == out["dim_found"], "basis size != dim_found")
    if expected:
        require(out["dim_found"] == d * d - 1, "closure is not su(d)")
    else:
        require(out["dim_found"] < d * d - 1, "commuting closure spans su(d)")


def check_dilate(out: dict, ns: list[int]) -> None:
    errs = out["errors"]
    require([e["n"] for e in errs] == ns, "Trotter counts differ")
    vals = [e["error"] for e in errs]
    for (n0, e0), (n1, e1) in zip(zip(ns, vals), zip(ns[1:], vals[1:])):
        # first-order Trotter: error ~ 1/n
        ratio = e0 / e1 if e1 > 0 else math.inf
        want = n1 / n0
        require(0.75 * want <= ratio <= 1.25 * want,
                f"error ratio {ratio} for n {n0} -> {n1}, expected about {want}")


def check_gamma(out: dict, jumps, x) -> None:
    G = from_obj(out["gamma"])
    # Gamma(x, x) = 2 sum_r rate [x, a]^* [x, a] for the Heisenberg generator
    want = sum(2 * rate * dag(x @ a - a @ x) @ (x @ a - a @ x) for a, rate in jumps)
    scale = max(1.0, float(np.max(np.abs(want))))
    require(herm_eigs(G).min() >= -1e-9 * scale, "Gamma(x, x) is not PSD")
    require(np.max(np.abs(G - want)) <= 1e-9 * scale,
            "Gamma(x, x) differs from 2 sum rate [x,a]^*[x,a]")
