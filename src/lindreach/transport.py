# Amplitude-damping + transposition transport plans on k-qubit diagonal
# states: pure-state preparation, pair-matching build phase with a ratio
# ledger, full-state transport, closed-form plan execution and gate counts.

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .linalg import check_density, dag, hermitize, require_dim

PLAN_TOL = 1e-8
RATIO_TOL = 1e-14


@dataclass
class ApplyUnitary:
    U: np.ndarray
    kind: str = "unitary"

    def __post_init__(self):
        U = np.asarray(self.U)
        square = U.ndim == 2 and U.shape[0] == U.shape[1]
        # NaN fails the comparison, so it is rejected too
        if not (square and np.max(np.abs(U @ dag(U) - np.eye(len(U)))) <= PLAN_TOL):
            raise ValueError("U must be a unitary matrix")


@dataclass
class AmplitudeDamp:
    register: int
    retention: float          # alpha = e^{-2t}; alpha = 0 is the infinite damp
    kind: str = "amplitude_damp"

    def __post_init__(self):
        self.register = int(self.register)
        self.retention = float(self.retention)
        if not 0.0 <= self.retention <= 1.0:
            raise ValueError("retention must lie in [0, 1]")


@dataclass
class Transposition:
    i: int
    j: int
    kind: str = "transposition"

    def __post_init__(self):
        self.i, self.j = int(self.i), int(self.j)
        if self.i == self.j:
            raise ValueError("transposition indices must differ")


PlanStep = ApplyUnitary | AmplitudeDamp | Transposition


@dataclass
class RatioLedger:
    entries: list[list[float]] = field(default_factory=list)

    def record(self, ratios: list[float]):
        self.entries.append(list(ratios))

    def is_nondecreasing(self) -> bool:
        return all(all(e[i] <= e[i + 1] + 1e-12 for i in range(len(e) - 1))
                   for e in self.entries)


@dataclass
class TransportPlan:
    k: int
    steps: list[PlanStep] = field(default_factory=list)
    ratio_ledger: RatioLedger = field(default_factory=RatioLedger)

    @property
    def dim(self) -> int:
        return 2 ** self.k

    @property
    def counts(self) -> dict:
        c = {"infinite_damps": 0, "finite_damps": 0, "transpositions": 0,
             "adjacent_transpositions": 0, "unitaries": 0}
        for s in self.steps:
            if isinstance(s, AmplitudeDamp):
                key = "infinite_damps" if s.retention == 0.0 else "finite_damps"
                c[key] += 1
            elif isinstance(s, Transposition):
                c["transpositions"] += 1
                c["adjacent_transpositions"] += 2 * abs(s.i - s.j) - 1
            else:
                c["unitaries"] += 1
        return c


def _register_view(x: np.ndarray, register: int, k: int) -> np.ndarray:
    """x with every axis split as (higher registers, register bit, lower
    registers); register 0 is the most significant bit of a basis index."""
    if not 0 <= register < k:
        raise ValueError(f"register {register} outside 0..{k - 1}")
    return x.reshape((2 ** register, 2, 2 ** (k - 1 - register)) * x.ndim)


def _damp_diag(d: np.ndarray, register: int, k: int,
               retention: float) -> np.ndarray:
    """Action of an amplitude damp on a diagonal population vector."""
    v = _register_view(d.copy(), register, k)
    v[:, 0] += (1.0 - retention) * v[:, 1]
    v[:, 1] *= retention
    return v.reshape(-1)


def apply_step_diag(d: np.ndarray, step: PlanStep, k: int) -> np.ndarray:
    if isinstance(step, AmplitudeDamp):
        return _damp_diag(d, step.register, k, step.retention)
    if isinstance(step, Transposition):
        d = d.copy()
        d[step.i], d[step.j] = d[step.j], d[step.i]
        return d
    raise ValueError("diagonal simulation supports damp/transposition steps only")


def prepare_pure_plan(k: int) -> TransportPlan:
    """Plan collapsing every diagonal density to diag(1, 0, ..., 0).

    Alternates infinite damps on register 0 with transposition blocks that
    hoist the surviving upper sub-block into the damped half; k infinite
    damps and 2^{k-1} - 1 transpositions in total.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    plan = TransportPlan(k)
    half = 2 ** (k - 1)
    plan.steps.append(AmplitudeDamp(0, 0.0))
    for s in range(1, k):
        width = 2 ** (k - s - 1)
        for q in range(width, 2 * width):
            plan.steps.append(Transposition(q, q - width + half))
        plan.steps.append(AmplitudeDamp(0, 0.0))
    return plan


def _build_from_pure(mu: np.ndarray, k: int, steps: list[PlanStep],
                     register_offset: int, ledger: RatioLedger | None,
                     sim: list[np.ndarray]):
    """Steps mapping diag(1, 0, ...) to diag(mu) on registers
    register_offset ... register_offset + k - 1.

    Recursive pair matching: build the pair sums on the lower half, then
    activate pairs in ascending target-ratio order and interleave global
    finite damps so every pair lands on its target ratio simultaneously.
    """
    if k == 0:
        return
    n = 2 ** k
    half = n // 2
    sums = mu[:half] + mu[half:]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(sums > RATIO_TOL, mu[half:] / np.where(sums > 0, sums, 1.0), 0.0)
    order = np.argsort(ratios, kind="stable")
    sorted_sums = sums[order]
    sorted_ratios = ratios[order]
    total_k = register_offset + k  # registers in the simulated system
    _build_from_pure(sorted_sums, k - 1, steps, register_offset + 1, None, sim)

    matched = sorted_ratios <= RATIO_TOL  # parked pairs are final already

    def emit(step, record=False):
        steps.append(step)
        sim[0] = apply_step_diag(sim[0], step, total_k)
        if record and ledger is not None:
            dd = sim[0]
            vals = []
            for j in range(half):
                if not matched[j]:
                    continue
                s = dd[j] + dd[half + j]
                vals.append(dd[half + j] / s if s > RATIO_TOL else 0.0)
            ledger.record(vals)

    # split phase: ascending target ratio, global damps interleaved
    for j in range(half):
        r = sorted_ratios[j]
        r_next = sorted_ratios[j + 1] if j + 1 < half else 1.0
        if r > RATIO_TOL:
            matched[j] = True
            emit(Transposition(j, half + j), record=True)
        retention = r / r_next if r_next > RATIO_TOL else 1.0
        if r > RATIO_TOL and retention < 1.0 - 1e-15:
            emit(AmplitudeDamp(register_offset, float(retention)), record=True)
    # final permutation returning sorted pairs to their target slots
    perm = np.empty(n, dtype=int)
    for j in range(half):
        perm[j] = order[j]
        perm[half + j] = order[j] + half
    _emit_permutation(perm, emit)


def _emit_permutation(perm: np.ndarray, emit):
    """Realize new[perm[j]] = old[j] as transpositions (cycle decomposition)."""
    n = len(perm)
    seen = np.zeros(n, dtype=bool)
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        for idx in cyc[1:]:
            emit(Transposition(cyc[0], idx))


def base_case_4(mu: np.ndarray) -> dict:
    """Parameters and plan for the 4-level build from diag(1, 0, 0, 0).

    alpha = mu_0 + mu_2 and gamma = mu_0 / alpha in 0-based indexing; beta
    follows the two-parameter pair system with degenerate denominators
    resolved to the no-op / full-damp limits. The plan itself comes from the
    general pair-matching builder and is certified by execution.
    """
    mu = np.asarray(mu, dtype=float)
    if len(mu) != 4 or np.any(mu < -1e-12) or abs(mu.sum() - 1.0) > 1e-9:
        raise ValueError("mu must be a probability 4-vector")
    alpha = float(mu[0] + mu[2])
    gamma = float(mu[0] / alpha) if alpha > RATIO_TOL else 1.0
    beta = float((mu[1] + mu[3]) / (alpha - 1.0) + 1.0) if abs(alpha - 1.0) > RATIO_TOL else 0.0
    plan = TransportPlan(2)
    sim = [np.array([1.0, 0.0, 0.0, 0.0])]
    _build_from_pure(mu, 2, plan.steps, 0, plan.ratio_ledger, sim)
    return {"alpha": alpha, "beta": beta, "gamma": gamma, "plan": plan}


def plan_diagonal_transport(lam: np.ndarray, mu: np.ndarray,
                            k: int) -> TransportPlan:
    """Plan steering diag(lam) to diag(mu): collapse to the pure state, then
    run the pair-matching build phase toward mu."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    n = 2 ** k
    for v in (lam, mu):
        if (len(v) != n or not np.all(np.isfinite(v)) or np.any(v < -1e-12)
                or abs(v.sum() - 1.0) > 1e-9):
            raise ValueError("lam and mu must be probability vectors of length 2^k")
    plan = prepare_pure_plan(k)
    pure = np.zeros(n)
    pure[0] = 1.0
    sim = [pure]
    _build_from_pure(mu, k, plan.steps, 0, plan.ratio_ledger, sim)
    if not plan.ratio_ledger.is_nondecreasing():
        raise RuntimeError("ratio ledger violated monotonicity")
    if np.max(np.abs(sim[0] - mu)) > PLAN_TOL:
        raise RuntimeError("build phase missed the target distribution")
    return plan


def full_state_transport(rho: np.ndarray, sigma: np.ndarray) -> TransportPlan:
    """Diagonalize rho, transport spectra, then rotate onto sigma's
    eigenbasis; the two conjugations are explicit unitary steps."""
    rho = check_density(rho)
    sigma = check_density(sigma)
    d = rho.shape[0]
    k = int(round(math.log2(d)))
    if 2 ** k != d:
        raise ValueError("dimension must be a power of 2")
    wr, Vr = np.linalg.eigh(hermitize(rho))
    ws, Vs = np.linalg.eigh(hermitize(sigma))
    wr, Vr = wr[::-1], Vr[:, ::-1]
    ws, Vs = ws[::-1], Vs[:, ::-1]
    lam = np.clip(wr, 0.0, None)
    mu = np.clip(ws, 0.0, None)
    lam, mu = lam / lam.sum(), mu / mu.sum()
    inner = plan_diagonal_transport(lam, mu, k)
    plan = TransportPlan(k, ratio_ledger=inner.ratio_ledger)
    plan.steps.append(ApplyUnitary(dag(Vr)))
    plan.steps.extend(inner.steps)
    plan.steps.append(ApplyUnitary(Vs))
    return plan


def apply_step(rho: np.ndarray, step: PlanStep, k: int) -> np.ndarray:
    """One plan step applied in closed form."""
    if isinstance(step, ApplyUnitary):
        require_dim(len(rho), U=step.U)
        return step.U @ rho @ dag(step.U)
    if isinstance(step, Transposition):
        d = 2 ** k
        if not (0 <= step.i < d and 0 <= step.j < d):
            raise ValueError(f"transposition ({step.i}, {step.j}) outside 0..{d - 1}")
        perm = np.arange(d)
        perm[[step.i, step.j]] = step.j, step.i
        return rho[np.ix_(perm, perm)]
    if isinstance(step, AmplitudeDamp):
        # Kraus pair K0 = P0 + sqrt(a) P1, K1 = sqrt(1 - a) |0><1| on the
        # register: exp(t D_{|0><1|}) at a = e^{-2t}, its t -> inf limit at a = 0
        a = step.retention
        v = _register_view(rho, step.register, k)
        s = np.sqrt([1.0, a])
        out = v * s[:, None, None, None, None] * s[:, None]
        out[:, 0, :, :, 0] += (1.0 - a) * v[:, 1, :, :, 1]
        return out.reshape(rho.shape)
    raise ValueError(f"unknown step kind {step!r}")


def plan_states(plan: TransportPlan, rho: np.ndarray) -> Iterator[np.ndarray]:
    """Yield rho, then the state after each step, every one validated as a
    density matrix."""
    rho = check_density(rho)
    if rho.shape[0] != plan.dim:
        raise ValueError("plan and state dimensions differ")
    yield rho
    for step in plan.steps:
        rho = check_density(hermitize(apply_step(rho, step, plan.k)), eig_tol=1e-8)
        yield rho


def execute_plan(plan: TransportPlan, rho: np.ndarray) -> np.ndarray:
    for out in plan_states(plan, rho):
        pass
    return out
