# Amplitude-damping + transposition transport plans on k-qubit diagonal
# states: pure-state preparation, pair-matching build phase with a ratio
# ledger, full-state transport, closed-form plan execution and gate counts.

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .linalg import (_check_built, _check_state, dag, hermitize, is_diagonal,
                     require_dim)

PLAN_TOL = 1e-8
RATIO_TOL = 1e-14


@dataclass
class ApplyUnitary:
    U: np.ndarray
    kind: ClassVar[str] = "unitary"

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
    kind: ClassVar[str] = "amplitude_damp"

    def __post_init__(self):
        self.register = int(self.register)
        self.retention = float(self.retention)
        if not 0.0 <= self.retention <= 1.0:
            raise ValueError("retention must lie in [0, 1]")


@dataclass
class Transposition:
    i: int
    j: int
    kind: ClassVar[str] = "transposition"

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


@functools.cache
def _register_pairs(register: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis indices whose register bit is 0 and 1, in matching order;
    register 0 is the most significant bit of a basis index."""
    if not 0 <= register < k:
        raise ValueError(f"register {register} outside 0..{k - 1}")
    bit = 1 << (k - 1 - register)
    lo = np.flatnonzero((np.arange(2 ** k) & bit) == 0)
    hi = lo + bit
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


def apply_step_diag(d: np.ndarray, step: PlanStep, k: int) -> np.ndarray:
    """A damp or transposition applied to a diagonal population vector; each
    entry is the one apply_step computes on the diagonal of diag(d)."""
    d = d.copy()
    if isinstance(step, AmplitudeDamp):
        lo, hi = _register_pairs(step.register, k)
        a = step.retention
        s = math.sqrt(a)
        h = d[hi]
        d[lo] += (1.0 - a) * h
        d[hi] = h * s * s     # by sqrt(a) twice, in the order of the Kraus rule
    elif isinstance(step, Transposition):
        d[step.i], d[step.j] = d[step.j], d[step.i]
    else:
        raise ValueError("diagonal simulation supports damp/transposition steps only")
    return d


def _require_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")


def prepare_pure_plan(k: int) -> TransportPlan:
    """Plan collapsing every diagonal density to diag(1, 0, ..., 0).

    Alternates infinite damps on register 0 with transposition blocks that
    hoist the surviving upper sub-block into the damped half; k infinite
    damps and 2^{k-1} - 1 transpositions in total.
    """
    _require_k(k)
    plan = TransportPlan(k)
    half = 2 ** (k - 1)
    plan.steps.append(AmplitudeDamp(0, 0.0))
    for s in range(1, k):
        width = 2 ** (k - s - 1)
        for q in range(width, 2 * width):
            plan.steps.append(Transposition(q, q - width + half))
        plan.steps.append(AmplitudeDamp(0, 0.0))
    return plan


def _build_from_pure(mu: np.ndarray, k: int,
                     ledger: RatioLedger) -> tuple[list[PlanStep], np.ndarray]:
    """Steps mapping diag(1, 0, ..., 0) to diag(mu), and the populations
    they reach.

    Top-down, register r pairs the two halves of its vector, sorts the pairs
    by target ratio and hands the sorted pair sums to register r + 1.
    Bottom-up, each register activates its pairs in ascending ratio order
    with damps interleaved, so all land on their ratios together, then
    permutes the pairs back. The ledger holds register 0's matched ratios.
    """
    levels = []
    for _ in range(k):
        half = len(mu) // 2
        sums = mu[:half] + mu[half:]
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios = np.where(sums > RATIO_TOL, mu[half:] / np.where(sums > 0, sums, 1.0), 0.0)
        order = np.argsort(ratios, kind="stable")
        levels.append((ratios[order].tolist(), order.tolist()))
        mu = sums[order]
    steps: list[PlanStep] = []
    pop = np.eye(1, 2 ** k)[0]
    for register in reversed(range(k)):
        ratios, order = levels[register]
        half = len(order)
        for j, r in enumerate(ratios):
            if r <= RATIO_TOL:  # parked pairs lead the ascending order
                continue
            split = [Transposition(j, half + j)]
            retention = r / ratios[j + 1] if j + 1 < half else r
            if retention < 1.0 - 1e-15:
                split.append(AmplitudeDamp(register, retention))
            for step in split:
                pop = apply_step_diag(pop, step, k)
                if register == 0:  # a parked pair's upper entry stays 0
                    p = pop.tolist()
                    totals = [p[i] + p[half + i] for i in range(j + 1)]
                    ledger.record([p[half + i] / s if s > 0 else 0.0 for i, s in enumerate(totals)])
            steps += split
        perm = _permutation_steps(order + [o + half for o in order])
        for step in perm:
            pop = apply_step_diag(pop, step, k)
        steps += perm
    return steps, pop


def _permutation_steps(perm: list[int]) -> list[Transposition]:
    """Transpositions realizing new[perm[j]] = old[j], one cycle at a time."""
    steps = []
    seen = [False] * len(perm)
    for start, nxt in enumerate(perm):
        if seen[start]:
            continue
        seen[start] = True
        while nxt != start:
            seen[nxt] = True
            steps.append(Transposition(start, nxt))
            nxt = perm[nxt]
    return steps


def _require_distribution(n: int, **vectors) -> list[np.ndarray]:
    """The vectors as float arrays, once each is a probability vector of
    length n; an error names the first that is not."""
    out = []
    for name, v in vectors.items():
        v = np.asarray(v, dtype=float)
        if (v.shape != (n,) or not np.all(np.isfinite(v)) or np.any(v < -1e-12)
                or abs(v.sum() - 1.0) > 1e-9):
            raise ValueError(f"{name} must be a probability vector of length {n} "
                             "(probability vectors are finite, >= -1e-12, sum 1)")
        out.append(v)
    return out


def _certified_build(mu: np.ndarray, k: int, ledger: RatioLedger) -> list[PlanStep]:
    """The build steps to diag(mu), once the ledger is nondecreasing and the
    populations they reach are within PLAN_TOL of mu."""
    steps, pop = _build_from_pure(mu, k, ledger)
    if not ledger.is_nondecreasing():
        raise RuntimeError("ratio ledger violated monotonicity")
    if np.max(np.abs(pop - mu)) > PLAN_TOL:
        raise RuntimeError("build phase missed the target distribution")
    return steps


def base_case_4(mu: np.ndarray) -> dict:
    """Parameters and plan for the 4-level build from diag(1, 0, 0, 0).

    alpha = mu_0 + mu_2 and gamma = mu_0 / alpha in 0-based indexing; beta
    follows the two-parameter pair system with degenerate denominators
    resolved to the no-op / full-damp limits. The plan itself comes from the
    general pair-matching builder, certified as plan_diagonal_transport's is.
    """
    mu, = _require_distribution(4, mu=mu)
    alpha = float(mu[0] + mu[2])
    gamma = float(mu[0] / alpha) if alpha > RATIO_TOL else 1.0
    beta = float((mu[1] + mu[3]) / (alpha - 1.0) + 1.0) if abs(alpha - 1.0) > RATIO_TOL else 0.0
    plan = TransportPlan(2)
    plan.steps = _certified_build(mu, 2, plan.ratio_ledger)
    return {"alpha": alpha, "beta": beta, "gamma": gamma, "plan": plan}


def plan_diagonal_transport(lam: np.ndarray, mu: np.ndarray,
                            k: int) -> TransportPlan:
    """Plan steering diag(lam) to diag(mu): collapse to the pure state, then
    run the pair-matching build phase toward mu."""
    _require_k(k)
    _, mu = _require_distribution(2 ** k, lam=lam, mu=mu)
    plan = prepare_pure_plan(k)
    plan.steps += _certified_build(mu, k, plan.ratio_ledger)
    return plan


def full_state_transport(rho: np.ndarray, sigma: np.ndarray) -> TransportPlan:
    """Diagonalize rho, transport spectra, then rotate onto sigma's
    eigenbasis; the two conjugations are explicit unitary steps."""
    _, wr, Vr = _check_state(rho, "rho", vectors=True)
    d = len(wr)
    _, ws, Vs = _check_state(sigma, "sigma", d, vectors=True)
    k = int(round(math.log2(d)))
    if 2 ** k != d:
        raise ValueError("dimension must be a power of 2")
    wr, Vr = wr[::-1], Vr[:, ::-1]
    ws, Vs = ws[::-1], Vs[:, ::-1]
    lam = np.clip(wr, 0.0, None)
    mu = np.clip(ws, 0.0, None)
    lam, mu = lam / lam.sum(), mu / mu.sum()
    plan = plan_diagonal_transport(lam, mu, k)
    plan.steps = [ApplyUnitary(dag(Vr)), *plan.steps, ApplyUnitary(Vs)]
    return plan


def apply_step(x: np.ndarray, step: PlanStep, k: int) -> np.ndarray:
    """One plan step applied in closed form to a density matrix, or by
    apply_step_diag to a 1-D population vector (damps and transpositions)."""
    d = 2 ** k
    if len(x) != d:
        raise ValueError(f"state dimension {len(x)} is not 2^k = {d}")
    if isinstance(step, Transposition) and not (0 <= step.i < d and 0 <= step.j < d):
        raise ValueError(f"transposition ({step.i}, {step.j}) outside 0..{d - 1}")
    if x.ndim == 1:
        return apply_step_diag(x, step, k)
    if isinstance(step, ApplyUnitary):
        require_dim(len(x), U=step.U)
        return step.U @ x @ dag(step.U)
    if isinstance(step, Transposition):
        perm = np.arange(len(x))
        perm[step.i], perm[step.j] = step.j, step.i
        return x.take(perm, 0).take(perm, 1)
    if isinstance(step, AmplitudeDamp):
        # Kraus pair K0 = P0 + sqrt(a) P1, K1 = sqrt(1 - a) |0><1| on the
        # register: exp(t D_{|0><1|}) at a = e^{-2t}, its t -> inf limit at a = 0
        a = step.retention
        lo, hi = _register_pairs(step.register, k)
        s = np.ones(d)
        s[hi] = math.sqrt(a)
        out = x * s[:, None] * s
        out[lo[:, None], lo] += (1.0 - a) * x.take(hi, 0).take(hi, 1)
        return out
    raise ValueError(f"unknown step kind {step!r}")


def _checked_states(plan: TransportPlan, rho: np.ndarray) -> Iterator[np.ndarray]:
    """rho, then the state after each step: its d x d matrix, or its
    population vector while it is exactly diagonal.

    Each state is checked once: damps and unitaries are hermitized and
    checked with check_density's tests but the Hermiticity test, which
    hermitize's output cannot fail, a diagonal state on its populations,
    which are its spectrum (both _check_built), and a transposition permutes
    entries that were already checked.
    """
    rho = _check_state(rho, "rho", plan.dim)[0]
    yield rho
    # the input is the only state that may be inexactly Hermitian, and a
    # transposition is not followed by hermitize
    if plan.steps and isinstance(plan.steps[0], Transposition):
        rho = hermitize(rho)
    x = _populations_if_diagonal(rho)
    for step in plan.steps:
        if x.ndim == 1 and isinstance(step, ApplyUnitary):
            x = _as_matrix(x)
        x = apply_step(x, step, plan.k)
        if isinstance(step, Transposition):
            pass
        elif x.ndim == 1:
            x = _check_built(x)
        else:
            x = _populations_if_diagonal(_check_built(hermitize(x)))
        yield x


def _populations_if_diagonal(rho: np.ndarray) -> np.ndarray:
    return rho.diagonal().real if is_diagonal(rho) else rho


def _as_matrix(x: np.ndarray) -> np.ndarray:
    return x if x.ndim == 2 else np.diag(x).astype(complex)


def plan_states(plan: TransportPlan, rho: np.ndarray) -> Iterator[np.ndarray]:
    """Yield rho, then the state after each step as a density matrix, each
    checked once (see _checked_states)."""
    for x in _checked_states(plan, rho):
        yield _as_matrix(x)


def execute_plan(plan: TransportPlan, rho: np.ndarray) -> np.ndarray:
    for x in _checked_states(plan, rho):
        pass
    return _as_matrix(x)
