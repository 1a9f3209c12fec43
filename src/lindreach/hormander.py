# Lie-closure certification of resource sets and randomized unitary-orbit
# span probes.

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import (SPAN_DROP_TOL, SPAN_TOL, dag, extend_basis, hermitize,
                     span_residual)


@dataclass
class ResourceSet:
    dim: int
    elements: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.elements = [np.asarray(e, dtype=complex) for e in self.elements]
        for i, e in enumerate(self.elements):
            if e.shape != (self.dim, self.dim):
                raise ValueError("resource element dimension mismatch")
            if not np.all(np.isfinite(e)):
                raise ValueError(f"resource element {i} has non-finite entries")


@dataclass
class LieClosureReport:
    basis: list[np.ndarray]
    dim_found: int
    depth_used: int
    is_hormander: bool


def lie_closure(S: ResourceSet, max_depth: int = 20) -> LieClosureReport:
    """Iterated-commutator closure of the traceless anti-Hermitian parts of S.

    Hermitian content of an element enters as iH, anti-Hermitian content as
    it is, and identity components are projected out. Each round brackets
    the whole basis with the generators, so a round that adds nothing would
    hand the next one the same input: the closure stops there, at su(d) or
    at max_depth, and depth_used is the depth of the last round that added a
    direction. is_hormander iff the closure spans su(d).
    """
    if not S.elements:
        raise ValueError("resource set is empty")
    if (isinstance(max_depth, bool) or not isinstance(max_depth, numbers.Integral)
            or max_depth < 1):
        raise ValueError(f"max_depth must be an integer >= 1, got {max_depth!r}")
    d = S.dim
    E = np.asarray(S.elements)
    gens = np.concatenate([1j * hermitize(E), E - hermitize(E)])
    gens -= np.trace(gens, axis1=1, axis2=2)[:, None, None] / d * np.eye(d)
    gens = gens[np.linalg.norm(gens, axis=(1, 2)) > SPAN_DROP_TOL]
    basis = extend_basis(np.zeros((0, d, d), dtype=complex), gens)
    target = d * d - 1
    depth = 1
    while depth < max_depth and len(basis) < target:
        b, g = basis[:, None], gens[None]
        grown = extend_basis(basis, (b @ g - g @ b).reshape(-1, d, d))
        if len(grown) == len(basis):
            break
        basis, depth = grown, depth + 1
    return LieClosureReport(basis=list(basis), dim_found=len(basis),
                            depth_used=depth,
                            is_hormander=len(basis) == target)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Gaussian matrix with phase fix."""
    Z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def orbit_span_probe(a: np.ndarray, seed: int = 0) -> dict:
    """Randomized check whether |0><1| lies in the real span of the unitary
    orbit of {a, a^*} (traceless parts), from at most 200 samples that each
    extend a basis of it. Evidence, not proof."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    a = a - (np.trace(a) / d) * np.eye(d)
    rng = np.random.default_rng(seed)
    e01 = np.zeros((d, d), dtype=complex)
    e01[0, 1] = 1.0
    basis = np.zeros((0, d, d), dtype=complex)
    stagnant = 0
    used = 0
    for _ in range(200):
        U = haar_unitary(d, rng)
        k = len(basis)
        basis = extend_basis(basis, dag(U) @ np.stack([a, dag(a)]) @ U)
        used += 1
        stagnant = 0 if len(basis) > k else stagnant + 1
        if stagnant >= 5 or len(basis) >= 2 * d * d:
            break
    residual = span_residual(basis, e01)
    return {
        "contains_e01": residual < SPAN_TOL,
        "span_dim": len(basis),
        "residual": residual,
        "samples_used": used,
    }
