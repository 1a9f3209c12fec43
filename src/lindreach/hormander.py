# Lie-closure certification of resource sets and the exact unitary-orbit
# span.

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import SPAN_DROP_TOL, dag, extend_basis, hermitize


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


def orbit_span(a: np.ndarray) -> dict:
    """Real span of the unitary orbit of {a, a^*} (traceless parts), exactly.

    a's traceless part a0 = H1 + iH2 is the element H1 e1 + H2 e2 of
    herm0 tensor R^2. Under U(d), herm0 is absolutely irreducible (its
    complexification is the adjoint representation of sl(d, C)), so every
    invariant real subspace is herm0 tensor W. The span therefore has
    dimension rank * (d^2 - 1), where rank in {0, 1, 2} is the real rank of
    {a0, a0^*}, and it holds |0><1| iff rank == 2.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or len(a) < 2:
        raise ValueError(f"a has shape {a.shape}; it must be a square d x d "
                         "matrix with d >= 2")
    if not np.all(np.isfinite(a)):
        raise ValueError("a has non-finite entries")
    d = len(a)
    a0 = a - (np.trace(a) / d) * np.eye(d)
    rank = len(extend_basis(np.zeros((0, d, d), dtype=complex),
                            np.stack([a0, dag(a0)])))
    return {"contains_e01": rank == 2, "span_dim": rank * (d * d - 1),
            "rank": rank}
