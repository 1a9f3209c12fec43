# Lie-closure certification of resource sets and randomized unitary-orbit
# span probes.

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import dag, hermitize, vectorize

SPAN_DROP_TOL = 1e-9


@dataclass
class ResourceSet:
    dim: int
    elements: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.elements = [np.asarray(e, dtype=complex) for e in self.elements]
        for e in self.elements:
            if e.shape != (self.dim, self.dim):
                raise ValueError("resource element dimension mismatch")


@dataclass
class LieClosureReport:
    basis: list[np.ndarray]
    dim_found: int
    depth_used: int
    is_hormander: bool


def _extend(basis: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Extend the (k, d, d) basis, orthonormal under Re tr(A^*B), by the span
    of the (m, d, d) stack new.

    As real rows of (re, im) pairs the inner product is the dot product: the
    basis is projected out of the new rows twice (for stability), and the
    right singular vectors of what is left above SPAN_DROP_TOL are appended.
    """
    k, d, _ = basis.shape
    B = basis.reshape(k, d * d).view(float)
    W = new.reshape(len(new), d * d).view(float)
    W = W - (W @ B.T) @ B
    W = W - (W @ B.T) @ B
    _, s, Vh = np.linalg.svd(W, full_matrices=False)
    added = Vh[s > SPAN_DROP_TOL].view(complex).reshape(-1, d, d)
    return np.concatenate([basis, added])


def lie_closure(S: ResourceSet, max_depth: int = 20) -> LieClosureReport:
    """Iterated-commutator closure of the traceless anti-Hermitian parts of S.

    Hermitian content of an element enters as iH, anti-Hermitian content as
    it is, and identity components are projected out. Stops at saturation
    (three rounds without dimension growth) or max_depth; is_hormander iff
    the closure spans su(d).
    """
    if not S.elements:
        raise ValueError("resource set is empty")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    d = S.dim
    E = np.asarray(S.elements)
    gens = np.concatenate([1j * hermitize(E), E - hermitize(E)])
    gens -= np.trace(gens, axis1=1, axis2=2)[:, None, None] / d * np.eye(d)
    gens = gens[np.linalg.norm(gens, axis=(1, 2)) > SPAN_DROP_TOL]
    basis = _extend(np.zeros((0, d, d), dtype=complex), gens)
    target = d * d - 1
    depth = 1
    stagnant = 0
    while depth < max_depth and len(basis) < target and stagnant < 3:
        b, g = basis[:, None], gens[None]
        k = len(basis)
        basis = _extend(basis, (b @ g - g @ b).reshape(-1, d, d))
        depth += 1
        stagnant = 0 if len(basis) > k else stagnant + 1
    return LieClosureReport(basis=list(basis), dim_found=len(basis),
                            depth_used=depth,
                            is_hormander=len(basis) == target)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Gaussian matrix with phase fix."""
    Z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def orbit_span_probe(a: np.ndarray, n_samples: int = 200,
                     seed: int = 0, residual_tol: float = 1e-8) -> dict:
    """Randomized check whether |0><1| lies in the span of the unitary orbit
    of {a, a^*} (traceless parts). Evidence, not proof."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    a = a - (np.trace(a) / d) * np.eye(d)
    rng = np.random.default_rng(seed)
    e01 = np.zeros((d, d), dtype=complex)
    e01[0, 1] = 1.0
    cols = []
    span_dim = 0
    stagnant = 0
    used = 0
    for _ in range(n_samples):
        U = haar_unitary(d, rng)
        cols.append(vectorize(dag(U) @ a @ U))
        cols.append(vectorize(dag(U) @ dag(a) @ U))
        used += 1
        A = np.stack(cols, axis=1)
        # real span dimension of the accumulated orbit samples
        AR = np.concatenate([A.real, A.imag], axis=0)
        new_dim = int(np.linalg.matrix_rank(AR, tol=1e-10))
        stagnant = 0 if new_dim > span_dim else stagnant + 1
        span_dim = new_dim
        if stagnant >= 5 or span_dim >= 2 * d * d:
            break
    # membership in the real span (the span the orbit lemma speaks about)
    A = np.stack(cols, axis=1)
    AR = np.concatenate([A.real, A.imag], axis=0)
    target = np.concatenate([vectorize(e01).real, vectorize(e01).imag])
    coef, *_ = np.linalg.lstsq(AR, target, rcond=None)
    residual = float(np.linalg.norm(AR @ coef - target))
    return {
        "contains_e01": residual < residual_tol,
        "span_dim": span_dim,
        "residual": residual,
        "samples_used": used,
    }
