# Dense complex matrix engine: Hermitian algebra, tensor/partial-trace,
# matrix functions, vectorization (column-stacking), Choi conversion and
# span bases.

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

HERM_TOL_PER_DIM = 1e-12
EIG_TOL = 1e-10
SPAN_DROP_TOL = 1e-9
SPAN_TOL = 1e-8


def dag(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose; a stack of matrices gives one per matrix."""
    return A.conj().swapaxes(-1, -2)


def hermitize(A: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^*) / 2."""
    return (A + dag(A)) / 2


def is_hermitian(A: np.ndarray, tol: float) -> bool:
    return bool(np.max(np.abs(A - dag(A))) <= tol)


def require_nonnegative(**values: float) -> None:
    """Raise naming the first value that is not finite and nonnegative; NaN
    fails."""
    for name, x in values.items():
        if not 0 <= x < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {x}")


def require_positive(**values: float) -> None:
    """Raise naming the first value that is not finite and positive; NaN
    fails."""
    for name, x in values.items():
        if not 0 < x < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {x}")


def require_dim(d: int, **operands) -> None:
    """Raise naming the first operand that is not a d x d matrix."""
    for name, M in operands.items():
        if np.shape(M) != (d, d):
            raise ValueError(f"{name} has shape {np.shape(M)}, not ({d}, {d}); "
                             "all operands must share one dimension")


def is_diagonal(A: np.ndarray) -> bool:
    """Whether every off-diagonal entry of the square A, or of every matrix
    of a (..., d, d) stack, is exactly 0."""
    d = np.shape(A)[-1]
    F = np.asarray(A).reshape(-1, d * d)
    # a matrix's flat entries after the first, as d - 1 rows of d + 1, hold
    # the diagonal in their last column
    return not F[:, 1:].reshape(len(F), d - 1, d + 1)[..., :-1].any()


def _require_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix contains non-finite entries")


def _require_unit_trace_psd(diagonal: np.ndarray, eigenvalues, eig_tol: float) -> None:
    """The trace and spectrum tests of a density matrix: the sum of its real
    diagonal within max(eig_tol, 1e-9) of 1, then no eigenvalue below
    -eig_tol; eigenvalues() is called only once the trace passes."""
    tr = diagonal.sum()
    if abs(tr - 1.0) > max(eig_tol, 1e-9):
        raise ValueError(f"trace {tr} differs from 1 beyond tolerance")
    lmin = float(eigenvalues().min())
    if lmin < -eig_tol:
        raise ValueError(f"density matrix has eigenvalue {lmin} below -{eig_tol}")


def check_density(rho: np.ndarray, eig_tol: float = EIG_TOL) -> np.ndarray:
    """Validate Hermitian, PSD (up to eig_tol) and unit trace; return rho."""
    rho = np.asarray(rho, dtype=complex)
    _require_finite(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if not is_hermitian(rho, max(HERM_TOL_PER_DIM * rho.shape[0], eig_tol)):
        raise ValueError("density matrix is not Hermitian within tolerance")
    _require_unit_trace_psd(rho.diagonal().real,
                            lambda: np.linalg.eigvalsh(hermitize(rho)), eig_tol)
    return rho


def check_populations(p: np.ndarray, eig_tol: float = EIG_TOL) -> np.ndarray:
    """check_density(np.diag(p), eig_tol) for a real vector p, with the same
    tests and messages, without the matrix: an exactly diagonal Hermitian
    matrix has its diagonal as its spectrum. Return p."""
    p = np.asarray(p, dtype=float)
    _require_finite(p)
    _require_unit_trace_psd(p, lambda: p, eig_tol)
    return p


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product; first factor is the coarse block."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def partial_trace(M: np.ndarray, dims: list[int], keep) -> np.ndarray:
    """Trace out the tensor factors not listed in `keep`.

    dims are the factor dimensions in tensor order; keep is an iterable of
    factor indices to retain. Trace is preserved.
    """
    dims = list(dims)
    keep = sorted(set(keep))
    d = int(np.prod(dims))
    if M.shape != (d, d):
        raise ValueError(f"matrix shape {M.shape} does not match dims {dims}")
    n = len(dims)
    T = M.reshape(dims + dims)
    # trace out factors from the back so axis numbers stay valid
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        T = np.trace(T, axis1=ax, axis2=ax + T.ndim // 2)
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    return T.reshape(dk, dk)


def mat_exp(A: np.ndarray) -> np.ndarray:
    """exp(A) in A's dtype: a real matrix gives a real exponential."""
    return sla.expm(np.asarray(A))


def vectorize(M: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization; a stack of matrices gives one row each."""
    M = np.asarray(M, dtype=complex)
    return M.swapaxes(-1, -2).reshape(*M.shape[:-2], M.shape[-2] * M.shape[-1])


def devectorize(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of vectorize; a stack of rows gives one matrix each."""
    v = np.asarray(v, dtype=complex)
    return v.reshape(*v.shape[:-1], d, d).swapaxes(-1, -2)


def superop_from_action(f, d: int) -> np.ndarray:
    """Matrix of an operator map, built by applying f to all matrix units.

    The loop reference that tests check closed-form superoperators against;
    no library code calls it.
    """
    S = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for i in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = 1.0
            S[:, i + j * d] = vectorize(np.asarray(f(E), dtype=complex))
    return S


def apply_superop(S: np.ndarray, M: np.ndarray) -> np.ndarray:
    d = M.shape[0]
    return devectorize(S @ vectorize(M), d)


def kron_superop(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Superoperator of X -> A X B under column stacking: B^T (x) A."""
    return np.kron(B.T, A)


def choi(S: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij E_ij (x) S(E_ij); the reshuffle is its own inverse."""
    d = int(round(np.sqrt(S.shape[0])))
    return S.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def is_cp(S: np.ndarray) -> bool:
    J = hermitize(choi(S))
    return bool(np.linalg.eigvalsh(J).min() >= -1e-9)


def is_tp(S: np.ndarray) -> bool:
    """Trace preservation: vec(I)^* S = vec(I)^*."""
    d = int(round(np.sqrt(S.shape[0])))
    v = vectorize(np.eye(d))
    return bool(np.max(np.abs(v @ S - v)) <= 1e-9)


def extend_basis(basis: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Extend the (k, d, d) basis, orthonormal under Re tr(A^*B), by the real
    span of the (m, d, d) stack new.

    As real rows of (re, im) pairs the inner product is the dot product: the
    basis is projected out of the new rows twice (for stability), and the
    right singular vectors of what is left above SPAN_DROP_TOL are appended.
    """
    k, d, _ = basis.shape
    B = basis.reshape(k, d * d).view(float)
    W = np.ascontiguousarray(new, dtype=complex).reshape(len(new), d * d).view(float)
    W = W - (W @ B.T) @ B
    W = W - (W @ B.T) @ B
    _, s, Vh = np.linalg.svd(W, full_matrices=False)
    added = Vh[s > SPAN_DROP_TOL].view(complex).reshape(-1, d, d)
    return np.concatenate([basis, added])


def span_residual(basis: np.ndarray, M: np.ndarray) -> float:
    """Hilbert-Schmidt distance of M from the real span of the (k, d, d)
    basis, orthonormal under Re tr(A^*B); M is in the span when the distance
    is below SPAN_TOL."""
    k, d, _ = basis.shape
    B = basis.reshape(k, d * d).view(float)
    m = np.ascontiguousarray(M, dtype=complex).reshape(d * d).view(float)
    return float(np.linalg.norm(m - (B @ m) @ B))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the difference."""
    w = np.linalg.eigvalsh(hermitize(rho - sigma))
    return 0.5 * float(np.abs(w).sum())


def _pnorm(s: np.ndarray, p: float) -> float | np.ndarray:
    """p-norm along the last axis of the nonnegative s, as m ||s / m||_p for
    its largest entry m, so no s ** p underflows or overflows, however large
    p is; a stack of vectors gives an array of norms."""
    n = s.max(-1, initial=0.0)
    if not np.isinf(p):
        r = s / np.where(n > 0, n, 1.0)[..., None]     # 0 / 1 for a zero vector
        n = n * (r ** p).sum(-1) ** (1.0 / p)
    return float(n) if np.ndim(n) == 0 else n


def schatten_norm(A: np.ndarray, p: float) -> float | np.ndarray:
    """Schatten p-norm of a Hermitian matrix, the p-norm of its eigenvalues;
    a stack of matrices gives an array of norms. At p = 2 it is the
    Frobenius norm, since sum |w_i|^2 = tr(A^2) = sum |A_ij|^2: no
    eigen-solve."""
    H = hermitize(np.asarray(A, dtype=complex))
    if p == 2:
        return _pnorm(np.abs(H).reshape(*H.shape[:-2], -1), 2)
    return _pnorm(np.abs(np.linalg.eigvalsh(H)), p)
