import numpy as np
import pytest

from lindreach.linalg import dag, hermitize


def random_density(rng, d, rank=None):
    r = rank or d
    G = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    rho = G @ dag(G)
    return rho / np.trace(rho).real


def random_hermitian(rng, d):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return hermitize(G)


def svd_schatten(A, p):
    """Schatten p-norm by definition: the p-norm of the singular values."""
    s = np.linalg.svd(A, compute_uv=False)
    return s.max(-1) if np.isinf(p) else (s ** p).sum(-1) ** (1 / p)


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
