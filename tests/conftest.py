import numpy as np
import pytest
from hypothesis import strategies as st

from clusterpump.cluster import GraphSpec

# arrays print with the digits that read back to the same floats, so that a
# falsifying example hypothesis prints fails again when it is replayed
np.set_printoptions(floatmode="unique")


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_density_matrix(rng, dim):
    """Random full-rank density matrix (Wishart construction)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def check_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-10,
    eig_floor: float = -1e-8,
) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace, and PSD within tolerance."""
    if np.linalg.norm(rho - rho.conj().T, np.inf) > herm_tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {np.trace(rho)} is not 1")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < eig_floor:
        raise ValueError("density matrix has a significantly negative eigenvalue")


def kernel_matrix(kernel, x: np.ndarray) -> np.ndarray:
    """The Hermitian X that state x of a ``KernelStep`` stands for."""
    m, d = kernel.c.size, kernel.kappa.size
    o, jj = d - m, m * (m + 1) // 2
    U = np.zeros((d, d), dtype=complex)
    U[:m, :m][np.triu_indices(m)] = x[:jj]
    np.fill_diagonal(U[m:, m:], x[jj : jj + o])
    U[:m, m:] = x[jj + o : jj + o + m * o].reshape(m, o)
    U[m:, m:][np.triu(np.ones((o, o), dtype=bool), 1)] = x[jj + o + m * o : -1]
    X = U + U.conj().T
    np.fill_diagonal(X, U.diagonal())
    return X


def kernel_density(kernel, x: np.ndarray) -> np.ndarray:
    """``rho = W R X R^+ W^T``: state x of a ``KernelStep`` in the computational basis."""
    m = kernel.c.size
    X = kernel_matrix(kernel, x)
    X[:m] = kernel.R @ X[:m]
    X[:, :m] = X[:, :m] @ kernel.R.conj().T
    return kernel.W @ X @ kernel.W.T


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


@st.composite
def random_graphs(draw):
    """Graph on 1..4 qubits with a random subset of all possible edges."""
    n = draw(st.integers(min_value=1, max_value=4))
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return GraphSpec(n, tuple(p for p, keep in zip(pairs, mask) if keep))
