import numpy as np
import pytest
from hypothesis import strategies as st

from clusterpump.cluster import GraphSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_density_matrix(rng, dim):
    """Random full-rank density matrix (Wishart construction)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


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
