"""Model Hamiltonian, jump operators, and the vectorized Liouvillian.

Vectorization is column-stacking throughout: ``vec(rho) = rho.flatten(order="F")``,
for which ``vec(A X B) = (B.T kron A) vec(X)``.  The generator of

    drho/dt = -i[H, rho] + gamma * sum_m (L_m rho L_m^+ - {L_m^+ L_m, rho} / 2)

is therefore assembled as

    -i (I kron H - H.T kron I)
    + gamma * sum_m [ conj(L_m) kron L_m
                      - (I kron L_m^+ L_m) / 2 - ((L_m^+ L_m).T kron I) / 2 ].

A single decay rate ``gamma`` multiplies every jump term.  For the projection
jumps ``|C><phi_m|`` the sum collapses to ``P Tr(Q rho) - {Q, rho} / 2`` with
``P = |C><C|`` and ``Q = I - P``.  ``PumpModel`` therefore writes the whole
generator into one buffer as a recycling term plus an effective
non-Hermitian Hamiltonian ``K = -i H - (gamma / 2) Q``:

    gamma * vec(P) vec(Q.T)^T + I kron K + conj(K) kron I,

instead of summing the 2^N - 1 explicit jumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cluster import GraphSpec, cluster_state, orthogonal_basis, stabilizers
from .operators import DenseOperator, PauliString, StateVector, pauli_to_dense

Superoperator = np.ndarray

# Dense models above this register size are refused (the superoperator for
# N qubits holds 16^N complex entries).
MAX_DENSE_QUBITS = 7


@dataclass(frozen=True)
class ModelParams:
    """Ising coupling g, transverse field h, and dissipation rate gamma."""

    g: float
    h: float
    gamma: float

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")

    @classmethod
    def from_ratios(cls, h_g: float, gamma_g: float, g: float = 1.0) -> "ModelParams":
        """Build from the dimensionless knobs h/g and gamma/g at a given g > 0."""
        if g <= 0:
            raise ValueError("from_ratios requires g > 0; construct directly for g < 0")
        return cls(g=g, h=h_g * g, gamma=gamma_g * g)

    @property
    def h_g(self) -> float:
        if self.g == 0:
            raise ValueError("h/g undefined for g = 0")
        return self.h / self.g

    @property
    def gamma_g(self) -> float:
        if self.g == 0:
            raise ValueError("gamma/g undefined for g = 0")
        return self.gamma / self.g


def hamiltonian(g_spec: GraphSpec, p: ModelParams) -> DenseOperator:
    """g * sum_edges Z_j Z_k + h * sum_k X_k on the graph's register."""
    n = g_spec.n_qubits
    dim = 2**n
    ham = np.zeros((dim, dim), dtype=complex)
    for j, k in g_spec.edges:
        ham += p.g * pauli_to_dense(PauliString(n, {j: "Z", k: "Z"}))
    for k in range(n):
        ham += p.h * pauli_to_dense(PauliString(n, {k: "X"}))
    return ham


def projection_jumps(g_spec: GraphSpec) -> list[DenseOperator]:
    """Rank-one jump operators |C><phi_m| pumping each orthogonal basis state
    into the cluster state; ordering follows ``orthogonal_basis``."""
    basis = orthogonal_basis(g_spec)
    return [np.outer(basis.target, phi.conj()) for phi in basis.states]


def stabilizer_jumps(g_spec: GraphSpec) -> list[DenseOperator]:
    """Projector jumps (I - S_m)/2, one per stabilizer generator."""
    dim = 2**g_spec.n_qubits
    eye = np.eye(dim, dtype=complex)
    return [(eye - pauli_to_dense(s)) / 2.0 for s in stabilizers(g_spec)]


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vec: stack the columns of rho into one vector."""
    return rho.flatten(order="F")


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of ``vectorize``."""
    d = int(round(np.sqrt(v.shape[0])))
    if d * d != v.shape[0]:
        raise ValueError(f"vector of length {v.shape[0]} is not a vectorized square matrix")
    return v.reshape((d, d), order="F")


def liouvillian_parts(
    H: DenseOperator, jumps: Sequence[DenseOperator]
) -> tuple[Superoperator, Superoperator]:
    """Unitary part and rate-one dissipator; the full generator is
    ``unitary + gamma * dissipator``.  Useful for sweeps over gamma."""
    d = H.shape[0]
    if H.shape != (d, d):
        raise ValueError(f"Hamiltonian must be square, got {H.shape}")
    eye = np.eye(d, dtype=complex)
    unitary = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    dissipator = np.zeros((d * d, d * d), dtype=complex)
    decay = np.zeros((d, d), dtype=complex)
    for L in jumps:
        if L.shape != (d, d):
            raise ValueError(f"jump operator shape {L.shape} does not match dim {d}")
        dissipator += np.kron(L.conj(), L)
        decay += L.conj().T @ L
    dissipator -= 0.5 * (np.kron(eye, decay) + np.kron(decay.T, eye))
    return unitary, dissipator


def liouvillian(
    H: DenseOperator, jumps: Sequence[DenseOperator], gamma: float
) -> Superoperator:
    """Dense Liouvillian acting on column-stacked density matrices."""
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    unitary, dissipator = liouvillian_parts(H, jumps)
    return unitary + gamma * dissipator


@dataclass(frozen=True, eq=False)
class PumpModel:
    """The cluster-state pump on one graph: Hamiltonian and target state.

    Refuses registers above ``MAX_DENSE_QUBITS`` before building anything.
    """

    graph: GraphSpec
    params: ModelParams
    target: StateVector = field(init=False, repr=False)
    H: DenseOperator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.graph.n_qubits
        if n > MAX_DENSE_QUBITS:
            raise ValueError(
                f"N = {n} exceeds the dense-solver guard ({MAX_DENSE_QUBITS}); "
                f"the superoperator alone would need {16.0 ** (n + 1) / 2.0**30:.1f} GiB"
            )
        object.__setattr__(self, "target", cluster_state(self.graph))
        object.__setattr__(self, "H", hamiltonian(self.graph, self.params))

    def liouvillian(self, gamma: float) -> Superoperator:
        """Dense generator ``gamma vec(P) vec(Q.T)^T + I kron K + conj(K) kron I``
        with ``K = -i H - (gamma / 2) Q``, built in a single d^2 x d^2 array."""
        if gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {gamma}")
        d = self.H.shape[0]
        P = np.outer(self.target, self.target.conj())
        Q = np.eye(d, dtype=complex) - P
        L = np.multiply.outer(gamma * vectorize(P), vectorize(Q.T))
        K = -1j * self.H - (0.5 * gamma) * Q
        # Row (i, k) and column (j, l) of L are entries i*d + k and j*d + l,
        # so I kron K fills blocks[a, :, a, :] and conj(K) kron I blocks[:, a, :, a].
        blocks = L.reshape(d, d, d, d)
        diag = np.arange(d)
        blocks[diag, :, diag, :] += K
        blocks[:, diag, :, diag] += K.conj()
        return L
