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

instead of summing the 2^N - 1 explicit jumps.  That d^2 x d^2 array
(d = 2^N) serves spectra and dynamics only: ``PumpModel.steady_state``
solves for the steady state in the eigenbasis of H with O(d^3) work and
O(d^2) memory, and ``PumpModel.apply`` is the generator's action on one
d x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .cluster import GraphSpec, cluster_state, orthogonal_basis, stabilizers
from .errors import NumericalError
from .operators import DenseOperator, StateVector, pauli_to_dense

Superoperator = np.ndarray

# Dense generators above this register size are refused (the superoperator
# for N qubits holds 16^N complex entries).
MAX_DENSE_QUBITS = 7
# Models above this register size are refused.  The structured steady-state
# solve peaks at about STEADY_STATE_ARRAYS complex d x d arrays (d = 2^N;
# 11.3 measured at N = 11, 13.4 at N = 10).
MAX_MODEL_QUBITS = 11
STEADY_STATE_ARRAYS = 12


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
    """g * sum_edges Z_j Z_k + h * sum_k X_k on the graph's register.

    Built from basis indices rather than Kronecker products: Z_j Z_k is the
    diagonal (-1)^(x_j xor x_k) and X_k maps x to x xor 2^(N-1-k) (site 0 is
    the most significant bit).  The edge terms are accumulated in edge order,
    so the result equals the sum of the dense Pauli strings exactly.
    """
    n = g_spec.n_qubits
    dim = 2**n
    index = np.arange(dim)
    bits = [(index >> (n - 1 - k)) & 1 for k in range(n)]
    diagonal = np.zeros(dim)
    for j, k in g_spec.edges:
        diagonal += p.g * (1.0 - 2.0 * (bits[j] ^ bits[k]))
    ham = np.zeros((dim, dim), dtype=complex)
    ham[index, index] = diagonal
    for k in range(n):
        ham[index, index ^ (1 << (n - 1 - k))] += p.h
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

    Refuses registers above ``MAX_MODEL_QUBITS`` before building anything;
    the dense ``liouvillian`` refuses registers above ``MAX_DENSE_QUBITS``.
    The eigenbasis of H is computed on first use by ``steady_state`` and kept.
    """

    graph: GraphSpec
    params: ModelParams
    target: StateVector = field(init=False, repr=False)
    H: DenseOperator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.graph.n_qubits
        if n > MAX_MODEL_QUBITS:
            raise ValueError(
                f"N = {n} exceeds the model guard ({MAX_MODEL_QUBITS}); its steady-state "
                f"solve would need about {STEADY_STATE_ARRAYS * 16.0 * 4.0**n / 2.0**30:.1f} GiB"
            )
        object.__setattr__(self, "target", cluster_state(self.graph))
        object.__setattr__(self, "H", hamiltonian(self.graph, self.params))

    def liouvillian(self, gamma: float) -> Superoperator:
        """Dense generator ``gamma vec(P) vec(Q.T)^T + I kron K + conj(K) kron I``
        with ``K = -i H - (gamma / 2) Q``, built in a single d^2 x d^2 array."""
        if gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {gamma}")
        n = self.graph.n_qubits
        if n > MAX_DENSE_QUBITS:
            raise ValueError(
                f"N = {n} exceeds the dense-solver guard ({MAX_DENSE_QUBITS}); "
                f"the superoperator alone would need {16.0 ** (n + 1) / 2.0**30:.1f} GiB"
            )
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

    def apply(self, rho: np.ndarray, gamma: float) -> np.ndarray:
        """Matrix-free generator action ``-i[H, rho] + gamma (P Tr(Q rho) - {Q, rho} / 2)``."""
        C = self.target
        rho_c = rho @ C
        c_rho = C.conj() @ rho
        recycled = np.trace(rho) - np.vdot(C, rho_c)
        out = -1j * (self.H @ rho - rho @ self.H)
        out += gamma * (
            recycled * np.outer(C, C.conj())
            - rho
            + 0.5 * (np.outer(C, c_rho) + np.outer(rho_c, C.conj()))
        )
        return out

    @cached_property
    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray, StateVector]:
        """``(E, V, c)`` with ``H = V diag(E) V^T`` and ``c = V^T |C>``.

        H is real symmetric (Z Z and X are real), so V is real and the real
        eigensolver applies, several times faster than the complex one.
        """
        energies, V = np.linalg.eigh(self.H.real)
        return energies, V, V.T @ self.target

    def steady_state(self, gamma: float) -> DenseOperator:
        """Steady state at dissipation rate ``gamma`` without the superoperator.

        In the eigenbasis of H, with ``M_ab = gamma / (gamma + i (E_a - E_b))``,
        the stationarity condition reads

            rho~ = M o [(1 - kappa) c c^+ + (c u^+ + u c^+) / 2],  kappa = c^+ u,

        for ``u = rho~ c``.  Substituting gives a system linear in u and its
        conjugate, solved as 2d real equations at O(d^3) cost.  The result is
        normalized as in ``steady_state_direct``.  Raises NumericalError
        "degenerate kernel: ..." at gamma = 0 or on a singular system, and
        when ``|apply(rho, gamma)|_max`` exceeds ``1e-8 max(1, s)``, where s is
        the largest diagonal entry of the dense generator in modulus.
        """
        if gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {gamma}")
        if gamma == 0:
            raise NumericalError(
                "degenerate kernel: without dissipation (gamma = 0) the steady state is not unique"
            )
        # solver imports this module, so its helpers are imported on use
        from .solver import _solve_nonsingular, _unit_trace_hermitian

        energies, V, c = self.eigenbasis
        d = c.size
        M = gamma / (gamma + 1j * np.subtract.outer(energies, energies))
        w = M @ np.abs(c) ** 2
        # A u + B conj(u) = c o w
        cw = c * w
        A = np.outer(cw, c.conj())
        A[np.diag_indices(d)] += 1.0 - 0.5 * w
        B = -0.5 * (c[:, None] * M * c[None, :])
        # with u = x + i y: [[Re(A + B), Im(B - A)], [Im(A + B), Re(A - B)]] [x; y]
        system = np.empty((2 * d, 2 * d), order="F")
        system[:d, :d] = A.real + B.real
        system[:d, d:] = B.imag - A.imag
        system[d:, :d] = A.imag + B.imag
        system[d:, d:] = A.real - B.real
        del A, B
        xy = _solve_nonsingular(system, np.concatenate([cw.real, cw.imag]))
        u = xy[:d] + 1j * xy[d:]
        kappa = np.vdot(c, u)
        rho = M * (
            (1.0 - kappa) * np.outer(c, c.conj())
            + 0.5 * (np.outer(c, u.conj()) + np.outer(u, c.conj()))
        )
        rho = _unit_trace_hermitian(V @ rho @ V.T)

        # Diagonal of the dense generator, gamma P_ab Q_ba + K_aa + conj(K_bb),
        # whose largest modulus bounds its infinity norm from below.
        p = np.abs(self.target) ** 2
        k = -1j * self.H.diagonal() - 0.5 * gamma * (1.0 - p)
        diagonal = gamma * (np.diag(p) - np.outer(p, p)) + k[:, None] + k.conj()[None, :]
        tol = 1e-8 * max(1.0, float(np.abs(diagonal).max()))
        residual = float(np.abs(self.apply(rho, gamma)).max())
        if residual > tol:
            raise NumericalError(
                f"structured steady-state residual {residual:g} exceeds tolerance {tol:g}"
            )
        return rho
