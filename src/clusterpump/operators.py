"""Pauli strings and dense operator algebra on an N-qubit register.

Conventions used throughout the package:

* site 0 is the leftmost Kronecker factor, so a computational basis index
  ``x`` reads as the bitstring ``x_0 x_1 ... x_{N-1}`` with ``x_0`` the most
  significant bit; X_k maps ``x`` to ``x ^ 2^(N-1-k)`` and Z_k's diagonal is
  ``1 - 2 x_k`` (``site_flips``);
* all operators are dense ``numpy`` arrays with ``complex128`` entries;
* density matrices are vectorized by column stacking,
  ``vec(rho) = rho.flatten(order="F")``, for which
  ``vec(A X B) = (B.T kron A) vec(X)``; a superoperator is a d^2 x d^2
  array acting on such vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

# Aliases for readability of signatures; the data is a plain ndarray.
DenseOperator = np.ndarray
StateVector = np.ndarray
Superoperator = np.ndarray

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_LETTERS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


@dataclass(frozen=True)
class PauliString:
    """A unit-phase scalar times a product of single-site Pauli letters.

    ``letters`` maps site index to one of ``"X"``, ``"Y"``, ``"Z"``; sites not
    present act as the identity.
    """

    n_qubits: int
    letters: Mapping[int, str]
    phase: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        letters = dict(self.letters)
        for site, letter in letters.items():
            if not 0 <= site < self.n_qubits:
                raise ValueError(
                    f"site index {site} out of range for {self.n_qubits} qubits"
                )
            if letter not in _LETTERS:
                raise ValueError(f"unknown Pauli letter {letter!r} at site {site}")
        if abs(abs(complex(self.phase)) - 1.0) > 1e-12:
            raise ValueError(f"phase must have unit modulus, got {self.phase!r}")
        object.__setattr__(self, "letters", letters)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def pauli_to_dense(p: PauliString) -> DenseOperator:
    """Dense matrix of a Pauli string: ``phase * (sigma_0 x ... x sigma_{N-1})``."""
    op = np.array([[complex(p.phase)]])
    for site in range(p.n_qubits):
        op = np.kron(op, _LETTERS.get(p.letters.get(site), PAULI_I))
    return op


def site_flips(dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per site k, the basis index x xor 2^(N-1-k) (X_k flips bit k; site 0 is
    the most significant bit) and s_x = 1 - 2 x_k (Z_k's diagonal)."""
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    index = np.arange(dim)
    return [(index ^ (1 << (n - 1 - k)), 1.0 - 2.0 * ((index >> (n - 1 - k)) & 1)) for k in range(n)]


def dagger(a: DenseOperator) -> DenseOperator:
    """Conjugate transpose."""
    return a.conj().T


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vec: stack the columns of rho into one vector."""
    return rho.flatten(order="F")


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of ``vectorize``."""
    d = int(round(np.sqrt(v.shape[0])))
    if d * d != v.shape[0]:
        raise ValueError(f"vector of length {v.shape[0]} is not a vectorized square matrix")
    return v.reshape((d, d), order="F")
