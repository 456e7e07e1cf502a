"""State metrics: target fidelity, entanglement witness, averaged spins."""

from __future__ import annotations

import numpy as np

from .meanfield import MeanFieldState
from .operators import StateVector


def fidelity(rho: np.ndarray, target: StateVector) -> float:
    """Overlap <target|rho|target> / Tr(rho).

    The trace denominator is kept explicitly so that unnormalized kernel
    vectors can be scored; the imaginary residual must be negligible.
    """
    if rho.shape[0] != target.shape[0]:
        raise ValueError(f"dimension mismatch: rho {rho.shape}, target {target.shape}")
    trace = np.trace(rho)
    if abs(trace) <= 1e-12:
        raise ValueError("cannot compute fidelity of a (near-)traceless matrix")
    value = np.vdot(target, rho @ target) / trace
    if abs(value.imag) > 1e-10:
        raise ValueError(f"fidelity has non-negligible imaginary part {value.imag:g}")
    return float(min(max(value.real, 0.0), 1.0))


def witness_expectation(rho: np.ndarray, target: StateVector, eta: float = 0.5) -> float:
    """Expectation of the witness eta*I - |target><target|.

    Negative values certify multipartite entanglement; the minimum -1/2 (for
    eta = 1/2) is reached exactly on the target state.
    """
    if rho.shape[0] != target.shape[0]:
        raise ValueError(f"dimension mismatch: rho {rho.shape}, target {target.shape}")
    overlap = np.vdot(target, rho @ target)
    value = eta * np.trace(rho) - overlap
    return float(value.real)


def spin_expectations(rho: np.ndarray) -> MeanFieldState:
    """Site-averaged Pauli expectations of a density matrix, the exact
    counterpart of the mean-field state.

    Read off basis indices, with m = 2^(N-1-k) the bit of site k and
    s_x = 1 - 2 x_k: <X_k> = sum_x rho[x, x^m], <Y_k> = -sum_x s_x Im rho[x, x^m]
    and <Z_k> = sum_x s_x rho[x, x].
    """
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    index = np.arange(dim)
    populations = rho.diagonal().real
    jx = jy = jz = 0.0
    for k in range(n):
        sign = 1.0 - 2.0 * ((index >> (n - 1 - k)) & 1)
        flipped = rho[index, index ^ (1 << (n - 1 - k))]
        jx += flipped.real.sum()
        jy -= sign @ flipped.imag
        jz += sign @ populations
    return MeanFieldState(jx=jx / n, jy=jy / n, jz=jz / n)
