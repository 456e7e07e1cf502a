"""State metrics: target fidelity, entanglement witness, averaged spins."""

from __future__ import annotations

import numpy as np

from .meanfield import MeanFieldState
from .operators import PauliString, StateVector, pauli_to_dense


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
    counterpart of the mean-field state."""
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    totals = {}
    for alpha in ("X", "Y", "Z"):
        acc = 0.0
        for k in range(n):
            op = pauli_to_dense(PauliString(n, {k: alpha}))
            acc += np.trace(rho @ op).real
        totals[alpha] = acc / n
    return MeanFieldState(jx=totals["X"], jy=totals["Y"], jz=totals["Z"])
