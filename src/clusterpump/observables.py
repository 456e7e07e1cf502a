"""State metrics: target fidelity, entanglement witness, averaged spins."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .meanfield import MeanFieldState
from .operators import StateVector


def fidelity_from_overlap(overlap: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """``overlap / trace`` elementwise, clamped to [0, 1]: the rule of ``fidelity``.

    Raises, for the first offending element, ValueError on a (near-)traceless
    matrix and NumericalError on a non-negligible imaginary part.
    """
    overlap, trace = np.asarray(overlap), np.asarray(trace)
    traceless = np.abs(trace) <= 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        value = overlap / trace
    failed = np.flatnonzero(traceless | (np.abs(value.imag) > 1e-10))
    if failed.size:
        first = failed[0]
        if traceless.flat[first]:
            raise ValueError("cannot compute fidelity of a (near-)traceless matrix")
        raise NumericalError(f"fidelity has non-negligible imaginary part {value.imag.flat[first]:g}")
    return np.minimum(np.maximum(value.real, 0.0), 1.0)


def fidelity(rho: np.ndarray, target: StateVector) -> float:
    """Overlap <target|rho|target> / Tr(rho).

    The trace denominator is kept explicitly so that unnormalized kernel
    vectors can be scored.  A non-negligible imaginary part (rho not
    Hermitian) raises NumericalError; bad input shapes raise ValueError.
    """
    if rho.shape[0] != target.shape[0]:
        raise ValueError(f"dimension mismatch: rho {rho.shape}, target {target.shape}")
    return float(fidelity_from_overlap(np.vdot(target, rho @ target), np.trace(rho)))


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


def _site_flips(dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per site k, the basis index x xor 2^(N-1-k) (X_k flips bit k; site 0 is
    the most significant bit) and s_x = 1 - 2 x_k (Z_k's diagonal)."""
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    index = np.arange(dim)
    return [(index ^ (1 << (n - 1 - k)), 1.0 - 2.0 * ((index >> (n - 1 - k)) & 1)) for k in range(n)]


def spin_expectations(rho: np.ndarray) -> MeanFieldState:
    """Site-averaged Pauli expectations of a density matrix, the exact
    counterpart of the mean-field state.

    Read off basis indices, with m = 2^(N-1-k) the bit of site k and
    s_x = 1 - 2 x_k: <X_k> = sum_x rho[x, x^m], <Y_k> = -sum_x s_x Im rho[x, x^m]
    and <Z_k> = sum_x s_x rho[x, x].
    """
    sites = _site_flips(rho.shape[0])
    index = np.arange(rho.shape[0])
    populations = rho.diagonal().real
    jx = jy = jz = 0.0
    for flip, sign in sites:
        flipped = rho[index, flip]
        jx += flipped.real.sum()
        jy -= sign @ flipped.imag
        jz += sign @ populations
    n = len(sites)
    return MeanFieldState(jx=jx / n, jy=jy / n, jz=jz / n)


def eigenbasis_observables(states: np.ndarray, V: np.ndarray, c: StateVector, eta: float = 0.5) -> np.ndarray:
    """Rows ``(jx, jy, jz, fidelity, witness)`` of samples ``rho~ = V^T rho V``
    written in a real orthonormal basis V, with ``c = V^T |target>``, without
    transforming them back; equal up to round-off to ``spin_expectations``,
    ``fidelity`` and ``witness_expectation`` of each ``rho``.

    Each entry is ``Tr(rho~ O~)`` with ``O~ = V^T O V``, for O a site sum of
    Paulis, ``|target><target|`` or I: ``<target|rho|target> = c^+ rho~ c``.
    Sigma_x V and Sigma_y V are sums of row-flipped copies of V and Sigma_z is
    diagonal, so the three spin ``O~`` cost three real d x d products once;
    then each entry is one pass over the samples, O(d^2) per sample, with no
    copy of them.  Fidelity follows ``fidelity_from_overlap``.
    """
    n_samples, d, _ = states.shape
    sites = _site_flips(d)
    flips = np.zeros((d, d))
    signed_flips = np.zeros((d, d))
    diagonal = np.zeros(d)
    for flip, sign in sites:
        flipped = V[flip]
        flips += flipped
        signed_flips += sign[:, None] * flipped
        diagonal += sign

    def trace_with(O: np.ndarray) -> np.ndarray:
        return np.einsum("nab,ba->n", states, O)

    rows = np.empty((n_samples, 5))
    rows[:, 0] = trace_with(V.T @ flips).real
    # Sigma_y V = -i signed_flips, and Re(-i z) = Im z
    rows[:, 1] = trace_with(V.T @ signed_flips).imag
    rows[:, 2] = trace_with(V.T @ (diagonal[:, None] * V)).real
    rows[:, :3] /= len(sites)
    overlap = np.einsum("a,nab,b->n", c.conj(), states, c)
    trace = states.trace(axis1=1, axis2=2)
    rows[:, 3] = fidelity_from_overlap(overlap, trace)
    rows[:, 4] = (eta * trace - overlap).real
    return rows
