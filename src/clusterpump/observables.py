"""State metrics: target fidelity, entanglement witness, averaged spins.

Each metric has one rule, read off whatever form the state takes: a d x d
density matrix (``fidelity``, ``witness_expectation``,
``spin_expectations``), a pure state (``pure_state_spins``), a steady state
on the target's support in the eigenbasis of H (``support_metrics``), or the
functionals a ``KernelStep`` run reads off its states (``kernel_readout``,
``kernel_observables``).
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .errors import NumericalError
from .lindblad import KernelStep
from .meanfield import MeanFieldState
from .operators import StateVector, site_flips


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


def witness_from_overlap(overlap: np.ndarray, trace: np.ndarray, eta: float = 0.5) -> np.ndarray:
    """``eta Tr(rho) - <target|rho|target>`` from the overlap and the trace,
    elementwise: the rule of ``witness_expectation``."""
    return np.real(eta * trace - overlap)


def support_metrics(c: np.ndarray, rho: np.ndarray, eta: float = 0.5) -> tuple[float, float]:
    """``(fidelity, witness)`` of a matrix ``rho~`` on the target's support J,
    in the basis W of ``PumpModel.eigenbasis`` where the target is ``c = c_J``
    (``PumpModel.support_steady_states``), without forming the d x d matrix:
    the overlap is ``c^T rho~ c``."""
    overlap, trace = c @ rho @ c, rho.trace()
    return float(fidelity_from_overlap(overlap, trace)), float(witness_from_overlap(overlap, trace, eta))


def witness_expectation(rho: np.ndarray, target: StateVector, eta: float = 0.5) -> float:
    """Expectation of the witness eta*I - |target><target|.

    Negative values certify multipartite entanglement; the minimum -1/2 (for
    eta = 1/2) is reached exactly on the target state.
    """
    if rho.shape[0] != target.shape[0]:
        raise ValueError(f"dimension mismatch: rho {rho.shape}, target {target.shape}")
    return float(witness_from_overlap(np.vdot(target, rho @ target), np.trace(rho), eta))


def spin_expectations(rho: np.ndarray) -> MeanFieldState:
    """Site-averaged Pauli expectations of a density matrix, the exact
    counterpart of the mean-field state.

    Read off basis indices, with m = 2^(N-1-k) the bit of site k and
    s_x = 1 - 2 x_k: <X_k> = sum_x rho[x, x^m], <Y_k> = -sum_x s_x Im rho[x, x^m]
    and <Z_k> = sum_x s_x rho[x, x].
    """
    index = np.arange(rho.shape[0])
    return _site_averages(lambda flip: rho[index, flip], rho.diagonal().real)


def pure_state_spins(psi: StateVector) -> MeanFieldState:
    """``spin_expectations(|psi><psi|)`` read off the vector at O(N 2^N),
    with ``rho[x, y] = psi_x conj(psi_y)`` formed only where it is read."""
    return _site_averages(lambda flip: psi * psi[flip].conj(), (psi * psi.conj()).real)


def _site_averages(coherences: Callable[[np.ndarray], np.ndarray], populations: np.ndarray) -> MeanFieldState:
    """The rule of ``spin_expectations`` from ``coherences(flip) = rho[x, flip[x]]``
    and the populations ``rho[x, x]``."""
    sites = site_flips(populations.size)
    jx = jy = jz = 0.0
    for flip, sign in sites:
        flipped = coherences(flip)
        jx += flipped.real.sum()
        jy -= sign @ flipped.imag
        jz += sign @ populations
    n = len(sites)
    return MeanFieldState(jx=jx / n, jy=jy / n, jz=jz / n)


def _spin_operators(V: np.ndarray) -> Iterator[np.ndarray]:
    """``V^T Sigma_x V``, ``i V^T Sigma_y V`` and ``V^T Sigma_z V``, real and one
    at a time, for the site sums ``Sigma_a = sum_k a_k`` and a real orthogonal
    V: Sigma_x V and Sigma_y V are sums of row-flipped copies of V and
    Sigma_z is diagonal, so they cost three real d x d products."""
    sites = site_flips(V.shape[0])
    total = np.zeros(V.shape)
    for flip, _ in sites:
        total += V[flip]
    yield V.T @ total
    total[...] = 0.0
    for flip, sign in sites:
        total += sign[:, None] * V[flip]
    # Sigma_y V = -i total
    yield V.T @ total
    del total
    yield V.T @ (sum(sign for _, sign in sites)[:, None] * V)


def kernel_readout(step: KernelStep) -> Callable[[np.ndarray], np.ndarray]:
    """The ``sample`` of a ``KernelStep.evolve`` run whose rows
    ``kernel_observables`` reads: five functionals of each state, the site
    sums of X, Y and Z, the overlap ``<C|rho|C>`` and ``Tr rho``, at one
    float weight row each.

    Each spin sum is one ``step.functional``, built once from
    ``_spin_operators`` of the step's basis, O(d^2) per sample; the overlap
    and the trace are ``step.overlap_weights``.
    """
    spins = [step.functional(O) for O in _spin_operators(step.W)]
    # the weights are linear in O, and Sigma_y's operator is -i O
    spins[1].view(complex)[...] *= -1j
    weights = np.vstack([*spins, *step.overlap_weights()])
    # einsum, not BLAS: past about 10^4 entries OpenBLAS hands even a dot
    # product to its thread pool, which would then wake at every sample
    return lambda x: np.einsum("kj,j->k", weights, x.view(float))


def kernel_observables(readout: np.ndarray, n_qubits: int, eta: float = 0.5) -> np.ndarray:
    """Rows ``(jx, jy, jz, fidelity, witness)`` of the rows of a
    ``KernelStep.evolve`` run sampled by ``kernel_readout``; equal up to
    round-off to ``spin_expectations``, ``fidelity`` and
    ``witness_expectation`` of the density matrix each state stands for.
    The spin sums are averaged over the ``n_qubits`` sites, and fidelity and
    witness follow ``fidelity_from_overlap`` and ``witness_from_overlap``.
    """
    overlap, trace = readout[:, 3], readout[:, 4]
    rows = np.empty(readout.shape)
    rows[:, :3] = readout[:, :3] / n_qubits
    rows[:, 3] = fidelity_from_overlap(overlap, trace)
    rows[:, 4] = witness_from_overlap(overlap, trace, eta)
    return rows
