"""Spectral analysis of the Liouvillian and time evolution of density matrices.

Two independent evolution routes are provided: classical RK4 on the
vectorized master equation, and the exact propagator ``exp(L t)`` evaluated
through the eigendecomposition of the generator (with a scaling-and-squaring
fallback when the eigenbasis is badly conditioned).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .lindblad import Superoperator, devectorize, vectorize

# Relative factor for deciding which eigenvalues count as the kernel; the
# absolute tolerance is scaled by the spectral radius so that strong
# dissipation (large-norm generators) does not spuriously empty the kernel.
KERNEL_TOL_FACTOR = 1e-8


@dataclass
class SpectrumResult:
    """Full eigendata of a Liouvillian.

    ``eigenvalues`` with ``|lambda| <= kernel_tol`` come first; within and
    after that group they are sorted by descending real part, ties by
    descending absolute imaginary part, so round-off on the imaginary axis
    cannot rank an oscillating mode above the kernel.  ``gap`` is
    |Re lambda_1| - |Re lambda_0| where lambda_1 is the first eigenvalue
    lying outside ``kernel_tol`` of lambda_0.  ``antihermitian_residual``
    is the norm of the discarded anti-Hermitian part of the recovered
    steady state (diagnostic).
    """

    eigenvalues: np.ndarray
    steady_state: np.ndarray
    gap: float
    kernel_dim: int
    kernel_tol: float
    antihermitian_residual: float


@dataclass
class Trajectory:
    """Sampled density-matrix evolution: times[i] goes with states[i]."""

    times: np.ndarray
    states: np.ndarray  # shape (n_samples, d, d)


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


def pure_state_density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a normalized state vector."""
    return np.outer(psi, psi.conj())


def full_spectrum(L: Superoperator) -> SpectrumResult:
    """Dense eigendecomposition of the Liouvillian.

    The steady state is recovered from the eigenvector of the kernel
    eigenvalue, normalized to unit trace and projected onto its Hermitian
    part.  ``kernel_dim`` counts eigenvalues with ``|lambda| <= kernel_tol``;
    a kernel of dimension above one (e.g. gamma = 0) has no unique steady
    state and raises ``NumericalError`` carrying ``kernel_dim``.
    """
    vals, vecs = np.linalg.eig(L)
    kernel_tol = KERNEL_TOL_FACTOR * max(1.0, float(np.abs(vals).max(initial=0.0)))
    outside = np.abs(vals) > kernel_tol
    kernel_dim = int(np.count_nonzero(~outside))
    order = np.lexsort((-np.abs(vals.imag), -vals.real, outside))
    vals = vals[order]
    vecs = vecs[:, order]

    lam0 = vals[0]
    if abs(lam0) > kernel_tol:
        raise NumericalError(
            f"no steady state found: leading eigenvalue {lam0} exceeds kernel tolerance {kernel_tol:g}"
        )
    rho = devectorize(vecs[:, 0])
    trace = np.trace(rho)
    if kernel_dim > 1 or abs(trace) <= 1e-12:
        err = NumericalError(
            f"degenerate kernel (kernel_dim = {kernel_dim}): the steady state is not unique"
            if kernel_dim > 1
            else "traceless kernel vector (kernel_dim = 1)"
        )
        err.kernel_dim = kernel_dim
        raise err
    rho = rho / trace
    anti = 0.5 * np.linalg.norm(rho - rho.conj().T)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real

    gap = 0.0
    for lam in vals[1:]:
        if abs(lam - lam0) > kernel_tol:
            gap = abs(lam.real) - abs(lam0.real)
            break
    return SpectrumResult(
        eigenvalues=vals,
        steady_state=rho,
        gap=float(gap),
        kernel_dim=kernel_dim,
        kernel_tol=float(kernel_tol),
        antihermitian_residual=float(anti),
    )


def steady_state_direct(L: Superoperator, residual_tol: float | None = None) -> np.ndarray:
    """Steady state from a direct linear solve instead of a full eigendecomposition.

    One row of ``L v = 0`` is replaced by the trace constraint ``Tr rho = 1``;
    this is much cheaper than ``full_spectrum`` and is the workhorse for
    parameter sweeps where the spectrum itself is not needed.  Raises
    NumericalError if the result does not satisfy ``L vec(rho) ~ 0``.
    """
    d2 = L.shape[0]
    d = int(round(math.sqrt(d2)))
    scale = float(np.linalg.norm(L, np.inf))
    if residual_tol is None:
        residual_tol = 1e-8 * max(1.0, scale)
    # Fortran order lets LAPACK factorize the private copy in place.
    A = L.copy(order="F")
    A[0, :] = vectorize(np.eye(d, dtype=complex))
    b = np.zeros(d2, dtype=complex)
    b[0] = 1.0
    try:
        v = scipy.linalg.solve(A, b, overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"direct steady-state solve failed: {exc}") from exc
    rho = devectorize(v)
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    residual = float(np.linalg.norm(L @ vectorize(rho), np.inf))
    if residual > residual_tol:
        raise NumericalError(
            f"direct steady-state residual {residual:g} exceeds tolerance {residual_tol:g}"
        )
    return rho


def evolve_rk4(
    rho0: np.ndarray,
    L: Superoperator,
    t_final: float,
    dt: float,
    sample_every: int = 1,
) -> Trajectory:
    """Classical 4th-order Runge-Kutta on ``d vec(rho)/dt = L vec(rho)``.

    Samples every ``sample_every`` steps; t = 0 and t = t_final are always
    included.  Aborts if the trace drifts by more than 1e-6.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_final < 0:
        raise ValueError(f"t_final must be nonnegative, got {t_final}")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    d = rho0.shape[0]
    v = vectorize(rho0.astype(complex))
    trace0 = v[:: d + 1].sum()
    times = [0.0]
    states = [devectorize(v.copy())]
    if t_final == 0:
        return Trajectory(np.array(times), np.array(states))
    n_steps = max(1, int(math.ceil(t_final / dt - 1e-12)))
    step = t_final / n_steps
    for k in range(1, n_steps + 1):
        k1 = L @ v
        k2 = L @ (v + 0.5 * step * k1)
        k3 = L @ (v + 0.5 * step * k2)
        k4 = L @ (v + step * k3)
        v = v + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if abs(v[:: d + 1].sum() - trace0) > 1e-6:
            raise NumericalError("integration unstable, reduce dt")
        if k % sample_every == 0 or k == n_steps:
            times.append(k * step)
            states.append(devectorize(v.copy()))
    return Trajectory(np.array(times), np.array(states))


def evolve_expm(rho0: np.ndarray, L: Superoperator, t: float) -> np.ndarray:
    """Propagate by the exact exponential: ``vec(rho(t)) = exp(L t) vec(rho0)``.

    Uses the eigendecomposition of L; if the eigenvector matrix is
    ill-conditioned (estimate > 1e12) falls back to scaling-and-squaring
    with a warning.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0:
        return rho0.astype(complex, copy=True)
    v0 = vectorize(rho0.astype(complex))
    vals, vecs = np.linalg.eig(L)
    try:
        inv = np.linalg.inv(vecs)
        cond = np.linalg.norm(vecs, 1) * np.linalg.norm(inv, 1)
    except np.linalg.LinAlgError:
        cond = np.inf
    if cond > 1e12:
        warnings.warn(
            f"Liouvillian eigenbasis condition estimate {cond:.2e} too large; "
            "falling back to scaling-and-squaring",
            RuntimeWarning,
        )
        vt = scipy.linalg.expm(L * t) @ v0
    else:
        vt = vecs @ (np.exp(vals * t) * (inv @ v0))
    return devectorize(vt)
