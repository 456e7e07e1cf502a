"""Spectral analysis of the Liouvillian and time evolution of density matrices.

Steady states come from a full eigendecomposition (``full_spectrum``, which
also gives the gap) or from one bordered linear solve
(``steady_state_direct``).  Two independent evolution routes are provided:
``evolve_rk4`` runs the package's one fixed-step RK4 driver, ``rk4``, on the
vectorized master equation (the mean-field ODEs use the same driver), and
``evolve_expm`` applies the exact propagator ``exp(L t)`` computed by
scaling and squaring; it is the oracle the RK4 route is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    """Sampled evolution: times[i] goes with states[i].

    ``states`` has shape (n_samples, d, d) for density matrices and
    (n_samples, 3) for mean-field spin vectors.
    """

    times: np.ndarray
    states: np.ndarray


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


def _solve_nonsingular(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` by LU, factorizing ``A`` in place; pass a private,
    Fortran-ordered array.

    Every steady-state solve goes through here.  Raises NumericalError
    "degenerate kernel: ..." when LAPACK's reciprocal condition estimate of
    ``A`` is below machine epsilon or a pivot is exactly zero, since the
    solution would then be arbitrary.
    """
    # Raw LAPACK rather than scipy.linalg.solve: the condition estimate is
    # returned, not issued as a warning, so threaded sweeps can act on it.
    lange, getrf, gecon, getrs = scipy.linalg.get_lapack_funcs(
        ("lange", "getrf", "gecon", "getrs"), (A,)
    )
    a_norm = lange("1", A)
    lu, piv, info = getrf(A, overwrite_a=True)
    rcond, _ = gecon(lu, a_norm, norm="1")
    if info > 0 or rcond < np.finfo(float).eps:
        raise NumericalError(
            f"degenerate kernel: the steady-state system is singular "
            f"(reciprocal condition number {rcond:.3g})"
        )
    x, _ = getrs(lu, piv, b)
    return x


def _unit_trace_hermitian(rho: np.ndarray) -> np.ndarray:
    """Scale to unit trace, keep the Hermitian part, and rescale its trace to 1."""
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def steady_state_direct(L: Superoperator, residual_tol: float | None = None) -> np.ndarray:
    """Steady state from a direct linear solve instead of a full eigendecomposition.

    One row of ``L v = 0`` is replaced by the trace constraint ``Tr rho = 1``.
    This is the dense reference for ``PumpModel.steady_state``, which solves
    the same problem in the eigenbasis of H.  Raises NumericalError if that
    bordered matrix is singular to working precision (a degenerate kernel,
    e.g. gamma = 0, whose solution would be an arbitrary kernel vector) or if
    the result does not satisfy ``L vec(rho) ~ 0``.
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
    rho = _unit_trace_hermitian(devectorize(_solve_nonsingular(A, b)))
    residual = float(np.linalg.norm(L @ vectorize(rho), np.inf))
    if residual > residual_tol:
        raise NumericalError(
            f"direct steady-state residual {residual:g} exceeds tolerance {residual_tol:g}"
        )
    return rho


def rk4(
    rhs: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_final: float,
    dt: float,
    sample_every: int,
    check: Callable[[np.ndarray], None],
) -> Trajectory:
    """Classical 4th-order Runge-Kutta for ``dy/dt = rhs(y)`` from ``y0``.

    Takes ``max(1, ceil(t_final / dt))`` equal steps, so no step exceeds
    ``dt``, and samples every ``sample_every`` steps; t = 0 and t = t_final
    are always included.  ``check`` is called on ``y0`` and on every new
    state; it aborts the run by raising.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_final < 0:
        raise ValueError(f"t_final must be nonnegative, got {t_final}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    check(y0)
    times = [0.0]
    states = [y0]
    if t_final == 0:
        return Trajectory(np.array(times), np.array(states))
    n_steps = max(1, int(math.ceil(t_final / dt - 1e-12)))
    step = t_final / n_steps
    y = y0
    for k in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * step * k1)
        k3 = rhs(y + 0.5 * step * k2)
        k4 = rhs(y + step * k3)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        check(y)
        if k % sample_every == 0 or k == n_steps:
            times.append(k * step)
            states.append(y)
    return Trajectory(np.array(times), np.array(states))


def evolve_rk4(
    rho0: np.ndarray,
    L: Superoperator,
    t_final: float,
    dt: float,
    sample_every: int = 1,
) -> Trajectory:
    """RK4 (``rk4``) on ``d vec(rho)/dt = L vec(rho)``; states are (n, d, d) matrices.

    Aborts with NumericalError if the trace drifts by more than 1e-6.
    """
    d = rho0.shape[0]
    v0 = vectorize(rho0.astype(complex))
    trace0 = v0[:: d + 1].sum()

    def check_trace(v: np.ndarray) -> None:
        if abs(v[:: d + 1].sum() - trace0) > 1e-6:
            raise NumericalError("integration unstable, reduce dt")

    traj = rk4(lambda v: L @ v, v0, t_final, dt, sample_every, check_trace)
    # each row is a column-stacked vec(rho); back to C-contiguous matrices
    traj.states = np.ascontiguousarray(traj.states.reshape(-1, d, d).transpose(0, 2, 1))
    return traj


def evolve_expm(rho0: np.ndarray, L: Superoperator, t: float) -> np.ndarray:
    """Propagate by the exact exponential: ``vec(rho(t)) = exp(L t) vec(rho0)``.

    ``exp(L t)`` comes from scaling and squaring (``scipy.linalg.expm``), which
    needs no eigenbasis and so also holds for defective generators.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0:
        return rho0.astype(complex, copy=True)
    return devectorize(scipy.linalg.expm(L * t) @ vectorize(rho0.astype(complex)))
