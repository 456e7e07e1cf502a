"""Spectral analysis of the Liouvillian and time evolution of density matrices.

``rank_spectrum`` orders a Liouvillian spectrum and reads off its gap and
kernel; the ``steady`` and ``spectrum`` commands, sweeps and scaling studies
apply it to ``PumpModel.eigenvalues``, the poles of a Kronecker sum and the
roots of a rank-one secular equation from one |J| x |J| factorisation, so no
command builds a 4^N x 4^N array.  The dense routes take that array and are
the tests' reference only: a full eigendecomposition (``full_spectrum``,
ranked by the same rule, with the steady state and gap) and one bordered
linear solve (``steady_state_direct``); ``solve_nonsingular`` is every
steady-state solve's, and ``unit_trace_hermitian`` every steady state's
normalization, ``PumpModel.support_steady_states`` included.

``rk4`` is the package's one fixed-step driver.  It owns the step count,
the sample budget, the state checks and the sampling, and takes the step
itself as a map, so ``evolve_rk4`` runs it with a four-stage RK4 step on
density matrices, from a dense superoperator or a matrix-free generator
such as ``PumpModel.apply`` (the reference, and the ``evolve`` command's
step at an exceptional point of K_J); ``KernelStep.evolve`` runs it with a
whole RK4 step as one map in the eigenbasis of K (the ``evolve`` command's
route); and the mean-field ODEs run it with their RK4 step written on three
floats, which are also the state between their steps.  ``evolve_expm``
applies the exact propagator ``exp(L t)`` of a dense L computed by scaling
and squaring, the oracle the RK4 routes are tested against.

This module imports nothing from ``lindblad``, which imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from numpy.typing import ArrayLike

from .errors import NumericalError
from .operators import Superoperator, devectorize, vectorize

# Relative factor for deciding which eigenvalues count as the kernel; the
# absolute tolerance is scaled by the spectral radius so that strong
# dissipation (large-norm generators) does not spuriously empty the kernel.
KERNEL_TOL_FACTOR = 1e-8
# Bytes the samples of one ``rk4`` run may take (0.75 GiB).
SAMPLE_BUDGET_BYTES = 3 * 2**28


@dataclass
class SpectrumResult:
    """Full eigendata of a Liouvillian.

    ``eigenvalues`` within the kernel tolerance of ``rank_spectrum`` come
    first; within and after that group they are sorted by descending real
    part, ties by descending absolute imaginary part, so round-off on the
    imaginary axis cannot rank an oscillating mode above the kernel.
    ``gap`` is |Re lambda_1| - |Re lambda_0| where lambda_1 is the first
    eigenvalue lying outside that tolerance of lambda_0.
    """

    eigenvalues: np.ndarray
    steady_state: np.ndarray
    gap: float
    kernel_dim: int


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


def rank_spectrum(vals: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Order a Liouvillian spectrum and read off its gap: ``(order, gap,
    kernel_dim)``, with the ordering and gap rule of ``SpectrumResult``.

    The kernel tolerance is ``KERNEL_TOL_FACTOR * max(1, max |lambda|)``.
    Raises NumericalError when no eigenvalue lies within it, and the
    "degenerate kernel (kernel_dim = ...)" NumericalError, carrying
    ``kernel_dim``, when more than one does.  ``full_spectrum``,
    ``PumpModel.gap`` and the ``steady`` and ``spectrum`` commands rank
    their eigenvalues here.
    """
    kernel_tol = KERNEL_TOL_FACTOR * max(1.0, float(np.abs(vals).max(initial=0.0)))
    outside = np.abs(vals) > kernel_tol
    kernel_dim = int(np.count_nonzero(~outside))
    order = np.lexsort((-np.abs(vals.imag), -vals.real, outside))
    ranked = vals[order]
    lam0 = ranked[0]
    if abs(lam0) > kernel_tol:
        raise NumericalError(
            f"no steady state found: leading eigenvalue {lam0} exceeds kernel tolerance {kernel_tol:g}"
        )
    if kernel_dim > 1:
        err = NumericalError(
            f"degenerate kernel (kernel_dim = {kernel_dim}): the steady state is not unique"
        )
        err.kernel_dim = kernel_dim
        raise err
    gap = 0.0
    for lam in ranked[1:]:
        if abs(lam - lam0) > kernel_tol:
            gap = abs(lam.real) - abs(lam0.real)
            break
    return order, float(gap), kernel_dim


def full_spectrum(L: Superoperator) -> SpectrumResult:
    """Dense eigendecomposition of the Liouvillian.

    The steady state is recovered from the eigenvector of the kernel
    eigenvalue, normalized to unit trace and projected onto its Hermitian
    part.  ``kernel_dim`` counts eigenvalues within the kernel tolerance;
    a kernel of dimension above one (e.g. gamma = 0) has no unique steady
    state and raises ``NumericalError`` carrying ``kernel_dim``.
    """
    vals, vecs = np.linalg.eig(L)
    order, gap, kernel_dim = rank_spectrum(vals)
    vals = vals[order]
    rho = devectorize(vecs[:, order[0]])
    trace = np.trace(rho)
    if abs(trace) <= 1e-12:
        err = NumericalError("traceless kernel vector (kernel_dim = 1)")
        err.kernel_dim = kernel_dim
        raise err
    rho, _ = unit_trace_hermitian(rho)
    return SpectrumResult(
        eigenvalues=vals,
        steady_state=rho,
        gap=gap,
        kernel_dim=kernel_dim,
    )


def solve_nonsingular(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` by LU, factorizing ``A`` in place; pass a private,
    Fortran-ordered array.

    Every steady-state solve goes through here.  Raises NumericalError
    "non-finite steady-state system: ..." when ``A`` or ``b`` holds NaN or
    infinity, and "degenerate kernel: ..." when LAPACK's reciprocal condition
    estimate of ``A`` is below machine epsilon or a pivot is exactly zero,
    since the solution would then be arbitrary.
    """
    # Raw LAPACK rather than scipy.linalg.solve: the condition estimate is
    # returned, not issued as a warning, so threaded sweeps can act on it.
    lange, getrf, gecon, getrs = scipy.linalg.get_lapack_funcs(
        ("lange", "getrf", "gecon", "getrs"), (A,)
    )
    # LAPACK's norm is NaN or infinite when an entry is (or its column sums overflow)
    a_norm = lange("1", A)
    if not (math.isfinite(a_norm) and np.isfinite(b).all()):
        raise NumericalError("non-finite steady-state system: the generator holds NaN or infinity")
    lu, piv, info = getrf(A, overwrite_a=True)
    rcond, _ = gecon(lu, a_norm, norm="1")
    if info > 0 or not rcond >= np.finfo(float).eps:
        raise NumericalError(
            f"degenerate kernel: the steady-state system is singular "
            f"(reciprocal condition number {rcond:.3g})"
        )
    x, _ = getrs(lu, piv, b)
    return x


def unit_trace_hermitian(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale to unit trace, keep the Hermitian part, and rescale its trace to 1;
    also returns the Frobenius norm of the anti-Hermitian part dropped.  For
    a stack of matrices (..., n, n), each is treated so, with one norm each."""
    rho = rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
    adjoint = np.swapaxes(rho.conj(), -1, -2)
    antihermitian = 0.5 * np.linalg.norm((rho - adjoint).reshape(*rho.shape[:-2], -1), axis=-1)
    rho = 0.5 * (rho + adjoint)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None], antihermitian


def steady_state_direct(L: Superoperator) -> np.ndarray:
    """Steady state from a direct linear solve instead of a full eigendecomposition.

    One row of ``L v = 0`` is replaced by the trace constraint ``Tr rho = 1``.
    This is the dense reference for ``PumpModel.steady_state``, which solves
    the same problem as 2|J| real equations on the target's support J in an
    eigenbasis of H.  Raises NumericalError if that
    bordered matrix is singular to working precision (a degenerate kernel,
    e.g. gamma = 0, whose solution would be an arbitrary kernel vector) or if
    the result misses ``L vec(rho) = 0`` by more than ``1e-8 * max(1, ||L||_inf)``.
    """
    d2 = L.shape[0]
    d = int(round(math.sqrt(d2)))
    residual_tol = 1e-8 * max(1.0, float(np.linalg.norm(L, np.inf)))
    # Fortran order lets LAPACK factorize the private copy in place.
    A = L.copy(order="F")
    A[0, :] = vectorize(np.eye(d, dtype=complex))
    b = np.zeros(d2, dtype=complex)
    b[0] = 1.0
    rho, _ = unit_trace_hermitian(devectorize(solve_nonsingular(A, b)))
    residual = float(np.linalg.norm(L @ vectorize(rho), np.inf))
    if not residual <= residual_tol:
        raise NumericalError(
            f"direct steady-state residual {residual:g} exceeds tolerance {residual_tol:g}"
        )
    return rho


def step_count(t_final: float, dt: float) -> int:
    """``max(1, ceil(t_final / dt))`` steps to reach ``t_final`` with none longer
    than ``dt`` (0 at t_final = 0); raises ValueError on a non-finite,
    nonpositive ``dt`` or a non-finite, negative ``t_final``."""
    if not (math.isfinite(dt) and math.isfinite(t_final)):
        raise ValueError(f"dt and t_final must be finite, got {dt} and {t_final}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_final < 0:
        raise ValueError(f"t_final must be nonnegative, got {t_final}")
    return 0 if t_final == 0 else max(1, int(math.ceil(t_final / dt - 1e-12)))


def rk4(
    step: Callable,
    y0: ArrayLike,
    t_final: float,
    dt: float,
    sample_every: int,
    check: Callable[[np.ndarray], None],
) -> Trajectory:
    """Fixed-step driver: ``y <- step(y, h)`` from ``y0`` up to ``t_final``.

    ``step(y, h)`` returns the state one step of length ``h`` after ``y``,
    as a new object; callers pass a classical 4th-order Runge-Kutta step.
    ``y0`` is an array, or anything ``np.asarray`` makes one (the mean-field
    ODEs pass three floats); the state between steps is what ``step``
    returns, and samples are stored as arrays of ``y0``'s shape and dtype.
    Takes ``step_count(t_final, dt)`` equal steps of ``h = t_final / n``, and
    samples every ``sample_every`` steps; t = 0 and t = t_final are always
    included.  ``check`` is called on ``y0`` and on every new state; it
    aborts the run by raising.  Bad times (see ``step_count``), or a run
    whose samples would take more than ``SAMPLE_BUDGET_BYTES``, raise
    ValueError before any step.
    """
    n_steps = step_count(t_final, dt)
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    n_samples = 1 + -(-n_steps // sample_every)
    first = np.asarray(y0)
    if n_samples * first.nbytes > SAMPLE_BUDGET_BYTES:
        raise ValueError(
            f"{n_samples} samples would need {n_samples * first.nbytes / 2.0**30:.1f} GiB, above "
            f"the {SAMPLE_BUDGET_BYTES / 2.0**30:.2f} GiB budget; sample less often or stop earlier"
        )
    check(y0)
    times = np.zeros(n_samples)
    states = np.empty((n_samples, *first.shape), dtype=first.dtype)
    states[0] = first
    if n_steps == 0:
        return Trajectory(times, states)
    h = t_final / n_steps
    y = y0
    i = 1
    for k in range(1, n_steps + 1):
        y = step(y, h)
        check(y)
        if k % sample_every == 0 or k == n_steps:
            times[i] = k * h
            states[i] = y
            i += 1
    return Trajectory(times, states)


def evolve_rk4(
    rho0: np.ndarray,
    L: Superoperator | Callable[[np.ndarray], np.ndarray],
    t_final: float,
    dt: float,
    sample_every: int = 1,
) -> Trajectory:
    """Classical RK4 on ``d rho/dt = L(rho)``, four stages a step, stepped by
    ``rk4``.

    ``L`` is a dense superoperator acting on ``vec(rho)``, or a callable on
    d x d matrices, such as ``lambda rho: model.apply(rho, gamma)``.
    ``rho0`` and the (n, d, d) states are in one basis, the computational
    basis for ``apply``, and ``rho0`` must be a density matrix: the run
    aborts with NumericalError "integration unstable, reduce dt" once the
    trace drifts by more than 1e-6 or an entry exceeds ``|Tr rho0| + 1e-6``
    in modulus, which no positive semidefinite matrix does.  The trace alone
    would miss an unstable step, since the generator preserves it.
    ``KernelStep.evolve`` is the route with a whole step as one map.
    """
    rhs = L if callable(L) else lambda rho: devectorize(L @ vectorize(rho))

    def four_stages(rho: np.ndarray, h: float) -> np.ndarray:
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        return rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    rho0 = rho0.astype(complex)
    trace0 = np.trace(rho0)
    bound = abs(trace0) + 1e-6

    def check_bounded(rho: np.ndarray) -> None:
        # written so that NaN fails too
        if not (abs(rho.trace() - trace0) <= 1e-6 and np.abs(rho).max() <= bound):
            raise NumericalError("integration unstable, reduce dt")

    return rk4(four_stages, rho0, t_final, dt, sample_every, check_bounded)


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
