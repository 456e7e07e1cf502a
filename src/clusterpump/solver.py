"""Spectral analysis of the Liouvillian and time evolution of density matrices.

``rank_spectrum`` orders a Liouvillian spectrum and reads off its gap and
kernel; the ``steady`` and ``spectrum`` commands, sweeps and scaling studies
apply it to ``PumpModel.eigenvalues``, the poles of a Kronecker sum and the
roots of a rank-one secular equation from one |J| x |J| factorisation, so no
command builds a 4^N x 4^N array.  The secular equation is this module's
too: ``secular_problem`` merges and hides its poles and returns what is
known in closed form, ``secular_roots`` finds the rest by Aberth iteration,
and ``groups``, their rule for points equal up to round-off, also groups
H's levels and ranks spectra.  The dense routes take that array and are
the tests' reference only: a full eigendecomposition (``full_spectrum``,
ranked by the same rule, with the steady state and gap) and one bordered
linear solve (``steady_state_direct``); ``solve_nonsingular`` is every
steady-state solve's, and ``unit_trace_hermitian`` every steady state's
normalization, ``PumpModel.support_steady_states`` included.

``rk4`` is the package's one fixed-step driver.  It owns the step count,
the sample budget, the check of the initial state and the sampling, and
takes the stepping itself as a map ``advance(y, h, count)`` that runs one
sample interval, with the caller's check on every new state, so the steps
of an interval cost no call into the driver, and what is stored of a
sampled state as a map ``sample(y)``.  ``evolve_rk4`` runs it with
four-stage RK4 steps on density matrices, from a dense superoperator or a
matrix-free generator such as ``PumpModel.apply`` (the reference, and the
``evolve`` command's step at an exceptional point of K_J), and stores the
states; ``KernelStep.evolve`` with whole RK4 steps as one map each in the
eigenbasis of K, into two preallocated buffers, storing its caller's
``sample`` (the ``evolve`` command's route, which stores five functionals
a sample); and the mean-field ODEs with their RK4 step written on three
floats, which are also the state between their steps and what is stored.
``evolve_expm`` applies the exact propagator ``exp(L t)`` of a dense L
computed by scaling and squaring, the oracle the RK4 routes are tested
against.

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
# Secular-equation poles whose weight is at most this fraction of the largest
# are hidden: they are eigenvalues of the generator as they stand.
HIDDEN_TOL = 1e-13
# Points closer than this relative to max(1, their largest modulus) are one:
# one degenerate level of H (``PumpModel.eigenbasis``), one secular-equation
# pole (``secular_problem``), or one rank in a spectrum (``rank_spectrum``).
COINCIDENT_TOL = 1e-12
# Secular-equation roots closer than this relative to max(1, their largest
# modulus) are one cluster, re-centred by ``secular_roots``: the roots that
# split from a double root at a defective eigenvalue lie ~1e-7 apart.
ROOT_CLUSTER_TOL = 1e-6
# Aberth sweeps after which the secular equation counts as unsolved.  1,188
# secular equations (chains 2-5, the 2x2 and 2x3 squares, star:4, K4 and 12
# random graphs of 3-5 qubits at 8 fields h from 0 to 2 and gamma from 0.05 to
# 600, plus chains 6 and 7) took at most 27 sweeps, at the double root of one
# edge at h = 0, gamma = 8, and at most 19 on chains 6 and 7.
ABERTH_MAX_SWEEPS = 100
# Sweeps after which ``secular_roots`` frees the held unknowns still moving.
# Held to the end, 70 of 720 of the cases above (h != 0) never converge, where
# a pair of roots must split into two real ones or the reverse, and 539 of
# the other 650 stop within 8 sweeps.
ABERTH_STALL_SWEEPS = 8
# Rows of every k x n array the secular-equation solver forms at once; whole
# n x n temporaries raised a scaling study's peak memory by 12%.
SECULAR_BLOCK = 64


@dataclass
class SpectrumResult:
    """Full eigendata of a Liouvillian.

    ``eigenvalues`` within the kernel tolerance of ``rank_spectrum`` come
    first, so round-off on the imaginary axis cannot rank an oscillating
    mode above the kernel.  Within and after that group they are ranked by
    descending real part, then descending absolute imaginary part, then
    descending imaginary part, where real parts, and then absolute imaginary
    parts, that ``groups`` puts in one group at ``COINCIDENT_TOL`` count as
    equal: the rows do not depend on round-off or on the input's order.
    ``gap`` is |Re lambda_1| - |Re lambda_0| where lambda_1 has the largest
    real part of the eigenvalues outside that tolerance of lambda_0.
    """

    eigenvalues: np.ndarray
    steady_state: np.ndarray
    gap: float
    kernel_dim: int


@dataclass
class Trajectory:
    """Sampled evolution: times[i] goes with states[i], what ``rk4``'s
    ``sample`` returned for the state at that time.

    ``states`` has shape (n_samples, d, d) for the density matrices of
    ``evolve_rk4``, (n_samples, 3) for mean-field spin vectors, and
    (n_samples, k) for the k functionals read off each state of a
    ``KernelStep.evolve`` run.
    """

    times: np.ndarray
    states: np.ndarray


def pure_state_density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a normalized state vector."""
    return np.outer(psi, psi.conj())


def rank_spectrum(vals: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Order a Liouvillian spectrum and read off its gap: ``(order, gap,
    kernel_dim)``, with the ordering and gap rule of ``SpectrumResult``.
    Real parts equal up to round-off are found by single linkage, so the
    order may put a real part up to one group's spread above the one before.

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
    # groups of -Re and, within them, of -|Im|, in ascending order
    order, starts = groups(-(vals.real + 1j * np.abs(vals.imag)), COINCIDENT_TOL)
    rank = np.repeat(np.arange(starts.size), np.diff(np.append(starts, vals.size)))
    order = order[np.lexsort((-vals.imag[order], rank, outside[order]))]
    lam0 = vals[order[0]]
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
    far = np.abs(vals - lam0) > kernel_tol
    gap = abs(vals.real[far].max()) - abs(lam0.real) if far.any() else 0.0
    return order, float(gap), kernel_dim


def groups(z: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: ``z[order]`` lists the groups of points closer than
    ``rtol max(1, max |z|)`` one after another, each from an index in ``starts``.

    Single linkage on the real parts, then on the imaginary parts within
    each run, so each pass is one stable sort.
    """
    tol = rtol * max(1.0, float(np.abs(z).max(initial=0.0)))
    order = np.argsort(z.real, kind="stable")
    run = np.cumsum(np.diff(z.real[order], prepend=-np.inf) > tol)
    within = np.lexsort((z.imag[order], run))
    order, run = order[within], run[within]
    starts = np.flatnonzero(
        (np.diff(z.imag[order], prepend=-np.inf) > tol) | (np.diff(run, prepend=-1) != 0)
    )
    return order, starts


def secular_problem(poles: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(known, mu, w, r)``: the m^2 eigenvalues of ``diag(poles) + weights 1^T``
    (raveled), for m x m poles such as ``kappa_i + conj(kappa_j)`` whose (j, i)
    pole and weight are the conjugates of the (i, j) ones, so the diagonal
    ones are real.  ``known`` holds those that are poles as they stand; the
    others are ``secular_roots(mu, w, r)``, the roots of
    ``1 + sum_ij weights_ij / (poles_ij - z)``.

    The poles of the upper triangle are taken, each pair turned to Im >= 0.
    Coincident poles (``groups`` at ``COINCIDENT_TOL``) merge, their weights
    summed, and a group within reach of its mirror image becomes one real
    pole; a merged pole whose weight is at most ``HIDDEN_TOL`` of the
    largest is hidden.  ``known`` holds the extra copies of merged poles and
    the hidden poles, each pair with its conjugate; ``mu`` and ``w`` hold the
    visible ones as ``secular_roots`` takes them, r real poles with real
    weights, then one pole of each pair.  So
    ``known.size + r + 2 (mu.size - r) = m^2``.
    """
    rows, cols = np.triu_indices(poles.shape[0])
    mu, weights = poles[rows, cols], weights[rows, cols]
    lower = mu.imag < 0
    mu[lower], weights[lower] = mu[lower].conj(), weights[lower].conj()
    diagonal = rows == cols
    # coincident poles merge, their weights summed; the copies are known.
    # A group within reach of its mirror image is one real pole with it,
    # where each member off the diagonal adds w + conj(w), and a copy at
    # the group's real part stands for the mirror of a first member off
    # the diagonal
    order, starts = groups(mu, COINCIDENT_TOL)
    first, rest = order[starts], np.delete(order, starts)
    real = mu.imag[first] <= 0.5 * COINCIDENT_TOL * max(1.0, float(np.abs(mu).max()))
    mirrored = ~diagonal[order] & np.repeat(real, np.diff(np.append(starts, mu.size)))
    summed = weights[order]
    summed[mirrored] = 2.0 * summed[mirrored].real
    copies, mu, w = mu[rest], mu[first], np.add.reduceat(summed, starts)
    visible = np.abs(w) > HIDDEN_TOL * np.abs(w).max(initial=0.0)
    pairs = np.concatenate([copies[~diagonal[rest]], mu[~real & ~visible]])
    reals = np.concatenate([copies[diagonal[rest]], mu[real & ~diagonal[first]], mu[real & ~visible]])
    on_axis = real & visible
    mu, w = (np.concatenate([z[on_axis].real, z[~real & visible]]) for z in (mu, w))
    return np.concatenate([reals.real, pairs, pairs.conj()]), mu, w, int(np.count_nonzero(on_axis))


def secular_roots(mu: np.ndarray, w: np.ndarray, r: int) -> np.ndarray:
    """All roots of ``f(z) = 1 + sum_m w_m / (mu_m - z)`` for a set of distinct
    poles with nonzero weights that is closed under conjugation, given as its
    r real poles ``mu[:r]`` (real weights) and one pole of each conjugate
    pair, ``mu[r:]`` with Im > 0, whose partner ``conj(mu)`` has the weight
    ``conj(w)``: r + 2u roots for u pairs, by Aberth-Ehrlich iteration (Aberth,
    Math. Comp. 27, 339, 1973; the secular mode of MPSolve, Bini and Robol,
    J. Comput. Appl. Math. 272, 276, 2014).

    f is real on the real axis, so its roots are closed under conjugation
    too.  The iteration holds one unknown per real pole, kept real (it takes
    the real part of its step), and one per pair, standing for a root z and
    its partner ``conj(z)``, reflected back when its step crosses the real
    axis: about n / 2 unknowns for n = r + 2u, each evaluated against all n
    poles and deflated against all n current roots, so a sweep costs about
    half of one over every root.  A held pair cannot become two real roots,
    nor two held real unknowns a pair, so every unknown still moving after
    ``ABERTH_STALL_SWEEPS`` sweeps is freed, a pair as two unknowns, z and
    its partner.  A freed real unknown and a freed partner are turned by
    0.01 rad about their poles, off the real axis and its mirror symmetry,
    and each free unknown iterates as a complex root of its own.

    The Newton ratio is that of the polynomial ``p = f prod_m (mu_m - z)``,
    ``f / (f' - f sum_m 1 / (mu_m - z))``, so an exact root takes a zero step.
    Unknown m starts at the first-order estimate
    ``mu_m + w_m / (1 + sum_{k != m} w_k / (mu_k - mu_m))``, or a third of the
    distance to the nearest other pole away (in the direction of w_m) when
    that estimate is not finite or lies farther out; one pole gives
    ``mu + w``.  (Half the distance would start two neighbouring real poles'
    unknowns, or a pair and its partner, on one point, whose deflation
    divides by zero.)  An unknown stops when its step is at most
    ``1e-13 max(1, |z|)``, or, once freed, when ``|f(z)|`` is at most
    ``n eps (1 + sum_m |w_m / (mu_m - z)|)``, a bound on f's rounding error:
    near a multiple root the steps are noise that need not fall that low.
    Only the moving unknowns are recomputed.  Every k x n
    array is formed ``SECULAR_BLOCK`` rows at a time, its reciprocals in
    place, and f, f' and the rounding bound are per-row dot products
    (``np.vecdot``), which run on the calling thread: as k x n
    matrix-vector products OpenBLAS split them over its threads even at
    n = 400, and its idle worker then spun, so a ``scaling`` run over
    N = 2-5 cost 0.061 s of CPU for 0.037 s of wall time, against 0.036 s
    for both this way.  A single dot product is split only past about
    n = 10,000 (one thread at 9,000 poles, two at 12,000).  Raises NumericalError
    when roots are still moving after ``ABERTH_MAX_SWEEPS`` sweeps.

    Near a multiple root f is flat to rounding over a disc of radius about
    sqrt(eps), where Aberth's roots land anywhere, their mean too.  So each
    group of k roots closer than ``ROOT_CLUSTER_TOL`` becomes the k roots
    nearest its mean of f's Taylor polynomial of degree k + 2 there, unless
    a pole lies within 100 diameters: the mean is then O(eps)-accurate.
    """
    u = mu.size - r
    n = r + 2 * u
    # every pole and every root: the real ones, one of each pair, the partners
    poles = np.concatenate([mu, mu[r:].conj()])
    weights = np.concatenate([w, w[r:].conj()])
    # np.vecdot conjugates its first argument
    conj_weights, abs_weights = weights.conj(), np.abs(weights)
    z = np.empty(n, dtype=complex)
    for s in range(0, r + u, SECULAR_BLOCK):
        rows = slice(s, min(s + SECULAR_BLOCK, r + u))
        spread = poles - poles[rows, None]
        spread[np.arange(spread.shape[0]), np.arange(s, s + spread.shape[0])] = np.inf
        with np.errstate(all="ignore"):
            shift = w[rows] / (1.0 + (weights / spread).sum(axis=1))
        reach = np.abs(spread).min(axis=1) / 3.0
        far = ~(np.abs(shift) <= reach)
        shift[far] = reach[far] * w[rows][far] / np.abs(w[rows][far])
        z[rows] = mu[rows] + shift
        del spread  # else the last block stays alive through every sweep
    z[:r] = z[:r].real
    z[r : r + u] = z[r : r + u].real + 1j * np.abs(z[r : r + u].imag)
    z[r + u :] = z[r : r + u].conj()
    free = np.zeros(n, dtype=bool)
    active = np.arange(r + u)
    for sweep in range(ABERTH_MAX_SWEEPS):
        if sweep == ABERTH_STALL_SWEEPS:
            stalled = active[~free[active]]
            turned = np.concatenate([stalled[stalled < r], stalled[stalled >= r] + u])
            free[stalled] = free[turned] = True
            z[turned] = poles[turned] + (z[turned] - poles[turned]) * np.exp(0.01j)
            active = np.union1d(active, turned)
        if active.size == 0:
            break
        step = np.empty(active.size, dtype=complex)
        for s in range(0, active.size, SECULAR_BLOCK):
            roots = active[s : s + SECULAR_BLOCK]
            zk = z[roots, None]
            inverse = poles - zk
            with np.errstate(all="ignore"):
                np.divide(1.0, inverse, out=inverse)
                f = 1.0 + np.vecdot(conj_weights, inverse)
                newton = f / (np.vecdot(conj_weights, inverse * inverse) - f * inverse.sum(axis=1))
            # a root that rounds onto its pole (f or f' overflows there) is
            # that pole to working precision
            newton[~np.isfinite(newton)] = 0.0
            if sweep >= ABERTH_STALL_SWEEPS:
                # every unknown is free: one where f vanishes to rounding stops
                flat = np.abs(f) <= n * np.finfo(float).eps * (1.0 + np.vecdot(abs_weights, np.abs(inverse)))
                newton[flat] = 0.0
            separation = zk - z
            separation[np.arange(roots.size), roots] = np.inf
            np.divide(1.0, separation, out=separation)
            step[s : s + roots.size] = newton / (1.0 - newton * separation.sum(axis=1))
        held = ~free[active]
        step.imag[held & (active < r)] = 0.0
        z[active] -= step
        pairs = active[held & (active >= r)]
        z[pairs] = z[pairs].real + 1j * np.abs(z[pairs].imag)
        z[pairs + u] = z[pairs].conj()
        active = active[~(np.abs(step) <= 1e-13 * np.maximum(1.0, np.abs(z[active])))]
    if active.size:
        moving = active.size + np.count_nonzero((active >= r) & ~free[active])
        raise NumericalError(
            f"secular equation unsolved: {moving} of {n} roots still moving "
            f"after {ABERTH_MAX_SWEEPS} Aberth sweeps"
        )
    order, starts = groups(z, ROOT_CLUSTER_TOL)
    sizes = np.diff(np.append(starts, n))
    for start, k in zip(starts[sizes > 1], sizes[sizes > 1]):
        group = order[start : start + k]
        center = z[group].mean()
        # within 100 diameters of a pole the polynomial would not hold
        if not np.abs(poles - center).min() > 200.0 * np.abs(z[group] - center).max():
            continue
        # f(center + t) = 1 + sum_j t^j sum_i w_i / (mu_i - center)^(j+1)
        inverse = 1.0 / (poles - center)
        taylor = [inverse ** (j + 1) @ weights for j in range(k + 3)]
        taylor[0] += 1.0
        t = np.roots(taylor[::-1])
        z[group] = center + t[np.argsort(np.abs(t))[:k]]
    return z


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
    # Raw LAPACK rather than scipy.linalg.solve: the condition estimate comes
    # back as a value to test, not as a LinAlgWarning.
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
    advance: Callable,
    y0: ArrayLike,
    t_final: float,
    dt: float,
    sample_every: int,
    check: Callable[[np.ndarray], None],
    sample: Callable[[np.ndarray], ArrayLike],
) -> Trajectory:
    """Fixed-step driver: ``y <- advance(y, h, count)`` from ``y0`` up to
    ``t_final``, one sample interval a call, storing ``sample(y)`` for ``y0``
    and for the state at the end of each interval.

    ``advance(y, h, count)`` returns the state ``count`` steps of length
    ``h`` after ``y`` and calls the caller's check on every new state, which
    aborts the run by raising; callers take classical 4th-order Runge-Kutta
    steps.  The returned state may be a buffer that the next call
    overwrites: what ``sample`` returns is copied out.  ``y0`` is the
    initial state (the mean-field ODEs pass three floats), the state between
    calls is what ``advance`` returns, and the samples are stored as arrays
    of the shape and dtype of ``np.asarray(sample(y0))``: the identity
    stores the states, and a reduction keeps one state in memory, not all
    of them.  Takes ``step_count(t_final, dt)`` equal steps of
    ``h = t_final / n``, and samples every ``sample_every`` steps; t = 0 and
    t = t_final are always included.  ``check`` is called on ``y0``.  Bad
    times (see ``step_count``), or a run whose samples would take more than
    ``SAMPLE_BUDGET_BYTES``, raise ValueError before any step.
    """
    n_steps = step_count(t_final, dt)
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    n_samples = 1 + -(-n_steps // sample_every)
    first = np.asarray(sample(y0))
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
    k = 0
    for i in range(1, n_samples):
        count = min(sample_every, n_steps - k)
        y = advance(y, h, count)
        k += count
        times[i] = k * h
        states[i] = sample(y)
    return Trajectory(times, states)


def evolve_rk4(
    rho0: np.ndarray,
    L: Superoperator | Callable[[np.ndarray], np.ndarray],
    t_final: float,
    dt: float,
    sample_every: int = 1,
) -> Trajectory:
    """Classical RK4 on ``d rho/dt = L(rho)``, four stages a step, driven by
    ``rk4``.

    ``L`` is a dense superoperator acting on ``vec(rho)``, or a callable on
    d x d matrices, such as ``lambda rho: model.apply(rho, gamma)``.
    ``rho0`` and the (n, d, d) states are in one basis, the computational
    basis for ``apply``, and ``rho0`` must be a density matrix: the run
    aborts with NumericalError "integration unstable, reduce dt" once the
    trace drifts by more than 1e-6 or an entry exceeds ``|Tr rho0| + 1e-6``
    in modulus, which no positive semidefinite matrix does.  The trace alone
    would miss an unstable step, since the generator preserves it.  Each
    call of ``rk4``'s ``advance`` loops the four stages and this check over
    its steps.  ``KernelStep.evolve`` is the route with a whole step as one
    map.
    """
    rhs = L if callable(L) else lambda rho: devectorize(L @ vectorize(rho))
    rho0 = rho0.astype(complex)
    trace0 = np.trace(rho0)
    bound = abs(trace0) + 1e-6

    def check_bounded(rho: np.ndarray) -> None:
        # written so that NaN fails too
        if not (abs(rho.trace() - trace0) <= 1e-6 and np.abs(rho).max() <= bound):
            raise NumericalError("integration unstable, reduce dt")

    def advance(rho: np.ndarray, h: float, count: int) -> np.ndarray:
        for _ in range(count):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * h * k1)
            k3 = rhs(rho + 0.5 * h * k2)
            k4 = rhs(rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            check_bounded(rho)
        return rho

    return rk4(advance, rho0, t_final, dt, sample_every, check_bounded, lambda rho: rho)


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
