"""Model Hamiltonian, jump operators, and the vectorized Liouvillian.

Density matrices are vectorized by column stacking, the convention of
``operators`` (whose ``vectorize``, ``devectorize`` and ``Superoperator``
this module re-exports), so the generator of

    drho/dt = -i[H, rho] + gamma * sum_m (L_m rho L_m^+ - {L_m^+ L_m, rho} / 2)

is assembled as

    -i (I kron H - H.T kron I)
    + gamma * sum_m [ conj(L_m) kron L_m
                      - (I kron L_m^+ L_m) / 2 - ((L_m^+ L_m).T kron I) / 2 ].

A single decay rate ``gamma`` multiplies every jump term.  For the projection
jumps ``|C><phi_m|`` the sum collapses to ``P Tr(Q rho) - {Q, rho} / 2`` with
``P = |C><C|`` and ``Q = I - P``.  ``PumpModel.liouvillian`` therefore writes
the whole generator into one buffer as a recycling term plus an effective
non-Hermitian Hamiltonian ``K = -i H - (gamma / 2) Q``:

    gamma * vec(P) vec(Q.T)^T + I kron K + conj(K) kron I,

instead of summing the 2^N - 1 explicit jumps.  That d^2 x d^2 array
(d = 2^N) is the dense reference in tests only; no command builds it.
The generator's action on a matrix, in any eigenbasis of a diagonal H, is
one rule, ``_eigenbasis_rhs``.  ``PumpModel.apply`` is that rule on the ZZ
diagonal of H plus its bit flips, the action on one d x d matrix in the
computational basis at O(N d^2) per call: the reference the structured
routes are checked against, and the ``evolve`` command's step at an
exceptional point of K_J.  The rest works in one eigenbasis W of H,
``PumpModel.eigenbasis``, J first (below).  The steady state lives on the
target's support J and depends only on the target's spectral measure, the
levels E_J and weights c_J: ``measure_steady_states`` reads no model and
solves 2|J| real equations per rate at O(|J|^3) work, and
``PumpModel.support_steady_states`` hands it a whole grid of rates in
batches, past the eigendecomposition of H and the model's refusals of a
degenerate kernel.  Sweeps read fidelity and witness off those states on J,
and ``PumpModel.steady_state`` is the one-point case transformed back to
the computational basis.  Linear solves, the ranking of a spectrum and the
secular equation's builder and solver are ``solver``'s, which imports
nothing from this module.

The structure: ``rho -> K rho + rho K^+`` is a Kronecker sum and the
recycling term has rank one.  One factorisation of K on the target's
support J, a |J| x |J| matrix, diagonalises the sum.
``PumpModel.eigenvalues`` (and ``PumpModel.gap``) take from it all d^2
eigenvalues of the generator: the sum's eigenvalues (poles), and the roots
of a secular equation with one pole per visible pair, which
``solver.secular_roots`` finds by Aberth iteration.
``PumpModel.kernel_step`` (``KernelStep``) runs dynamics in the eigenbasis
of K, where one RK4 step is an elementwise product plus a rank-4 update of
the state's upper triangle, O(d^2); ``KernelStep.evolve`` drives those
steps on ``solver.rk4`` with their own state check, and stores what its
caller's ``sample`` reads off each sampled state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from . import solver
from .cluster import GraphSpec, cluster_state, orthogonal_basis, stabilizers
from .errors import NumericalError
# vectorize, devectorize and Superoperator are re-exported: callers and tests import them from here
from .operators import DenseOperator, StateVector, Superoperator, devectorize, pauli_to_dense, site_flips, vectorize

# Dense generators above this register size are refused (the superoperator
# for N qubits holds 16^N complex entries), and so are Liouvillian
# eigenvalues: their secular equation has up to n = 4^N poles, and each
# Aberth sweep, over about n / 2 unknowns (one per real pole or conjugate
# pair) against all n poles and roots, costs about 16^N / 2 evaluations.
MAX_DENSE_QUBITS = 7
# Models above this register size are refused.  A command peaks at about
# MODEL_ARRAYS complex d x d arrays (d = 2^N) above the interpreter's 61 MB:
# by getrusage on chains, 5-step ``evolve`` 6.5, 5.7, 9.1 and 2-point
# ``sweep --skip-gap`` 2.1, 1.4, 4.6 at N = 11, 10, 9 (the largest N sets it).
MAX_MODEL_QUBITS = 11
MODEL_ARRAYS = 7.5
# Levels of H on which the norm of the target's components (eigh's V^T |C>)
# is at most this large are O of ``PumpModel.eigenbasis``.  eigh's mixing of
# near-degenerate levels leaves round-off norms up to 2.8e-12 (chain:8), so
# no tolerance drops all of them; true ones reach 2.4e-10 (h = 0.004).
# Keeping a small norm costs time; dropping one moves steady states by its
# size, and the generator in the basis W by up to 1.8 times it, relative to
# the generator's largest entry: below 1e-12 at this tolerance, but up to
# 1.7e-12 at 1e-12 (4-qubit graphs, h = -3e-4 to 0.09).
SUPPORT_TOL = 4e-13
# Above this condition number of K_J's eigenvectors (at most 4.3 over 784
# oracle cases; 1e8 at the exceptional point of chain:2 at h = 0, gamma = 4)
# ``PumpModel.eigenvalues`` takes the JJ sector densely instead, and
# ``PumpModel.kernel_step`` leaves dynamics to the four-stage step.
EIGENVECTOR_COND_MAX = 1e3
# Bytes of the stacked 2|J| x 2|J| real systems that one batch of
# ``PumpModel.support_steady_states`` forms at once; its complex |J| x |J|
# stacks are half as large each.  A chain:11 point (|J| = 925 at h = g) is a
# batch of its own, chain:10 (|J| = 234) takes two points a batch, and up to
# N = 6 a batch holds 32 points or more.
STEADY_BATCH_BYTES = 2**22


def _require_nonnegative(gamma: float) -> None:
    if not 0 <= gamma < math.inf:  # NaN fails too
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")


@dataclass(frozen=True)
class ModelParams:
    """Ising coupling g, transverse field h, and dissipation rate gamma."""

    g: float
    h: float
    gamma: float

    def __post_init__(self) -> None:
        _require_nonnegative(self.gamma)


def hamiltonian(g_spec: GraphSpec, p: ModelParams | PumpModel) -> DenseOperator:
    """g * sum_edges Z_j Z_k + h * sum_k X_k on the graph's register, for the
    coupling ``p.g`` and field ``p.h`` of a ``ModelParams`` or a ``PumpModel``.

    Built from basis indices rather than Kronecker products: Z_j Z_k is the
    diagonal (-1)^(x_j xor x_k) and X_k maps x to x xor 2^(N-1-k) (site 0 is
    the most significant bit).  The edge terms are accumulated in edge order,
    so the result equals the sum of the dense Pauli strings exactly.
    """
    index = np.arange(2**g_spec.n_qubits)
    ham = np.diag(_zz_diagonal(g_spec, p.g).astype(complex))
    for flip, _ in site_flips(index.size):
        ham[index, flip] += p.h
    return ham


def _parity_blocks(ham: DenseOperator) -> tuple[np.ndarray, np.ndarray]:
    """The real blocks ``H[x, y] + H[x, y']`` and ``H[x, y] - H[x, y']`` (x, y <
    d / 2, y' the all-bit flip of y) of a real H that commutes with
    ``prod_k X_k``: H on the sectors ``(|x> +- |x'>) / sqrt(2)``."""
    half = ham.shape[0] // 2
    same, flip = ham.real[:half, :half], ham.real[:half, : half - 1 : -1]
    return same + flip, same - flip


def _zz_diagonal(g_spec: GraphSpec, g: float) -> np.ndarray:
    """The diagonal of ``hamiltonian``, its edge terms accumulated in edge order."""
    signs = [sign for _, sign in site_flips(2**g_spec.n_qubits)]
    return sum((g * (signs[j] * signs[k]) for j, k in g_spec.edges), np.zeros(signs[0].size))


def projection_jumps(g_spec: GraphSpec) -> list[DenseOperator]:
    """Rank-one jump operators |C><phi_m| pumping each orthogonal basis state
    into the cluster state; ordering follows ``orthogonal_basis``."""
    target = cluster_state(g_spec)
    return [np.outer(target, phi.conj()) for phi in orthogonal_basis(g_spec)]


def stabilizer_jumps(g_spec: GraphSpec) -> list[DenseOperator]:
    """Projector jumps (I - S_m)/2, one per stabilizer generator."""
    dim = 2**g_spec.n_qubits
    eye = np.eye(dim, dtype=complex)
    return [(eye - pauli_to_dense(s)) / 2.0 for s in stabilizers(g_spec)]


def check_dense_size(n_qubits: int) -> None:
    """Refuse, with ValueError naming the memory, registers above
    ``MAX_DENSE_QUBITS`` for the dense generator."""
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"N = {n_qubits} exceeds the dense-solver guard ({MAX_DENSE_QUBITS}); "
            f"the superoperator alone would need {16.0 ** (n_qubits + 1) / 2.0**30:.1f} GiB"
        )


def check_spectrum_size(n_qubits: int) -> None:
    """Refuse, with ValueError naming the secular equation's work, registers
    above ``MAX_DENSE_QUBITS`` for the Liouvillian spectrum."""
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"N = {n_qubits} exceeds the spectrum guard ({MAX_DENSE_QUBITS}); its secular equation has up to "
            f"4^N = {4**n_qubits:,} poles, and an Aberth sweep about {16.0**n_qubits / 2.0:.2g} evaluations"
        )


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
    _require_nonnegative(gamma)
    unitary, dissipator = liouvillian_parts(H, jumps)
    return unitary + gamma * dissipator


def _eigenbasis_rhs(energies: np.ndarray, c: np.ndarray, gamma, rho: np.ndarray) -> np.ndarray:
    """The generator's action on ``rho~`` in an eigenbasis of H with energies
    ``E`` and target components ``c``,

        rho~ -> Lam o rho~ + gamma [(Tr rho~ - c^+ rho~ c) c c^+
                                    + (c (c^+ rho~) + (rho~ c) c^+) / 2],

    with ``Lam_ab = -i (E_a - E_b) - gamma``: one elementwise product, two
    matrix-vector products and rank-one updates, O(d^2).  ``rho`` may be a
    stack (k, n, n) of matrices with one rate each in ``gamma`` (k,), or with
    one rate for all.  With ``E_J, c_J`` of ``PumpModel.eigenbasis`` it acts
    on the J x J block (the steady states' residual check, the JJ sector at
    an exceptional point); with H's ZZ diagonal and the target it is
    ``PumpModel.apply`` without the bit flips."""
    gamma = np.asarray(gamma)[..., None, None]
    c_conj = c.conj()
    rho_c = rho @ c
    c_rho = c_conj @ rho
    recycled = np.trace(rho, axis1=-2, axis2=-1) - rho_c @ c_conj
    out = (-1j * np.subtract.outer(energies, energies) - gamma) * rho
    # (Tr - c^+ rho c) c c^+ + c (c^+ rho) / 2 is c times one row vector
    out += (gamma * c[:, None]) * (recycled[..., None] * c_conj + 0.5 * c_rho)[..., None, :]
    out += ((0.5 * gamma[..., 0]) * rho_c)[..., :, None] * c_conj
    return out


def measure_steady_states(
    energies: np.ndarray, c: np.ndarray, gammas: np.ndarray, p: float, spread: float
) -> list[tuple[np.ndarray | None, float, NumericalError | None]]:
    """``(rho~, antihermitian, error)`` at each rate of ``gammas`` (each > 0)
    for the spectral measure of levels ``E = energies`` with weights
    ``c > 0``, ``sum c^2 = 1``: the steady state on the measure's levels, the
    Frobenius norm of the anti-Hermitian part of its unit-trace solution
    before it is made Hermitian, and None; or, at a point that fails,
    ``(None, nan, error)``.  It reads no model: with ``E_J, c_J`` of
    ``PumpModel.eigenbasis`` it is the steady state on the target's support J
    in the basis W, and ``p = |C_0|^2`` and ``spread = ptp(zz)`` of H's ZZ
    diagonal set the residual tolerance.

    With ``M_ab = gamma / (gamma + i (E_a - E_b))``, stationarity reads

        rho~ = M o [(1 - kappa) c c^T + (c u^+ + u c^T) / 2],  kappa = c^T u,

    for ``u = rho~ c``.  Substituting gives a system linear in u and its
    conjugate, 2|J| real equations at O(|J|^3) cost, each solved by
    ``solve_nonsingular``, whose refusal fails its point.  The states are
    normalized as in ``steady_state_direct`` and checked as a stack: a point
    fails when the Frobenius norm of ``_eigenbasis_rhs(E, c, gamma, rho~)``
    for the normalized ``rho~`` (equal to that of ``PumpModel.apply``)
    exceeds ``1e-8 max(1, s)``, where s is the largest diagonal entry of the
    dense generator in modulus, read off p and spread since every |C_a|^2
    equals p.
    """
    m = c.size
    out = [None] * gammas.size
    G = gammas[:, None, None]
    M = G / (G + 1j * np.subtract.outer(energies, energies))
    w = M @ c**2
    # A u + B conj(u) = c o w
    cw = c * w
    A = cw[:, :, None] * c
    diagonal = np.arange(m)
    A[:, diagonal, diagonal] += 1.0 - 0.5 * w
    B = -0.5 * (c[:, None] * M * c)
    # with u = x + i y, a real system in [x; y]; each one Fortran-ordered
    system = np.empty((gammas.size, 2 * m, 2 * m)).transpose(0, 2, 1)
    system[:, :m, :m] = A.real + B.real
    system[:, :m, m:] = B.imag - A.imag
    system[:, m:, :m] = A.imag + B.imag
    system[:, m:, m:] = A.real - B.real
    del A, B
    rhs = np.concatenate([cw.real, cw.imag], axis=1)
    for k in range(gammas.size):
        try:
            rhs[k] = solver.solve_nonsingular(system[k], rhs[k])
        except NumericalError as exc:
            # the point's state is formed from u = 0, and dropped
            out[k], rhs[k] = (None, math.nan, exc), 0.0
    del system
    u = rhs[:, :m] + 1j * rhs[:, m:]
    # a row sum, not a product with the stack: its bits must not depend on the batch
    kappa = (u * c).sum(axis=1)
    rho = M * ((1.0 - kappa)[:, None, None] * np.outer(c, c)
               + 0.5 * (c[:, None] * u.conj()[:, None, :] + u[:, :, None] * c))
    del M
    rho, antihermitian = solver.unit_trace_hermitian(rho)

    # The largest modulus of the dense generator's diagonal,
    # gamma P_ab Q_ba + K_aa + conj(K_bb), bounds its infinity norm from
    # below.  A graph state has |C_a|^2 = p for every a, so the entries
    # off the diagonal share one real part, formed in the order of
    # operations of the elementwise expression, and have imaginary parts up
    # to ptp(zz).  Those on it are the real gamma (p - p^2) + 2 r; as p >= 0,
    # off <= on <= 0 survives every rounding step, each operation being
    # monotone, so the largest modulus is off's.
    r = -(0.5 * gammas * (1.0 - p))
    off = gammas * (0.0 - p * p) + r + r
    tol = 1e-8 * np.maximum(1.0, np.abs(off + 1j * spread))
    # W is orthogonal, so this is |L rho|_F >= max |L rho| in any basis;
    # each point's entries are scaled by their largest modulus first, as
    # their squares overflow from about 1e154 on (gamma >~ 1e170)
    residual = _eigenbasis_rhs(energies, c, gammas, rho).reshape(gammas.size, -1)
    largest = np.abs(residual).max(axis=1)
    residual /= np.where(largest > 0, largest, 1.0)[:, None]
    residual = largest * np.linalg.norm(residual, axis=1)
    for k in range(gammas.size):
        if out[k] is not None:
            continue
        if residual[k] <= tol[k]:
            out[k] = (rho[k], float(antihermitian[k]), None)
        else:
            out[k] = (None, math.nan, NumericalError(
                f"structured steady-state residual {residual[k]:g} exceeds tolerance {tol[k]:g}"))
    return out


@dataclass(frozen=True, eq=False)
class PumpModel:
    """The cluster-state pump on one graph with Ising coupling g and field h:
    target state and H's ZZ diagonal.  The model holds no dissipation rate;
    every method that needs one takes it as ``gamma``.

    Refuses registers above ``MAX_MODEL_QUBITS`` before building anything;
    the dense ``liouvillian`` and ``eigenvalues`` refuse registers above
    ``MAX_DENSE_QUBITS``.
    The eigenbasis of H is computed on first use by ``steady_state``,
    ``eigenvalues`` or ``kernel_step`` and kept; ``apply`` and the dense
    ``liouvillian`` do without it.
    """

    graph: GraphSpec
    g: float
    h: float
    target: StateVector = field(init=False, repr=False)
    zz: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.graph.n_qubits
        if n > MAX_MODEL_QUBITS:
            raise ValueError(
                f"N = {n} exceeds the model guard ({MAX_MODEL_QUBITS}); its eigenbasis and "
                f"the work on it would need about {MODEL_ARRAYS * 16.0 * 4.0**n / 2.0**30:.1f} GiB"
            )
        object.__setattr__(self, "target", cluster_state(self.graph))
        object.__setattr__(self, "zz", _zz_diagonal(self.graph, self.g))

    def liouvillian(self, gamma: float) -> Superoperator:
        """Dense generator ``gamma vec(P) vec(Q.T)^T + I kron K + conj(K) kron I``
        with ``P = |C><C|``, ``Q = I - P`` and ``K = -i H - (gamma / 2) Q``,
        built in a single d^2 x d^2 array: the tests' oracle."""
        _require_nonnegative(gamma)
        check_dense_size(self.graph.n_qubits)
        d = self.target.size
        P = np.outer(self.target, self.target.conj())
        Q = np.eye(d, dtype=complex) - P
        L = np.multiply.outer(gamma * vectorize(P), vectorize(Q.T))
        K = -1j * hamiltonian(self.graph, self) - (0.5 * gamma) * Q
        # Row (i, k) and column (j, l) of L are entries i*d + k and j*d + l,
        # so I kron K fills blocks[a, :, a, :] and conj(K) kron I blocks[:, a, :, a].
        blocks = L.reshape(d, d, d, d)
        diag = np.arange(d)
        blocks[diag, :, diag, :] += K
        blocks[:, diag, :, diag] += K.conj()
        return L

    def apply(self, rho: np.ndarray, gamma: float) -> np.ndarray:
        """Matrix-free generator action ``-i[H, rho] + gamma (P Tr(Q rho) - {Q, rho} / 2)``.

        H acts as ``hamiltonian`` builds it: h times one index-permuted view
        of rho per site (X_k flips bit k of a row or column index), plus
        ``_eigenbasis_rhs`` on its ZZ diagonal, in which the computational
        basis is an eigenbasis, and the target; the cost is O(N d^2) rather
        than two d x d products.
        """
        _require_nonnegative(gamma)
        n = self.graph.n_qubits
        d = rho.shape[0]
        out = np.zeros_like(rho, dtype=complex)
        for k in range(n):
            # bit k of an index is axis 1 of a (2^k, 2, rest) view; reversing
            # that axis applies X_k, without a gather
            high, low = 2**k, 2 ** (n - 1 - k)
            rows = out.reshape(high, 2, low * d)
            rows += rho.reshape(high, 2, low * d)[:, ::-1]
            columns = out.reshape(d * high, 2, low)
            columns -= rho.reshape(d * high, 2, low)[:, ::-1]
        out *= -1j * self.h
        out += _eigenbasis_rhs(self.zz, self.target, gamma, rho)
        return out

    @cached_property
    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(E, W, c)``: an eigenbasis W of H, ``H = W diag(E) W^T``, whose
        first ``c.size`` columns are the target's support J, with
        ``c = c_J = W_J^T |C>`` up to round-off; on the rest, O, ``W_O^T |C>``
        is 0 up to round-off.

        H is real symmetric (Z Z and X are real) and commutes with the spin
        flip ``P = prod_k X_k``, which maps x to its all-bit flip x'.  So the
        real eigensolver runs on H's two parity sectors, spanned by
        ``(|x> +- |x'>) / sqrt(2)`` for x < d / 2: on the blocks
        ``H[x, y] +- H[x, y']`` (``_parity_blocks``), each d/2 x d/2, at a
        quarter of the work of one d x d ``eigh``.  A block's eigenvector v is
        the column ``(v, +-v reversed) / sqrt(2)`` of V, and the columns of
        both blocks are merged in stable-sorted energy order, in levels of
        ``solver.groups`` at ``solver.COINCIDENT_TOL``.  Every column is
        written with the sign that makes its target component ``|c_b|``; each
        degenerate eigenspace is then reflected so that the target has at
        most one nonzero component there, the norm over the eigenspace, on its
        first index.  J holds the levels whose norm exceeds ``SUPPORT_TOL``,
        in energy order, and c is those norms.  Each column is written once,
        straight to its place in W, held as the rows of ``W^T``; the signs of
        the O columns of a reflected level are a free choice.
        """
        half = self.target.size // 2
        top = self.target.real[:half]  # the target, a graph state, is real
        flipped = self.target.real[: half - 1 : -1]  # the target at x' for x < d / 2
        sectors = [
            (*np.linalg.eigh(block), sign)
            for block, sign in zip(_parity_blocks(hamiltonian(self.graph, self)), (1.0, -1.0))
        ]
        energies = np.concatenate([e for e, _, _ in sectors])
        c = np.concatenate([math.sqrt(0.5) * ((top + sign * flipped) @ v) for _, v, sign in sectors])
        # every column is flipped to c_b >= 0; a singleton level keeps it so, a
        # larger one gets the Householder reflection that maps its part of c
        # onto its first index
        flips = np.where(c < 0, -1.0, 1.0)
        order, starts = solver.groups(energies, solver.COINCIDENT_TOL)
        energies, c = energies[order], np.abs(c[order])
        stops = np.append(starts[1:], energies.size)
        level = np.repeat(np.arange(starts.size), stops - starts)
        rotated = np.zeros(energies.size)
        rotated[starts] = np.sqrt(np.bincount(level, weights=c**2))
        J = rotated > SUPPORT_TOL
        final = np.concatenate([np.flatnonzero(J), np.flatnonzero(~J)])
        row = np.empty_like(final)  # the row of W^T that each sorted index fills
        row[final] = np.arange(final.size)
        WT = np.empty((row.size, row.size))
        # row[np.argsort(order)]: the row of W^T that each sector column fills
        for (_, v, sign), rows, flip in zip(sectors, np.split(row[np.argsort(order)], 2), np.split(flips, 2)):
            v *= math.sqrt(0.5) * flip
            WT[rows, :half] = v.T
            v *= sign
            WT[rows, half:] = v.T[:, ::-1]
        for s, stop in zip(starts, stops):
            # a level orthogonal to the target (kept in J only when SUPPORT_TOL
            # <= 0) has nothing to rotate
            if stop - s > 1 and J[s] and rotated[s] > 0:
                u = c[s:stop] / rotated[s]
                u[0] += 1.0
                rows = row[s:stop]
                WT[rows] -= np.outer(u / (0.5 * (u @ u)), u @ WT[rows])
                WT[rows[0]] *= -1.0
        return energies[final], WT.T, rotated[J]

    def _kernel_factors(self, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | None]:
        """``(kappa, R, a, s)`` at ``gamma``: the eigenvalues of the effective
        non-Hermitian Hamiltonian ``K = -i H - (gamma / 2) Q`` in the basis W
        of ``eigenbasis``, the factors ``K_J = R diag(kappa_J) R^-1`` and
        ``a = R^-1 c_J``, and R's smallest singular value s, or None near an
        exceptional point of K_J, where R's condition number exceeds
        ``EIGENVECTOR_COND_MAX``.

        ``K_J = diag(-i E_J - gamma / 2) + (gamma / 2) c_J c_J^T`` is |J| x |J|;
        on O, K is diagonal: ``kappa_b = -i E_b - gamma / 2``.
        """
        energies, _, c = self.eigenbasis
        m = c.size
        kappa_j, R = np.linalg.eig(np.diag(-1j * energies[:m] - 0.5 * gamma) + np.outer(0.5 * gamma * c, c))
        singular = np.linalg.svd(R, compute_uv=False)
        smallest = singular[-1] if singular[0] <= EIGENVECTOR_COND_MAX * singular[-1] else None
        return np.concatenate([kappa_j, -1j * energies[m:] - 0.5 * gamma]), R, np.linalg.solve(R, c), smallest

    def kernel_step(self, gamma: float) -> KernelStep | None:
        """RK4 for dynamics at ``gamma`` in the eigenbasis of K (``KernelStep``),
        or None near an exceptional point of K_J (``_kernel_factors``);
        dynamics there take four stages of ``apply``."""
        _require_nonnegative(gamma)
        kappa, R, a, smallest = self._kernel_factors(gamma)
        if smallest is None:
            return None
        _, W, c = self.eigenbasis
        return KernelStep(gamma, kappa, R, a, c, W, 1.0 / smallest**2)

    def eigenvalues(self, gamma: float) -> np.ndarray:
        """All 4^N eigenvalues of the generator at ``gamma``, unordered, without
        the superoperator; equal as a multiset to those of
        ``self.liouvillian(gamma)``.

        In the eigenbasis of H the generator is ``A + gamma |P>><<Q|`` with
        ``A(rho) = K rho + rho K^+`` and a rank-one recycling term.  With
        ``(kappa, R, a, _) = _kernel_factors(gamma)``, A has the eigenvalues
        (poles) ``kappa_i + conj(kappa_j)``, and by the matrix determinant
        lemma the others solve the secular equation

            f(lam) = 1 + gamma sum_ij W_ij / (kappa_i + conj(kappa_j) - lam) = 0,
            W_ij = a_i conj(a_j) (R^+ Q R)_ji,  i, j in J

        (Golub, SIAM Rev. 15, 318, 1973).  A preserves Hermiticity, so the
        (j, i) pole and weight are the conjugates of the (i, j) ones.  Every
        pole that touches O is an eigenvalue; ``solver.secular_problem``
        merges the JJ poles and hides the light ones, which are eigenvalues
        too, and one root of f per remaining pole comes from
        ``solver.secular_roots``, which iterates one unknown per real pole or
        pair.  The cost is one |J| x |J| eigendecomposition and about n^2 / 2
        evaluations per Aberth sweep for n visible poles.
        Near an exceptional point of K_J, where ``_kernel_factors`` gives no
        singular value, the weights are lost to cancellation and the JJ
        sector's |J|^2 eigenvalues come from its dense generator, as a real
        matrix on Hermitian |J| x |J| matrices, so they too come in exact
        conjugate pairs.

        The register is refused above ``MAX_DENSE_QUBITS`` by
        ``check_spectrum_size`` before H is diagonalized.  Raises
        NumericalError when the secular equation is not solved within
        ``solver.ABERTH_MAX_SWEEPS`` sweeps, or when the eigenvalues do not sum to
        ``Tr L = -gamma d (d - 1)`` within ``1e-10 max(1, sum |lam|)``.
        """
        _require_nonnegative(gamma)
        check_spectrum_size(self.graph.n_qubits)
        kappa, R, a, smallest = self._kernel_factors(gamma)
        m = a.size
        poles = np.add.outer(kappa, kappa.conj())
        if smallest is not None:
            gram = R.conj().T @ R
            # R^+ Q R = R^+ R - (R^+ c_J)(R^+ c_J)^+, and R^+ c_J = R^+ R a, taken
            # by rows (np.vecdot conjugates its first argument) so that this
            # |J|-vector product runs on the calling thread, not BLAS's pool
            ra = np.vecdot(gram, a.conj()).conj()
            weights = gamma * np.outer(a, a.conj()) * (gram - np.outer(ra, ra.conj())).T
            known, mu, w, r = solver.secular_problem(poles[:m, :m], weights)
            jj = [known, solver.secular_roots(mu, w, r)]
        else:
            # near an exceptional point of K_J the weights cancel to no digits.
            # The JJ sector's generator L is real-linear on Hermitian matrices,
            # so its eigenvalues are those of its real matrix, which has exact
            # conjugate pairs, in the orthonormal basis
            # B_ab = ((1 + i) E_ab + (1 - i) E_ba) / 2 of them.  There a
            # Hermitian Y has the coordinates Re Y + Im Y, and L(B_ab) has
            # Re L(E_ab) + Im L(E_ba), from L on the units E_ab alone
            energies, _, c = self.eigenbasis
            image = _eigenbasis_rhs(energies[:m], c, gamma, np.eye(m * m).reshape(m * m, m, m))
            image = image.reshape(m, m, m * m)
            jj = [np.linalg.eigvals((image.real + image.imag.transpose(1, 0, 2)).reshape(m * m, m * m).T)]
        vals = np.concatenate([poles[:m, m:].ravel(), poles[m:].ravel(), *jj])
        d = kappa.size
        trace = -gamma * d * (d - 1)
        if not abs(vals.sum() - trace) <= 1e-10 * max(1.0, float(np.abs(vals).sum())):
            raise NumericalError(
                f"Liouvillian eigenvalues sum to {complex(vals.sum()):.6g}, not to the trace {trace:g}"
            )
        return vals

    def gap(self, gamma: float) -> float:
        """Liouvillian gap at ``gamma``: ``eigenvalues(gamma)`` ranked by
        ``rank_spectrum``, the rule of ``full_spectrum``.  gamma = 0 raises
        the "degenerate kernel" NumericalError."""
        return solver.rank_spectrum(self.eigenvalues(gamma))[1]

    def steady_state(self, gamma: float) -> tuple[DenseOperator, float]:
        """Steady state at dissipation rate ``gamma`` without the superoperator,
        with the Frobenius norm of the anti-Hermitian part of the unit-trace
        solution before it is made Hermitian (a diagnostic).

        ``support_steady_state`` transformed back once by ``density``.
        """
        rho, antihermitian = self.support_steady_state(gamma)
        return self.density(rho), antihermitian

    def support_steady_state(self, gamma: float) -> tuple[np.ndarray, float]:
        """``(rho~_J, antihermitian)`` at ``gamma``: the one-point case of
        ``support_steady_states``, which raises the point's NumericalError."""
        ((rho, antihermitian, error),) = self.support_steady_states([gamma])
        if error is not None:
            raise error
        return rho, antihermitian

    def density(self, rho: np.ndarray) -> DenseOperator:
        """``W_J rho~ W_J^T``: a matrix on the target's support J, given in the
        basis W of ``eigenbasis``, in the computational basis."""
        _, W, c = self.eigenbasis
        W_J = W[:, : c.size]
        return W_J @ rho.real @ W_J.T + 1j * (W_J @ rho.imag @ W_J.T)

    def support_steady_states(
        self, gammas: Sequence[float]
    ) -> Iterator[tuple[np.ndarray | None, float, NumericalError | None]]:
        """``(rho~_J, antihermitian, error)`` at each rate of ``gammas``, in order:
        ``measure_steady_states`` on the target's spectral measure ``(E_J, c_J)``
        of ``eigenbasis``, the steady state on the target's support J in the
        basis W; or, at a point that fails, ``(None, nan, error)`` with the
        NumericalError that point alone raises.

        A rate that is negative or not finite raises ValueError before any
        work.  The grid runs in batches of at most ``STEADY_BATCH_BYTES`` of
        the solve's real systems.  A point fails with "degenerate kernel: ..."
        at gamma = 0, and with "degenerate kernel (kernel_dim >= 1 + |O|): ..."
        at a gamma so small that ``PumpModel.gap`` would count the O diagonal
        poles as kernel; neither enters the solve, whose own failures are a
        singular system and a residual above its tolerance.
        """
        gammas = np.asarray(gammas, dtype=float)
        for gamma in gammas:
            _require_nonnegative(gamma)
        energies, _, c = self.eigenbasis
        m = c.size
        p, spread = float(np.abs(self.target[0]) ** 2), float(np.ptp(self.zz))
        undamped = "degenerate kernel: without dissipation (gamma = 0) the steady state is not unique"
        kernel = f"degenerate kernel (kernel_dim >= {1 + energies.size - m}): the steady state is not unique"
        batch = max(1, STEADY_BATCH_BYTES // (32 * m * m))
        for s in range(0, gammas.size, batch):
            chunk = gammas[s : s + batch]
            reach = np.zeros_like(chunk)
            if m < energies.size:
                # Each O diagonal pole -gamma is an eigenvalue, and each OO pole
                # -gamma - i (E_a - E_b), formed as ``eigenvalues`` forms it, bounds
                # max |lambda| from below.  So at or below this reach
                # ``rank_spectrum`` counts all |O| of them and lambda = 0 as kernel.
                reach = solver.KERNEL_TOL_FACTOR * np.maximum(1.0, np.abs(chunk + 1j * np.ptp(energies[m:])))
            # reach >= 0, so gamma = 0 is refused too
            errors = [
                NumericalError(undamped if gamma == 0 else kernel) if gamma <= bound else None
                for gamma, bound in zip(chunk, reach)
            ]
            todo = [k for k, error in enumerate(errors) if error is None]
            # an empty batch is skipped: unit_trace_hermitian cannot reshape a (0, m, m) stack
            solved = iter(measure_steady_states(energies[:m], c, chunk[todo], p, spread) if todo else ())
            yield from ((None, math.nan, error) if error else next(solved) for error in errors)


@dataclass(frozen=True, eq=False)
class KernelStep:
    """Classical RK4 for the pump's master equation in the eigenbasis of
    ``K = -i H - (gamma / 2) Q``, built by ``PumpModel.kernel_step``.

    In the basis W of ``PumpModel.eigenbasis``, where ``W^T |C> = (c_J, 0)``, K
    is blockdiag(K_J, diag kappa_O) with ``K_J = R diag(kappa_J) R^-1``.  A
    state stands for ``X = R^-1 W^T rho W R^-+`` (R acting on J), where the
    generator is

        L(X) = Lam o X + gamma q(X) a a^+,   Lam_ij = kappa_i + conj(kappa_j),

    with ``a = R^-1 c_J`` and ``q(X) = Tr(Q rho) = <(R^+ Q R)^T, X>``; q reads
    only the J x J block and the O diagonal of X, and a a^+ lives on J x J.
    X is Hermitian, so a state holds its upper triangle (the J x J triangle,
    the O diagonal, the JO block, the O x O strict triangle, in that order,
    with a real diagonal) and, last, Tr rho: every state stands for an
    exactly Hermitian X.  Each functional ``Tr(F X)`` of a Hermitian F is the
    real dot product of the state's float view with fixed weights.

    One step of length h is ``p(hL)`` with ``p(x) = sum_(k<=4) x^k / k!``,
    what the four stages compute for a linear generator.  As
    ``(hL)^k X = (h Lam)^k o X + h gamma sum_(i<k) beta_i (h Lam)^(k-1-i) o a a^+``
    with ``beta_i = q((hL)^i X)``, it is

        step(x) = P4 o x + sum_(m<4) w_m (h Lam)^m o a a^+,   P4 = p(h Lam),

    where w, and the trace of the step's output, are five real functionals
    of x on the J x J triangle and the O diagonal, from a 4 x 4 forward
    substitution over ``q((h Lam)^m o a a^+)``.  ``_tables(h)`` builds them,
    once per run of ``evolve``, and refuses an h at which
    ``|P4| > 1 + 1e-12`` on a pair that touches O: such a pair is an
    eigenvalue of L, so the run would grow.  A step is then one elementwise
    product and two real matrix-vector products, which ``step``'s
    ``advance`` writes into two buffers made once per run.
    """

    gamma: float
    kappa: np.ndarray
    R: np.ndarray
    a: np.ndarray
    c: np.ndarray
    W: np.ndarray
    # ||R^-1||_2^2, which bounds ||X||_F / ||rho||_F
    inverse_norm2: float

    @staticmethod
    def _pack(JJ: np.ndarray, JO: np.ndarray, OO: np.ndarray) -> np.ndarray:
        """A state from the upper blocks of X (and 0 for the trace)."""
        upper = np.triu(np.ones(OO.shape, dtype=bool), 1)
        return np.concatenate([JJ[np.triu_indices(JJ.shape[0])], OO.diagonal(), JO.ravel(), OO[upper], [0.0]])

    def _diagonal(self) -> np.ndarray:
        """Where X's diagonal sits in a state: the first entry of each J row of
        the triangle, then the O diagonal."""
        m, d = self.c.size, self.kappa.size
        lengths = np.arange(m, 0, -1)
        return np.concatenate([np.cumsum(lengths) - lengths, np.arange(m * (m + 1) // 2, m * (m + 1) // 2 + d - m)])

    @cached_property
    def support_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """q = Tr(Q rho) and Tr rho as the complex weights u of ``functional``,
        on the J x J triangle and the O diagonal, the only entries where
        ``R^+ Q R = R^+ R - (R^+ c_J)(R^+ c_J)^+`` and ``R^+ R`` are nonzero (on O
        both are the identity)."""
        m, d = self.c.size, self.kappa.size
        rows, cols = np.triu_indices(m)
        scale = np.where(rows == cols, 1.0, 2.0)
        gram = self.R.conj().T @ self.R
        # R^+ c_J by R's columns, on the calling thread (see ``PumpModel.eigenvalues``)
        rc = np.vecdot(self.R.T, self.c)
        ones = np.ones(d - m)
        q = np.concatenate([scale * (gram - np.outer(rc, rc.conj()))[rows, cols], ones])
        trace = np.concatenate([scale * gram[rows, cols], ones])
        return q, trace

    def _tables(self, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(P4, weights, B)`` for steps of length h: the state's factor P4 (0 on
        the trace), the five functionals' interleaved float weights on the
        support, and the float view of the rows ``(h Lam)^m o a a^+``."""
        m = self.c.size
        jj = m * (m + 1) // 2
        q, trace = self.support_weights
        n = q.size
        k = h * self.kappa
        kj, ko = k[:m], k[m:]
        lam = self._pack(np.add.outer(kj, kj.conj()), np.add.outer(kj, ko.conj()), np.add.outer(ko, ko.conj()))
        # p(lam) by Horner's rule in place, with no temporaries of a state's size
        P4 = lam / 24.0
        for coefficient in (1.0 / 6.0, 0.5, 1.0):
            P4 += coefficient
            P4 *= lam
        P4 += 1.0
        P4[-1] = 0.0
        if not np.abs(P4[jj:-1]).max(initial=0.0) <= 1.0 + 1e-12:
            raise NumericalError("integration unstable, reduce dt")
        powers = np.ones((4, n), dtype=complex)
        for i in range(1, 4):
            powers[i] = powers[i - 1] * lam[:n]
        rows, cols = np.triu_indices(m)
        aa = self.a[rows] * self.a[cols].conj()
        aa.imag[rows == cols] = 0.0
        B = powers[:, :jj] * aa
        g = h * self.gamma
        # q((h Lam)^j o X) = Re(conj(u_j) . x) with u_j = q o conj(h Lam)^j
        u = q * powers.conj()
        # beta_j = rho_j + g sum_(i<j) sigma_(j-1-i) beta_i, with rho_j = q((h Lam)^j o X)
        # and sigma_j = q((h Lam)^j o a a^+), gives beta = M rho
        sigma = (u[:, :jj].conj() * aa).sum(axis=1).real
        M = np.eye(4)
        for j in range(1, 4):
            M[j] += g * sum(sigma[j - 1 - i] * M[i] for i in range(j))
        # w_i = g sum_(j <= 3-i) beta_j / (i+j+1)!
        C = np.array([[g / math.factorial(i + j + 1) if i + j <= 3 else 0.0 for j in range(4)] for i in range(4)])
        update = (C @ M) @ u
        # Tr of the output: the trace weights through P4, plus those of the update
        # rows, taken by update's columns so that this 4-vector product runs on
        # the calling thread, not BLAS's pool
        tau = (B * trace[:jj].conj()).sum(axis=1).real
        functionals = np.vstack([update, trace * P4[:n].conj() + np.vecdot(tau, update.T)])
        return P4, functionals.view(float), B.view(float)

    def evolve(
        self, rho0: np.ndarray, t_final: float, dt: float, sample_every: int, sample: Callable
    ) -> solver.Trajectory:
        """RK4 on the master equation from the density matrix ``rho0``, given in
        the computational basis, driven by ``solver.rk4``: each sample interval
        is one call of the ``advance`` that ``step`` returns for the tables of
        the run's step length, and ``rk4`` stores ``sample(x)`` of the state x
        at each sample time.  ``observables.kernel_readout`` reads the
        ``evolve`` command's five functionals (``functional``,
        ``overlap_weights``), so that run holds one state, in ``step``'s two
        buffers, and its rows; the identity stores the states.

        An h at which a pole on a pair that touches O leaves RK4's stability
        region is refused before the first step, with NumericalError
        "integration unstable, reduce dt".  The state check, with the same
        message, runs on every step's state.  It reads the state's own trace,
        which may drift by 1e-6, and bounds
        ``||X||_2 <= ||R^-1||_2^2 d (|Tr rho0| + 1e-6)`` for the
        entries X of the state: ``||X||_F <= ||R^-1||_2^2 ||rho||_F``, and
        ``||rho||_F <= d max |rho_ab|``, so every state the four-stage check
        of ``solver.evolve_rk4`` accepts passes, and a growing run is
        refused.  The factor d is needed: RK4 at a stable dt leaves
        positivity, and at N = 1, h = 1, gamma = 2, dt at 0.875 of the
        stability edge, ``||rho||_F`` reached 1.0013 at trace 1.
        """
        n_steps = solver.step_count(t_final, dt)
        x0 = self.start(rho0)
        trace0 = x0[-1]
        bound = (self.inverse_norm2 * self.kappa.size * (abs(trace0) + 1e-6)) ** 2

        def check(x: np.ndarray) -> None:
            # written so that NaN fails too
            if not (abs(x[-1] - trace0) <= 1e-6 and np.vdot(x[:-1], x[:-1]).real <= bound):
                raise NumericalError("integration unstable, reduce dt")

        advance = self.step(self._tables(t_final / n_steps), check) if n_steps else None
        return solver.rk4(advance, x0, t_final, dt, sample_every, check, sample)

    def step(
        self, tables: tuple[np.ndarray, np.ndarray, np.ndarray], check: Callable[[np.ndarray], None]
    ) -> Callable[[np.ndarray, float, int], np.ndarray]:
        """``advance(x, h, count)``, the ``solver.rk4`` map: the state ``count``
        RK4 steps after x, of the length ``tables = _tables(h)`` were built
        for (h itself is not read), with ``check`` called on each new state.

        The steps alternate between two state buffers made here, once per
        run, with their float views and the work arrays of w and the update, so
        a step allocates nothing.  The state returned is one of the buffers,
        which the next call overwrites; an x that is neither buffer is first
        copied into one, so any state can be stepped.
        """
        P4, weights, B = tables
        buffers = (np.empty_like(P4), np.empty_like(P4))
        # each buffer's support, where the functionals read, and its J x J
        # triangle, where the update adds
        support = [buf[: weights.shape[1] // 2].view(float) for buf in buffers]
        block = [buf[: B.shape[1] // 2].view(float) for buf in buffers]
        w = np.empty(weights.shape[0])
        update = np.empty(B.shape[1])
        w4 = w[:4]

        def advance(x: np.ndarray, h: float, count: int) -> np.ndarray:
            i = 0 if x is buffers[0] else 1
            if x is not buffers[i]:
                buffers[i][...] = x
            for _ in range(count):
                out = buffers[1 - i]
                # np.dot rather than @: half the call overhead at N = 5
                np.dot(weights, support[i], out=w)
                np.multiply(P4, buffers[i], out=out)
                np.dot(w4, B, out=update)
                np.add(block[1 - i], update, out=block[1 - i])
                out[-1] = w[4]
                check(out)
                i = 1 - i
            return buffers[i]

        return advance

    def start(self, rho: np.ndarray) -> np.ndarray:
        """The state of a density matrix given in the computational basis; a
        non-Hermitian rho is read through the upper triangle of its X."""
        m = self.c.size
        X = self.W.T @ rho.real @ self.W + 1j * (self.W.T @ rho.imag @ self.W)
        R_inv = np.linalg.inv(self.R)
        x = self._pack(R_inv @ X[:m, :m] @ R_inv.conj().T, R_inv @ X[:m, m:], X[m:, m:])
        x.imag[self._diagonal()] = 0.0
        trace = self.support_weights[1]
        x[-1] = x[: trace.size].view(float) @ trace.view(float)
        return x

    def overlap_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Float weights, as ``functional``'s, of ``<C|rho|C> = Tr rho - Tr(Q rho)``
        and of ``Tr rho``: the state carries Tr rho as its last entry, and
        ``Tr(Q rho)`` is the q of ``support_weights``."""
        q = self.support_weights[0].view(float)
        trace = np.zeros(self.kappa.size * (self.kappa.size + 1) + 2)
        trace[-2] = 1.0
        overlap = trace.copy()
        overlap[: q.size] = -q
        return overlap, trace

    def functional(self, O: np.ndarray) -> np.ndarray:
        """Float weights w with ``x.view(float) @ w = Tr(rho O)`` for every state x,
        for a Hermitian O given in the basis W (``W^T O W``): from the upper
        blocks of ``F = R^+ O R``, ``Tr(F X) = sum_i F_ii X_ii
        + 2 Re sum_(i<j) conj(F_ij) X_ij``; O(d^2 |J|) work, once.  The
        weights are linear in O, as complex numbers ``w.view(complex)``."""
        m = self.c.size
        R_h = self.R.conj().T
        u = self._pack(R_h @ O[:m, :m] @ self.R, R_h @ O[:m, m:], O[m:, m:])
        u *= 2.0
        u[self._diagonal()] *= 0.5
        return u.view(float)
