"""Model Hamiltonian, jump operators, and the vectorized Liouvillian.

Vectorization is column-stacking throughout: ``vec(rho) = rho.flatten(order="F")``,
for which ``vec(A X B) = (B.T kron A) vec(X)``.  The generator of

    drho/dt = -i[H, rho] + gamma * sum_m (L_m rho L_m^+ - {L_m^+ L_m, rho} / 2)

is therefore assembled as

    -i (I kron H - H.T kron I)
    + gamma * sum_m [ conj(L_m) kron L_m
                      - (I kron L_m^+ L_m) / 2 - ((L_m^+ L_m).T kron I) / 2 ].

A single decay rate ``gamma`` multiplies every jump term.  For the projection
jumps ``|C><phi_m|`` the sum collapses to ``P Tr(Q rho) - {Q, rho} / 2`` with
``P = |C><C|`` and ``Q = I - P``.  ``PumpModel`` therefore writes the whole
generator into one buffer as a recycling term plus an effective
non-Hermitian Hamiltonian ``K = -i H - (gamma / 2) Q``:

    gamma * vec(P) vec(Q.T)^T + I kron K + conj(K) kron I,

instead of summing the 2^N - 1 explicit jumps.  That d^2 x d^2 array
(d = 2^N) is the dense reference in tests only; no command builds it.  The
rest works in the eigenbasis of H: ``PumpModel.steady_state`` solves for the
steady state with O(d^3) work and O(d^2) memory, and
``PumpModel.eigenbasis_generator`` is the generator's action on one d x d
matrix, at O(d^2) per call.  ``PumpModel.rk4_step`` is one whole RK4 step of
that generator as a single map for dynamics, ``P4 o rho~`` plus a rank-8
update, also O(d^2).  ``PumpModel.apply`` is the generator's action in the
computational basis, with H applied by bit flips.

``PumpModel.eigenvalues`` gives all d^2 eigenvalues of the generator (and
``PumpModel.gap`` its gap) from its structure: ``rho -> K rho + rho K^+`` is a
Kronecker sum and the recycling term has rank one.  One factorisation of K
on the target's support J, a |J| x |J| matrix, gives the sum's eigenvalues
(poles); the others are the roots of a secular equation with one pole per
visible pair, found by Aberth iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .cluster import GraphSpec, cluster_state, orthogonal_basis, stabilizers
from .errors import NumericalError
from .operators import DenseOperator, StateVector, pauli_to_dense

Superoperator = np.ndarray

# Dense generators above this register size are refused (the superoperator
# for N qubits holds 16^N complex entries), and so are Liouvillian
# eigenvalues: their secular equation has up to 4^N poles, and each Aberth
# sweep over them costs O(16^N).
MAX_DENSE_QUBITS = 7
# Models above this register size are refused.  The structured steady-state
# solve peaks at about STEADY_STATE_ARRAYS complex d x d arrays (d = 2^N;
# 11.3 measured at N = 11, 13.4 at N = 10).
MAX_MODEL_QUBITS = 11
STEADY_STATE_ARRAYS = 12
# Components of c = V^T |C> at most this large count as zero in
# ``PumpModel.eigenvalues``; symmetry makes them 1e-14-small, the rest are
# >= 1e-4.  Counting a small component as nonzero costs time, not accuracy.
SUPPORT_TOL = 1e-12
# Secular-equation poles whose weight is at most this fraction of the largest
# are hidden: they are eigenvalues of the generator as they stand.
HIDDEN_TOL = 1e-13
# Energies of H, or secular-equation poles, closer than this relative to
# max(1, their largest modulus) are one degenerate level, or one pole.
COINCIDENT_TOL = 1e-12
# Above this condition number of K_J's eigenvectors (at most 4.3 over 784
# oracle cases; 1e8 at the exceptional point of chain:2 at h = 0, gamma = 4)
# ``PumpModel.eigenvalues`` takes the JJ sector densely instead.
EIGENVECTOR_COND_MAX = 1e3
# Aberth sweeps after which the secular equation counts as unsolved; 784
# oracle cases (N <= 5, gamma up to 600) and chains up to N = 7 took at most 11.
ABERTH_MAX_SWEEPS = 100
# Rows of every k x n array the secular-equation solver forms at once; whole
# n x n temporaries raised a scaling study's peak memory by 12%.
SECULAR_BLOCK = 64


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

    @classmethod
    def from_ratios(cls, h_g: float, gamma_g: float, g: float = 1.0) -> "ModelParams":
        """Build from the dimensionless knobs h/g and gamma/g at a given g > 0."""
        if g <= 0:
            raise ValueError("from_ratios requires g > 0; construct directly for g < 0")
        return cls(g=g, h=h_g * g, gamma=gamma_g * g)

    @property
    def h_g(self) -> float:
        if self.g == 0:
            raise ValueError("h/g undefined for g = 0")
        return self.h / self.g

    @property
    def gamma_g(self) -> float:
        if self.g == 0:
            raise ValueError("gamma/g undefined for g = 0")
        return self.gamma / self.g


def hamiltonian(g_spec: GraphSpec, p: ModelParams) -> DenseOperator:
    """g * sum_edges Z_j Z_k + h * sum_k X_k on the graph's register.

    Built from basis indices rather than Kronecker products: Z_j Z_k is the
    diagonal (-1)^(x_j xor x_k) and X_k maps x to x xor 2^(N-1-k) (site 0 is
    the most significant bit).  The edge terms are accumulated in edge order,
    so the result equals the sum of the dense Pauli strings exactly.
    """
    n = g_spec.n_qubits
    dim = 2**n
    index = np.arange(dim)
    bits = [(index >> (n - 1 - k)) & 1 for k in range(n)]
    diagonal = np.zeros(dim)
    for j, k in g_spec.edges:
        diagonal += p.g * (1.0 - 2.0 * (bits[j] ^ bits[k]))
    ham = np.zeros((dim, dim), dtype=complex)
    ham[index, index] = diagonal
    for k in range(n):
        ham[index, index ^ (1 << (n - 1 - k))] += p.h
    return ham


def projection_jumps(g_spec: GraphSpec) -> list[DenseOperator]:
    """Rank-one jump operators |C><phi_m| pumping each orthogonal basis state
    into the cluster state; ordering follows ``orthogonal_basis``."""
    basis = orthogonal_basis(g_spec)
    return [np.outer(basis.target, phi.conj()) for phi in basis.states]


def stabilizer_jumps(g_spec: GraphSpec) -> list[DenseOperator]:
    """Projector jumps (I - S_m)/2, one per stabilizer generator."""
    dim = 2**g_spec.n_qubits
    eye = np.eye(dim, dtype=complex)
    return [(eye - pauli_to_dense(s)) / 2.0 for s in stabilizers(g_spec)]


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vec: stack the columns of rho into one vector."""
    return rho.flatten(order="F")


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of ``vectorize``."""
    d = int(round(np.sqrt(v.shape[0])))
    if d * d != v.shape[0]:
        raise ValueError(f"vector of length {v.shape[0]} is not a vectorized square matrix")
    return v.reshape((d, d), order="F")


def check_dense_size(n_qubits: int) -> None:
    """Refuse, with ValueError naming the memory, registers above
    ``MAX_DENSE_QUBITS``: the dense generator and the Liouvillian spectrum."""
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"N = {n_qubits} exceeds the dense-solver guard ({MAX_DENSE_QUBITS}); "
            f"the superoperator alone would need {16.0 ** (n_qubits + 1) / 2.0**30:.1f} GiB"
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


def _pump_generator(H: DenseOperator, target: StateVector, gamma: float) -> Superoperator:
    """``gamma vec(P) vec(Q.T)^T + I kron K + conj(K) kron I`` with
    ``P = |target><target|``, ``Q = I - P`` and ``K = -i H - (gamma / 2) Q``,
    built in a single d^2 x d^2 array."""
    d = H.shape[0]
    P = np.outer(target, target.conj())
    Q = np.eye(d, dtype=complex) - P
    L = np.multiply.outer(gamma * vectorize(P), vectorize(Q.T))
    K = -1j * H - (0.5 * gamma) * Q
    # Row (i, k) and column (j, l) of L are entries i*d + k and j*d + l,
    # so I kron K fills blocks[a, :, a, :] and conj(K) kron I blocks[:, a, :, a].
    blocks = L.reshape(d, d, d, d)
    diag = np.arange(d)
    blocks[diag, :, diag, :] += K
    blocks[:, diag, :, diag] += K.conj()
    return L


def _merge_poles(mu: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge poles closer than ``COINCIDENT_TOL max(1, max |mu|)``: the distinct
    poles, their summed weights and the extra copies.

    Single linkage on the real parts, then on the imaginary parts within
    each run, so each pass is one stable sort.
    """
    tol = COINCIDENT_TOL * max(1.0, float(np.abs(mu).max(initial=0.0)))
    order = np.argsort(mu.real, kind="stable")
    run = np.cumsum(np.diff(mu.real[order], prepend=-np.inf) > tol)
    within = np.lexsort((mu.imag[order], run))
    order, run = order[within], run[within]
    starts = np.flatnonzero(
        (np.diff(mu.imag[order], prepend=-np.inf) > tol) | (np.diff(run, prepend=-1) != 0)
    )
    return mu[order[starts]], np.add.reduceat(w[order], starts), mu[np.delete(order, starts)]


def _secular_roots(mu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The n roots of ``f(z) = 1 + sum_m w_m / (mu_m - z)`` for n distinct poles
    ``mu`` with nonzero weights ``w``, by Aberth-Ehrlich iteration (Aberth,
    Math. Comp. 27, 339, 1973; the secular mode of MPSolve, Bini and Robol,
    J. Comput. Appl. Math. 272, 276, 2014).

    The Newton ratio is that of the polynomial ``p = f prod_m (mu_m - z)``,
    ``f / (f' - f sum_m 1 / (mu_m - z))``, so an exact root takes a zero step.
    Root m starts at the first-order estimate
    ``mu_m + w_m / (1 + sum_{k != m} w_k / (mu_k - mu_m))``, or at half the
    distance to the nearest other pole (in the direction of w_m) when that
    estimate is not finite or lies farther out; one pole gives ``mu + w``.
    Each start is then turned by 0.01 rad about its pole.
    A root stops when its step is at most ``1e-13 max(1, |z|)``, and only
    the others are recomputed.  Every k x n array is formed ``SECULAR_BLOCK``
    rows at a time.  Raises NumericalError when roots are still moving after
    ``ABERTH_MAX_SWEEPS`` sweeps.
    """
    n = mu.size
    z = np.empty(n, dtype=complex)
    for s in range(0, n, SECULAR_BLOCK):
        rows = slice(s, s + SECULAR_BLOCK)
        spread = mu - mu[rows, None]
        spread[np.arange(spread.shape[0]), np.arange(s, s + spread.shape[0])] = np.inf
        with np.errstate(all="ignore"):
            shift = w[rows] / (1.0 + (w / spread).sum(axis=1))
        reach = 0.5 * np.abs(spread).min(axis=1)
        far = ~(np.abs(shift) <= reach)
        shift[far] = reach[far] * w[rows][far] / np.abs(w[rows][far])
        # f is real on the real axis, so conjugate start points would stay
        # conjugate and could not reach two real roots: turn every shift by
        # 0.01 rad (without it a 4-qubit star at h = 2, gamma = 600 took 79 sweeps)
        z[rows] = mu[rows] + shift * np.exp(0.01j)
    active = np.arange(n)
    for _ in range(ABERTH_MAX_SWEEPS):
        if active.size == 0:
            return z
        step = np.empty(active.size, dtype=complex)
        for s in range(0, active.size, SECULAR_BLOCK):
            roots = active[s : s + SECULAR_BLOCK]
            zk = z[roots, None]
            with np.errstate(all="ignore"):
                inverse = 1.0 / (mu - zk)
                f = 1.0 + inverse @ w
                newton = f / ((inverse * inverse) @ w - f * inverse.sum(axis=1))
            # a root that rounds onto its pole (f or f' overflows there) is
            # that pole to working precision
            newton[~np.isfinite(newton)] = 0.0
            separation = zk - z
            separation[np.arange(roots.size), roots] = np.inf
            step[s : s + roots.size] = newton / (1.0 - newton * (1.0 / separation).sum(axis=1))
        z[active] -= step
        active = active[~(np.abs(step) <= 1e-13 * np.maximum(1.0, np.abs(z[active])))]
    if active.size:
        raise NumericalError(
            f"secular equation unsolved: {active.size} of {n} roots still moving "
            f"after {ABERTH_MAX_SWEEPS} Aberth sweeps"
        )
    return z


@dataclass(frozen=True, eq=False)
class PumpModel:
    """The cluster-state pump on one graph: Hamiltonian and target state.

    Refuses registers above ``MAX_MODEL_QUBITS`` before building anything;
    the dense ``liouvillian`` and ``eigenvalues`` refuse registers above
    ``MAX_DENSE_QUBITS``.
    The eigenbasis of H is computed on first use by ``steady_state``,
    ``eigenbasis_generator`` or ``eigenvalues`` and kept.
    """

    graph: GraphSpec
    params: ModelParams
    target: StateVector = field(init=False, repr=False)
    H: DenseOperator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.graph.n_qubits
        if n > MAX_MODEL_QUBITS:
            raise ValueError(
                f"N = {n} exceeds the model guard ({MAX_MODEL_QUBITS}); its steady-state "
                f"solve would need about {STEADY_STATE_ARRAYS * 16.0 * 4.0**n / 2.0**30:.1f} GiB"
            )
        object.__setattr__(self, "target", cluster_state(self.graph))
        object.__setattr__(self, "H", hamiltonian(self.graph, self.params))

    def liouvillian(self, gamma: float) -> Superoperator:
        """Dense generator ``gamma vec(P) vec(Q.T)^T + I kron K + conj(K) kron I``
        with ``K = -i H - (gamma / 2) Q``, built in a single d^2 x d^2 array."""
        _require_nonnegative(gamma)
        check_dense_size(self.graph.n_qubits)
        return _pump_generator(self.H, self.target, gamma)

    def apply(self, rho: np.ndarray, gamma: float) -> np.ndarray:
        """Matrix-free generator action ``-i[H, rho] + gamma (P Tr(Q rho) - {Q, rho} / 2)``.

        H acts as ``hamiltonian`` builds it: its ZZ diagonal, plus h times one
        index-permuted view of rho per site (X_k flips bit k of a row or
        column index), so the cost is O(N d^2) rather than two d x d products.
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
        out *= -1j * self.params.h
        zz = self.H.diagonal().real
        out += (-1j * np.subtract.outer(zz, zz) - gamma) * rho
        C = self.target
        rho_c = rho @ C
        c_rho = C.conj() @ rho
        recycled = np.trace(rho) - np.vdot(C, rho_c)
        # (Tr rho - <C|rho|C>) P + (P rho + rho P) / 2 as two rank-one updates
        out += np.outer(gamma * C, recycled * C.conj() + 0.5 * c_rho)
        out += np.outer((0.5 * gamma) * rho_c, C.conj())
        return out

    def eigenbasis_generator(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        """The generator's action on ``rho~ = V^T rho V`` in the eigenbasis of H,

            rho~ -> Lam o rho~ + gamma [(Tr rho~ - c^+ rho~ c) c c^+
                                        + (c (c^+ rho~) + (rho~ c) c^+) / 2],

        with ``Lam_ab = -i (E_a - E_b) - gamma``: one elementwise product, two
        matrix-vector products and rank-one updates, O(d^2) per call.  V is
        real orthogonal, so RK4 on ``rho~`` is RK4 on ``rho`` up to round-off.
        """
        _require_nonnegative(gamma)
        energies, _, c = self.eigenbasis
        lam = -1j * np.subtract.outer(energies, energies) - gamma
        c_conj = c.conj()
        gamma_c = gamma * c[:, None]

        def rhs(rho: np.ndarray) -> np.ndarray:
            rho_c = rho @ c
            c_rho = c_conj @ rho
            recycled = rho.trace() - c_conj @ rho_c
            out = lam * rho
            # (Tr - c^+ rho c) c c^+ + c (c^+ rho) / 2 is c times one row vector
            out += gamma_c * (recycled * c_conj + 0.5 * c_rho)
            out += ((0.5 * gamma) * rho_c)[:, None] * c_conj
            return out

        return rhs

    def rk4_step(self, gamma: float) -> Callable[[np.ndarray, float], np.ndarray]:
        """One classical RK4 step of ``eigenbasis_generator(gamma)`` as one map
        ``step(rho~, h) = sum_(k<=4) (h L)^k rho~ / k!``, which is what the four
        stages compute for a linear generator, up to round-off.

        In the eigenbasis of H the generator is
        ``L(X) = A(X) + gamma q(X) c c^+`` with ``A(X) = K X + X K^+``,
        ``K = diag(kappa) + (gamma / 2) c c^+``, ``kappa = -i E - gamma / 2``
        and ``q(X) = Tr X - c^+ X c``.  With ``hK = D + g c c^+``
        (``D = diag(h kappa)``, ``g = h gamma / 2``), expanding
        ``(hK)^i = D^i + g sum_(r<i) D^(i-1-r) c c^+ (hK)^r`` turns the step into

            P4 o X + U V^T,   P4_ab = p(h Lam_ab),   p(x) = sum_(k<=4) x^k / k!,

        with U and V d x 8 and linear in four probes of X: ``Z = R X`` and
        ``W = X R^+`` for the rows ``R_r = c^+ (hK)^r`` (r < 4), the 4 x 4
        ``M = R X R^+`` and ``Tr X``.  The recycling scalars ``q(L^j X)`` follow
        from ``M`` and ``Tr X`` by a forward substitution, since
        ``Tr A(X) = -gamma q(X)`` and ``q(c c^+) = 0``; and
        ``(hA)^m (c c^+) = Y Pi_m Y^+`` for ``Y = [(h kappa)^n o c]``, n < 4.
        The tables that map the probes to U and V are built by recursion, with
        ``(gamma / 2) c`` and no division, for the h of the first call and again
        whenever h changes.

        For Hermitian X, ``W = Z^+``: U's first four columns are ``u + Y Gamma``
        and V's last four rows are ``u^+``, with ``u = sum_s b[:, s] o conj(Z_s)``;
        ``Gamma`` is Hermitian and ``P4_ba = conj(P4_ab)``.  So the step is
        ``G + G^+`` with

            G = (u + Y Gamma / 2) Y^+ + (P4 o X) / 2

        from the one probe Z.  It is computed so for any X, and its output is
        exactly Hermitian; a non-Hermitian X is read as if ``X R^+`` were
        ``Z^+``.  ``(P4 o X) / 2`` stays inside G: added to ``G + G^+``
        instead, it would carry the anti-Hermitian round-off of a start
        ``V^T rho V`` as ``P4 o .``, which grows at dt near the stability edge,
        where some ``|P4_ab| > 1``.  A step costs one thin product, one rank-4
        product, a transposed copy and about 20 numpy calls, O(d^2), against
        about 70 calls for the four stages.
        """
        _require_nonnegative(gamma)
        energies, _, c = self.eigenbasis
        kappa = -1j * energies - 0.5 * gamma
        c_conj = c.conj()
        fact = [math.factorial(k) for k in range(5)]
        binom = [[math.comb(m, i) for i in range(m + 1)] for m in range(4)]

        @lru_cache(maxsize=1)
        def tables(h: float) -> tuple[np.ndarray, ...]:
            k = h * kappa
            g = 0.5 * h * gamma
            lam = np.add.outer(k, k.conj())
            P4 = 1.0 + lam * (1.0 + lam * (0.5 + lam * (1.0 / 6.0 + lam / 24.0)))
            powers = k ** np.arange(4)[:, None]
            Y = (c * powers).T
            R = np.empty((4, c.size), dtype=complex)
            R[0] = c_conj
            for r in range(3):
                R[r + 1] = R[r] * k + (g * (R[r] @ c)) * c_conj
            mu = R @ c
            # u_m = sum_s b[m, s] o W_s and v_n = sum_r conj(b[n, r]) o Z_r, with
            # b[m, s] = g e_(3-m-s)(k) / (m+s+1)! and e_n(k) = sum_(i<=n) k^i / i!
            e = np.cumsum(powers / np.array(fact[:4])[:, None], axis=0)
            b = np.zeros((4, 4, c.size), dtype=complex)
            for m, s in np.ndindex(4, 4):
                if m + s <= 3:
                    b[m, s] = (g / fact[m + s + 1]) * e[3 - m - s]
            # Gamma (flattened) = table @ [Tr X, M (flattened)]: first
            # Gamma_nm = g^2 sum_rs M_rs / ((n+1+r)! (m+1+s)!) over n+r+m+s <= 2
            table = np.zeros((16, 17), dtype=complex)
            for n, r, m, s in np.ndindex(4, 4, 4, 4):
                if n + r + m + s <= 2:
                    table[4 * n + m, 1 + 4 * r + s] = g * g / (fact[n + 1 + r] * fact[m + 1 + s])
            # then the recycling terms sum_j q(L^j X) Psi_j, with (hK)^i c = Y T_:i,
            # (hK . + . (hK)^+)^m (c c^+) = Y Pi_m Y^+ and
            # Psi_j = 2g sum_(j<k<=4) Pi_(k-1-j) / k!
            T = np.zeros((4, 4), dtype=complex)
            T[0, 0] = 1.0
            for i in range(3):
                T[1:, i + 1] = T[:-1, i]
                T[0, i + 1] = g * mu[i]
            Pi = [sum(binom[m][i] * np.outer(T[:, i], T[:, m - i].conj()) for i in range(m + 1)) for m in range(4)]
            # q(A^m X) = -2g q(A^(m-1) X) - sum_i C(m, i) M_i,m-i, and the same for
            # q(A^m c c^+) with mu_i conj(mu_(m-i)) in place of M; q(c c^+) = 0
            qa = np.zeros((4, 17), dtype=complex)
            qp = np.zeros(4, dtype=complex)
            qa[0, :2] = 1.0, -1.0
            for m in range(1, 4):
                qa[m] = -2.0 * g * qa[m - 1]
                qp[m] = -2.0 * g * qp[m - 1]
                for i in range(m + 1):
                    qa[m, 1 + 4 * i + m - i] -= binom[m][i]
                    qp[m] -= binom[m][i] * mu[i] * mu[m - i].conj()
            # q(L^j X) = q(A^j X) + 2g sum_(i<j) q(L^i X) q(A^(j-1-i) c c^+)
            q = np.zeros((4, 17), dtype=complex)
            for j in range(4):
                q[j] = qa[j] + 2.0 * g * sum(qp[j - 1 - i] * q[i] for i in range(j))
                psi = 2.0 * g * sum(Pi[kk - 1 - j] / fact[kk] for kk in range(j + 1, 5))
                table += np.outer(psi.ravel(), q[j])
            # Gamma enters G halved, as Y (Gamma / 2) Y^+
            return 0.5 * P4, R, R.conj().T, b, Y, Y.conj().T, 0.5 * table[:, 0], 0.5 * table[:, 1:]

        def step(rho: np.ndarray, h: float) -> np.ndarray:
            half_P4, R, R_h, b, Y, Y_h, trace_column, M_columns = tables(h)
            Z = R @ rho
            half_Gamma = (M_columns @ (Z @ R_h).ravel() + trace_column * rho.trace()).reshape(4, 4)
            G = ((b * Z.conj()).sum(axis=1).T + Y @ half_Gamma) @ Y_h
            G += half_P4 * rho
            # G + G^+ through a transposed copy: a ufunc reading G.conj().T
            # strides across rows, and took four times as long at d = 256
            out = G.T.copy()
            np.conjugate(out, out=out)
            out += G
            return out

        return step

    @cached_property
    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray, StateVector]:
        """``(E, V, c)`` with ``H = V diag(E) V^T`` and ``c = V^T |C>``.

        H is real symmetric (Z Z and X are real), so V is real and the real
        eigensolver applies, several times faster than the complex one.
        """
        energies, V = np.linalg.eigh(self.H.real)
        return energies, V, V.T @ self.target

    def from_eigenbasis(self, rho: np.ndarray) -> np.ndarray:
        """``V rho V^T``: a complex matrix in the eigenbasis of H back in the
        computational basis, as two real products ``V Re(rho) V^T`` and
        ``V Im(rho) V^T`` (V is real; a complex V costs about twice as much)."""
        _, V, _ = self.eigenbasis
        return V @ rho.real @ V.T + 1j * (V @ rho.imag @ V.T)

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(E_J, c_J, E_O)``: the eigenbasis of H split by the target's support.

        Each degenerate eigenspace of H is first rotated so that c has at most
        one nonzero component in it; only E and c enter the Liouvillian's
        eigenvalues, so V is left as it is.  J holds the indices with
        ``|c_b| > SUPPORT_TOL`` and O the rest.
        """
        energies, _, c = self.eigenbasis
        scale = max(1.0, float(np.abs(energies).max()))
        level = np.cumsum(np.diff(energies, prepend=-np.inf) > COINCIDENT_TOL * scale) - 1
        # the rotation puts the norm of c over an eigenspace on its first index
        rotated = np.zeros(energies.size)
        rotated[np.flatnonzero(np.diff(level, prepend=-1))] = np.sqrt(
            np.bincount(level, weights=np.abs(c) ** 2)
        )
        J = np.abs(rotated) > SUPPORT_TOL
        return energies[J], rotated[J], energies[~J]

    def _kernel_factors(self, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(kappa, R, a)`` at ``gamma``: the eigenvalues of the effective
        non-Hermitian Hamiltonian ``K = -i H - (gamma / 2) Q`` in the
        eigenbasis of H, J of ``_support`` first, and the factors
        ``K_J = R diag(kappa_J) R^-1`` and ``a = R^-1 c_J``.

        ``K_J = diag(-i E_J - gamma / 2) + (gamma / 2) c_J c_J^T`` is |J| x |J|;
        on O, K is diagonal: ``kappa_b = -i E_b - gamma / 2``.
        """
        e_j, c_j, e_o = self._support
        kappa_j, R = np.linalg.eig(np.diag(-1j * e_j - 0.5 * gamma) + np.outer(0.5 * gamma * c_j, c_j))
        return np.concatenate([kappa_j, -1j * e_o - 0.5 * gamma]), R, np.linalg.solve(R, c_j)

    def eigenvalues(self, gamma: float) -> np.ndarray:
        """All 4^N eigenvalues of the generator at ``gamma``, unordered, without
        the superoperator; equal as a multiset to those of
        ``self.liouvillian(gamma)``.

        In the eigenbasis of H the generator is ``A + gamma |P>><<Q|`` with
        ``A(rho) = K rho + rho K^+`` and a rank-one recycling term.  With
        ``(kappa, R, a) = _kernel_factors(gamma)``, A has the eigenvalues
        (poles) ``kappa_i + conj(kappa_j)``, and by the matrix determinant
        lemma the others solve the secular equation

            f(lam) = 1 + gamma sum_ij W_ij / (kappa_i + conj(kappa_j) - lam) = 0,
            W_ij = a_i conj(a_j) (R^+ Q R)_ji,  i, j in J

        (Golub, SIAM Rev. 15, 318, 1973).  Every pole that touches O, and
        every JJ pole whose weight is at most ``HIDDEN_TOL`` of the largest, is
        an eigenvalue; coincident poles are merged by summing their weights,
        and their extra copies are eigenvalues too.  One root of f per
        remaining pole comes from ``_secular_roots``.  The cost is one |J| x |J|
        eigendecomposition and O(n^2) per Aberth sweep for n visible poles.
        Near an exceptional point of K_J, where the condition number of R
        exceeds ``EIGENVECTOR_COND_MAX``, the weights are lost to cancellation
        and the JJ sector's |J|^2 eigenvalues come from its dense generator.

        The register is refused above ``MAX_DENSE_QUBITS`` before H is
        diagonalized.  Raises NumericalError when the secular equation is not
        solved within ``ABERTH_MAX_SWEEPS`` sweeps, or when the eigenvalues
        do not sum to ``Tr L = -gamma d (d - 1)`` within
        ``1e-10 max(1, sum |lam|)``.
        """
        _require_nonnegative(gamma)
        check_dense_size(self.graph.n_qubits)
        kappa, R, a = self._kernel_factors(gamma)
        m = a.size
        poles = np.add.outer(kappa, kappa.conj())
        if np.linalg.cond(R) <= EIGENVECTOR_COND_MAX:
            gram = R.conj().T @ R
            # R^+ Q R = R^+ R - (R^+ c_J)(R^+ c_J)^+, and R^+ c_J = R^+ R a
            ra = gram @ a
            weights = gamma * np.outer(a, a.conj()) * (gram - np.outer(ra, ra.conj())).T
            mu, w, copies = _merge_poles(poles[:m, :m].ravel(), weights.ravel())
            visible = np.abs(w) > HIDDEN_TOL * np.abs(w).max(initial=0.0)
            jj = [copies, mu[~visible], _secular_roots(mu[visible], w[visible])]
        else:
            # near an exceptional point of K_J the weights cancel to no digits;
            # the JJ sector is the dense generator of H = diag(E_J) and c_J
            e_j, c_j, _ = self._support
            jj = [np.linalg.eigvals(_pump_generator(np.diag(e_j), c_j, gamma))]
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
        # solver imports this module, so its helpers are imported on use
        from .solver import rank_spectrum

        return rank_spectrum(self.eigenvalues(gamma))[1]

    def steady_state(self, gamma: float) -> tuple[DenseOperator, float]:
        """Steady state at dissipation rate ``gamma`` without the superoperator,
        with the Frobenius norm of the anti-Hermitian part of the unit-trace
        solution before it is made Hermitian (a diagnostic).

        In the eigenbasis of H, with ``M_ab = gamma / (gamma + i (E_a - E_b))``,
        the stationarity condition reads

            rho~ = M o [(1 - kappa) c c^+ + (c u^+ + u c^+) / 2],  kappa = c^+ u,

        for ``u = rho~ c``.  Substituting gives a system linear in u and its
        conjugate, solved as 2d real equations at O(d^3) cost.  The result is
        normalized as in ``steady_state_direct``, in the eigenbasis, and
        transformed back once.  Raises NumericalError "degenerate kernel: ..."
        at gamma = 0 or on a singular system, and when the Frobenius norm of
        ``eigenbasis_generator(gamma)`` on the normalized ``rho~`` (equal to
        that of ``apply(rho, gamma)``) exceeds ``1e-8 max(1, s)``, where s is
        the largest diagonal entry of the dense generator in modulus.
        """
        _require_nonnegative(gamma)
        if gamma == 0:
            raise NumericalError(
                "degenerate kernel: without dissipation (gamma = 0) the steady state is not unique"
            )
        # solver imports this module, so its helpers are imported on use
        from .solver import _solve_nonsingular, _unit_trace_hermitian

        energies, _, c = self.eigenbasis
        d = c.size
        M = gamma / (gamma + 1j * np.subtract.outer(energies, energies))
        w = M @ np.abs(c) ** 2
        # A u + B conj(u) = c o w
        cw = c * w
        A = np.outer(cw, c.conj())
        A[np.diag_indices(d)] += 1.0 - 0.5 * w
        B = -0.5 * (c[:, None] * M * c[None, :])
        # with u = x + i y: [[Re(A + B), Im(B - A)], [Im(A + B), Re(A - B)]] [x; y]
        system = np.empty((2 * d, 2 * d), order="F")
        system[:d, :d] = A.real + B.real
        system[:d, d:] = B.imag - A.imag
        system[d:, :d] = A.imag + B.imag
        system[d:, d:] = A.real - B.real
        del A, B
        xy = _solve_nonsingular(system, np.concatenate([cw.real, cw.imag]))
        del system  # its LU factors; the residual below needs the memory
        u = xy[:d] + 1j * xy[d:]
        kappa = np.vdot(c, u)
        rho = M * (
            (1.0 - kappa) * np.outer(c, c.conj())
            + 0.5 * (np.outer(c, u.conj()) + np.outer(u, c.conj()))
        )
        rho, antihermitian = _unit_trace_hermitian(rho)

        # Diagonal of the dense generator, gamma P_ab Q_ba + K_aa + conj(K_bb),
        # whose largest modulus bounds its infinity norm from below.
        p = np.abs(self.target) ** 2
        k = -1j * self.H.diagonal() - 0.5 * gamma * (1.0 - p)
        diagonal = gamma * (np.diag(p) - np.outer(p, p)) + k[:, None] + k.conj()[None, :]
        tol = 1e-8 * max(1.0, float(np.abs(diagonal).max()))
        # V is orthogonal, so this is |L rho|_F >= max |L rho| in any basis
        residual = float(np.linalg.norm(self.eigenbasis_generator(gamma)(rho)))
        if not residual <= tol:
            raise NumericalError(
                f"structured steady-state residual {residual:g} exceeds tolerance {tol:g}"
            )
        return self.from_eigenbasis(rho), antihermitian
