"""Mean-field dynamics of the averaged spins (Jx, Jy, Jz) and the analytic
fixed-point branches of the dissipative Ising model.

Factorizing two-site correlators turns the master equation into a closed
3-variable ODE system,

    dJx/dt = -4 g Jy Jz - gamma Jx
    dJy/dt =  4 g Jx Jz - 2 h Jz - gamma Jy
    dJz/dt = -2 h Jy - gamma Jz

whose equilibria, for g > 0 and h >= 0, fall into four closed-form
families in the ratios h_g = h/g and gamma_g = gamma/g:

* s1 = (+-1, 0, 0)                         at gamma = 0 (field-dominated),
* s2 = (h_g/2, 0, +-sqrt(1 - (h_g/2)^2))   at gamma = 0, h_g <= 2,
* s3 = (0, 0, 0)                           for gamma_g >= 2 h_g,
* s4 = q/(8 h_g) * (q, +-gamma_g, -+2 h_g) for gamma_g < 2 h_g,
       with q = sqrt(4 h_g^2 - gamma_g^2).

The equations have two exact sign symmetries: g -> -g with Jx -> -Jx, and
h -> -h with (Jx, Jz) -> (-Jx, -Jz).  Every other sign of g and h reads the
families at h/|g| and gamma/|g| through them.

``mean_field_evolve`` integrates the ODEs with the same fixed-step driver
(``solver.rk4``) that integrates the exact master equation, and returns the
same ``solver.Trajectory`` type, with states of shape (n_samples, 3).  Its
RK4 step is written out on three Python floats, and the state stays three
floats between steps, since numpy calls on length-3 arrays would cost more
than the arithmetic; it performs the operations of the array formula in the
same order, so its states are those of a numpy RK4 of ``_rhs`` to the bit.
Each call of the driver's ``advance`` runs a whole sample interval of these
steps in one loop, with the blow-up guard inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .lindblad import ModelParams
from .solver import Trajectory, rk4

# Divergence guard for trajectories; the physical ball has |s| <= 1.
BLOWUP_NORM = 10.0
# Jacobian eigenvalue real parts within this band count as marginal.
STABILITY_EPS = 1e-9


@dataclass(frozen=True)
class MeanFieldState:
    """Site-averaged Pauli vector (Jx, Jy, Jz) = (1/N) sum_k <sigma_k>.

    The mean-field ODEs evolve it; ``observables.spin_expectations`` reads
    it off a density matrix.
    """

    jx: float
    jy: float
    jz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.jx, self.jy, self.jz])

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "MeanFieldState":
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass(frozen=True)
class FixedPoint:
    """A closed-form equilibrium with its stability classification.

    ``stable`` is True only when every Jacobian eigenvalue has a strictly
    negative real part; ``classification`` distinguishes "marginal" cases
    (eigenvalues on the imaginary axis within tolerance) from "unstable".
    """

    label: str
    state: MeanFieldState
    stable: bool
    classification: str


def _rhs(s: np.ndarray, g: float, h: float, gamma: float) -> np.ndarray:
    x, y, z = s
    return np.array(
        [
            -4.0 * g * y * z - gamma * x,
            4.0 * g * x * z - 2.0 * h * z - gamma * y,
            -2.0 * h * y - gamma * z,
        ]
    )


def mean_field_rhs(s: MeanFieldState, p: ModelParams) -> MeanFieldState:
    """Time derivatives (dJx/dt, dJy/dt, dJz/dt) at the given state."""
    return MeanFieldState.from_array(_rhs(s.as_array(), p.g, p.h, p.gamma))


def jacobian(s: MeanFieldState, p: ModelParams) -> np.ndarray:
    """3x3 Jacobian of the mean-field vector field."""
    g, h, gamma = p.g, p.h, p.gamma
    x, y, z = s.jx, s.jy, s.jz
    return np.array(
        [
            [-gamma, -4.0 * g * z, -4.0 * g * y],
            [4.0 * g * z, -gamma, 4.0 * g * x - 2.0 * h],
            [0.0, -2.0 * h, -gamma],
        ]
    )


def _classify(s: MeanFieldState, p: ModelParams) -> tuple[bool, str]:
    re = np.linalg.eigvals(jacobian(s, p)).real
    if np.all(re < -STABILITY_EPS):
        return True, "stable"
    if np.any(re > STABILITY_EPS):
        return False, "unstable"
    return False, "marginal"


def fixed_points(p: ModelParams) -> list[FixedPoint]:
    """Enumerate the applicable closed-form equilibrium branches.

    At gamma = 0 these are the polarized branches s1 and (for |h|/|g| <= 2)
    the ordered branches s2; for gamma > 0 the origin s3 applies when
    gamma >= 2 |h| and the s4 pair when gamma < 2 |h|.  The families are
    built at g > 0, h >= 0 from h/|g| and gamma/|g|, and each point is
    mapped through the sign symmetries to the signs of ``p``; its label
    names the branch it is the image of, and its stability is classified
    where it lands.

    These are equilibria of the factorized ODEs, not all of them states of
    spins-1/2: ``|s4| = q / (2 sqrt 2)`` with q of the module docstring, so
    the s4 pair lies outside the unit ball when ``4 h^2 - gamma^2 > 8 g^2``.
    """
    if p.g == 0:
        raise ValueError("fixed points are parameterized by h/|g| and gamma/|g|; g must be nonzero")
    h_g = abs(p.h) / abs(p.g)
    gamma_g = p.gamma / abs(p.g)
    # g -> -g negates Jx; h -> -h negates Jx and Jz
    sign_x = -1.0 if (p.g < 0) != (p.h < 0) else 1.0
    sign_z = -1.0 if p.h < 0 else 1.0
    out: list[FixedPoint] = []

    def add(label: str, jx: float, jy: float, jz: float) -> None:
        state = MeanFieldState(sign_x * jx, jy, sign_z * jz)
        stable, cls = _classify(state, p)
        out.append(FixedPoint(label=label, state=state, stable=stable, classification=cls))

    if p.gamma == 0:
        add("s1_plus", 1.0, 0.0, 0.0)
        add("s1_minus", -1.0, 0.0, 0.0)
        if h_g <= 2.0:
            jz = math.sqrt(max(0.0, 1.0 - (h_g / 2.0) ** 2))
            add("s2_plus", h_g / 2.0, 0.0, jz)
            add("s2_minus", h_g / 2.0, 0.0, -jz)
    elif gamma_g >= 2.0 * h_g:
        add("s3", 0.0, 0.0, 0.0)
    else:
        q = math.sqrt(4.0 * h_g**2 - gamma_g**2)
        pref = q / (8.0 * h_g)
        add("s4_plus", pref * q, pref * gamma_g, pref * (-2.0 * h_g))
        add("s4_minus", pref * q, pref * (-gamma_g), pref * (2.0 * h_g))
    return out


def default_dt(p: ModelParams) -> float:
    """Integrator step scaled to the fastest model rate."""
    return 0.005 / max(1.0, abs(p.g), abs(p.h), abs(p.gamma))


def mean_field_evolve(
    s0: MeanFieldState,
    p: ModelParams,
    t_final: float,
    dt: float,
    sample_every: int = 1,
) -> Trajectory:
    """RK4 integration (``solver.rk4``) of the mean-field equations in steps of
    ``dt`` (``default_dt`` scales one to the fastest model rate).

    Raises NumericalError("mean-field blow-up") if the state norm exceeds 10
    or is NaN, the initial state included.
    """
    # The coefficients of ``_rhs``, folded as its left-to-right products fold them.
    a, b, c, gamma = -4.0 * p.g, 4.0 * p.g, 2.0 * p.h, p.gamma

    def check_norm(s: tuple[float, float, float]) -> None:
        # written so that NaN fails too
        if not math.hypot(*s) <= BLOWUP_NORM:
            raise NumericalError("mean-field blow-up")

    def advance(s: tuple[float, float, float], tau: float, count: int) -> tuple[float, float, float]:
        x, y, z = s
        half = 0.5 * tau
        sixth = tau / 6.0
        for _ in range(count):
            # ``_rhs`` inlined four times, in its order of operations
            k1x, k1y, k1z = a * y * z - gamma * x, b * x * z - c * z - gamma * y, -c * y - gamma * z
            x2, y2, z2 = x + half * k1x, y + half * k1y, z + half * k1z
            k2x, k2y, k2z = a * y2 * z2 - gamma * x2, b * x2 * z2 - c * z2 - gamma * y2, -c * y2 - gamma * z2
            x3, y3, z3 = x + half * k2x, y + half * k2y, z + half * k2z
            k3x, k3y, k3z = a * y3 * z3 - gamma * x3, b * x3 * z3 - c * z3 - gamma * y3, -c * y3 - gamma * z3
            x4, y4, z4 = x + tau * k3x, y + tau * k3y, z + tau * k3z
            k4x, k4y, k4z = a * y4 * z4 - gamma * x4, b * x4 * z4 - c * z4 - gamma * y4, -c * y4 - gamma * z4
            x, y, z = (
                x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
                y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
                z + sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z),
            )
            # ``check_norm`` inline: a call per step would cost more than the step's guard
            if not math.hypot(x, y, z) <= BLOWUP_NORM:
                raise NumericalError("mean-field blow-up")
        return x, y, z

    # Python floats, not numpy scalars, from the first step on
    return rk4(advance, tuple(map(float, s0.as_array())), t_final, dt, sample_every, check_norm, lambda s: s)
