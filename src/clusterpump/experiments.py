"""Parameter sweeps, saturation detection, and scaling fits.

A gamma sweep records steady-state fidelity, witness expectation, and
(optionally) the Liouvillian gap on a grid of dissipation strengths.  Both
come from the model in the eigenbasis of H: fidelity and witness from its
batched steady states on the target's support
(``PumpModel.support_steady_states``), read off without forming the
d x d density matrix; gaps from the Liouvillian's eigenvalues without the
4^N x 4^N superoperator (``PumpModel.gap``): the poles of the Kronecker sum
``rho -> K rho + rho K^+`` and the roots of the secular equation its rank-one
recycling term adds.  The saturation point
gamma_sat is the smallest gamma whose fidelity comes within a factor
(1 - epsilon) of the sweep maximum, for epsilon in (0, 1).  Scaling studies
repeat the sweep over system sizes and fit the trends, each as one
least-squares line (``fit_linear``): linear gamma_sat growth, the
offset-inverse fidelity law f0 + c / N as a line in 1 / N, and power laws
for the gap as lines in log-log.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cluster import GraphSpec
from .errors import NumericalError
from .lindblad import PumpModel, check_spectrum_size
from .observables import support_metrics


@dataclass
class SweepResult:
    """Per-grid-point steady-state metrics for one system.

    Failed grid points carry NaN in the value arrays and the failure reason
    in ``status``; successful points have status "ok".  ``gap`` is NaN when
    the sweep was run without spectra.
    """

    axis_values: np.ndarray
    fidelity: np.ndarray
    witness: np.ndarray
    gap: np.ndarray
    status: list[str]


@dataclass(frozen=True)
class FitResult:
    model: str  # "linear" | "power_law" | "offset_inverse"
    coefficients: tuple[float, ...]
    r_squared: float


@dataclass(frozen=True)
class ScalingRow:
    n: int
    gamma_sat: float
    f_sat: float
    gap_weak: float
    gap_strong: float


@dataclass
class ScalingStudy:
    rows: list[ScalingRow]
    fits: dict[str, FitResult]
    weak_gamma: float
    strong_gamma: float


def gamma_sweep(
    system: GraphSpec | PumpModel,
    h_g: float,
    gammas: Sequence[float],
    compute_gap: bool = True,
    eta: float = 0.5,
    g: float = 1.0,
) -> SweepResult:
    """Steady-state metrics over an ascending grid of dissipation strengths.

    ``system`` is a graph, or a model of one already built with coupling
    ``g`` and field ``h_g |g|``, whose cached eigenbasis of H is then reused.
    The model is assembled once.  With ``compute_gap`` every point first
    takes ``PumpModel.gap`` (N <= 7) in grid order, and without it the gap
    column is NaN.  The points whose gap did not fail then take their steady
    states from one batched pass, ``PumpModel.support_steady_states``, in
    the eigenbasis of H, which is computed once per sweep; fidelity
    ``c_J^T rho~ c_J / Tr rho~`` and witness ``eta Tr rho~ - c_J^T rho~ c_J``
    are read off ``rho~`` on the target's support, and no d x d density
    matrix is formed.  ``eta`` is the witness offset.  A NumericalError at a
    point (a degenerate kernel, gamma = 0 included, a failed solve, or a
    fidelity with a non-negligible imaginary part) is recorded in its
    status, the gap's taking precedence, every value of the point is NaN,
    and the sweep continues.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.size and (np.any(np.diff(gammas) < 0) or np.any(gammas < 0)):
        raise ValueError("gammas must be sorted ascending and nonnegative")
    if g == 0:
        raise ValueError("sweeps are parameterized by h/g and gamma/g; g must be nonzero")
    # h and gamma scale with |g| so that a sign flip of g only flips the coupling.
    h = h_g * abs(g)
    if isinstance(system, PumpModel):
        if (system.g, system.h) != (g, h):
            raise ValueError(f"model has g = {system.g}, h = {system.h}; the sweep asks for g = {g}, h = {h}")
        model = system
    else:
        model = PumpModel(system, g, h)
    scaled = gammas * abs(g)
    n_pts = gammas.size
    fid = np.full(n_pts, np.nan)
    wit = np.full(n_pts, np.nan)
    gap = np.full(n_pts, np.nan)
    status = ["ok"] * n_pts
    if compute_gap:
        # the gaps first: they carry the spectrum guard and the kernel_dim
        for i, gamma in enumerate(scaled):
            try:
                gap[i] = model.gap(gamma)
            except NumericalError as exc:
                status[i] = str(exc)
    todo = [i for i, s in enumerate(status) if s == "ok"]
    c = model.eigenbasis[2]
    for i, (rho, _, error) in zip(todo, model.support_steady_states(scaled[todo])):
        if error is None:
            try:
                fid[i], wit[i] = support_metrics(c, rho, eta)
                continue
            except NumericalError as exc:
                error = exc
        status[i], gap[i] = str(error), np.nan
    return SweepResult(axis_values=gammas.copy(), fidelity=fid, witness=wit, gap=gap, status=status)


def check_epsilon(epsilon: float) -> None:
    """Refuse a saturation criterion outside (0, 1) with ValueError."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon:g}")


def detect_gamma_sat(sweep: SweepResult, epsilon: float = 1e-3) -> float:
    """Smallest axis value whose fidelity reaches (1 - epsilon) of the sweep max.

    The crossing is refined by linear interpolation between the bracketing
    grid points.  An epsilon outside (0, 1) and an empty series raise
    ValueError.  A series whose points all failed raises NumericalError, as
    does one whose maximum sits at the last grid point while it is still
    rising there by more than epsilon per grid step: the sweep has not
    plateaued ("sweep range too small").
    """
    check_epsilon(epsilon)
    finite = np.isfinite(sweep.fidelity)
    if not finite.size:
        raise ValueError("fidelity series is empty")
    if not np.any(finite):
        raise NumericalError("fidelity series is all-failed")
    x = np.asarray(sweep.axis_values, dtype=float)[finite]
    f = np.asarray(sweep.fidelity, dtype=float)[finite]

    i_max = int(np.argmax(f))
    f_max = f[i_max]
    if f.size >= 2 and i_max == f.size - 1 and (f[-1] - f[-2]) > epsilon:
        raise NumericalError("sweep range too small")
    threshold = (1.0 - epsilon) * f_max
    hits = np.nonzero(f >= threshold)[0]
    i_hit = int(hits[0])
    if i_hit == 0:
        return float(x[0])
    x0, x1 = x[i_hit - 1], x[i_hit]
    # f0 < threshold <= f1: i_hit is the first point at or above it
    f0, f1 = f[i_hit - 1], f[i_hit]
    frac = (threshold - f0) / (f1 - f0)
    return float(x0 + frac * (x1 - x0))


def _r_squared(y: np.ndarray, y_hat: np.ndarray) -> float:
    ss_res = float(np.sum((y - y_hat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 1e-300:
        return 1.0 if ss_res <= 1e-20 else 0.0
    return float(min(max(1.0 - ss_res / ss_tot, 0.0), 1.0))


def fit_linear(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Least-squares line y = slope * x + intercept."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("fit needs at least 2 points")
    if np.ptp(x) == 0:
        raise ValueError("degenerate x: all abscissae equal")
    slope, intercept = np.polyfit(x, y, 1)
    return FitResult(
        model="linear",
        coefficients=(float(slope), float(intercept)),
        r_squared=_r_squared(y, slope * x + intercept),
    )


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Least squares in log10-log10: y = 10^intercept * x^beta.

    Coefficients are (beta, log10 prefactor); r^2 is computed in log space.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit requires strictly positive data")
    return replace(fit_linear(np.log10(x), np.log10(y)), model="power_law")


def fit_offset_inverse(n: Sequence[float], f: Sequence[float]) -> FitResult:
    """Least squares for f = f0 + c / n, a line in 1 / n; coefficients are (f0, c)."""
    n = np.asarray(n, dtype=float)
    if np.any(n <= 0):
        raise ValueError("offset-inverse fit requires positive n")
    line = fit_linear(1.0 / n, f)
    c, f0 = line.coefficients
    return FitResult(model="offset_inverse", coefficients=(f0, c), r_squared=line.r_squared)


def parse_gamma_policy(text: str) -> np.ndarray:
    """Grid grammar: "log:<lo>:<hi>:<n>" or "lin:<lo>:<hi>:<n>"."""
    parts = text.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise ValueError(f"bad gamma policy {text!r}; expected log:<lo>:<hi>:<n> or lin:<lo>:<hi>:<n>")
    lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
    if n < 2 or not -np.inf < lo < hi < np.inf:
        raise ValueError(f"bad gamma policy {text!r}: need finite lo < hi and n >= 2")
    if parts[0] == "log":
        if lo <= 0:
            raise ValueError("log grid requires lo > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


DEFAULT_GAMMA_POLICY = "log:0.5:600:32"


def size_scaling_study(
    n_values: Sequence[int],
    h_g: float,
    gamma_policy: str = DEFAULT_GAMMA_POLICY,
    epsilon: float = 1e-3,
    weak_gamma: float = 1.0,
    strong_gamma: float | None = None,
) -> ScalingStudy:
    """Saturation and gap scaling over chain lengths.

    Per N: a fast (no-spectrum) gamma sweep locates gamma_sat from its
    fidelity column, and the steady state on the target's support is
    re-solved exactly at gamma_sat for F_sat, read off it as in the sweep;
    the witness plays no part.  Sweep and re-solve share one model, so each
    H is diagonalized once.  The gap
    (``PumpModel.gap``, N <= 7) is fitted against N at two fixed
    dissipation strengths common to all sizes: ``weak_gamma``, and
    ``strong_gamma`` which defaults to the largest detected gamma_sat (the
    saturated regime).  Each N's ``ScalingRow`` is built once, with a NaN
    ``gap_strong`` until ``strong_gamma`` is known.  Before any work, every N is checked against the
    spectrum guard, the sizes for the two distinct values a fit needs, and
    epsilon for (0, 1).
    """
    check_epsilon(epsilon)
    gammas = parse_gamma_policy(gamma_policy)
    if len(set(n_values)) < 2:
        raise ValueError(f"a scaling study needs at least 2 distinct sizes, got {list(n_values)}")
    for n in n_values:
        check_spectrum_size(n)
    models = [PumpModel(GraphSpec.chain(n), 1.0, h_g) for n in n_values]

    rows = []
    for model in models:
        gap_weak = model.gap(weak_gamma)
        sweep = gamma_sweep(model, h_g, gammas, compute_gap=False)
        gamma_sat = detect_gamma_sat(sweep, epsilon=epsilon)
        f_sat = support_metrics(model.eigenbasis[2], model.support_steady_state(gamma_sat)[0])[0]
        rows.append(ScalingRow(model.graph.n_qubits, gamma_sat, f_sat, gap_weak, gap_strong=np.nan))

    if strong_gamma is None:
        strong_gamma = max(r.gamma_sat for r in rows)
    rows = [replace(r, gap_strong=model.gap(strong_gamma)) for model, r in zip(models, rows)]

    ns = [float(r.n) for r in rows]
    fits = {
        "gamma_sat_linear": fit_linear(ns, [r.gamma_sat for r in rows]),
        "f_sat_offset_inverse": fit_offset_inverse(ns, [r.f_sat for r in rows]),
        "gap_weak_power_law": fit_power_law(ns, [r.gap_weak for r in rows]),
        "gap_strong_power_law": fit_power_law(ns, [r.gap_strong for r in rows]),
    }
    return ScalingStudy(rows=rows, fits=fits, weak_gamma=weak_gamma, strong_gamma=float(strong_gamma))
