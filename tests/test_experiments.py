import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterpump import solver
from clusterpump.cluster import GraphSpec
from clusterpump.errors import NumericalError
from clusterpump.experiments import (
    SweepResult,
    detect_gamma_sat,
    fit_linear,
    fit_offset_inverse,
    fit_power_law,
    gamma_sweep,
    parse_gamma_policy,
    size_scaling_study,
)
from clusterpump.lindblad import MAX_DENSE_QUBITS, MAX_MODEL_QUBITS, PumpModel


def synthetic_sweep(gammas, fid):
    gammas = np.asarray(gammas, dtype=float)
    fid = np.asarray(fid, dtype=float)
    return SweepResult(
        axis_values=gammas,
        fidelity=fid,
        witness=0.5 - fid,
        gap=np.full_like(fid, np.nan),
        status=["ok"] * len(fid),
    )


# ----------------------------------------------------------------- detection


def test_detect_gamma_sat_synthetic_closed_form():
    # F = 1 - exp(-gamma/10): the threshold crossing is analytically
    # invertible, gamma* = -10 ln(1 - (1 - eps) F_max)
    gammas = np.linspace(0.0, 100.0, 2001)
    fid = 1.0 - np.exp(-gammas / 10.0)
    eps = 1e-3
    detected = detect_gamma_sat(synthetic_sweep(gammas, fid), epsilon=eps)
    threshold = (1.0 - eps) * fid.max()
    exact = -10.0 * math.log(1.0 - threshold)
    assert detected == pytest.approx(exact, rel=1e-4)


def test_detect_gamma_sat_constant_series():
    gammas = np.linspace(1.0, 10.0, 10)
    assert detect_gamma_sat(synthetic_sweep(gammas, np.full(10, 0.7))) == 1.0


def test_detect_gamma_sat_no_plateau_raises():
    gammas = np.linspace(1.0, 10.0, 10)
    rising = np.linspace(0.1, 0.9, 10)
    with pytest.raises(NumericalError, match="sweep range too small"):
        detect_gamma_sat(synthetic_sweep(gammas, rising))


def test_detect_gamma_sat_monotone_in_epsilon():
    gammas = np.geomspace(0.1, 300.0, 200)
    fid = 1.0 - 1.0 / (1.0 + (gammas / 7.0) ** 2)
    sweep = synthetic_sweep(gammas, fid)
    values = [detect_gamma_sat(sweep, epsilon=eps) for eps in (3e-2, 1e-2, 3e-3, 1e-3, 3e-4)]
    assert np.all(np.diff(values) >= 0)


def test_detect_gamma_sat_skips_failed_points():
    gammas = np.linspace(1.0, 5.0, 5)
    fid = np.array([0.2, np.nan, 0.9, 0.9, 0.9])
    sweep = synthetic_sweep(gammas, fid)
    sweep.status[1] = "solver failed"
    value = detect_gamma_sat(sweep)
    assert 1.0 < value <= 3.0


def test_detect_gamma_sat_empty_and_all_failed_series():
    # no point is a bad input; points that all failed are a numerical failure
    with pytest.raises(ValueError, match="fidelity series is empty"):
        detect_gamma_sat(synthetic_sweep([], []))
    with pytest.raises(NumericalError, match="fidelity series is all-failed"):
        detect_gamma_sat(synthetic_sweep([1.0, 2.0, 3.0], [np.nan] * 3))


@pytest.mark.parametrize("epsilon", [-1.0, 0.0, 1.0, 1.5, np.nan])
def test_detect_gamma_sat_refuses_epsilon_outside_the_unit_interval(epsilon):
    sweep = synthetic_sweep(np.linspace(1.0, 5.0, 5), [0.2, 0.6, 0.9, 0.9, 0.9])
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
        detect_gamma_sat(sweep, epsilon=epsilon)


# ----------------------------------------------------------------- fits


def test_fit_linear_exact():
    fit = fit_linear([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
    assert fit.coefficients == pytest.approx((2.0, 1.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_linear_flat():
    fit = fit_linear([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-12)


def test_fit_linear_degenerate_x():
    with pytest.raises(ValueError, match="degenerate"):
        fit_linear([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_linear([1.0], [1.0])


def test_fit_power_law_exact():
    x = np.array([1.0, 4.0, 9.0, 16.0])
    fit = fit_power_law(x, np.sqrt(x))
    assert fit.coefficients[0] == pytest.approx(0.5, abs=1e-12)
    assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_power_law_prefactor():
    x = np.array([1.0, 2.0, 4.0])
    fit = fit_power_law(x, 5.0 * x**1.5)
    assert fit.coefficients[0] == pytest.approx(1.5, abs=1e-12)
    assert 10.0 ** fit.coefficients[1] == pytest.approx(5.0, rel=1e-12)


def test_fit_power_law_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        fit_power_law([-1.0, 2.0], [1.0, 1.0])


def test_fit_offset_inverse_exact():
    n = np.array([2.0, 3.0, 4.0, 6.0])
    fit = fit_offset_inverse(n, 0.9 + 0.1 / n)
    assert fit.coefficients == pytest.approx((0.9, 0.1), abs=1e-12)


def test_fit_offset_inverse_flat():
    fit = fit_offset_inverse([2.0, 3.0, 4.0], [0.5, 0.5, 0.5])
    assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-12)


def test_fit_offset_inverse_needs_two_points():
    with pytest.raises(ValueError):
        fit_offset_inverse([2.0], [0.5])


@pytest.mark.parametrize("n", [[0.0, 2.0, 3.0], [-2.0, 3.0]])
def test_fit_offset_inverse_rejects_nonpositive_n(n):
    with pytest.raises(ValueError, match="offset-inverse fit requires positive n"):
        fit_offset_inverse(n, [0.5] * len(n))


def test_fit_offset_inverse_is_least_squares_in_one_over_n(rng):
    n = np.array([2.0, 3.0, 4.0, 5.0, 7.0])
    f = 0.99 + 0.02 / n + 1e-3 * rng.standard_normal(n.size)
    fit = fit_offset_inverse(n, f)
    design = np.column_stack([np.ones_like(n), 1.0 / n])
    coef, *_ = np.linalg.lstsq(design, f, rcond=None)
    assert np.abs(np.array(fit.coefficients) - coef).max() <= 1e-12
    residual = f - design @ coef
    assert fit.r_squared == pytest.approx(1.0 - residual @ residual / np.sum((f - f.mean()) ** 2), abs=1e-12)
    with pytest.raises(ValueError, match="degenerate x"):
        fit_offset_inverse([3.0, 3.0, 3.0], [0.9, 0.91, 0.92])


def test_fits_invariant_under_reordering(rng):
    x = rng.uniform(1.0, 10.0, 12)
    y = 2.0 * x + 1.0 + rng.normal(0, 0.1, 12)
    perm = rng.permutation(12)
    a = fit_linear(x, y)
    b = fit_linear(x[perm], y[perm])
    assert a.coefficients == pytest.approx(b.coefficients, rel=1e-12)
    yp = np.abs(y) + 0.5
    a = fit_power_law(x, yp)
    b = fit_power_law(x[perm], yp[perm])
    assert a.coefficients == pytest.approx(b.coefficients, rel=1e-12)


# ----------------------------------------------------------------- sweeps


def test_gamma_sweep_small_chain():
    sweep = gamma_sweep(GraphSpec.chain(2), 1.0, [0.1, 1.0, 10.0, 100.0])
    assert sweep.status == ["ok"] * 4
    assert np.all(np.diff(sweep.fidelity) > 0)
    assert np.all(np.isfinite(sweep.gap))
    # the witness identity holds pointwise on unit-trace steady states
    assert np.abs(sweep.witness - (0.5 - sweep.fidelity)).max() <= 1e-12


def test_gamma_sweep_without_gap_matches():
    grid = [0.5, 5.0, 50.0]
    full = gamma_sweep(GraphSpec.chain(2), 1.0, grid, compute_gap=True)
    fast = gamma_sweep(GraphSpec.chain(2), 1.0, grid, compute_gap=False)
    assert np.abs(full.fidelity - fast.fidelity).max() <= 1e-9
    assert np.all(np.isnan(fast.gap))
    model = PumpModel(GraphSpec.chain(2), 1.0, 1.0)
    for gamma, gap in zip(grid, full.gap):
        assert gap == pytest.approx(solver.full_spectrum(model.liouvillian(gamma)).gap, rel=1e-10)


def test_gamma_sweep_witness_sign_change_n3():
    grid = np.geomspace(0.1, 400.0, 12)
    sweep = gamma_sweep(GraphSpec.chain(3), 1.0, grid, compute_gap=False)
    assert sweep.witness[0] > 0
    assert sweep.witness[-1] < -0.45


def test_gamma_sweep_is_deterministic():
    grid = np.geomspace(0.5, 50.0, 5)
    a = gamma_sweep(GraphSpec.chain(2), 1.0, grid, compute_gap=False)
    b = gamma_sweep(GraphSpec.chain(2), 1.0, grid, compute_gap=False)
    assert np.array_equal(a.fidelity, b.fidelity)
    assert np.array_equal(a.witness, b.witness)


@pytest.mark.parametrize("compute_gap", [True, False])
def test_gamma_sweep_marks_degenerate_kernel_failed(compute_gap):
    # gamma = 0 has no unique steady state; the point fails on the spectral
    # and on the direct path alike, the rest stand
    for n in (2, 3):
        sweep = gamma_sweep(GraphSpec.chain(n), 1.0, [0.0, 1.0], compute_gap=compute_gap)
        assert "degenerate kernel" in sweep.status[0] and sweep.status[1] == "ok"
        assert np.isnan(sweep.fidelity[0]) and np.isfinite(sweep.fidelity[1])


def test_gamma_sweep_marks_non_hermitian_point_failed(monkeypatch):
    # a steady state whose fidelity has an imaginary part fails its point only
    solve = PumpModel.support_steady_states

    def skewed(self, gammas):
        for gamma, (rho, antihermitian, error) in zip(gammas, solve(self, gammas)):
            yield (rho + 0.1j * np.eye(rho.shape[0]) if gamma == 2.0 else rho), antihermitian, error

    monkeypatch.setattr(PumpModel, "support_steady_states", skewed)
    sweep = gamma_sweep(GraphSpec.chain(2), 1.0, [1.0, 2.0, 4.0], compute_gap=False)
    assert sweep.status[0] == sweep.status[2] == "ok"
    assert "imaginary part" in sweep.status[1] and np.isnan(sweep.fidelity[1])


ACCEPTANCE_GRAPHS = [GraphSpec.chain(n) for n in range(2, 7)] + [GraphSpec.grid(2, 2), GraphSpec.grid(2, 3)]


@settings(max_examples=40, deadline=None)
@given(graph=st.sampled_from(ACCEPTANCE_GRAPHS), h=st.floats(min_value=-2.0, max_value=2.0))
def test_steady_state_fidelity_is_monotone_in_gamma(graph, h):
    # stronger pumping never lowers the steady-state fidelity
    sweep = gamma_sweep(graph, h, np.geomspace(0.05, 1e4, 40), compute_gap=False)
    assert sweep.status == ["ok"] * 40
    assert np.all(np.diff(sweep.fidelity) >= 0)


def test_gamma_sweep_rejects_unsorted():
    with pytest.raises(ValueError):
        gamma_sweep(GraphSpec.chain(2), 1.0, [1.0, 0.5])


def test_gamma_sweep_rejects_a_zero_coupling():
    with pytest.raises(ValueError, match="sweeps are parameterized by h/g and gamma/g; g must be nonzero"):
        gamma_sweep(GraphSpec.chain(2), 1.0, [0.5, 1.0], g=0.0)


def test_size_guard():
    # the dense generator refuses N > MAX_DENSE_QUBITS, and so do gaps, by
    # the work of their secular equation; the model, whose steady states
    # need no generator, refuses N > MAX_MODEL_QUBITS before building
    # anything
    model = PumpModel(GraphSpec.chain(MAX_DENSE_QUBITS + 1), 1.0, 1.0)
    with pytest.raises(ValueError, match="dense-solver guard .*GiB"):
        model.liouvillian(1.0)
    with pytest.raises(ValueError, match="model guard .*GiB"):
        PumpModel(GraphSpec.chain(MAX_MODEL_QUBITS + 1), 1.0, 1.0)
    with pytest.raises(ValueError, match="spectrum guard .*poles.*Aberth sweep"):
        gamma_sweep(GraphSpec.chain(8), 1.0, [1.0])
    with pytest.raises(ValueError, match="GiB"):
        gamma_sweep(GraphSpec.chain(MAX_MODEL_QUBITS + 1), 1.0, [1.0], compute_gap=False)
    with pytest.raises(ValueError, match="spectrum guard .*poles.*Aberth sweep"):
        size_scaling_study([2, 8], h_g=1.0)


# ----------------------------------------------------------------- policies & study


def test_parse_gamma_policy():
    grid = parse_gamma_policy("log:1:100:3")
    assert grid == pytest.approx([1.0, 10.0, 100.0])
    grid = parse_gamma_policy("lin:0:4:5")
    assert grid == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])
    for bad in ("geom:1:2:3", "log:1:2", "log:2:1:5", "log:0:1:5", "log:1:10:1", "lin:1:inf:3",
                "lin:-inf:1:3", "log:nan:10:3"):
        with pytest.raises(ValueError):
            parse_gamma_policy(bad)


def test_size_scaling_study_small():
    study = size_scaling_study([2, 3], h_g=0.5, gamma_policy="log:0.5:600:24")
    assert [r.n for r in study.rows] == [2, 3]
    # gamma_sat comes from the public sweep of each chain
    grid = parse_gamma_policy("log:0.5:600:24")
    for row in study.rows:
        sweep = gamma_sweep(GraphSpec.chain(row.n), 0.5, grid, compute_gap=False)
        assert row.gamma_sat == detect_gamma_sat(sweep)
    assert study.rows[1].gamma_sat > study.rows[0].gamma_sat
    assert study.fits["gamma_sat_linear"].coefficients[0] > 0
    for row in study.rows:
        assert 0.97 <= row.f_sat <= 1.0
        assert row.gap_weak > 0
    # both gaps are evaluated at one common strong dissipation, so they are
    # dominated by gamma/2 and nearly size-independent
    assert study.strong_gamma == max(r.gamma_sat for r in study.rows)
    assert abs(study.fits["gap_strong_power_law"].coefficients[0]) <= 0.05


def test_size_scaling_study_diagonalizes_each_hamiltonian_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    size_scaling_study([2, 3, 4], h_g=0.5, gamma_policy="log:0.5:600:24")
    # each H once, as its two parity-sector blocks
    assert calls == [(2, 2), (2, 2), (4, 4), (4, 4), (8, 8), (8, 8)]


def test_gaps_need_no_superoperator(monkeypatch):
    # scaling studies and gap sweeps take their gaps from PumpModel.gap
    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(PumpModel, "liouvillian", counted("liouvillian", PumpModel.liouvillian))
    monkeypatch.setattr(solver, "full_spectrum", counted("full_spectrum", solver.full_spectrum))
    study = size_scaling_study([2, 3, 4], h_g=0.5, gamma_policy="log:0.5:600:24")
    sweep = gamma_sweep(GraphSpec.chain(3), 1.0, [0.5, 5.0, 50.0], compute_gap=True)
    assert calls == []
    assert all(row.gap_weak > 0 and row.gap_strong > 0 for row in study.rows)
    assert sweep.status == ["ok"] * 3 and np.all(sweep.gap > 0)


def test_gamma_sweep_reuses_a_matching_model():
    model = PumpModel(GraphSpec.chain(3), -1.0, 0.5)
    grid = [1.0, 10.0]
    from_model = gamma_sweep(model, 0.5, grid, compute_gap=False, g=-1.0)
    from_graph = gamma_sweep(GraphSpec.chain(3), 0.5, grid, compute_gap=False, g=-1.0)
    assert np.array_equal(from_model.fidelity, from_graph.fidelity)
    with pytest.raises(ValueError, match="the sweep asks for g = 1.0, h = 0.5"):
        gamma_sweep(model, 0.5, grid, compute_gap=False)


def test_gamma_sweep_forms_no_dense_state():
    # fidelity and witness are read off the steady state on the target's
    # support: a chain:10 sweep traces less than one complex d x d array
    # (16 MiB) beyond the cached eigenbasis, which forming each point's
    # d x d state exceeds (53 MiB)
    model = PumpModel(GraphSpec.chain(10), 1.0, 1.0)
    model.eigenbasis
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sweep = gamma_sweep(model, 1.0, np.geomspace(1.0, 100.0, 4), compute_gap=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sweep.status == ["ok"] * 4
    assert peak - start < 16 * 4**10
