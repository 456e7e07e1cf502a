import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterpump.errors import NumericalError
from clusterpump.lindblad import ModelParams
from clusterpump.meanfield import (
    MeanFieldState,
    _rhs,
    default_dt,
    fixed_points,
    jacobian,
    mean_field_evolve,
    mean_field_rhs,
)
from clusterpump.solver import Trajectory


def residual(state, params):
    return np.abs(mean_field_rhs(state, params).as_array()).max()


# ----------------------------------------------------------------- rhs


def test_origin_is_always_an_equilibrium():
    p = ModelParams(g=1.0, h=0.7, gamma=2.3)
    assert residual(MeanFieldState(0.0, 0.0, 0.0), p) == 0.0


def test_x_polarized_states_are_equilibria_without_dissipation():
    for h in (0.0, 1.0, 3.0):
        p = ModelParams(g=1.0, h=h, gamma=0.0)
        assert residual(MeanFieldState(1.0, 0.0, 0.0), p) == 0.0
        assert residual(MeanFieldState(-1.0, 0.0, 0.0), p) == 0.0


def test_rhs_values():
    p = ModelParams(g=1.0, h=2.0, gamma=3.0)
    d = mean_field_rhs(MeanFieldState(0.1, 0.2, 0.3), p)
    assert d.jx == pytest.approx(-4 * 0.2 * 0.3 - 3 * 0.1)
    assert d.jy == pytest.approx(4 * 0.1 * 0.3 - 2 * 2.0 * 0.3 - 3 * 0.2)
    assert d.jz == pytest.approx(-2 * 2.0 * 0.2 - 3 * 0.3)


def test_s4_formula_is_exact_equilibrium():
    # q = sqrt(4 h^2 - gamma^2) = sqrt(3) at g = h = gamma = 1
    p = ModelParams(g=1.0, h=1.0, gamma=1.0)
    q = math.sqrt(3.0)
    state = MeanFieldState(3.0 / 8.0, q / 8.0, -q / 4.0)
    assert residual(state, p) <= 1e-12
    mirror = MeanFieldState(3.0 / 8.0, -q / 8.0, q / 4.0)
    assert residual(mirror, p) <= 1e-12


def test_jacobian_matches_finite_differences(rng):
    p = ModelParams(g=1.3, h=0.7, gamma=0.9)
    s0 = rng.uniform(-1, 1, 3)
    jac = jacobian(MeanFieldState.from_array(s0), p)
    eps = 1e-7
    for col in range(3):
        dv = np.zeros(3)
        dv[col] = eps
        fd = (_rhs(s0 + dv, p.g, p.h, p.gamma) - _rhs(s0 - dv, p.g, p.h, p.gamma)) / (2 * eps)
        assert np.abs(jac[:, col] - fd).max() <= 1e-6


# ----------------------------------------------------------------- fixed points


def test_branches_without_dissipation_large_field():
    points = fixed_points(ModelParams(g=1.0, h=3.0, gamma=0.0))
    labels = {fp.label for fp in points}
    assert labels == {"s1_plus", "s1_minus"}
    for fp in points:
        assert fp.state.jz == 0.0


def test_branches_without_dissipation_small_field():
    points = fixed_points(ModelParams(g=1.0, h=1.0, gamma=0.0))
    labels = {fp.label for fp in points}
    assert labels == {"s1_plus", "s1_minus", "s2_plus", "s2_minus"}
    by_label = {fp.label: fp.state for fp in points}
    assert by_label["s2_plus"].jx == pytest.approx(0.5)
    assert by_label["s2_plus"].jz == pytest.approx(math.sqrt(0.75))
    assert by_label["s2_minus"].jz == pytest.approx(-math.sqrt(0.75))


def test_origin_branch_strong_dissipation():
    points = fixed_points(ModelParams(g=1.0, h=1.0, gamma=5.0))
    assert [fp.label for fp in points] == ["s3"]
    assert points[0].stable


def test_s4_branches_weak_dissipation():
    points = fixed_points(ModelParams(g=1.0, h=1.0, gamma=1.0))
    labels = [fp.label for fp in points]
    assert labels == ["s4_plus", "s4_minus"]
    for fp in points:
        assert fp.state.jz != 0.0
        assert residual(fp.state, ModelParams(g=1.0, h=1.0, gamma=1.0)) <= 1e-10


def test_all_returned_points_are_equilibria():
    for h_g in (0.3, 1.0, 1.7):
        for gamma_g in (0.0, 0.5, 1.0, 3.0, 6.0):
            p = ModelParams(g=1.0, h=h_g, gamma=gamma_g)
            for fp in fixed_points(p):
                assert residual(fp.state, p) <= 1e-10, (h_g, gamma_g, fp.label)


def test_s2_branch_closes_continuously_at_the_boundary():
    # |h_g| = 2: the ordered branch reaches jz = 0 and disappears beyond
    points = fixed_points(ModelParams(g=1.0, h=2.0, gamma=0.0))
    by_label = {fp.label: fp.state for fp in points}
    assert by_label["s2_plus"].jz == pytest.approx(0.0, abs=1e-12)
    beyond = fixed_points(ModelParams(g=1.0, h=2.0001, gamma=0.0))
    assert {fp.label for fp in beyond} == {"s1_plus", "s1_minus"}


def test_stability_transition_at_twice_the_field():
    # sweeping gamma_g through 2 h_g flips the stable set
    h_g = 1.0
    below = fixed_points(ModelParams(g=1.0, h=h_g, gamma=1.95))
    above = fixed_points(ModelParams(g=1.0, h=h_g, gamma=2.05))
    assert {fp.label for fp in below} == {"s4_plus", "s4_minus"}
    assert [fp.label for fp in above] == ["s3"]
    assert above[0].stable


def test_fixed_points_requires_nonzero_g():
    with pytest.raises(ValueError):
        fixed_points(ModelParams(g=0.0, h=1.0, gamma=1.0))


SIGNED_GRID = [
    (g, h, gamma)
    for g in (1.0, -1.0, 2.5, -2.5)
    for h in (0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0)
    for gamma in (0.0, 0.5, 3.0, 7.0)
]


@pytest.mark.parametrize("g, h, gamma", SIGNED_GRID)
def test_fixed_points_at_every_sign(g, h, gamma):
    # the families at g > 0, h >= 0, read through g -> -g (Jx -> -Jx) and
    # h -> -h ((Jx, Jz) -> (-Jx, -Jz)), are equilibria at every sign
    p = ModelParams(g=g, h=h, gamma=gamma)
    points = fixed_points(p)
    for fp in points:
        assert residual(fp.state, p) <= 1e-12, fp
        norm = np.linalg.norm(fp.state.as_array())
        if fp.label.startswith("s4"):
            # |s4| = q / (2 sqrt 2), which leaves the unit ball for q^2 > 8
            q2 = (4.0 * h**2 - gamma**2) / g**2
            assert norm == pytest.approx(math.sqrt(q2 / 8.0), rel=1e-12), fp
            if q2 <= 8.0:
                assert norm <= 1.0 + 1e-12, fp
        else:
            assert norm <= 1.0 + 1e-12, fp
    labels = [fp.label for fp in points]
    if gamma == 0:
        # without dissipation the branches are those of the signed ratio h/g
        expected = {(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)}
        if abs(h / g) <= 2.0:
            jz = math.sqrt(1.0 - (h / g / 2.0) ** 2)
            expected |= {(h / g / 2.0, 0.0, jz), (h / g / 2.0, 0.0, -jz)}
        listed = {tuple(fp.state.as_array()) for fp in points}
        assert len(listed) == len(expected)
        for state in expected:
            assert min(np.abs(np.subtract(state, other)).max() for other in listed) <= 1e-15
    elif gamma >= 2.0 * abs(h):
        assert labels == ["s3"]
    else:
        assert labels == ["s4_plus", "s4_minus"]
    # a stable point holds a trajectory started next to it
    for fp in points:
        if fp.stable:
            start = MeanFieldState.from_array(fp.state.as_array() + 1e-3)
            traj = mean_field_evolve(start, p, t_final=5.0, dt=default_dt(p))
            dist = np.linalg.norm(traj.states - fp.state.as_array(), axis=1)
            assert dist.max() <= 1e-2 and dist[-1] <= 1e-3, fp


def test_default_dt_is_one_scale_of_every_rate():
    # at |g| = 1 and at g = 0 the step is 0.005 / max(1, |gamma|, |h|), as it
    # was when it read h and gamma relative to g; it is continuous at g = 0
    for g in (1.0, -1.0, 0.0):
        for h, gamma in ((0.5, 5.0), (-3.0, 0.2), (0.0, 0.0), (0.7, 1.0)):
            assert default_dt(ModelParams(g=g, h=h, gamma=gamma)) == 0.005 / max(1.0, abs(gamma), abs(h))
    assert default_dt(ModelParams(g=0.01, h=0.5, gamma=0.5)) == default_dt(ModelParams(g=0.0, h=0.5, gamma=0.5))
    assert default_dt(ModelParams(g=-100.0, h=1.0, gamma=1.0)) == 0.005 / 100.0


@pytest.mark.parametrize("g", [100.0, -100.0])
def test_default_dt_resolves_a_strong_coupling(g):
    # at h = gamma = 0 the flow keeps |s|; the default step must resolve the
    # coupling's rate 4 |g| |s| to keep it
    p = ModelParams(g=g, h=0.0, gamma=0.0)
    traj = mean_field_evolve(MeanFieldState(0.3, -0.4, 0.5), p, t_final=1.0, dt=default_dt(p))
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.abs(norms - math.sqrt(0.5)).max() <= 1e-9


# ----------------------------------------------------------------- evolution


def test_strong_dissipation_converges_to_origin():
    p = ModelParams(g=1.0, h=1.0, gamma=5.0)
    traj = mean_field_evolve(MeanFieldState(0.9, 0.1, 0.1), p, t_final=20.0, dt=default_dt(p))
    assert np.abs(traj.states[-1]).max() <= 1e-6


def test_equilibrium_stays_put():
    p = ModelParams(g=1.0, h=1.0, gamma=3.0)
    traj = mean_field_evolve(MeanFieldState(0.0, 0.0, 0.0), p, t_final=5.0, dt=default_dt(p))
    assert np.abs(traj.states).max() == 0.0


def test_orbit_stays_near_ordered_branch_without_dissipation():
    # gamma = 0 flow is conservative: a state near the s2 branch keeps
    # circling it rather than escaping
    p = ModelParams(g=1.0, h=1.0, gamma=0.0)
    s2 = np.array([0.5, 0.0, math.sqrt(0.75)])
    traj = mean_field_evolve(MeanFieldState(0.52, 0.02, 0.79), p, t_final=20.0, dt=0.002)
    dist = np.linalg.norm(traj.states - s2, axis=1)
    assert dist.max() <= 0.15


def test_blowup_guard_raises():
    # the guard trips as soon as the state leaves the |s| <= 10 ball
    p = ModelParams(g=1.0, h=1.0, gamma=0.0)
    with pytest.raises(NumericalError, match="blow-up"):
        mean_field_evolve(MeanFieldState(9.0, -9.0, 9.0), p, t_final=10.0, dt=0.01)


def test_blowup_guard_catches_nan():
    # a step so large that the state overflows to inf - inf = NaN, whose
    # norm compares False against any bound
    p = ModelParams(g=1.0, h=1.0, gamma=0.0)
    with pytest.raises(NumericalError, match="blow-up"):
        mean_field_evolve(MeanFieldState(0.1, 0.1, 0.1), p, t_final=1e151, dt=1e150)


def array_rk4(s0, p, t_final, dt, sample_every):
    """Plain numpy-array RK4 of ``_rhs``, sampled as ``solver.rk4`` samples."""
    n_steps = 0 if t_final == 0 else max(1, math.ceil(t_final / dt - 1e-12))
    h = t_final / n_steps if n_steps else 0.0
    y = s0.as_array().astype(float)
    times, states = [0.0], [y]
    for k in range(1, n_steps + 1):
        k1 = _rhs(y, p.g, p.h, p.gamma)
        k2 = _rhs(y + 0.5 * h * k1, p.g, p.h, p.gamma)
        k3 = _rhs(y + 0.5 * h * k2, p.g, p.h, p.gamma)
        k4 = _rhs(y + h * k3, p.g, p.h, p.gamma)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % sample_every == 0 or k == n_steps:
            times.append(k * h)
            states.append(y)
    return np.array(times), np.array(states)


@pytest.mark.parametrize(
    "gamma, t_final, dt, sample_every",
    [(0.0, 2.0, 0.01, 1), (5.0, 1.037, 0.01, 1), (0.7, 3.3, 0.004, 7), (0.0, 0.95, 0.1, 4)],
    ids=["gamma0", "ragged_t_final", "sampled", "gamma0_ragged_sampled"],
)
def test_evolve_is_bit_identical_to_array_rk4(gamma, t_final, dt, sample_every):
    # the float step performs the array formula's operations in its order
    p = ModelParams(g=1.0, h=0.92, gamma=gamma)
    s0 = MeanFieldState(0.3, -0.4, 0.5)
    traj = mean_field_evolve(s0, p, t_final, dt, sample_every)
    times, states = array_rk4(s0, p, t_final, dt, sample_every)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)


@settings(max_examples=40, deadline=None)
@given(
    s=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) <= 1.0),
    g=st.floats(-2.0, 2.0),
    h=st.floats(-2.0, 2.0),
    gamma=st.floats(0.0, 10.0),
    t_final=st.floats(0.0, 0.5),
    dt=st.floats(0.005, 0.05),
    sample_every=st.integers(1, 5),
)
def test_evolve_is_bit_identical_to_array_rk4_random(s, g, h, gamma, t_final, dt, sample_every):
    # |s| <= 1 grows at most by e^(2 |h| t) <= e^2 here, so no run meets the guard
    p = ModelParams(g=g, h=h, gamma=gamma)
    s0 = MeanFieldState(*s)
    traj = mean_field_evolve(s0, p, t_final, dt, sample_every)
    times, states = array_rk4(s0, p, t_final, dt, sample_every)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)


def test_trajectory_shape_and_sampling():
    p = ModelParams(g=1.0, h=1.0, gamma=1.0)
    traj = mean_field_evolve(MeanFieldState(0.1, 0.0, 0.0), p, t_final=1.0, dt=0.01, sample_every=10)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    assert isinstance(traj, Trajectory)
    assert traj.states.shape == (len(traj.times), 3)
