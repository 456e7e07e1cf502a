import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterpump.cluster import GraphSpec, cluster_state, orthogonal_basis, plus_state
from clusterpump.errors import NumericalError
from clusterpump.lindblad import (
    ModelParams,
    PumpModel,
    devectorize,
    hamiltonian,
    liouvillian,
    projection_jumps,
    stabilizer_jumps,
    vectorize,
)
from clusterpump.observables import fidelity, spin_expectations
from clusterpump.solver import (
    check_density_matrix,
    evolve_expm,
    evolve_rk4,
    full_spectrum,
    pure_state_density,
    steady_state_direct,
)
from conftest import random_density_matrix, random_graphs


def chain_liouvillian(n, h_g, gamma_g):
    g = GraphSpec.chain(n)
    ham = hamiltonian(g, ModelParams(g=1.0, h=h_g, gamma=0.0))
    return liouvillian(ham, projection_jumps(g), gamma_g)


def dissipation_only_liouvillian(n, gamma=1.0):
    g = GraphSpec.chain(n)
    dim = 2**n
    return liouvillian(np.zeros((dim, dim), dtype=complex), projection_jumps(g), gamma)


# ----------------------------------------------------------------- spectrum


def test_steady_state_strong_dissipation_n2():
    L = chain_liouvillian(2, h_g=1.0, gamma_g=100.0)
    spec = full_spectrum(L)
    target = cluster_state(GraphSpec.chain(2))
    assert fidelity(spec.steady_state, target) >= 0.99
    check_density_matrix(spec.steady_state, eig_floor=-1e-7)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pure_dissipation_kernel_is_target(n):
    L = dissipation_only_liouvillian(n)
    spec = full_spectrum(L)
    assert spec.kernel_dim == 1
    target_rho = pure_state_density(cluster_state(GraphSpec.chain(n)))
    assert np.abs(spec.steady_state - target_rho).max() <= 1e-8


def test_stabilizer_jumps_have_degenerate_kernel():
    g = GraphSpec.chain(3)
    cases = [
        (liouvillian(np.zeros((8, 8), dtype=complex), stabilizer_jumps(g), 1.0), 2),
        # without dissipation every diagonal of H's eigenbasis is stationary;
        # round-off must not rank an oscillating mode above the kernel
        (PumpModel(g, ModelParams(g=1.0, h=1.0, gamma=0.0)).liouvillian(0.0), 8),
    ]
    for L, min_dim in cases:
        # a degenerate kernel has no unique steady state; the error names it
        with pytest.raises(NumericalError, match="kernel_dim") as exc:
            full_spectrum(L)
        assert exc.value.kernel_dim >= min_dim
        # the direct solve must not pass off an arbitrary kernel vector either
        with pytest.raises(NumericalError, match="degenerate kernel"):
            steady_state_direct(L)


def test_eigenvalue_ordering():
    L = chain_liouvillian(2, h_g=1.0, gamma_g=2.0)
    vals = full_spectrum(L).eigenvalues
    assert np.all(np.diff(vals.real) <= 1e-12)


def test_steady_state_residual_invariant():
    L = chain_liouvillian(3, h_g=1.0, gamma_g=5.0)
    spec = full_spectrum(L)
    assert np.linalg.norm(L @ vectorize(spec.steady_state), np.inf) <= 1e-8


def test_no_population_in_orthogonal_states():
    g = GraphSpec.chain(3)
    L = dissipation_only_liouvillian(3, gamma=2.0)
    spec = full_spectrum(L)
    basis = orthogonal_basis(g)
    for phi in basis.states:
        assert abs(np.vdot(phi, spec.steady_state @ phi)) <= 1e-10


# ----------------------------------------------------------------- gap


def test_gap_pure_dissipation_analytic():
    # dissipator eigenvalues are 0, -gamma/2 (target coherences), -gamma:
    # the gap equals gamma/2
    for gamma in (1.0, 4.0):
        spec = full_spectrum(dissipation_only_liouvillian(2, gamma=gamma))
        assert spec.gap == pytest.approx(gamma / 2.0, abs=1e-10)


def test_gap_nonnegative_and_monotone_in_gamma():
    gaps = []
    for gamma in np.geomspace(0.1, 100.0, 7):
        spec = full_spectrum(chain_liouvillian(3, h_g=1.0, gamma_g=gamma))
        assert spec.gap >= 0.0
        gaps.append(spec.gap)
    assert np.all(np.diff(gaps) > 0)


# ----------------------------------------------------------------- direct solve


@pytest.mark.parametrize("gamma", [0.5, 5.0, 50.0])
def test_direct_steady_state_matches_spectrum(gamma):
    L = chain_liouvillian(3, h_g=1.0, gamma_g=gamma)
    L_before = L.copy()
    rho_direct = steady_state_direct(L)
    # the solve factorizes a private copy in place; the caller's L is untouched
    assert np.array_equal(L, L_before)
    rho_eig = full_spectrum(L).steady_state
    assert np.abs(rho_direct - rho_eig).max() <= 1e-8


@settings(max_examples=30, deadline=None)
@given(
    graph=random_graphs(),
    h=st.floats(min_value=-2.0, max_value=2.0),
    gamma=st.floats(min_value=0.1, max_value=1e3),
)
def test_direct_steady_state_on_random_graphs(graph, h, gamma):
    # any gamma > 0 has a unique steady state: no false degeneracy alarm, a
    # valid density matrix, and agreement with the eigendecomposition
    L = PumpModel(graph, ModelParams(g=1.0, h=h, gamma=0.0)).liouvillian(gamma)
    rho = steady_state_direct(L)
    check_density_matrix(rho)
    assert np.abs(rho - full_spectrum(L).steady_state).max() <= 1e-8


# ----------------------------------------------------------------- evolution


def test_rk4_static_when_generator_vanishes(rng):
    rho0 = random_density_matrix(rng, 4)
    L = np.zeros((16, 16), dtype=complex)
    traj = evolve_rk4(rho0, L, t_final=1.0, dt=0.1)
    assert np.abs(traj.states[-1] - rho0).max() <= 1e-15
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)


def test_rk4_preserves_trace_and_positivity(rng):
    L = chain_liouvillian(2, h_g=1.0, gamma_g=2.0)
    rho0 = random_density_matrix(rng, 4)
    traj = evolve_rk4(rho0, L, t_final=3.0, dt=0.005, sample_every=50)
    for rho in traj.states:
        assert abs(np.trace(rho) - 1.0) <= 1e-9
        herm = (rho + rho.conj().T) / 2
        assert np.linalg.eigvalsh(herm).min() >= -1e-7


def test_rk4_unstable_step_raises(rng):
    L = chain_liouvillian(2, h_g=1.0, gamma_g=50.0)
    rho0 = random_density_matrix(rng, 4)
    with pytest.raises(NumericalError, match="reduce dt"):
        evolve_rk4(rho0, L, t_final=5.0, dt=0.5)


def test_rk4_unbounded_entry_raises(rng):
    # L preserves the trace exactly, so only the entry bound sees this run blow
    # up (max |rho_ij| reaches about 8e3 by t = 0.7 without it)
    L = chain_liouvillian(2, h_g=1.0, gamma_g=50.0)
    rho0 = random_density_matrix(rng, 4)
    with pytest.raises(NumericalError, match="integration unstable, reduce dt"):
        evolve_rk4(rho0, L, t_final=0.7, dt=0.07)


def test_rk4_nan_state_raises(rng):
    rho0 = random_density_matrix(rng, 2)
    with pytest.raises(NumericalError, match="reduce dt"):
        evolve_rk4(rho0, np.full((4, 4), np.nan), t_final=0.1, dt=0.1)


def eigenbasis_vs_dense(graph, h, gamma, rho0, n_steps):
    """Largest deviation, over every sample, of the eigenbasis RK4 run
    (rotated back) from the dense RK4 run, at a step inside the stable region."""
    model = PumpModel(graph, ModelParams(g=1.0, h=h, gamma=gamma))
    energies, V, _ = model.eigenbasis
    dt = 1.0 / (gamma + np.ptp(energies) + 1.0)
    dense = evolve_rk4(rho0, model.liouvillian(gamma), n_steps * dt, dt, sample_every=3)
    eigen = evolve_rk4(V.T @ rho0 @ V, model.eigenbasis_generator(gamma), n_steps * dt, dt, 3)
    assert np.array_equal(dense.times, eigen.times)
    return float(np.abs(V @ eigen.states @ V.T - dense.states).max())


@pytest.mark.parametrize("gamma", [0.5, 5.0, 50.0])
@pytest.mark.parametrize(
    "graph",
    [GraphSpec.chain(2), GraphSpec.chain(3), GraphSpec.chain(4), GraphSpec.chain(5), GraphSpec.grid(2, 2)],
    ids=["chain:2", "chain:3", "chain:4", "chain:5", "square:2x2"],
)
def test_eigenbasis_rk4_matches_dense(rng, graph, gamma):
    rho0 = random_density_matrix(rng, 2**graph.n_qubits)
    assert eigenbasis_vs_dense(graph, 0.9, gamma, rho0, n_steps=30) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    graph=random_graphs(),
    h=st.floats(min_value=-2.0, max_value=2.0),
    gamma=st.floats(min_value=0.1, max_value=1e3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eigenbasis_rk4_matches_dense_on_random_graphs(graph, h, gamma, seed):
    rho0 = random_density_matrix(np.random.default_rng(seed), 2**graph.n_qubits)
    assert eigenbasis_vs_dense(graph, h, gamma, rho0, n_steps=12) <= 1e-12


def test_rk4_matches_expm(rng):
    L = chain_liouvillian(3, h_g=1.0, gamma_g=1.0)
    for _ in range(3):
        rho0 = random_density_matrix(rng, 8)
        traj = evolve_rk4(rho0, L, t_final=2.0, dt=0.01, sample_every=100)
        for t, rho in zip(traj.times, traj.states):
            expected = evolve_expm(rho0, L, t)
            assert np.abs(rho - expected).max() <= 1e-6


def test_expm_identity_at_zero_time(rng):
    rho0 = random_density_matrix(rng, 4)
    L = chain_liouvillian(2, h_g=1.0, gamma_g=1.0)
    assert np.array_equal(evolve_expm(rho0, L, 0.0), rho0)


def test_expm_exact_on_nilpotent_generator(rng):
    # L = u v^T with v^T u = 0 has L^2 = 0, so exp(L t) = I + L t, while its
    # only eigenvalue 0 is defective: L has no eigenbasis
    d = 3
    u, v = rng.standard_normal((2, d * d)) + 1j * rng.standard_normal((2, d * d))
    v -= (v @ u) / (u @ u) * u
    L = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
    assert np.abs(L @ L).max() <= 1e-15
    rho0 = random_density_matrix(rng, d)
    for t in (0.5, 3.0):
        expected = devectorize((np.eye(d * d) + L * t) @ vectorize(rho0))
        assert np.abs(evolve_expm(rho0, L, t) - expected).max() <= 1e-12


def test_expm_semigroup_property(rng):
    L = chain_liouvillian(2, h_g=0.5, gamma_g=1.5)
    rho0 = random_density_matrix(rng, 4)
    once = evolve_expm(rho0, L, 1.3)
    twice = evolve_expm(evolve_expm(rho0, L, 0.6), L, 0.7)
    assert np.abs(once - twice).max() <= 1e-8


def test_expm_long_time_reaches_steady_state():
    L = chain_liouvillian(2, h_g=1.0, gamma_g=20.0)
    spec = full_spectrum(L)
    target = cluster_state(GraphSpec.chain(2))
    rho0 = pure_state_density(plus_state(2))
    t_long = 50.0 / spec.gap
    rho_t = evolve_expm(rho0, L, t_long)
    assert abs(fidelity(rho_t, target) - fidelity(spec.steady_state, target)) <= 1e-3


def test_trajectories_forget_initial_state():
    # two very different initial states agree in averaged spins at late times
    n = 4
    L = chain_liouvillian(n, h_g=1.0, gamma_g=5.0)
    spec = full_spectrum(L)
    t_final = 10.0 / spec.gap
    rho_a = pure_state_density(plus_state(n))
    rho_b = np.zeros((16, 16), dtype=complex)
    rho_b[0, 0] = 1.0
    spins = []
    for rho0 in (rho_a, rho_b):
        traj = evolve_rk4(rho0, L, t_final, dt=0.002, sample_every=10**9)
        spins.append(spin_expectations(traj.states[-1]).as_array())
    assert np.abs(spins[0] - spins[1]).max() <= 0.02


def test_check_density_matrix_flags_bad_input():
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2, dtype=complex))
