import numpy as np
import pytest

from clusterpump.cluster import GraphSpec, cluster_state, orthogonal_basis, plus_state
from clusterpump.errors import NumericalError
from clusterpump.lindblad import (
    ModelParams,
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
from conftest import random_density_matrix


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
    L = liouvillian(np.zeros((8, 8), dtype=complex), stabilizer_jumps(g), 1.0)
    try:
        spec = full_spectrum(L)
        assert spec.kernel_dim > 1
    except NumericalError as exc:
        # a traceless kernel vector may be picked first; the kernel dimension
        # is still reported
        assert exc.kernel_dim > 1


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
    rho_direct = steady_state_direct(L)
    rho_eig = full_spectrum(L).steady_state
    assert np.abs(rho_direct - rho_eig).max() <= 1e-8


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
