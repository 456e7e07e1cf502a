import numpy as np
import pytest

from clusterpump.cluster import GraphSpec, cluster_state, orthogonal_basis, plus_state, state_from_bits
from clusterpump.errors import NumericalError
from clusterpump.lindblad import PumpModel
from clusterpump.observables import (
    fidelity,
    kernel_observables,
    pure_state_spins,
    spin_expectations,
    witness_expectation,
)
from clusterpump.operators import PauliString, pauli_to_dense
from clusterpump.solver import pure_state_density
from conftest import random_density_matrix


def test_fidelity_of_target_is_one():
    c = cluster_state(GraphSpec.chain(3))
    assert fidelity(pure_state_density(c), c) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_of_orthogonal_state_is_zero():
    g = GraphSpec.chain(2)
    rho = pure_state_density(orthogonal_basis(g)[0])
    assert fidelity(rho, cluster_state(g)) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_of_maximally_mixed():
    c = cluster_state(GraphSpec.chain(2))
    assert fidelity(np.eye(4, dtype=complex) / 4, c) == pytest.approx(0.25, abs=1e-12)


def test_fidelity_uses_trace_denominator():
    c = cluster_state(GraphSpec.chain(2))
    rho = 3.0 * pure_state_density(c)  # unnormalized
    assert fidelity(rho, c) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_rejects_traceless():
    c = cluster_state(GraphSpec.chain(2))
    with pytest.raises(ValueError):
        fidelity(np.zeros((4, 4), dtype=complex), c)


def test_fidelity_of_non_hermitian_matrix_is_numerical_error():
    # unit trace, but <C|rho|C> = 1/4 + 0.075i: a numerical failure, not a bad input
    c = cluster_state(GraphSpec.chain(2))
    rho = np.eye(4) / 4 + 0.1j * (pure_state_density(c) - np.eye(4) / 4)
    with pytest.raises(NumericalError, match="imaginary part"):
        fidelity(rho, c)


def test_fidelity_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        fidelity(np.eye(4) / 4, plus_state(3))


def test_fidelity_is_affine(rng):
    c = cluster_state(GraphSpec.chain(2))
    rho1 = random_density_matrix(rng, 4)
    rho2 = random_density_matrix(rng, 4)
    for p in (0.0, 0.3, 1.0):
        mixed = p * rho1 + (1 - p) * rho2
        expected = p * fidelity(rho1, c) + (1 - p) * fidelity(rho2, c)
        assert fidelity(mixed, c) == pytest.approx(expected, abs=1e-12)


def test_witness_on_target():
    c = cluster_state(GraphSpec.chain(3))
    assert witness_expectation(pure_state_density(c), c) == pytest.approx(-0.5, abs=1e-12)


def test_witness_on_maximally_mixed_n2():
    c = cluster_state(GraphSpec.chain(2))
    assert witness_expectation(np.eye(4, dtype=complex) / 4, c) == pytest.approx(0.25, abs=1e-12)


def test_witness_on_all_zeros_n4():
    # |<C|0000>|^2 = (1/4)^2 for the chain-4 cluster state
    c = cluster_state(GraphSpec.chain(4))
    rho = pure_state_density(state_from_bits([0, 0, 0, 0]))
    assert witness_expectation(rho, c) == pytest.approx(0.5 - 1.0 / 16.0, abs=1e-12)


def test_witness_eta_parameter():
    c = cluster_state(GraphSpec.chain(2))
    rho = np.eye(4, dtype=complex) / 4
    assert witness_expectation(rho, c, eta=1.0) == pytest.approx(0.75, abs=1e-12)


def test_witness_equals_eta_minus_fidelity(rng):
    c = cluster_state(GraphSpec.chain(3))
    rho = random_density_matrix(rng, 8)
    w = witness_expectation(rho, c)
    assert w == pytest.approx(0.5 - fidelity(rho, c), abs=1e-12)


def test_spin_expectations_cluster_state():
    rho = pure_state_density(cluster_state(GraphSpec.chain(3)))
    spins = spin_expectations(rho)
    assert np.abs(spins.as_array()).max() <= 1e-12


def test_spin_expectations_product_states():
    n = 3
    plus = pure_state_density(plus_state(n))
    assert spin_expectations(plus).as_array() == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
    zeros = pure_state_density(state_from_bits([0] * n))
    assert spin_expectations(zeros).as_array() == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)


def test_spin_expectations_real_for_hermitian(rng):
    rho = random_density_matrix(rng, 8)
    spins = spin_expectations(rho).as_array()
    assert np.all(np.isfinite(spins))
    assert np.abs(spins).max() <= 1.0 + 1e-9


@pytest.mark.parametrize("n", range(1, 7))
def test_spin_expectations_match_dense_pauli_traces(rng, n):
    rho = random_density_matrix(rng, 2**n)
    expected = [
        sum(np.trace(rho @ pauli_to_dense(PauliString(n, {k: alpha}))).real for k in range(n)) / n
        for alpha in "XYZ"
    ]
    assert np.abs(spin_expectations(rho).as_array() - expected).max() <= 1e-14


@pytest.mark.parametrize("graph", [GraphSpec.chain(3), GraphSpec.grid(2, 2), GraphSpec(3, ((0, 1),))],
                         ids=["chain:3", "square:2x2", "isolated:3"])
def test_pure_state_spins_equal_those_of_the_density_matrix(rng, graph):
    # bit-identical: the same products, read where they are needed
    d = 2**graph.n_qubits
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    for state in (cluster_state(graph), psi / np.linalg.norm(psi)):
        assert pure_state_spins(state) == spin_expectations(pure_state_density(state))


@pytest.mark.parametrize("gamma", [0.0, 5.0, 600.0])
@pytest.mark.parametrize(
    "graph",
    [GraphSpec.chain(3), GraphSpec.grid(2, 2), GraphSpec(3, ((0, 1),)), GraphSpec.chain(5)],
    ids=["chain:3", "square:2x2", "isolated:3", "chain:5"],
)
def test_kernel_observables_match_the_transformed_back_matrices(rng, graph, gamma):
    # the overlap is Tr rho - Tr(Q rho) from the step's own q weights, which
    # read the O diagonal too (|O| = 12 at chain:5); the target itself and a
    # state near it put the fidelity at and near 1
    kernel = PumpModel(graph, 1.0, 0.9).kernel_step(gamma)
    target = cluster_state(graph)
    d = 2**graph.n_qubits
    rhos = [random_density_matrix(rng, d) for _ in range(4)]
    rhos += [pure_state_density(target), 0.999 * pure_state_density(target) + 0.001 * rhos[0]]
    states = np.array([kernel.start(rho) for rho in rhos])
    rows = kernel_observables(states, kernel, eta=0.3)
    expected = [
        [*spin_expectations(rho).as_array(), fidelity(rho, target), witness_expectation(rho, target, eta=0.3)]
        for rho in rhos
    ]
    assert np.abs(rows - np.array(expected)).max() <= 1e-13
