import json

import numpy as np
import pytest

from clusterpump.cluster import (
    GraphSpec,
    apply_cz,
    cluster_state,
    orthogonal_basis,
    plus_state,
    stabilizers,
    state_from_bits,
)
from clusterpump.observables import spin_expectations
from clusterpump.operators import PauliString, pauli_to_dense
from clusterpump.solver import pure_state_density

SQUARE = GraphSpec(4, ((0, 1), (0, 2), (1, 3), (2, 3)))


# ----------------------------------------------------------------- GraphSpec


def test_graph_normalizes_edges():
    g = GraphSpec(3, ((2, 1), (1, 0)))
    assert g.edges == ((0, 1), (1, 2))


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        GraphSpec(2, ((1, 1),))


def test_graph_rejects_duplicate():
    with pytest.raises(ValueError, match="duplicate"):
        GraphSpec(3, ((0, 1), (1, 0)))


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        GraphSpec(2, ((0, 2),))


def test_chain_and_grid_builders():
    assert GraphSpec.chain(4).edges == ((0, 1), (1, 2), (2, 3))
    assert GraphSpec.grid(2, 2).edges == SQUARE.edges


def test_graph_json_roundtrip():
    g = GraphSpec.chain(5)
    text = json.dumps({"n": g.n_qubits, "edges": [list(e) for e in g.edges]})
    assert GraphSpec.from_json(text) == g


def test_neighbors():
    assert GraphSpec.chain(4).neighbors(1) == (0, 2)
    assert SQUARE.neighbors(0) == (1, 2)


# ----------------------------------------------------------------- states


def test_plus_state_small():
    assert np.allclose(plus_state(1), np.full(2, 1 / np.sqrt(2)), atol=1e-15)
    assert np.allclose(plus_state(2), np.full(4, 0.5), atol=1e-15)
    assert np.allclose(plus_state(4), np.full(16, 0.25), atol=1e-15)


def test_plus_state_rejects_nonpositive():
    with pytest.raises(ValueError):
        plus_state(0)


def test_apply_cz_defining_action():
    # |11> picks up a sign, |10> does not
    assert np.allclose(apply_cz(state_from_bits([1, 1]), 0, 1), -state_from_bits([1, 1]), atol=0)
    assert np.allclose(apply_cz(state_from_bits([1, 0]), 0, 1), state_from_bits([1, 0]), atol=0)


def test_apply_cz_is_involution(rng):
    state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    state /= np.linalg.norm(state)
    assert np.allclose(apply_cz(apply_cz(state, 0, 2), 0, 2), state, atol=0)


def test_apply_cz_rejects_bad_sites():
    with pytest.raises(ValueError):
        apply_cz(plus_state(2), 0, 2)
    with pytest.raises(ValueError):
        apply_cz(plus_state(2), 1, 1)


def test_single_qubit_cluster_is_plus():
    assert np.allclose(cluster_state(GraphSpec(1, ())), plus_state(1), atol=0)


def test_chain4_amplitudes():
    # CZ along the chain edges only flips signs: every amplitude keeps
    # magnitude 2^(-N/2), with sign (-1)^(number of edges with both bits set).
    state = cluster_state(GraphSpec.chain(4))
    for x in range(16):
        bits = [(x >> (3 - m)) & 1 for m in range(4)]
        sign = (-1) ** sum(bits[j] * bits[k] for j, k in ((0, 1), (1, 2), (2, 3)))
        assert state[x] == pytest.approx(sign * 0.25, abs=1e-15)


def test_cluster_state_edge_order_independent():
    g1 = GraphSpec(4, ((0, 1), (1, 2), (2, 3)))
    state1 = cluster_state(g1)
    state2 = plus_state(4)
    for j, k in ((2, 3), (0, 1), (1, 2)):
        state2 = apply_cz(state2, j, k)
    assert np.array_equal(state1, state2)


# ----------------------------------------------------------------- stabilizers


def test_chain_stabilizer_letters():
    stabs = stabilizers(GraphSpec.chain(4))
    assert stabs[0].letters == {0: "X", 1: "Z"}
    assert stabs[1].letters == {0: "Z", 1: "X", 2: "Z"}
    assert stabs[3].letters == {2: "Z", 3: "X"}


def test_square_stabilizer_letters():
    stabs = stabilizers(SQUARE)
    assert stabs[0].letters == {0: "X", 1: "Z", 2: "Z"}
    assert stabs[3].letters == {3: "X", 1: "Z", 2: "Z"}


@pytest.mark.parametrize("graph", [GraphSpec.chain(n) for n in range(2, 7)] + [SQUARE])
def test_stabilizers_fix_cluster_state(graph):
    state = cluster_state(graph)
    for s in stabilizers(graph):
        assert np.linalg.norm(pauli_to_dense(s) @ state - state, np.inf) <= 1e-12


@pytest.mark.parametrize("graph", [GraphSpec.chain(n) for n in range(2, 6)] + [SQUARE])
def test_zero_local_expectations(graph):
    spins = spin_expectations(pure_state_density(cluster_state(graph)))
    assert np.abs(spins.as_array()).max() <= 1e-12


def test_square_cluster_stabilized_by_x0z1z2():
    state = cluster_state(SQUARE)
    op = pauli_to_dense(stabilizers(SQUARE)[0])
    assert np.allclose(op @ state, state, atol=1e-12)


# ----------------------------------------------------------------- orthogonal basis


@pytest.mark.parametrize("graph", [GraphSpec.chain(2), GraphSpec.chain(3), SQUARE])
def test_orthogonal_basis_properties(graph):
    basis = orthogonal_basis(graph)
    dim = 2**graph.n_qubits
    assert basis.shape == (dim - 1, dim)
    # orthogonal to the target
    assert np.abs(basis @ cluster_state(graph).conj()).max() <= 1e-12
    # orthonormal among themselves
    gram = basis @ basis.conj().T
    assert np.abs(gram - np.eye(dim - 1)).max() <= 1e-12


def test_orthogonal_basis_n2_has_three_states():
    assert orthogonal_basis(GraphSpec.chain(2)).shape[0] == 3


def test_orthogonal_basis_n3_inner_products():
    # direct inner products against the cluster state, all seven of them
    g = GraphSpec.chain(3)
    basis = orthogonal_basis(g)
    target = cluster_state(g)
    for phi in basis:
        assert abs(np.vdot(phi, target)) <= 1e-12


def test_completeness(rng):
    g = GraphSpec.chain(3)
    basis = orthogonal_basis(g)
    total = basis.conj().T @ basis + pure_state_density(cluster_state(g))
    assert np.abs(total - np.eye(8)).max() <= 1e-12


def test_orthogonal_basis_is_z_string_ordered():
    # state s (as an integer, site 0 most significant) is the Z-pattern-s
    # image of the target
    g = GraphSpec.chain(3)
    basis = orthogonal_basis(g)
    target = cluster_state(g)
    for s in (1, 5, 7):
        letters = {m: "Z" for m in range(3) if (s >> (2 - m)) & 1}
        expected = pauli_to_dense(PauliString(3, letters)) @ target
        assert np.abs(basis[s - 1] - expected).max() <= 1e-12


def test_graph_json_must_be_an_object():
    # a JSON file may hold any value; only an object is a graph
    for text in ("[[0, 1]]", "3", "null"):
        with pytest.raises(ValueError, match="a graph is a JSON object"):
            GraphSpec.from_json(text)
