import numpy as np
import pytest

from clusterpump.operators import PauliString, pauli_to_dense, site_flips


def test_single_site_z():
    p = PauliString(1, {0: "Z"})
    assert np.array_equal(pauli_to_dense(p), np.diag([1.0, -1.0]).astype(complex))


def test_two_site_x_z():
    p = PauliString(2, {0: "X", 1: "Z"})
    dense = pauli_to_dense(p)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = 1.0
    expected[1, 3] = -1.0
    expected[2, 0] = 1.0
    expected[3, 1] = -1.0
    assert np.allclose(dense, expected, atol=0)


def test_empty_string_is_identity():
    p = PauliString(2, {})
    assert np.array_equal(pauli_to_dense(p), np.eye(4, dtype=complex))


def test_site_zero_is_most_significant():
    # Z on site 0 of two qubits: sign follows the leading bit of the index.
    dense = pauli_to_dense(PauliString(2, {0: "Z"}))
    assert np.array_equal(np.diag(dense), np.array([1, 1, -1, -1], dtype=complex))


def test_site_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        PauliString(2, {2: "X"})


def test_bad_letter_rejected():
    with pytest.raises(ValueError, match="letter"):
        PauliString(1, {0: "W"})


def test_empty_register_rejected():
    with pytest.raises(ValueError, match="n_qubits must be positive, got 0"):
        PauliString(0, {})


@pytest.mark.parametrize("dim", [3, 6, 12])
def test_site_flips_rejects_a_dimension_not_a_power_of_two(dim):
    with pytest.raises(ValueError, match=f"dimension {dim} is not a power of two"):
        site_flips(dim)


@pytest.mark.parametrize("letter", ["X", "Y", "Z"])
def test_pauli_squares_to_identity(letter):
    dense = pauli_to_dense(PauliString(3, {1: letter}))
    assert np.allclose(dense @ dense, np.eye(8), atol=1e-14)


def test_disjoint_support_multiplicativity(rng):
    # dense(p*q) = dense(p) dense(q) when supports do not overlap
    p = PauliString(4, {0: "X", 2: "Y"})
    q = PauliString(4, {1: "Z", 3: "X"})
    merged = PauliString(4, {**p.letters, **q.letters})
    assert np.allclose(
        pauli_to_dense(merged), pauli_to_dense(p) @ pauli_to_dense(q), atol=1e-14
    )

