import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from clusterpump import lindblad
from clusterpump.cluster import GraphSpec, cluster_state
from clusterpump.errors import NumericalError
from clusterpump.lindblad import (
    MAX_DENSE_QUBITS,
    SUPPORT_TOL,
    ModelParams,
    PumpModel,
    devectorize,
    hamiltonian,
    liouvillian,
    liouvillian_parts,
    projection_jumps,
    stabilizer_jumps,
    vectorize,
)
from clusterpump.operators import PauliString, pauli_to_dense
from clusterpump.solver import (
    check_density_matrix,
    full_spectrum,
    pure_state_density,
    rank_spectrum,
    steady_state_direct,
)
from conftest import random_density_matrix, random_graphs, random_hermitian

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)

SQUARE = GraphSpec(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
MODEL_GRAPHS = [GraphSpec.chain(n) for n in range(2, 6)] + [SQUARE]
SQUARE_2X3 = GraphSpec.grid(2, 3)
STAR = GraphSpec(4, ((0, 1), (0, 2), (0, 3)))
K4 = GraphSpec(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


# ----------------------------------------------------------------- params


def test_params_rejects_negative_gamma():
    with pytest.raises(ValueError, match="gamma"):
        ModelParams(g=1.0, h=1.0, gamma=-0.1)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
def test_non_finite_gamma_is_refused(gamma):
    # NaN and inf fail where gamma enters, not as an all-NaN steady state
    with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
        ModelParams(g=1.0, h=1.0, gamma=gamma)
    model = PumpModel(GraphSpec.chain(2), ModelParams(g=1.0, h=1.0, gamma=1.0))
    rho = np.eye(4, dtype=complex) / 4
    for call in (model.steady_state, model.eigenvalues, model.gap, model.kernel_step,
                 model.eigenbasis_generator, model.liouvillian, lambda g: model.apply(rho, g)):
        with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
            call(gamma)


def test_params_ratios():
    p = ModelParams.from_ratios(h_g=2.0, gamma_g=3.0, g=0.5)
    assert p.h == 1.0 and p.gamma == 1.5
    assert p.h_g == 2.0 and p.gamma_g == 3.0


def test_params_ratios_need_nonzero_g():
    with pytest.raises(ValueError):
        ModelParams.from_ratios(1.0, 1.0, g=0.0)
    with pytest.raises(ValueError):
        ModelParams(g=0.0, h=1.0, gamma=1.0).h_g


# ----------------------------------------------------------------- hamiltonian


def test_hamiltonian_n2_pure_ising():
    ham = hamiltonian(GraphSpec.chain(2), ModelParams(g=1.0, h=0.0, gamma=0.0))
    assert np.allclose(ham, np.diag([1.0, -1.0, -1.0, 1.0]), atol=0)


def test_hamiltonian_n1_pure_field():
    ham = hamiltonian(GraphSpec(1, ()), ModelParams(g=7.0, h=1.0, gamma=0.0))
    assert np.allclose(ham, X, atol=0)


def test_hamiltonian_n3_against_explicit_kron():
    # independent construction with raw Kronecker products
    p = ModelParams(g=1.0, h=1.0, gamma=0.0)
    ham = hamiltonian(GraphSpec.chain(3), p)
    expected = (
        np.kron(np.kron(Z, Z), I2)
        + np.kron(I2, np.kron(Z, Z))
        + np.kron(np.kron(X, I2), I2)
        + np.kron(np.kron(I2, X), I2)
        + np.kron(np.kron(I2, I2), X)
    )
    assert np.allclose(ham, expected, atol=1e-14)
    # spectrum is symmetric about zero for the open chain at g = h
    evals = np.linalg.eigvalsh(ham)
    assert np.allclose(evals, -evals[::-1], atol=1e-12)


@pytest.mark.parametrize("graph", [GraphSpec.chain(n) for n in range(1, 7)] + [SQUARE_2X3])
def test_hamiltonian_equals_dense_pauli_sum_exactly(graph):
    # the index-built H reproduces the sum of dense Pauli strings bit for bit
    n = graph.n_qubits
    for p in (ModelParams(g=1.0, h=0.5, gamma=0.0), ModelParams(g=-1.0 / 3.0, h=-0.0, gamma=0.0)):
        expected = np.zeros((2**n, 2**n), dtype=complex)
        for j, k in graph.edges:
            expected += p.g * pauli_to_dense(PauliString(n, {j: "Z", k: "Z"}))
        for k in range(n):
            expected += p.h * pauli_to_dense(PauliString(n, {k: "X"}))
        ham = hamiltonian(graph, p)
        assert np.array_equal(ham, expected)
        assert ham.dtype == expected.dtype and ham.tobytes() == expected.tobytes()


# ----------------------------------------------------------------- jumps


def test_projection_jumps_shapes_and_action():
    g = GraphSpec.chain(2)
    jumps = projection_jumps(g)
    target = cluster_state(g)
    assert len(jumps) == 3
    from clusterpump.cluster import orthogonal_basis

    basis = orthogonal_basis(g)
    for L, phi in zip(jumps, basis.states):
        # L+L is the projector onto the source state
        assert np.abs(L.conj().T @ L - np.outer(phi, phi.conj())).max() <= 1e-12
        # the target is annihilated
        assert np.linalg.norm(L @ target, np.inf) <= 1e-12
        # the source is mapped onto the target
        assert np.abs(L @ phi - target).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projection_jumps_completeness(n):
    g = GraphSpec.chain(n)
    jumps = projection_jumps(g)
    target = cluster_state(g)
    total = sum(L.conj().T @ L for L in jumps)
    expected = np.eye(2**n) - pure_state_density(target)
    assert np.abs(total - expected).max() <= 1e-12


def test_stabilizer_jumps_annihilate_target_and_are_projectors():
    g = GraphSpec.chain(3)
    target = cluster_state(g)
    for L in stabilizer_jumps(g):
        assert np.linalg.norm(L @ target, np.inf) <= 1e-12
        assert np.abs(L @ L - L).max() <= 1e-12
    assert len(stabilizer_jumps(g)) == 3


def test_stabilizer_liouvillian_keeps_maximally_mixed():
    g = GraphSpec.chain(3)
    L = liouvillian(np.zeros((8, 8), dtype=complex), stabilizer_jumps(g), 1.0)
    mixed = np.eye(8, dtype=complex) / 8
    assert np.linalg.norm(L @ vectorize(mixed), np.inf) <= 1e-12


# ----------------------------------------------------------------- liouvillian


def test_vectorize_roundtrip(rng):
    rho = random_density_matrix(rng, 4)
    assert np.array_equal(devectorize(vectorize(rho)), rho)
    with pytest.raises(ValueError):
        devectorize(np.zeros(5))


def test_vectorize_is_column_stacking():
    m = np.arange(4.0).reshape(2, 2)
    assert np.array_equal(vectorize(m), np.array([0.0, 2.0, 1.0, 3.0]))


def test_cluster_projector_in_kernel():
    g = GraphSpec.chain(3)
    L = liouvillian(np.zeros((8, 8), dtype=complex), projection_jumps(g), 1.0)
    rho = pure_state_density(cluster_state(g))
    assert np.linalg.norm(L @ vectorize(rho), np.inf) <= 1e-12


def test_gamma_zero_reduces_to_commutator(rng):
    g = GraphSpec.chain(2)
    ham = hamiltonian(g, ModelParams(g=1.0, h=0.7, gamma=0.0))
    L = liouvillian(ham, projection_jumps(g), 0.0)
    rho = random_hermitian(rng, 4)
    lhs = devectorize(L @ vectorize(rho))
    assert np.abs(lhs - (-1j) * (ham @ rho - rho @ ham)).max() <= 1e-12


def test_master_equation_rhs_oracle(rng):
    # direct term-by-term evaluation of the master equation on a random state
    g = GraphSpec.chain(2)
    p = ModelParams(g=1.0, h=1.0, gamma=0.8)
    ham = hamiltonian(g, p)
    jumps = projection_jumps(g)
    L = liouvillian(ham, jumps, p.gamma)
    rho = random_density_matrix(rng, 4)
    lhs = devectorize(L @ vectorize(rho))
    rhs = -1j * (ham @ rho - rho @ ham)
    for jump in jumps:
        jd = jump.conj().T
        rhs += p.gamma * (jump @ rho @ jd - 0.5 * (jd @ jump @ rho + rho @ jd @ jump))
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_liouvillian_parts_recombine():
    g = GraphSpec.chain(2)
    ham = hamiltonian(g, ModelParams(g=1.0, h=1.0, gamma=0.0))
    jumps = projection_jumps(g)
    unitary, dissipator = liouvillian_parts(ham, jumps)
    assert np.abs(unitary + 2.5 * dissipator - liouvillian(ham, jumps, 2.5)).max() <= 1e-14


@pytest.mark.parametrize("graph", MODEL_GRAPHS)
def test_pump_model_liouvillian_matches_explicit_jumps(graph):
    params = ModelParams(g=-1.0, h=0.7, gamma=0.0)
    model = PumpModel(graph, params)
    assert np.array_equal(model.target, cluster_state(graph))
    assert np.array_equal(model.H, hamiltonian(graph, params))
    jumps = projection_jumps(graph)
    # gamma = 0 checks the unitary part alone
    for gamma in (0.0, 3.5, 500.0):
        oracle = liouvillian(model.H, jumps, gamma)
        assert np.abs(model.liouvillian(gamma) - oracle).max() <= 1e-12
    with pytest.raises(ValueError, match="gamma"):
        model.liouvillian(-1.0)


@settings(max_examples=50, deadline=None)
@given(
    graph=random_graphs(),
    h=st.floats(min_value=-2.0, max_value=2.0),
    gamma=st.floats(min_value=0.0, max_value=1e3),
)
def test_pump_model_liouvillian_matches_explicit_jumps_on_random_graphs(graph, h, gamma):
    model = PumpModel(graph, ModelParams(g=1.0, h=h, gamma=0.0))
    oracle = liouvillian(model.H, projection_jumps(graph), gamma)
    assert np.abs(model.liouvillian(gamma) - oracle).max() <= 1e-12 * max(1.0, gamma)


@pytest.mark.parametrize("graph", MODEL_GRAPHS)
def test_pump_model_apply_matches_liouvillian(graph, rng):
    model = PumpModel(graph, ModelParams(g=1.0, h=0.7, gamma=0.0))
    d = 2**graph.n_qubits
    rho = random_density_matrix(rng, d)
    for gamma in (0.0, 3.5, 500.0):
        dense = devectorize(model.liouvillian(gamma) @ vectorize(rho))
        assert np.abs(model.apply(rho, gamma) - dense).max() <= 1e-12


@pytest.mark.parametrize("graph", MODEL_GRAPHS + [SQUARE_2X3])
def test_pump_model_steady_state_matches_direct_solve(graph):
    model = PumpModel(graph, ModelParams(g=1.0, h=0.7, gamma=0.0))
    for gamma in (0.5, 5.0, 200.0, 5000.0):
        oracle = steady_state_direct(model.liouvillian(gamma))
        rho, antihermitian = model.steady_state(gamma)
        assert np.abs(rho - oracle).max() <= 1e-12
        assert 0.0 <= antihermitian <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    graph=random_graphs(),
    h=st.floats(min_value=-2.0, max_value=2.0),
    gamma=st.floats(min_value=0.1, max_value=1e3),
)
def test_pump_model_steady_state_on_random_graphs(graph, h, gamma):
    model = PumpModel(graph, ModelParams(g=1.0, h=h, gamma=0.0))
    rho, _ = model.steady_state(gamma)
    check_density_matrix(rho)
    assert np.abs(rho - steady_state_direct(model.liouvillian(gamma))).max() <= 1e-10


@pytest.mark.parametrize("gamma", [0.05, 1.0, 600.0])
def test_pump_model_steady_state_of_a_dark_target(gamma):
    # N = 1 at h = 0: H = 0, so |C> is an eigenvector of H and the target is
    # dark; K . + . K^+ is singular there, yet the steady state is unique
    model = PumpModel(GraphSpec(1, ()), ModelParams(g=1.0, h=0.0, gamma=0.0))
    rho, _ = model.steady_state(gamma)
    assert np.abs(rho - np.outer(model.target, model.target.conj())).max() <= 1e-12


def test_pump_model_steady_state_checks_its_residual_in_the_eigenbasis(monkeypatch):
    # the residual is the generator's Frobenius norm on rho~, not apply(rho)
    model = PumpModel(GraphSpec.chain(4), ModelParams(g=1.0, h=0.7, gamma=0.0))
    oracle = steady_state_direct(model.liouvillian(5.0))

    def refuse(*args, **kwargs):
        raise AssertionError("the residual was taken in the computational basis")

    monkeypatch.setattr(PumpModel, "apply", refuse)
    rho, _ = model.steady_state(5.0)
    assert np.abs(rho - oracle).max() <= 1e-12
    generator = PumpModel.eigenbasis_generator
    monkeypatch.setattr(
        PumpModel, "eigenbasis_generator", lambda self, gamma: lambda r: generator(self, gamma)(r) + 1e-6
    )
    with pytest.raises(NumericalError, match="structured steady-state residual .* exceeds tolerance"):
        model.steady_state(5.0)
    # a NaN residual fails the check too
    monkeypatch.setattr(
        PumpModel, "eigenbasis_generator", lambda self, gamma: lambda r: np.full_like(r, np.nan)
    )
    with pytest.raises(NumericalError, match="structured steady-state residual nan exceeds tolerance"):
        model.steady_state(5.0)


def test_pump_model_steady_state_rejects_gamma_zero():
    model = PumpModel(GraphSpec.chain(3), ModelParams(g=1.0, h=1.0, gamma=0.0))
    with pytest.raises(NumericalError, match="degenerate kernel"):
        model.steady_state(0.0)
    with pytest.raises(ValueError, match="gamma"):
        model.steady_state(-1.0)


def test_from_eigenbasis_is_the_back_transform(rng):
    model = PumpModel(GraphSpec.chain(4), ModelParams(g=1.0, h=0.7, gamma=0.0))
    _, V, _ = model.eigenbasis
    rho = random_density_matrix(rng, 16)
    assert np.abs(model.from_eigenbasis(rho) - V @ rho @ V.T).max() <= 1e-14


# ----------------------------------------------------------------- structured gap


def assert_gap_matches_spectrum(model, gamma, abs_tol=0.0):
    oracle = full_spectrum(model.liouvillian(gamma)).gap
    assert abs(model.gap(gamma) - oracle) <= max(1e-10 * oracle, abs_tol)


@pytest.mark.parametrize("graph", MODEL_GRAPHS)
def test_pump_model_gap_matches_full_spectrum(graph):
    model = PumpModel(graph, ModelParams(g=1.0, h=0.7, gamma=0.0))
    for gamma in (0.5, 5.0, 50.0, 600.0):
        assert_gap_matches_spectrum(model, gamma)


def test_pump_model_gap_splits_chain5():
    # 12 of the 32 eigenvectors of H are orthogonal to the chain:5 target, so
    # the oracle cases above run the split into J and O
    _, _, c = PumpModel(GraphSpec.chain(5), ModelParams(g=1.0, h=0.7, gamma=0.0)).eigenbasis
    assert np.count_nonzero(np.abs(c) <= SUPPORT_TOL) == 12


@pytest.mark.parametrize("graph", MODEL_GRAPHS[:3] + [SQUARE])
def test_pump_model_gap_with_empty_complement(graph, monkeypatch):
    # every graph up to N = 5 has eigenvectors of H orthogonal to its target;
    # a negative cutoff empties O, leaving the unsplit real map on all of X
    monkeypatch.setattr(lindblad, "SUPPORT_TOL", -1.0)
    model = PumpModel(graph, ModelParams(g=1.0, h=0.7, gamma=0.0))
    for gamma in (0.5, 50.0):
        assert_gap_matches_spectrum(model, gamma)


@settings(max_examples=40, deadline=None)
@given(
    graph=random_graphs(),
    h=st.floats(min_value=-2.0, max_value=2.0),
    gamma=st.floats(min_value=0.1, max_value=1e3),
)
def test_pump_model_gap_on_random_graphs(graph, h, gamma):
    # relative 1e-10, or the eigenvalues' round-off when the gap is tiny
    model = PumpModel(graph, ModelParams(g=1.0, h=h, gamma=0.0))
    assert_gap_matches_spectrum(model, gamma, abs_tol=1e-12 * max(1.0, gamma))


def assert_same_eigenvalues(vals, oracle):
    # equal as multisets: the closest one-to-one matching, within 1e-10 max(1, max |lambda|)
    assert vals.shape == oracle.shape
    distance = np.abs(vals[:, None] - oracle[None, :])
    rows, cols = linear_sum_assignment(distance)
    assert distance[rows, cols].max() <= 1e-10 * max(1.0, float(np.abs(oracle).max()))


@pytest.mark.parametrize("graph", MODEL_GRAPHS)
def test_pump_model_eigenvalues_match_dense(graph):
    model = PumpModel(graph, ModelParams(g=1.0, h=0.7, gamma=0.0))
    for gamma in (0.5, 5.0, 50.0, 600.0):
        oracle = np.linalg.eigvals(model.liouvillian(gamma))
        assert_same_eigenvalues(model.eigenvalues(gamma), oracle)


@settings(max_examples=40, deadline=None)
@given(
    graph=random_graphs(),
    h=st.floats(min_value=-2.0, max_value=2.0),
    gamma=st.floats(min_value=0.0, max_value=1e3),
)
def test_pump_model_eigenvalues_on_random_graphs(graph, h, gamma):
    model = PumpModel(graph, ModelParams(g=1.0, h=h, gamma=0.0))
    oracle = np.linalg.eigvals(model.liouvillian(gamma))
    assert_same_eigenvalues(model.eigenvalues(gamma), oracle)


def test_pump_model_gap_strong_dissipation():
    # the gap tends to gamma / 2 as the pumping dominates
    for n in (3, 4):
        model = PumpModel(GraphSpec.chain(n), ModelParams(g=1.0, h=0.5, gamma=0.0))
        assert model.gap(100.0) == pytest.approx(50.07, abs=0.015)
    model = PumpModel(GraphSpec.chain(6), ModelParams(g=1.0, h=0.5, gamma=0.0))
    assert model.gap(600.0) == pytest.approx(300.0, abs=0.03)


@pytest.mark.parametrize(
    "graph, h",
    [(graph, 0.0) for graph in (GraphSpec.chain(3), SQUARE, STAR, K4)]
    + [(GraphSpec(n, ()), h) for n in (1, 3) for h in (0.0, 0.7)]
    + [(STAR, 0.7), (K4, -1.3)],
    ids=lambda value: f"{value.n_qubits}q{len(value.edges)}e" if isinstance(value, GraphSpec) else f"h{value}",
)
def test_pump_model_eigenvalues_on_degenerate_spectra(graph, h):
    # h = 0 makes H diagonal with highly degenerate levels, so every eigenspace
    # of H is rotated before the split; the empty graph's target is an
    # eigenvector of H, leaving one index in J
    model = PumpModel(graph, ModelParams(g=1.0, h=h, gamma=0.0))
    for gamma in (0.0, 0.1, 3.0, 600.0):
        oracle = np.linalg.eigvals(model.liouvillian(gamma))
        assert_same_eigenvalues(model.eigenvalues(gamma), oracle)


def test_pump_model_gap_at_exceptional_point():
    # at h = 0, gamma = 4 the two J levels of chain:2 meet in an exceptional
    # point of K_J, where the secular weights lose every digit and the JJ
    # sector is taken densely
    model = PumpModel(GraphSpec.chain(2), ModelParams(g=1.0, h=0.0, gamma=0.0))
    _, R, _ = model._kernel_factors(4.0)
    assert np.linalg.cond(R) > lindblad.EIGENVECTOR_COND_MAX
    assert_gap_matches_spectrum(model, 4.0)
    assert rank_spectrum(model.eigenvalues(4.0))[3] == 1


def test_pump_model_eigenvalues_fail_loudly(monkeypatch):
    model = PumpModel(GraphSpec.chain(3), ModelParams(g=1.0, h=0.7, gamma=0.0))
    assert rank_spectrum(model.eigenvalues(5.0))[3] == 1
    with monkeypatch.context() as patch:
        patch.setattr(lindblad, "ABERTH_MAX_SWEEPS", 1)
        with pytest.raises(NumericalError, match="secular equation unsolved: .* after 1 Aberth sweeps"):
            model.eigenvalues(5.0)
    # a wrong weight moves the roots off the trace of the generator
    factors = PumpModel._kernel_factors

    def skewed(self, gamma):
        kappa, R, a = factors(self, gamma)
        return kappa, R, a * np.linspace(1.0, 1.1, a.size)

    monkeypatch.setattr(PumpModel, "_kernel_factors", skewed)
    with pytest.raises(NumericalError, match="eigenvalues sum to .*, not to the trace -168"):
        model.eigenvalues(3.0)


def test_pump_model_gap_failures():
    model = PumpModel(GraphSpec.chain(3), ModelParams(g=1.0, h=1.0, gamma=0.0))
    with pytest.raises(NumericalError, match="degenerate kernel") as exc:
        model.gap(0.0)
    assert exc.value.kernel_dim >= 8
    with pytest.raises(ValueError, match="gamma"):
        model.gap(-1.0)
    # the dense guard comes before H is diagonalized
    large = PumpModel(GraphSpec.chain(MAX_DENSE_QUBITS + 1), ModelParams(g=1.0, h=1.0, gamma=0.0))
    with pytest.raises(ValueError, match="dense-solver guard .*GiB"):
        large.gap(1.0)
    assert "eigenbasis" not in vars(large)


def test_liouvillian_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        liouvillian(np.zeros((4, 4)), [np.zeros((2, 2))], 1.0)
    with pytest.raises(ValueError):
        liouvillian(np.zeros((4, 4)), [], -1.0)


def test_trace_preservation_left_null_vector():
    g = GraphSpec.chain(2)
    ham = hamiltonian(g, ModelParams(g=1.0, h=1.0, gamma=0.0))
    L = liouvillian(ham, projection_jumps(g), 3.0)
    left = vectorize(np.eye(4, dtype=complex)).conj() @ L
    assert np.linalg.norm(left, np.inf) <= 1e-10


def test_hermiticity_preservation(rng):
    g = GraphSpec.chain(2)
    ham = hamiltonian(g, ModelParams(g=1.0, h=0.3, gamma=0.0))
    L = liouvillian(ham, projection_jumps(g), 1.7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    image_of_a = devectorize(L @ vectorize(a))
    image_of_adag = devectorize(L @ vectorize(a.conj().T))
    assert np.abs(image_of_a.conj().T - image_of_adag).max() <= 1e-12


@pytest.mark.parametrize("gamma", [1.0, 10.0])
def test_spectrum_in_left_half_plane_and_conjugate_paired(gamma):
    g = GraphSpec.chain(2)
    ham = hamiltonian(g, ModelParams(g=1.0, h=1.0, gamma=0.0))
    L = liouvillian(ham, projection_jumps(g), gamma)
    vals = np.linalg.eigvals(L)
    assert vals.real.max() <= 1e-9
    for lam in vals:
        assert np.min(np.abs(vals - lam.conjugate())) <= 1e-8
