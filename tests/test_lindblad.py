import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from clusterpump import lindblad
from clusterpump.cluster import GraphSpec, cluster_state
from clusterpump.errors import NumericalError
from clusterpump.experiments import gamma_sweep
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
    model = PumpModel(GraphSpec.chain(2), 1.0, 1.0)
    rho = np.eye(4, dtype=complex) / 4
    for call in (model.steady_state, model.eigenvalues, model.gap, model.kernel_step,
                 model.liouvillian, lambda g: model.apply(rho, g)):
        with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
            call(gamma)


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

    for L, phi in zip(jumps, orthogonal_basis(g)):
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
    model = PumpModel(graph, -1.0, 0.7)
    assert np.array_equal(model.target, cluster_state(graph))
    H = hamiltonian(graph, ModelParams(g=-1.0, h=0.7, gamma=0.0))
    assert np.array_equal(model.zz, H.diagonal().real)
    jumps = projection_jumps(graph)
    # gamma = 0 checks the unitary part alone
    for gamma in (0.0, 3.5, 500.0):
        oracle = liouvillian(H, jumps, gamma)
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
    model = PumpModel(graph, 1.0, h)
    oracle = liouvillian(hamiltonian(graph, ModelParams(g=1.0, h=h, gamma=0.0)), projection_jumps(graph), gamma)
    assert np.abs(model.liouvillian(gamma) - oracle).max() <= 1e-12 * max(1.0, gamma)


@pytest.mark.parametrize("graph", MODEL_GRAPHS)
def test_pump_model_apply_matches_liouvillian(graph, rng):
    model = PumpModel(graph, 1.0, 0.7)
    d = 2**graph.n_qubits
    rho = random_density_matrix(rng, d)
    for gamma in (0.0, 3.5, 500.0):
        dense = devectorize(model.liouvillian(gamma) @ vectorize(rho))
        assert np.abs(model.apply(rho, gamma) - dense).max() <= 1e-12


STEADY_GAMMAS = [0.5, 5.0, 200.0, 5000.0]


@pytest.mark.parametrize("graph", MODEL_GRAPHS + [SQUARE_2X3, GraphSpec.chain(1), STAR])
def test_pump_model_steady_state_matches_direct_solve(graph):
    # point by point, and the whole grid as one batch on the target's support
    model = PumpModel(graph, 1.0, 0.7)
    batch = list(model.support_steady_states(STEADY_GAMMAS))
    assert len(batch) == len(STEADY_GAMMAS)
    for gamma, (rho_j, norm, error) in zip(STEADY_GAMMAS, batch):
        oracle = steady_state_direct(model.liouvillian(gamma))
        rho, antihermitian = model.steady_state(gamma)
        assert np.abs(rho - oracle).max() <= 1e-12
        assert 0.0 <= antihermitian <= 1e-12
        assert error is None and 0.0 <= norm <= 1e-12
        assert np.abs(model.density(rho_j) - oracle).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    graph=random_graphs(),
    h=st.floats(min_value=-2.0, max_value=2.0),
    gamma=st.floats(min_value=0.1, max_value=1e3),
)
def test_pump_model_steady_state_on_random_graphs(graph, h, gamma):
    model = PumpModel(graph, 1.0, h)
    rho, _ = model.steady_state(gamma)
    check_density_matrix(rho)
    assert np.abs(rho - steady_state_direct(model.liouvillian(gamma))).max() <= 1e-10


DARK_GAMMAS = [0.05, 1.0, 600.0]


@pytest.mark.parametrize("gamma", DARK_GAMMAS)
def test_pump_model_steady_state_of_a_dark_target(gamma):
    # N = 1 at h = 0: H = 0, so |C> is an eigenvector of H and the target is
    # dark; K . + . K^+ is singular there, yet the steady state is unique,
    # alone and as a point of one batch
    model = PumpModel(GraphSpec(1, ()), 1.0, 0.0)
    target = np.outer(model.target, model.target.conj())
    rho, _ = model.steady_state(gamma)
    assert np.abs(rho - target).max() <= 1e-12
    rho_j, _, error = list(model.support_steady_states(DARK_GAMMAS))[DARK_GAMMAS.index(gamma)]
    assert error is None and np.abs(model.density(rho_j) - target).max() <= 1e-12


def test_pump_model_steady_state_checks_its_residual_in_the_eigenbasis(monkeypatch):
    # the residual is the generator's Frobenius norm on rho~, not apply(rho)
    model = PumpModel(GraphSpec.chain(4), 1.0, 0.7)
    oracle = steady_state_direct(model.liouvillian(5.0))

    def refuse(*args, **kwargs):
        raise AssertionError("the residual was taken in the computational basis")

    monkeypatch.setattr(PumpModel, "apply", refuse)
    rho, _ = model.steady_state(5.0)
    assert np.abs(rho - oracle).max() <= 1e-12
    generator = lindblad._eigenbasis_rhs
    monkeypatch.setattr(
        lindblad, "_eigenbasis_rhs", lambda energies, c, gamma, r: generator(energies, c, gamma, r) + 1e-6
    )
    with pytest.raises(NumericalError, match="structured steady-state residual .* exceeds tolerance"):
        model.steady_state(5.0)
    # a NaN residual fails the check too
    monkeypatch.setattr(lindblad, "_eigenbasis_rhs", lambda energies, c, gamma, r: np.full_like(r, np.nan))
    with pytest.raises(NumericalError, match="structured steady-state residual nan exceeds tolerance"):
        model.steady_state(5.0)


def dense_diagonal_tolerance(model, gamma):
    """The steady state's residual tolerance, 1e-8 max(1, s), with s the
    largest modulus of the dense generator's diagonal formed elementwise,
    ``SECULAR_BLOCK`` rows at a time."""
    p = np.abs(model.target) ** 2
    k = -1j * model.zz - 0.5 * gamma * (1.0 - p)
    largest = 0.0
    for s in range(0, p.size, lindblad.SECULAR_BLOCK):
        p_s, k_s = p[s : s + lindblad.SECULAR_BLOCK], k[s : s + lindblad.SECULAR_BLOCK]
        diagonal = gamma * (np.eye(p_s.size, p.size, s) * p - np.outer(p_s, p)) + k_s[:, None] + k.conj()[None, :]
        largest = max(largest, float(np.abs(diagonal).max()))
    return 1e-8 * max(1.0, largest)


@pytest.mark.parametrize("g", [1.0, -1.0, 2.5])
@pytest.mark.parametrize(
    "graph",
    [GraphSpec.chain(n) for n in range(1, 6)] + [SQUARE_2X3, GraphSpec(3, ((0, 1),)), GraphSpec(3, ())],
    ids=[f"chain:{n}" for n in range(1, 6)] + ["square:2x3", "isolated:3", "empty:3"],
)
def test_pump_model_steady_state_tolerance_is_that_of_the_dense_diagonal(monkeypatch, graph, g):
    # a residual of exactly the elementwise tolerance passes and one ulp more
    # fails, so the tolerance is that of the dense diagonal to the bit
    model = PumpModel(graph, g, 0.7)
    residual = np.zeros((1, 1))
    monkeypatch.setattr(lindblad, "_eigenbasis_rhs", lambda energies, c, gamma, rho: residual)
    for gamma in np.geomspace(1e-3, 600.0, 7):
        tol = dense_diagonal_tolerance(model, gamma)
        residual[0, 0] = tol
        assert np.linalg.norm(residual) == tol
        model.steady_state(gamma)
        residual[0, 0] = np.nextafter(tol, np.inf)
        with pytest.raises(NumericalError, match="exceeds tolerance"):
            model.steady_state(gamma)


def eigenbasis_rhs_vs_dense(graph, h, gamma, rho):
    """Largest deviation of ``_eigenbasis_rhs`` on ``rho~`` from
    ``W^T L(W rho~ W^T) W`` with the dense generator L, relative to
    max(1, max |dense|)."""
    model = PumpModel(graph, 1.0, h)
    energies, W, c, _ = model.eigenbasis
    dense = W.T @ devectorize(model.liouvillian(gamma) @ vectorize(W @ rho @ W.T)) @ W
    error = np.abs(lindblad._eigenbasis_rhs(energies, c, gamma, rho) - dense).max()
    return float(error / max(1.0, np.abs(dense).max()))


@pytest.mark.parametrize("gamma", [0.5, 5.0, 50.0])
@pytest.mark.parametrize("graph", MODEL_GRAPHS, ids=["chain:2", "chain:3", "chain:4", "chain:5", "square:2x2"])
def test_eigenbasis_rhs_matches_dense(rng, graph, gamma):
    rho = random_density_matrix(rng, 2**graph.n_qubits)
    assert eigenbasis_rhs_vs_dense(graph, 0.9, gamma, rho) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    graph=random_graphs(),
    h=st.floats(min_value=-2.0, max_value=2.0),
    gamma=st.floats(min_value=0.1, max_value=1e3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eigenbasis_rhs_matches_dense_on_random_graphs(graph, h, gamma, seed):
    rho = random_density_matrix(np.random.default_rng(seed), 2**graph.n_qubits)
    assert eigenbasis_rhs_vs_dense(graph, h, gamma, rho) <= 1e-12


@pytest.mark.parametrize("graph", MODEL_GRAPHS, ids=["chain:2", "chain:3", "chain:4", "chain:5", "square:2x2"])
def test_eigenbasis_rhs_keeps_the_support(rng, graph):
    # c is exactly 0 on O, so a state on J x J maps to exactly 0 outside it
    energies, _, c, m = PumpModel(graph, 1.0, 0.9).eigenbasis
    d = 2**graph.n_qubits
    assert 0 < m < d
    rho = np.zeros((d, d), dtype=complex)
    rho[:m, :m] = random_density_matrix(rng, m)
    out = lindblad._eigenbasis_rhs(energies, c, 5.0, rho)
    assert np.abs(out[:m, :m]).max() > 0.0
    assert np.all(out[m:] == 0.0) and np.all(out[:, m:] == 0.0)


def test_pump_model_steady_state_solves_on_the_support(monkeypatch):
    # the real system has 2|J| unknowns, not 2d: chain:5 has |J| = 20 of 32
    from clusterpump import solver

    shapes = []
    solve = solver.solve_nonsingular

    def recording(A, b):
        shapes.append(A.shape)
        return solve(A, b)

    monkeypatch.setattr(solver, "solve_nonsingular", recording)
    model = PumpModel(GraphSpec.chain(5), 1.0, 0.7)
    model.steady_state(5.0)
    assert model.eigenbasis[3] == 20
    assert shapes == [(40, 40)]


def test_pump_model_holds_one_basis():
    # H's eigendecomposition is kept once, as the real basis W: after every
    # structured route has run, the model holds no d x d array but W (no
    # complex H, no eigenvectors V beside W), only vectors of length d
    model = PumpModel(GraphSpec.chain(5), 1.0, 0.7)
    model.steady_state(5.0)
    model.kernel_step(5.0)
    model.eigenvalues(5.0)
    held = [x for value in vars(model).values() for x in (value if isinstance(value, tuple) else (value,))]
    owners = {id(a): a for a in (x if x.base is None else x.base for x in held if isinstance(x, np.ndarray))}
    large = [a for a in owners.values() if a.size > 32]
    assert [(a.shape, a.dtype) for a in large] == [((32, 32), np.float64)]
    assert np.shares_memory(large[0], model.eigenbasis[1])


def test_pump_model_builds_h_through_hamiltonian_once(monkeypatch):
    # the benchmark traces lindblad.hamiltonian as the H build, and the CLI's
    # "before any work" tests patch it to fail: the model must build H there,
    # once, from its own g and h
    calls = []

    def counted(g_spec, p):
        calls.append((g_spec, p.g, p.h))
        return hamiltonian(g_spec, p)

    monkeypatch.setattr(lindblad, "hamiltonian", counted)
    model = PumpModel(GraphSpec.chain(3), -1.0, 0.7)
    energies = model.eigenbasis[0]
    model.eigenbasis  # cached: a second read builds nothing
    assert calls == [(GraphSpec.chain(3), -1.0, 0.7)]
    H = hamiltonian(GraphSpec.chain(3), ModelParams(g=-1.0, h=0.7, gamma=0.0))
    assert np.allclose(np.sort(energies), np.linalg.eigvalsh(H), atol=1e-12)


def test_pump_model_steady_state_rejects_gamma_zero():
    model = PumpModel(GraphSpec.chain(3), 1.0, 1.0)
    with pytest.raises(NumericalError, match="degenerate kernel"):
        model.steady_state(0.0)
    with pytest.raises(ValueError, match="gamma"):
        model.steady_state(-1.0)


@pytest.mark.parametrize("h", [0.7, 1.0])
@pytest.mark.parametrize("graph", MODEL_GRAPHS, ids=["chain:2", "chain:3", "chain:4", "chain:5", "square:2x2"])
def test_support_steady_states_refuse_only_kernels_the_gap_route_refuses(graph, h):
    # at a gamma within the kernel tolerance of the O diagonal poles -gamma a
    # steady state fails as a degenerate kernel, and the gap route refuses the
    # same point, with at least 1 + |O| eigenvalues in its kernel
    model = PumpModel(graph, 1.0, h)
    gammas = np.geomspace(1e-12, 1e-4, 17)
    size = model.eigenbasis[0].size - model.eigenbasis[3]
    flagged = []
    for gamma, (_, _, error) in zip(gammas, model.support_steady_states(gammas)):
        if error is not None:
            assert str(error) == f"degenerate kernel (kernel_dim >= {1 + size}): the steady state is not unique"
            with pytest.raises(NumericalError, match="degenerate kernel") as exc:
                model.gap(gamma)
            assert exc.value.kernel_dim >= 1 + size
            flagged.append(gamma)
    # the rule reaches up to 1e-8 max(1, |gamma + i ptp(E_O)|), past 1e-8
    assert flagged == list(gammas[:len(flagged)]) and len(flagged) >= 9


def test_support_steady_states_fail_point_by_point(monkeypatch):
    # gamma = 0 and a point whose residual check fails fail alone, with the
    # messages a one-point solve raises; the other points are unchanged
    model = PumpModel(GraphSpec.chain(4), 1.0, 0.7)
    gammas = [0.0, 0.5, 5.0, 50.0]
    clean = list(model.support_steady_states(gammas))
    generator = lindblad._eigenbasis_rhs

    def failing_at_5(energies, c, gamma, rho):
        return generator(energies, c, gamma, rho) + (np.asarray(gamma) == 5.0)[..., None, None]

    monkeypatch.setattr(lindblad, "_eigenbasis_rhs", failing_at_5)
    points = list(model.support_steady_states(gammas))
    messages = []
    for gamma in (0.0, 5.0):
        with pytest.raises(NumericalError) as exc:
            model.steady_state(gamma)
        messages.append(str(exc.value))
    assert messages[0] == "degenerate kernel: without dissipation (gamma = 0) the steady state is not unique"
    assert messages[1].startswith("structured steady-state residual")
    assert [(rho, str(error)) for rho, _, error in (points[0], points[2])] == [(None, m) for m in messages]
    for k in (1, 3):
        assert points[k][2] is None and np.array_equal(points[k][0], clean[k][0])
    sweep = gamma_sweep(model, 0.7, gammas, compute_gap=False)
    assert sweep.status == [messages[0], "ok", messages[1], "ok"]


def test_support_steady_states_keep_a_failed_solve_to_its_point(monkeypatch):
    # a system refused by the solver fails its own point with the solver's
    # message; the batch's other points are unchanged
    from clusterpump import solver

    model = PumpModel(GraphSpec.chain(4), 1.0, 0.7)
    gammas = [0.5, 5.0, 50.0]
    clean = list(model.support_steady_states(gammas))
    solve = solver.solve_nonsingular
    calls = []

    def refusing_the_second(A, b):
        calls.append(A.shape)
        if len(calls) == 2:
            raise NumericalError("degenerate kernel: refused")
        return solve(A, b)

    monkeypatch.setattr(solver, "solve_nonsingular", refusing_the_second)
    points = list(model.support_steady_states(gammas))
    assert len(calls) == 3
    assert points[1][0] is None and str(points[1][2]) == "degenerate kernel: refused"
    for k in (0, 2):
        assert points[k][2] is None and np.array_equal(points[k][0], clean[k][0])


def test_support_steady_states_do_not_depend_on_the_batch(monkeypatch):
    # a grid solved one point per batch equals the grid solved as one batch
    model = PumpModel(GraphSpec.chain(5), 1.0, 0.7)
    gammas = np.geomspace(0.05, 1e4, 40)
    sizes = []
    batch = PumpModel._steady_batch

    def recording(self, chunk):
        sizes.append(chunk.size)
        return batch(self, chunk)

    monkeypatch.setattr(PumpModel, "_steady_batch", recording)
    whole = list(model.support_steady_states(gammas))
    monkeypatch.setattr(lindblad, "STEADY_BATCH_BYTES", 1)
    single = list(model.support_steady_states(gammas))
    assert sizes == [40] + [1] * 40
    for (a, norm_a, error_a), (b, norm_b, error_b) in zip(whole, single):
        assert error_a is None and error_b is None
        assert np.abs(a - b).max() <= 1e-15 and abs(norm_a - norm_b) <= 1e-15


# ----------------------------------------------------------------- structured gap


def assert_gap_matches_spectrum(model, gamma, abs_tol=0.0):
    oracle = full_spectrum(model.liouvillian(gamma)).gap
    assert abs(model.gap(gamma) - oracle) <= max(1e-10 * oracle, abs_tol)


@pytest.mark.parametrize("graph", MODEL_GRAPHS)
def test_pump_model_gap_matches_full_spectrum(graph):
    model = PumpModel(graph, 1.0, 0.7)
    for gamma in (0.5, 5.0, 50.0, 600.0):
        assert_gap_matches_spectrum(model, gamma)


def test_pump_model_gap_splits_chain5():
    # 12 of the 32 eigenvectors of H are orthogonal to the chain:5 target, so
    # the oracle cases above run the split into J and O
    _, _, c, m = PumpModel(GraphSpec.chain(5), 1.0, 0.7).eigenbasis
    assert c.size - m == 12
    assert np.abs(c[:m]).min() > SUPPORT_TOL and not c[m:].any()


@pytest.mark.parametrize("graph", MODEL_GRAPHS[:3] + [SQUARE])
def test_pump_model_gap_with_empty_complement(graph, monkeypatch):
    # every graph up to N = 5 has eigenvectors of H orthogonal to its target;
    # a negative cutoff empties O, leaving the unsplit real map on all of X
    monkeypatch.setattr(lindblad, "SUPPORT_TOL", -1.0)
    model = PumpModel(graph, 1.0, 0.7)
    for gamma in (0.5, 50.0):
        assert_gap_matches_spectrum(model, gamma)
        oracle = steady_state_direct(model.liouvillian(gamma))
        assert np.abs(model.steady_state(gamma)[0] - oracle).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    graph=random_graphs(),
    h=st.floats(min_value=-2.0, max_value=2.0),
    gamma=st.floats(min_value=0.1, max_value=1e3),
)
def test_pump_model_gap_on_random_graphs(graph, h, gamma):
    # relative 1e-10, or the eigenvalues' round-off when the gap is tiny
    model = PumpModel(graph, 1.0, h)
    assert_gap_matches_spectrum(model, gamma, abs_tol=1e-12 * max(1.0, gamma))


def assert_same_eigenvalues(vals, oracle, scale=None):
    # equal as multisets: the closest one-to-one matching, within 1e-10 scale,
    # by default max(1, max |lambda|)
    assert vals.shape == oracle.shape
    if scale is None:
        scale = max(1.0, float(np.abs(oracle).max()))
    distance = np.abs(vals[:, None] - oracle[None, :])
    rows, cols = linear_sum_assignment(distance)
    assert distance[rows, cols].max(initial=0.0) <= 1e-10 * scale


@pytest.mark.parametrize("graph", MODEL_GRAPHS)
def test_pump_model_eigenvalues_match_dense(graph):
    model = PumpModel(graph, 1.0, 0.7)
    for gamma in (0.5, 5.0, 50.0, 600.0):
        oracle = np.linalg.eigvals(model.liouvillian(gamma))
        assert_same_eigenvalues(model.eigenvalues(gamma), oracle)


def assert_same_spectrum(vals, L):
    """``assert_same_eigenvalues`` against the eigenvalues of the dense L, except
    on its ill-conditioned clusters, which are compared by size and mean.

    An eigenvalue with unit left and right eigenvectors y and x has the
    condition number ``1 / |y^+ x|``: ``eig`` has it to about
    ``eps ||L||_2 / |y^+ x|``.  Where that exceeds the 1e-10 bound, as on the
    members of a Jordan block, which split by about sqrt(eps), the eigenvalue
    is flagged.  Its cluster is every eigenvalue of L within
    ``1e-6 max(1, max |lambda|)`` of it by single linkage, and its
    counterparts are the values within that distance of a member.  A cluster
    from one Jordan block has a mean accurate to O(eps).
    """
    oracle, left, right = scipy.linalg.eig(L, left=True, right=True)
    scale = max(1.0, float(np.abs(oracle).max()))
    with np.errstate(divide="ignore"):
        error = np.finfo(float).eps * np.linalg.norm(L, 2) / np.abs((left.conj() * right).sum(axis=0))
    near = np.abs(oracle[:, None] - oracle[None, :]) <= 1e-6 * scale
    _, cluster = connected_components(near, directed=False)
    rest, oracle_rest = np.ones(vals.size, dtype=bool), np.ones(oracle.size, dtype=bool)
    for label in np.unique(cluster[error > 1e-10 * scale]):
        members = cluster == label
        mine = (np.abs(vals[:, None] - oracle[members]) <= 1e-6 * scale).any(axis=1)
        assert np.count_nonzero(mine) == np.count_nonzero(members)
        assert abs(vals[mine].mean() - oracle[members].mean()) <= 1e-10 * scale
        rest &= ~mine
        oracle_rest &= ~members
    assert_same_eigenvalues(vals[rest], oracle[oracle_rest], scale)


@settings(max_examples=40, deadline=None)
@given(
    graph=random_graphs(),
    h=st.floats(min_value=-2.0, max_value=2.0),
    gamma=st.floats(min_value=0.0, max_value=1e3),
)
def test_pump_model_eigenvalues_on_random_graphs(graph, h, gamma):
    model = PumpModel(graph, 1.0, h)
    assert_same_spectrum(model.eigenvalues(gamma), model.liouvillian(gamma))


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("gamma", [4.0, 8.0])
def test_pump_model_eigenvalues_at_defective_generators(n, gamma):
    # one ZZ edge at h = 0 has Jordan blocks: at gamma = 4 an exceptional
    # point of K_J (the dense JJ sector), at gamma = 8 a double root of the
    # secular equation, whose pair each route splits by about 1e-7; the
    # eigenvalues match to 1e-10 only as cluster means
    model = PumpModel(GraphSpec(n, ((0, 1),)), 1.0, 0.0)
    vals, L = model.eigenvalues(gamma), model.liouvillian(gamma)
    with pytest.raises(AssertionError):
        assert_same_eigenvalues(vals, np.linalg.eigvals(L))
    assert_same_spectrum(vals, L)


@pytest.mark.parametrize(
    "graph, h, gamma",
    [(GraphSpec.chain(2), 0.5, 10.0), (STAR, 0.922211, 30.0), (GraphSpec.chain(3), 0.7, 10.0)],
    ids=["chain2_5_real_roots", "star4_10_real_roots", "chain3_stalled_pair"],
)
def test_pump_model_eigenvalues_past_the_held_iteration(graph, h, gamma):
    # the secular equation of chain:2 has 5 real roots from 3 real poles and
    # that of star:4 10 from 8, so a held pair must split into two real
    # roots; on chain:3 held unknowns are still moving when they are freed
    model = PumpModel(graph, 1.0, h)
    vals, L = model.eigenvalues(gamma), model.liouvillian(gamma)
    assert_same_spectrum(vals, L)
    oracle = np.linalg.eigvals(L)
    scale = max(1.0, float(np.abs(oracle).max()))
    assert np.count_nonzero(np.abs(vals.imag) <= 1e-10 * scale) == np.count_nonzero(
        np.abs(oracle.imag) <= 1e-10 * scale
    )


@settings(max_examples=40, deadline=None)
@given(
    graph=random_graphs(),
    h=st.floats(min_value=-2.0, max_value=2.0),
    gamma=st.floats(min_value=0.0, max_value=1e3),
)
def test_pump_model_eigenvalues_are_closed_under_conjugation(graph, h, gamma):
    # the generator preserves Hermiticity, so its spectrum is its own conjugate
    vals = PumpModel(graph, 1.0, h).eigenvalues(gamma)
    distance = np.abs(vals[:, None] - vals.conj()[None, :])
    rows, cols = linear_sum_assignment(distance)
    assert distance[rows, cols].max() <= 1e-12 * max(1.0, float(np.abs(vals).max()))


def test_secular_roots_on_random_conjugate_pole_sets():
    # real poles with weights of either sign leave real roots missing or
    # extra, which held unknowns cannot reach; the roots are the eigenvalues
    # of diag(poles) + weights 1^T by the matrix determinant lemma
    rng = np.random.default_rng(5)
    for _ in range(300):
        r, u = rng.integers(1, 7), rng.integers(0, 5)
        mu = np.concatenate([rng.normal(size=r), rng.normal(size=u) + 1j * np.abs(rng.normal(size=u))])
        w = np.concatenate([rng.normal(size=r), rng.normal(size=u) + 1j * rng.normal(size=u)])
        poles, weights = np.concatenate([mu, mu[r:].conj()]), np.concatenate([w, w[r:].conj()])
        oracle = np.linalg.eigvals(np.diag(poles) + np.outer(weights, np.ones(poles.size)))
        assert_same_eigenvalues(lindblad._secular_roots(mu, w, r), oracle)


def test_pump_model_gap_strong_dissipation():
    # the gap tends to gamma / 2 as the pumping dominates
    for n in (3, 4):
        model = PumpModel(GraphSpec.chain(n), 1.0, 0.5)
        assert model.gap(100.0) == pytest.approx(50.07, abs=0.015)
    model = PumpModel(GraphSpec.chain(6), 1.0, 0.5)
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
    model = PumpModel(graph, 1.0, h)
    for gamma in (0.0, 0.1, 3.0, 600.0):
        oracle = np.linalg.eigvals(model.liouvillian(gamma))
        assert_same_eigenvalues(model.eigenvalues(gamma), oracle)


def test_pump_model_gap_at_exceptional_point():
    # at h = 0, gamma = 4 the two J levels of chain:2 meet in an exceptional
    # point of K_J, where the secular weights lose every digit and the JJ
    # sector is taken densely
    model = PumpModel(GraphSpec.chain(2), 1.0, 0.0)
    _, R, _, smallest = model._kernel_factors(4.0)
    assert smallest is None and np.linalg.cond(R) > lindblad.EIGENVECTOR_COND_MAX
    assert_gap_matches_spectrum(model, 4.0)
    assert rank_spectrum(model.eigenvalues(4.0))[2] == 1


@pytest.mark.parametrize("graph", [GraphSpec.chain(2), GraphSpec(3, ((0, 1),))], ids=["chain:2", "isolated:3"])
def test_pump_model_eigenvalues_at_exceptional_point_are_conjugate_closed(graph):
    # near the exceptional point at h = 0, gamma = 4 the JJ sector is taken
    # densely as a real matrix on Hermitian matrices, whose eigenvalues come
    # in exact conjugate pairs, as do the poles; the complex generator's
    # eigenvalues left pairs 2.9e-13 and 2.2e-13 of the scale apart here
    model = PumpModel(graph, 1.0, 0.001)
    assert model._kernel_factors(4.0)[3] is None
    vals = model.eigenvalues(4.0)
    assert np.array_equal(np.sort_complex(vals), np.sort_complex(vals.conj()))
    assert_same_spectrum(vals, model.liouvillian(4.0))


def test_pump_model_eigenvalues_fail_loudly(monkeypatch):
    model = PumpModel(GraphSpec.chain(3), 1.0, 0.7)
    assert rank_spectrum(model.eigenvalues(5.0))[2] == 1
    with monkeypatch.context() as patch:
        patch.setattr(lindblad, "ABERTH_MAX_SWEEPS", 1)
        with pytest.raises(NumericalError, match="secular equation unsolved: .* after 1 Aberth sweeps"):
            model.eigenvalues(5.0)
    # a wrong weight moves the roots off the trace of the generator
    factors = PumpModel._kernel_factors

    def skewed(self, gamma):
        kappa, R, a, smallest = factors(self, gamma)
        return kappa, R, a * np.linspace(1.0, 1.1, a.size), smallest

    monkeypatch.setattr(PumpModel, "_kernel_factors", skewed)
    with pytest.raises(NumericalError, match="eigenvalues sum to .*, not to the trace -168"):
        model.eigenvalues(3.0)


def test_pump_model_gap_failures():
    model = PumpModel(GraphSpec.chain(3), 1.0, 1.0)
    with pytest.raises(NumericalError, match="degenerate kernel") as exc:
        model.gap(0.0)
    assert exc.value.kernel_dim >= 8
    with pytest.raises(ValueError, match="gamma"):
        model.gap(-1.0)
    # the spectrum guard comes before H is diagonalized
    large = PumpModel(GraphSpec.chain(MAX_DENSE_QUBITS + 1), 1.0, 1.0)
    with pytest.raises(ValueError, match="spectrum guard .*poles.*Aberth sweep"):
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
