import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusterpump import cli, lindblad
from clusterpump.cluster import GraphSpec, cluster_state, orthogonal_basis, plus_state
from clusterpump.errors import NumericalError
from clusterpump.lindblad import (
    KernelStep,
    ModelParams,
    PumpModel,
    devectorize,
    hamiltonian,
    liouvillian,
    projection_jumps,
    stabilizer_jumps,
    vectorize,
)
from clusterpump.observables import fidelity, kernel_readout, spin_expectations
from clusterpump.solver import (
    SAMPLE_BUDGET_BYTES,
    evolve_expm,
    evolve_rk4,
    full_spectrum,
    pure_state_density,
    rank_spectrum,
    steady_state_direct,
    step_count,
)
from conftest import check_density_matrix, kernel_density, kernel_matrix, random_density_matrix, random_graphs

SRC = Path(__file__).resolve().parents[1] / "src"


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
        (PumpModel(g, 1.0, 1.0).liouvillian(0.0), 8),
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


@pytest.mark.parametrize("graph", [GraphSpec.grid(2, 2), GraphSpec.chain(5), GraphSpec.grid(2, 3)],
                         ids=["square:2x2", "chain:5", "square:2x3"])
@pytest.mark.parametrize("h", [0.5, 0.922211])
def test_ranked_rows_do_not_depend_on_round_off_or_input_order(graph, h):
    # eigenvalues equal up to round-off rank as one, so a permuted copy of a
    # spectrum, or the spectrum of a field moved in its last bits, ranks to
    # the same rows within round-off, with the same gap and kernel
    vals = PumpModel(graph, 1.0, h).eigenvalues(5.0)
    order, gap, kernel_dim = rank_spectrum(vals)
    shuffled = vals[np.random.default_rng(7).permutation(vals.size)]
    assert rank_spectrum(shuffled)[1:] == (gap, kernel_dim)
    moved = [PumpModel(graph, 1.0, h * (1.0 + delta)).eigenvalues(5.0) for delta in (1e-15, 4e-15, -3e-15)]
    for other in [shuffled, *moved]:
        assert np.abs(other[rank_spectrum(other)[0]] - vals[order]).max() <= 1e-10


def test_steady_state_residual_invariant():
    L = chain_liouvillian(3, h_g=1.0, gamma_g=5.0)
    spec = full_spectrum(L)
    assert np.linalg.norm(L @ vectorize(spec.steady_state), np.inf) <= 1e-8


def test_no_population_in_orthogonal_states():
    g = GraphSpec.chain(3)
    L = dissipation_only_liouvillian(3, gamma=2.0)
    spec = full_spectrum(L)
    for phi in orthogonal_basis(g):
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


# Run in a child whose OpenBLAS workers sleep as soon as they are idle
# (OPENBLAS_THREAD_TIMEOUT=4), so their run time grows only while a call uses
# them.  Prints the workers' run time before and after a secular solve of
# m = 20 (n = 400 poles), or the reason the pool cannot be watched.
POOL_PROBE = """
import os, threading, time
import numpy as np
from clusterpump import solver

def workers_ns():
    me = threading.get_native_id()
    return sum(int(open(f"/proc/self/task/{tid}/schedstat").read().split()[0])
               for tid in os.listdir("/proc/self/task") if int(tid) != me)

if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
    print("skip numpy's BLAS is not OpenBLAS")
    raise SystemExit
rng = np.random.default_rng(0)
kappa = -rng.random(20) - 1j * rng.normal(size=20)
weights = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
known, mu, w, r = solver.secular_problem(np.add.outer(kappa, kappa.conj()), weights + weights.conj().T)
try:
    asleep = workers_ns()
except OSError as exc:
    print("skip", exc)
    raise SystemExit
a = rng.random((300, 300))
a @ a  # wakes the pool once
time.sleep(0.1)
before = workers_ns()
if before == asleep:
    print("skip no BLAS worker ran for a 300 x 300 product")
    raise SystemExit
roots = solver.secular_roots(mu, w, r)
time.sleep(0.1)
print(known.size + roots.size, before, workers_ns())
"""


def test_secular_roots_leaves_the_blas_pool_asleep():
    # the solver's Cauchy sums are per-row dot products on the calling thread:
    # handed to BLAS as k x n products, they woke OpenBLAS's second thread
    env = dict(os.environ, OPENBLAS_THREAD_TIMEOUT="4")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", POOL_PROBE], env=env, capture_output=True, text=True, check=True)
    words = out.stdout.split()
    if words[0] == "skip":
        pytest.skip(out.stdout)
    count, before, after = map(int, words)
    assert count == 400
    assert after == before


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
    L = PumpModel(graph, 1.0, h).liouvillian(gamma)
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


@pytest.mark.parametrize(
    "t_final, dt", [(1.0, np.nan), (1.0, np.inf), (np.inf, 0.1), (np.nan, 0.1)],
    ids=["dt_nan", "dt_inf", "t_final_inf", "t_final_nan"],
)
def test_rk4_refuses_non_finite_times(rng, t_final, dt):
    rho0 = random_density_matrix(rng, 2)
    with pytest.raises(ValueError, match="dt and t_final must be finite"):
        evolve_rk4(rho0, np.zeros((4, 4)), t_final, dt)


def test_direct_steady_state_refuses_nan():
    # a NaN generator is refused under its own label, not solved into a NaN
    # state or reported as a degenerate kernel
    L = chain_liouvillian(2, h_g=1.0, gamma_g=2.0)
    L[3, 5] = np.nan
    with pytest.raises(NumericalError, match="non-finite steady-state system"):
        steady_state_direct(L)


def rk4_stability_edge(model, gamma):
    """Largest dt at which every eigenvalue of the generator stays in RK4's
    stability region, max |p(dt lam)| <= 1, by bisection."""
    lam = model.eigenvalues(gamma)
    lo, hi = 0.0, 10.0 / max(1.0, float(np.abs(lam).max()))
    for _ in range(60):
        x = 0.5 * (lo + hi) * lam
        growth = np.abs(1.0 + x * (1.0 + x * (0.5 + x * (1.0 / 6.0 + x / 24.0)))).max()
        lo, hi = (0.5 * (lo + hi), hi) if growth <= 1.0 + 1e-12 else (lo, 0.5 * (lo + hi))
    return lo


def one_map_vs_four_stages(model, gamma, rho0, dt, n_steps):
    """Largest deviation, over every sample transformed back, of RK4 with
    ``PumpModel.kernel_step`` from the four-stage RK4 step on ``apply`` in
    the computational basis."""
    kernel = model.kernel_step(gamma)
    four = evolve_rk4(rho0, lambda rho: model.apply(rho, gamma), n_steps * dt, dt, sample_every=3)
    one = kernel.evolve(rho0, n_steps * dt, dt, 3, lambda x: x)
    assert np.array_equal(four.times, one.times)
    return max(float(np.abs(kernel_density(kernel, x) - rho).max()) for x, rho in zip(one.states, four.states))


GRAPHS = [GraphSpec.chain(2), GraphSpec.chain(3), GraphSpec.chain(4), GraphSpec.chain(5), GraphSpec.grid(2, 2),
          GraphSpec(3, ((0, 1),))]
GRAPH_IDS = ["chain:2", "chain:3", "chain:4", "chain:5", "square:2x2", "isolated:3"]


@pytest.mark.parametrize("edge", [False, True], ids=["default_dt", "edge_dt"])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 5.0, 600.0])
@pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
def test_rk4_step_matches_four_stages(rng, graph, gamma, edge):
    # the evolve command's default dt, and 0.95 of the largest stable one; an
    # isolated vertex gives the target a nonzero energy <C|H|C> = h
    model = PumpModel(graph, 1.0, 0.9)
    dt = 0.95 * rk4_stability_edge(model, gamma) if edge else cli._evolve_dt(graph, 0.9, gamma)
    rho0 = random_density_matrix(rng, 2**graph.n_qubits)
    assert one_map_vs_four_stages(model, gamma, rho0, dt, n_steps=40) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    graph=random_graphs(),
    h=st.floats(min_value=-2.0, max_value=2.0),
    gamma=st.floats(min_value=0.0, max_value=1e3),
    fraction=st.floats(min_value=0.01, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rk4_step_matches_four_stages_on_random_graphs(graph, h, gamma, fraction, seed):
    model = PumpModel(graph, 1.0, h)
    # exceptional points of K_J (h = 0 at special gamma) step by four stages
    assume(model.kernel_step(gamma) is not None)
    dt = fraction * rk4_stability_edge(model, gamma)
    rho0 = random_density_matrix(np.random.default_rng(seed), 2**graph.n_qubits)
    assert one_map_vs_four_stages(model, gamma, rho0, dt, n_steps=12) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    graph=random_graphs(),
    h=st.floats(min_value=-60.0, max_value=60.0),
    gamma=st.floats(min_value=0.01, max_value=1e3),
)
def test_evolve_default_dt_is_stable_on_random_graphs(graph, h, gamma):
    # the evolve command's default step, at g = 1, takes the field and the
    # graph into account: it stays inside RK4's stability region
    assert cli._evolve_dt(graph, h, gamma) <= rk4_stability_edge(PumpModel(graph, 1.0, h), gamma)


@pytest.mark.parametrize("gamma", [0.0, 5.0, 600.0])
@pytest.mark.parametrize(
    "graph", [GraphSpec.chain(3), GraphSpec.grid(2, 2), GraphSpec(3, ((0, 1),))],
    ids=["chain:3", "square:2x2", "isolated:3"],
)
def test_rk4_step_output_is_exactly_hermitian(rng, graph, gamma):
    # a state holds the upper triangle of X and a real diagonal, which the
    # step keeps real, so the X of every state is Hermitian to the bit, and
    # a non-Hermitian matrix is read through its upper triangle
    model = PumpModel(graph, 1.0, 0.9)
    kernel = model.kernel_step(gamma)
    d = 2**graph.n_qubits
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    hermitian = 0.5 * (a + a.conj().T)
    assert np.array_equal(hermitian, hermitian.conj().T)
    dt = 0.01 / max(1.0, gamma)
    for rho in (hermitian, a):
        out = kernel_matrix(kernel, kernel.step(kernel._tables(dt), lambda x: None)(kernel.start(rho), dt, 1))
        assert np.array_equal(out, out.conj().T)


@pytest.mark.parametrize("gamma", [0.0, 5.0, 600.0])
@pytest.mark.parametrize(
    "graph", [GraphSpec.chain(3), GraphSpec.grid(2, 2), GraphSpec(3, ((0, 1),))],
    ids=["chain:3", "square:2x2", "isolated:3"],
)
def test_rk4_step_reads_a_start_as_its_hermitian_part(rng, graph, gamma):
    # R^-1 W^T rho W R^-+ is Hermitian only to round-off, and the start keeps
    # its upper triangle: it is the Hermitian part to round-off, and rho
    # steps as its Hermitian part to round-off
    model = PumpModel(graph, 1.0, 0.9)
    kernel = model.kernel_step(gamma)
    rho = random_density_matrix(rng, 2**graph.n_qubits)
    m = kernel.c.size
    R_inv = np.linalg.inv(kernel.R)
    X = kernel.W.T @ rho @ kernel.W
    X[:m] = R_inv @ X[:m]
    X[:, :m] = X[:, :m] @ R_inv.conj().T
    assert np.abs(kernel_matrix(kernel, kernel.start(rho)) - 0.5 * (X + X.conj().T)).max() <= 1e-15
    dt = 0.01 / max(1.0, gamma)
    advance = kernel.step(kernel._tables(dt), lambda x: None)
    stepped = [kernel_density(kernel, advance(kernel.start(r), dt, 1)) for r in (rho, 0.5 * (rho + rho.conj().T))]
    assert np.abs(stepped[0] - stepped[1]).max() <= 1e-15


@pytest.mark.parametrize("gamma", [0.0, 0.5, 5.0, 600.0])
@pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
def test_kernel_step_refuses_no_stable_run(graph, gamma):
    # plus, zero and random starts at the default dt and at 0.95 of the
    # stability edge pass the pre-step refusal and every state check
    model = PumpModel(graph, 1.0, 0.9)
    kernel = model.kernel_step(gamma)
    n = graph.n_qubits
    starts = [pure_state_density(plus_state(n)), pure_state_density(np.eye(2**n)[0]),
              random_density_matrix(np.random.default_rng(7), 2**n)]
    for dt in (0.01 / max(1.0, gamma), 0.95 * rk4_stability_edge(model, gamma)):
        for rho0 in starts:
            traj = kernel.evolve(rho0, 200 * dt, dt, 200, lambda x: x)
            assert np.isfinite(traj.states).all()


def test_kernel_step_accepts_a_stable_run_that_leaves_positivity():
    # at a stable dt RK4 leaves positivity, so ||rho||_F can exceed Tr rho;
    # the one-map route's state check still accepts what four stages accept
    model = PumpModel(GraphSpec(1, ()), 1.0, 1.0)
    dt = 0.875 * rk4_stability_edge(model, 2.0)
    rho0 = random_density_matrix(np.random.default_rng(0), 2)
    four = evolve_rk4(rho0, lambda rho: model.apply(rho, 2.0), 12 * dt, dt)
    assert max(np.linalg.norm(rho) for rho in four.states) > 1.0
    assert min(np.linalg.eigvalsh(rho).min() for rho in four.states) < 0.0
    assert one_map_vs_four_stages(model, 2.0, rho0, dt, n_steps=12) <= 1e-12


def test_kernel_step_refuses_a_growing_run_on_the_support(rng, monkeypatch):
    # with O empty no pole touches O, so nothing is refused before the first
    # step; the state check refuses the run as it grows
    monkeypatch.setattr(lindblad, "SUPPORT_TOL", -1.0)
    model = PumpModel(GraphSpec.chain(2), 1.0, 1.0)
    kernel = model.kernel_step(50.0)
    assert kernel.c.size == kernel.kappa.size
    kernel._tables(0.07)  # the pre-step refusal lets this dt through
    with pytest.raises(NumericalError, match="integration unstable, reduce dt"):
        kernel.evolve(random_density_matrix(rng, 4), 7.0, 0.07, 1, lambda x: x)


def test_kernel_step_refuses_an_unstable_dt_before_stepping(rng, monkeypatch):
    # at gamma = 50, dt = 0.07 puts a pole on a pair that touches O outside
    # RK4's stability region: |p(dt lam)| = 2.75 there, an eigenvalue of L
    model = PumpModel(GraphSpec.chain(2), 1.0, 1.0)
    kernel = model.kernel_step(50.0)
    m, d = kernel.c.size, kernel.kappa.size
    lam = 0.07 * np.add.outer(kernel.kappa, kernel.kappa.conj())
    growth = np.abs(1.0 + lam * (1.0 + lam * (0.5 + lam * (1.0 / 6.0 + lam / 24.0))))
    assert 0 < m < d and growth[:, m:].max() == pytest.approx(2.75, abs=5e-3)

    def never(self, tables, check):
        raise AssertionError("stepped")

    monkeypatch.setattr(KernelStep, "step", never)
    with pytest.raises(NumericalError, match="integration unstable, reduce dt"):
        kernel.evolve(random_density_matrix(rng, 4), 0.7, 0.07, 1, lambda x: x)


def recording_steps(monkeypatch):
    """Patch ``KernelStep.step`` so that each ``advance`` it returns records the
    states it returns in ``returned`` and each call of the state check in
    ``checks``."""
    returned, checks = [], []
    step = KernelStep.step

    def recording(self, tables, check):
        def counted(x):
            checks.append(x)
            check(x)

        advance = step(self, tables, counted)

        def wrapped(x, h, count):
            returned.append(advance(x, h, count))
            return returned[-1]

        return wrapped

    monkeypatch.setattr(KernelStep, "step", recording)
    return returned, checks


def test_kernel_step_refuses_a_growing_run_within_a_sample_interval(rng, monkeypatch):
    # the growing run above: the state check runs on every step, so a run
    # whose one sample interval holds the whole run stops at the first state
    # refused, which is no sample step
    monkeypatch.setattr(lindblad, "SUPPORT_TOL", -1.0)
    kernel = PumpModel(GraphSpec.chain(2), 1.0, 1.0).kernel_step(50.0)
    rho0 = random_density_matrix(rng, 4)
    dt = 0.0625

    def refused(n_steps):
        try:
            kernel.evolve(rho0, n_steps * dt, dt, 1, lambda x: x)
        except NumericalError:
            return True
        return False

    first = next(n for n in range(1, 200) if refused(n))
    assert first > 1
    _, checks = recording_steps(monkeypatch)
    with pytest.raises(NumericalError, match="integration unstable, reduce dt"):
        kernel.evolve(rho0, (first + 10) * dt, dt, first + 20, lambda x: x)
    assert len(checks) == first


@pytest.mark.parametrize("sample_every", [1, 3, 7])
def test_kernel_evolve_is_the_run_of_single_steps(rng, sample_every):
    # one advance call a sample interval gives, to the bit, the states of one
    # call a step, at a t_final no multiple of dt or of the interval, and
    # stays within the one-map tolerance of four stages
    model = PumpModel(GraphSpec.chain(4), 1.0, 0.7)
    kernel = model.kernel_step(3.0)
    rho0 = random_density_matrix(rng, 16)
    t_final, dt = 0.1234, 0.01
    traj = kernel.evolve(rho0, t_final, dt, sample_every, lambda x: x)
    n_steps = step_count(t_final, dt)
    h = t_final / n_steps
    advance = kernel.step(kernel._tables(h), lambda x: None)
    x = kernel.start(rho0)
    expected = [x.copy()]
    for k in range(1, n_steps + 1):
        x = advance(x, h, 1)
        if k % sample_every == 0 or k == n_steps:
            expected.append(x.copy())
    assert n_steps == 13 and len(expected) == 1 + -(-n_steps // sample_every)
    assert np.array_equal(traj.states, np.array(expected))
    four = evolve_rk4(rho0, lambda rho: model.apply(rho, 3.0), t_final, dt, sample_every)
    assert np.array_equal(four.times, traj.times)
    deviations = [np.abs(kernel_density(kernel, x) - rho).max() for x, rho in zip(traj.states, four.states)]
    assert max(deviations) <= 1e-12


def test_kernel_evolve_copies_its_samples_out_of_the_buffers(rng, monkeypatch):
    # advance hands back one of two buffers it overwrites; every sample is
    # its own copy, and any state, not only the one last returned, steps
    kernel = PumpModel(GraphSpec.chain(3), 1.0, 0.9).kernel_step(5.0)
    rho0 = random_density_matrix(rng, 8)
    returned, _ = recording_steps(monkeypatch)
    traj = kernel.evolve(rho0, 0.1, 0.01, 3, lambda x: x)
    assert len(returned) == 4 and len({id(x) for x in returned}) == 2
    assert not any(np.shares_memory(traj.states, x) for x in returned)
    assert all(not np.array_equal(traj.states[i], traj.states[i + 1]) for i in range(len(traj.states) - 1))
    advance = KernelStep.step(kernel, kernel._tables(0.01), lambda x: None)
    x0 = kernel.start(rho0)
    start = x0.copy()
    one = advance(x0, 0.01, 1).copy()
    two = advance(x0, 0.01, 2).copy()
    assert np.array_equal(x0, start)
    assert np.array_equal(advance(one, 0.01, 1), two)


def test_kernel_evolve_of_no_steps_is_its_start(rng):
    kernel = PumpModel(GraphSpec.chain(3), 1.0, 0.9).kernel_step(5.0)
    rho0 = random_density_matrix(rng, 8)
    traj = kernel.evolve(rho0, 0.0, 0.01, 3, lambda x: x)
    assert np.array_equal(traj.times, [0.0])
    assert np.array_equal(traj.states, [kernel.start(rho0)])


def test_kernel_evolve_reads_its_rows_past_the_state_budget(rng):
    # chain:9 with 401 samples: stored as states they would pass the sample
    # budget, but the evolve command's readout stores five floats a sample,
    # and its first rows are the readout of the states the run steps through
    kernel = PumpModel(GraphSpec.chain(9), 1.0, 0.75).kernel_step(5.0)
    rho0 = random_density_matrix(rng, 512)
    readout = kernel_readout(kernel)
    traj = kernel.evolve(rho0, 0.8, 0.002, 1, readout)
    assert traj.states.shape == (401, 5) and np.isfinite(traj.states).all()
    states = kernel.evolve(rho0, 0.006, 0.002, 1, lambda x: x).states
    assert 401 * states[0].nbytes > SAMPLE_BUDGET_BYTES
    assert np.abs(np.array([readout(x) for x in states]) - traj.states[:4]).max() <= 1e-13


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
    with pytest.raises(ValueError, match="density matrix has a significantly negative eigenvalue"):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_rank_spectrum_needs_an_eigenvalue_near_zero():
    with pytest.raises(NumericalError, match="no steady state found: leading eigenvalue"):
        rank_spectrum(np.array([-1.0, -2.0], dtype=complex))


def test_full_spectrum_refuses_a_traceless_kernel_vector():
    # -(I - v v^+) has the single kernel vector v = vec(Z) / sqrt(2), whose trace is 0
    v = vectorize(np.diag([1.0, -1.0]).astype(complex)) / np.sqrt(2.0)
    with pytest.raises(NumericalError, match=r"traceless kernel vector \(kernel_dim = 1\)") as exc:
        full_spectrum(np.outer(v, v.conj()) - np.eye(4))
    assert exc.value.kernel_dim == 1


def test_steady_state_direct_checks_its_residual():
    # -I has no kernel: the unit-trace solve gives |0><0|, which L maps to -|0><0|
    with pytest.raises(NumericalError, match="direct steady-state residual 1 exceeds tolerance 1e-08"):
        steady_state_direct(-np.eye(4, dtype=complex))


def test_step_count_rejects_a_negative_t_final():
    with pytest.raises(ValueError, match="t_final must be nonnegative, got -1.0"):
        step_count(-1.0, 0.1)


def test_evolve_expm_rejects_a_negative_time():
    rho0 = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError, match="t must be nonnegative, got -0.5"):
        evolve_expm(rho0, -np.eye(4, dtype=complex), -0.5)
