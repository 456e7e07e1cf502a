"""Dissipative preparation of graph/cluster states.

The package builds cluster states for arbitrary graphs, engineers jump
operators whose Lindblad dynamics pump the system into the target state,
and analyzes the resulting Liouvillian: steady states, spectra and gaps,
exact and mean-field time evolution, and size-scaling experiments.
"""

__version__ = "0.1.0"

from .cluster import GraphSpec, cluster_state, orthogonal_basis, plus_state, stabilizers
from .errors import ConfigError, NumericalError
from .experiments import (
    FitResult,
    ScalingStudy,
    SweepResult,
    detect_gamma_sat,
    fit_linear,
    fit_offset_inverse,
    fit_power_law,
    gamma_sweep,
    size_scaling_study,
)
from .lindblad import (
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
from .meanfield import FixedPoint, MeanFieldState, fixed_points, mean_field_evolve, mean_field_rhs
from .observables import fidelity, spin_expectations, witness_expectation
from .operators import PauliString, pauli_to_dense
from .solver import (
    SpectrumResult,
    Trajectory,
    evolve_expm,
    evolve_rk4,
    full_spectrum,
    pure_state_density,
    steady_state_direct,
)

__all__ = [
    "ConfigError",
    "FitResult",
    "FixedPoint",
    "GraphSpec",
    "MeanFieldState",
    "ModelParams",
    "NumericalError",
    "PauliString",
    "PumpModel",
    "ScalingStudy",
    "SpectrumResult",
    "SweepResult",
    "Trajectory",
    "cluster_state",
    "detect_gamma_sat",
    "devectorize",
    "evolve_expm",
    "evolve_rk4",
    "fidelity",
    "fit_linear",
    "fit_offset_inverse",
    "fit_power_law",
    "fixed_points",
    "full_spectrum",
    "gamma_sweep",
    "hamiltonian",
    "liouvillian",
    "liouvillian_parts",
    "mean_field_evolve",
    "mean_field_rhs",
    "orthogonal_basis",
    "pauli_to_dense",
    "plus_state",
    "projection_jumps",
    "pure_state_density",
    "size_scaling_study",
    "spin_expectations",
    "stabilizer_jumps",
    "stabilizers",
    "steady_state_direct",
    "vectorize",
    "witness_expectation",
]
