"""Cluster states on arbitrary graphs, their stabilizers, and the Z-string
basis of the subspace orthogonal to the target state.

A cluster (graph) state is built by applying a controlled-Z gate along every
graph edge to the uniform-superposition product state.  Its stabilizer group
is generated by one operator per vertex, ``X_j * prod_{k in N(j)} Z_k``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .operators import PauliString, StateVector


@dataclass(frozen=True)
class GraphSpec:
    """An undirected simple graph: qubit count plus edge list (0-based)."""

    n_qubits: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        seen = set()
        normalized = []
        for edge in self.edges:
            j, k = edge
            if j == k:
                raise ValueError(f"self-loop at vertex {j}")
            if not (0 <= j < self.n_qubits and 0 <= k < self.n_qubits):
                raise ValueError(f"edge {edge} out of range for {self.n_qubits} qubits")
            key = (min(j, k), max(j, k))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @classmethod
    def chain(cls, n: int) -> "GraphSpec":
        """Linear chain with open boundary: edges (k, k+1)."""
        return cls(n, tuple((k, k + 1) for k in range(n - 1)))

    @classmethod
    def grid(cls, rows: int, cols: int) -> "GraphSpec":
        """Square-lattice graph on a rows x cols grid, row-major vertex order."""
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be positive")
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
        return cls(rows * cols, tuple(edges))

    def neighbors(self, j: int) -> tuple[int, ...]:
        out = [k if v == j else v for v, k in self.edges if j in (v, k)]
        return tuple(sorted(out))

    @classmethod
    def from_json(cls, text: str) -> "GraphSpec":
        """Parse ``{"n": N, "edges": [[j, k], ...]}``.  Raises ValueError,
        naming the key, unless n and every endpoint are JSON integers (not
        booleans) and edges is a list of pairs; KeyError for a missing key."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"a graph is a JSON object, not {type(doc).__name__}")
        n, edges = doc["n"], doc["edges"]
        if type(n) is not int:  # bool is a subclass of int, and is refused
            raise ValueError(f"graph key 'n' must be an integer, got {n!r}")
        if not isinstance(edges, list):
            raise ValueError(f"graph key 'edges' must be a list of pairs, got {edges!r}")
        for edge in edges:
            if not (isinstance(edge, list) and len(edge) == 2 and all(type(v) is int for v in edge)):
                raise ValueError(f"graph key 'edges' must hold pairs of integers, got {edge!r}")
        return cls(n, tuple(map(tuple, edges)))


def plus_state(n: int) -> StateVector:
    """Uniform superposition of all computational basis states of n qubits."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    dim = 2**n
    return np.full(dim, 2.0 ** (-n / 2.0), dtype=complex)


def apply_cz(state: StateVector, j: int, k: int) -> StateVector:
    """Controlled-Z on sites j and k: flip the sign of amplitudes with both bits set."""
    dim = state.shape[0]
    n = dim.bit_length() - 1
    if j == k or not (0 <= j < n and 0 <= k < n):
        raise ValueError(f"invalid CZ sites ({j}, {k}) for {n} qubits")
    idx = np.arange(dim)
    both = ((idx >> (n - 1 - j)) & 1) & ((idx >> (n - 1 - k)) & 1)
    out = state.astype(complex, copy=True)
    out[both == 1] *= -1.0
    return out


def cluster_state(g: GraphSpec) -> StateVector:
    """Cluster state of a graph: CZ along every edge applied to the plus state.

    CZ gates commute, so the result is independent of edge order.
    """
    state = plus_state(g.n_qubits)
    for j, k in g.edges:
        state = apply_cz(state, j, k)
    return state


def stabilizers(g: GraphSpec) -> list[PauliString]:
    """One generator per vertex j: X at j, Z at each neighbor of j."""
    out = []
    for j in range(g.n_qubits):
        letters = {j: "X"}
        for k in g.neighbors(j):
            letters[k] = "Z"
        out.append(PauliString(g.n_qubits, letters))
    return out


def orthogonal_basis(g: GraphSpec) -> np.ndarray:
    """Z-string basis of the subspace orthogonal to the cluster state, as the
    rows of a (2^N - 1) x 2^N array.

    Row ``s - 1`` is ``prod_m Z_m^{s_m} |C>`` for the nonzero pattern ``s``
    read as an integer (site 0 the most significant bit), ascending.
    These are exactly orthonormal: every amplitude of ``|C>`` has modulus
    ``2^{-N/2}``, so the overlap of patterns ``s`` and ``t`` is the mean of
    the sign ``(-1)^{popcount(x & (s ^ t))}`` over all ``x``, which vanishes
    unless ``s == t``.
    """
    target = cluster_state(g)
    dim = target.shape[0]
    idx = np.arange(dim)
    states = np.empty((dim - 1, dim), dtype=complex)
    for s in range(1, dim):
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & s) & 1)
        states[s - 1] = signs * target
    return states


def state_from_bits(bits: Sequence[int] | Iterable[int]) -> StateVector:
    """Computational basis state |b_0 b_1 ... b_{N-1}> (site 0 most significant)."""
    bits = list(bits)
    n = len(bits)
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b}")
        index = (index << 1) | b
    state = np.zeros(2**n, dtype=complex)
    state[index] = 1.0
    return state
