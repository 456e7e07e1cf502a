"""Batch command-line interface.

Commands: cluster, steady, spectrum, evolve, meanfield, sweep, scaling.
Options come from flags or a JSON config file, whose entries are parsed as
flags placed before the command line's own (flags win); numbers must be finite.
Every command writes a JSON summary embedding the fully resolved
configuration, so runs are reproducible from their outputs alone; identical
configurations produce byte-identical files.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import GraphSpec, cluster_state, plus_state, state_from_bits
from .errors import ConfigError, NumericalError
from .experiments import (
    DEFAULT_GAMMA_POLICY,
    check_epsilon,
    detect_gamma_sat,
    gamma_sweep,
    parse_gamma_policy,
    size_scaling_study,
)
from .lindblad import ModelParams, PumpModel
from .meanfield import MeanFieldState, fixed_points, mean_field_evolve
from .meanfield import default_dt as mf_default_dt
from .observables import (
    fidelity,
    kernel_observables,
    pure_state_spins,
    spin_expectations,
    support_metrics,
    witness_expectation,
)
from .operators import site_flips
from .solver import evolve_rk4, pure_state_density, rank_spectrum


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as config errors and
    takes only whole flag names (``sweep --gamma-g`` is not ``--gamma-grid``)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _finite(text: str) -> float:
    """The type of every float option: a number, but not NaN or infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# a command's result: its summary's own fields, its CSV tables by file name
# as (header, rows), and its text for stdout
_Output = tuple[dict, dict[str, tuple[list[str], list]], str]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])


def parse_graph(text: str) -> GraphSpec:
    """Accept "chain:N", "square:RxC", a JSON file path, or inline JSON."""
    if text.startswith("chain:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad chain preset {text!r}") from exc
        if n < 1:
            raise ConfigError(f"chain length must be positive, got {n}")
        return GraphSpec.chain(n)
    if text.startswith("square:"):
        spec = text.split(":", 1)[1]
        try:
            rows, cols = (int(v) for v in spec.split("x"))
        except ValueError as exc:
            raise ConfigError(f"bad square preset {text!r}; expected square:RxC") from exc
        return GraphSpec.grid(rows, cols)
    if text.lstrip().startswith("{"):
        try:
            return GraphSpec.from_json(text)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad inline graph JSON: {exc}") from exc
    path = Path(text)
    if path.is_file():
        try:
            return GraphSpec.from_json(path.read_text())
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad graph file {text!r}: {exc}") from exc
    raise ConfigError(f"cannot interpret graph {text!r}")


def _config_flags(path: str, keys) -> list[str]:
    """A JSON config file's entries as ``--key=value`` flags of a command taking
    ``keys``: strings raw, other values as JSON, ``null`` the default, and
    ``true``/``false`` the switch ``--skip-gap``; a summary's ``command`` is skipped."""
    try:  # a missing file is an OSError, exit 1 too
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file must hold a JSON object, not {type(cfg).__name__}")
    flags = []
    for key, value in cfg.items():
        k = key.replace("-", "_")
        if k == "command" or value is None:
            continue
        if k not in keys:
            raise ConfigError(f"unknown config key {key!r} for this command")
        flag = "--" + k.replace("_", "-")
        if k == "skip_gap" and isinstance(value, bool):
            flags += [flag] * value
        else:  # a skip_gap other than true or false fails as an explicit argument
            flags.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return flags


def _model(cfg: dict) -> ModelParams:
    return ModelParams(g=float(cfg["sign_g"]), h=cfg["h_g"], gamma=cfg["gamma_g"])


def _pump(cfg: dict) -> tuple[PumpModel, float]:
    """The model on the config's graph, and the rate ``_model`` checks: the
    graph is read first, the model's size guard last."""
    graph, p = parse_graph(cfg["graph"]), _model(cfg)
    return PumpModel(graph, p.g, p.h), p.gamma


def _bitstring(index: int, n: int) -> str:
    return format(index, f"0{n}b")


def _stabilizer_deviation(graph: GraphSpec, state: np.ndarray) -> float:
    """max_j |S_j psi - psi|_inf for S_j = X_j prod_{k in N(j)} Z_k, without matrices:
    (S_j psi)[x] = s(y) psi[y] at y = x xor (bit j), s the neighbours' Z signs."""
    sites = site_flips(state.size)
    deviation = 0.0
    for j in range(graph.n_qubits):
        signed = state.copy()
        for k in graph.neighbors(j):
            signed *= sites[k][1]
        deviation = max(deviation, float(np.abs(signed[sites[j][0]] - state).max()))
    return deviation


# ---------------------------------------------------------------- commands
# Each handler is a function of the resolved config alone and returns an
# ``_Output``; ``main`` writes it once the handler has returned, so a failed
# command writes no file.


def _cmd_cluster(cfg: dict) -> _Output:
    """Build a cluster state and print its amplitudes."""
    graph = parse_graph(cfg["graph"])
    state = cluster_state(graph)
    n = graph.n_qubits
    stab_dev = _stabilizer_deviation(graph, state)
    spins = pure_state_spins(state)
    amplitudes = [
        [_bitstring(i, n), float(a.real), float(a.imag)]
        for i, a in enumerate(state)
        if abs(a) > 1e-14
    ]
    summary = {
        "n_qubits": n,
        "edges": [list(e) for e in graph.edges],
        "amplitudes": amplitudes,
        "stabilizer_max_deviation": stab_dev,
        "local_spin_expectations": [spins.jx, spins.jy, spins.jz],
    }
    lines = [f"cluster state on {n} qubits, {len(graph.edges)} edges"]
    lines += [f"  |{bits}>  {re:+.6f}{im:+.6f}j" for bits, re, im in amplitudes]
    lines.append(f"stabilizer max deviation: {stab_dev:.3e}")
    return summary, {}, "\n".join(lines)


def _cmd_steady(cfg: dict) -> _Output:
    """Steady state and Liouvillian gap, in the eigenbasis of H without the
    4^N x 4^N superoperator (N <= 7, for the eigenvalues)."""
    model, gamma = _pump(cfg)
    # ranked first, so that gamma = 0 fails as a degenerate kernel with its dimension
    _, gap, kernel_dim = rank_spectrum(model.eigenvalues(gamma))
    # read off the support as a sweep point is, and transformed back for the residual
    rho, antihermitian = model.support_steady_state(gamma)
    _, _, c, m = model.eigenbasis
    fid, witness = support_metrics(c[:m], rho, eta=cfg["eta"])
    rho = model.density(rho)
    summary = {
        "n_qubits": model.graph.n_qubits,
        "fidelity": fid,
        "witness": witness,
        "gap": gap,
        "kernel_dim": kernel_dim,
        "steady_state_residual": float(np.abs(model.apply(rho, gamma)).max()),
        "antihermitian_residual": antihermitian,
    }
    message = json.dumps({k: summary[k] for k in ("fidelity", "witness", "gap", "kernel_dim")}, sort_keys=True)
    return summary, {}, message


def _cmd_spectrum(cfg: dict) -> _Output:
    """Write the full Liouvillian spectrum, from the eigenbasis of H without
    the 4^N x 4^N superoperator (N <= 7)."""
    model, gamma = _pump(cfg)
    vals = model.eigenvalues(gamma)
    order, gap, kernel_dim = rank_spectrum(vals)
    vals = vals[order]
    summary = {
        "n_qubits": model.graph.n_qubits,
        "n_eigenvalues": int(vals.size),
        "gap": gap,
        "kernel_dim": kernel_dim,
        "max_real_part": float(vals.real.max()),
    }
    tables = {"spectrum.csv": (["re", "im"], [[lam.real, lam.imag] for lam in vals])}
    return summary, tables, f"wrote {vals.size} eigenvalues; gap = {gap:.6g}"


def _initial_density(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    dim = 2**n
    if kind == "plus":
        return pure_state_density(plus_state(n))
    if kind == "zero":
        return pure_state_density(state_from_bits([0] * n))
    if kind == "mixed":
        return np.eye(dim, dtype=complex) / dim
    if kind == "random":
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = a @ a.conj().T
        return rho / np.trace(rho)
    raise ConfigError(f"unknown initial state {kind!r}")


def _cmd_evolve(cfg: dict) -> _Output:
    """Integrate the master equation and record observables."""
    model, gamma = _pump(cfg)
    rng = np.random.default_rng(cfg["seed"])
    rho0 = _initial_density(cfg["rho0"], model.graph.n_qubits, rng)
    dt = cfg["dt"] if cfg["dt"] is not None else 0.01 / max(1.0, abs(cfg["gamma_g"]))
    kernel = model.kernel_step(gamma)
    if kernel is not None:
        # step in the eigenbasis of K and read the observables there
        traj = kernel.evolve(rho0, cfg["t_final"], dt, sample_every=cfg["sample_every"])
        observables = kernel_observables(traj.states, kernel, eta=cfg["eta"])
    else:
        # at an exceptional point of K_J: four stages of the generator's action
        traj = evolve_rk4(rho0, lambda rho: model.apply(rho, gamma), cfg["t_final"], dt,
                          sample_every=cfg["sample_every"])
        observables = [
            [*spin_expectations(rho).as_array(), fidelity(rho, model.target),
             witness_expectation(rho, model.target, eta=cfg["eta"])]
            for rho in traj.states
        ]
    rows = np.column_stack([traj.times, observables]).tolist()
    header = ["t", "jx", "jy", "jz", "fidelity", "witness"]
    final = dict(zip(header, rows[-1]))
    summary = {"n_qubits": model.graph.n_qubits, "dt": dt, "n_samples": len(rows), "final": final}
    message = f"evolved to t = {final['t']:g}; final fidelity = {final['fidelity']:.6f}"
    return summary, {"evolve.csv": (header, rows)}, message


def _cmd_meanfield(cfg: dict) -> _Output:
    """Mean-field trajectory and fixed-point table."""
    params = _model(cfg)
    points = fixed_points(params)
    rng = np.random.default_rng(cfg["seed"])
    if cfg["s0"]:
        try:
            x, y, z = (float(v) for v in cfg["s0"].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad s0 {cfg['s0']!r}; expected x,y,z") from exc
        if not all(math.isfinite(v) for v in (x, y, z)):
            raise ConfigError(f"bad s0 {cfg['s0']!r}; components must be finite")
        s0 = MeanFieldState(x, y, z)
    else:
        # Default: a small seeded perturbation of the first stable branch
        # (or of the first branch when none is stable).
        base = next((fp for fp in points if fp.stable), points[0])
        s0 = MeanFieldState.from_array(base.state.as_array() + rng.normal(0.0, 0.05, 3))
    dt = cfg["dt"] if cfg["dt"] is not None else mf_default_dt(params)
    traj = mean_field_evolve(s0, params, cfg["t_final"], dt, sample_every=cfg["sample_every"])
    tables = {
        "meanfield.csv": (
            ["t", "jx", "jy", "jz"],
            [[t, s[0], s[1], s[2]] for t, s in zip(traj.times, traj.states)],
        ),
        "meanfield_fixed_points.csv": (
            ["label", "jx", "jy", "jz", "stable", "classification"],
            [
                [fp.label, fp.state.jx, fp.state.jy, fp.state.jz, str(fp.stable), fp.classification]
                for fp in points
            ],
        ),
    }
    final = traj.states[-1]
    summary = {
        "dt": dt,
        "s0": [s0.jx, s0.jy, s0.jz],
        "final_state": [float(final[0]), float(final[1]), float(final[2])],
        "fixed_points": [
            {
                "label": fp.label,
                "state": [fp.state.jx, fp.state.jy, fp.state.jz],
                "stable": fp.stable,
                "classification": fp.classification,
            }
            for fp in points
        ],
    }
    return summary, tables, f"final mean-field state: ({final[0]:.6f}, {final[1]:.6f}, {final[2]:.6f})"


def _cmd_sweep(cfg: dict) -> _Output:
    """Gamma sweep of steady-state metrics."""
    check_epsilon(cfg["epsilon"])
    graph = parse_graph(cfg["graph"])
    grid = parse_gamma_policy(cfg["gamma_grid"])
    sweep = gamma_sweep(graph, cfg["h_g"], grid, compute_gap=not cfg["skip_gap"], eta=cfg["eta"],
                        g=float(cfg["sign_g"]))
    rows = list(zip(sweep.axis_values, sweep.fidelity, sweep.witness, sweep.gap, sweep.status))
    gamma_sat = None
    note = None
    try:
        gamma_sat = detect_gamma_sat(sweep, epsilon=cfg["epsilon"])
    except NumericalError as exc:
        note = str(exc)
    finite = np.isfinite(sweep.fidelity)
    summary = {
        "n_qubits": graph.n_qubits,
        "n_points": int(grid.size),
        "n_failed": int(np.count_nonzero(~finite)),
        "gamma_sat": gamma_sat,
        "gamma_sat_note": note,
        "max_fidelity": float(np.nanmax(sweep.fidelity)) if finite.any() else None,
        "min_witness": float(np.nanmin(sweep.witness)) if finite.any() else None,
    }
    tables = {"sweep.csv": (["gamma_g", "fidelity", "witness", "gap", "status"], rows)}
    return summary, tables, f"sweep over {grid.size} points; gamma_sat = {gamma_sat}"


def _cmd_scaling(cfg: dict) -> _Output:
    """Size-scaling study with fits."""
    try:
        n_values = [int(v) for v in cfg["n_values"].split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad n_values {cfg['n_values']!r}") from exc
    study = size_scaling_study(
        n_values,
        h_g=cfg["h_g"],
        gamma_policy=cfg["gamma_policy"],
        epsilon=cfg["epsilon"],
        weak_gamma=cfg["weak_gamma"],
        strong_gamma=cfg["strong_gamma"],
    )
    rows = [dataclasses.asdict(r) for r in study.rows]
    summary = {
        "weak_gamma": study.weak_gamma,
        "strong_gamma": study.strong_gamma,
        "rows": rows,
        "fits": {name: dataclasses.asdict(fit) for name, fit in study.fits.items()},
    }
    message = "\n".join(
        f"N={r.n}: gamma_sat={r.gamma_sat:.4g} f_sat={r.f_sat:.6f} "
        f"gap_weak={r.gap_weak:.4g} gap_strong={r.gap_strong:.4g}"
        for r in study.rows
    )
    return summary, {"scaling.csv": (list(rows[0]), [list(r.values()) for r in rows])}, message


# ---------------------------------------------------------------- wiring

_MODEL_DEFAULTS = {"h_g": 1.0, "gamma_g": 1.0, "sign_g": 1}

# Each command's handler and settable values; every key is both a config-file
# key and a flag, as is ``out``, which every command takes.
_COMMANDS = {
    "cluster": (_cmd_cluster, {"graph": "chain:4"}),
    "steady": (_cmd_steady, {**_MODEL_DEFAULTS, "eta": 0.5, "graph": "chain:4"}),
    "spectrum": (_cmd_spectrum, {**_MODEL_DEFAULTS, "graph": "chain:4"}),
    "evolve": (_cmd_evolve, {
        "seed": 0,
        **_MODEL_DEFAULTS,
        "eta": 0.5,
        "graph": "chain:4",
        "t_final": 10.0,
        "dt": None,
        "rho0": "plus",
        "sample_every": 10,
    }),
    "meanfield": (_cmd_meanfield, {
        "seed": 0,
        **_MODEL_DEFAULTS,
        "s0": None,
        "t_final": 20.0,
        "dt": None,
        "sample_every": 10,
    }),
    "sweep": (_cmd_sweep, {
        "h_g": 1.0,
        "sign_g": 1,
        "eta": 0.5,
        "graph": "chain:3",
        "gamma_grid": "log:0.1:500:31",
        "skip_gap": False,
        "epsilon": 1e-3,
    }),
    "scaling": (_cmd_scaling, {
        "h_g": 1.0,
        "n_values": "2,3,4",
        "gamma_policy": DEFAULT_GAMMA_POLICY,
        "epsilon": 1e-3,
        "weak_gamma": 1.0,
        "strong_gamma": None,
    }),
}

# add_argument keywords of the flag for each key
_OPTIONS = {
    "seed": {"type": int, "help": "seed for randomized initial states"},
    "h_g": {"type": _finite, "help": "transverse field h/|g|"},
    "gamma_g": {"type": _finite, "help": "dissipation rate gamma/|g|"},
    "sign_g": {"type": int, "choices": (1, -1), "help": "sign of the Ising coupling"},
    "eta": {"type": _finite, "help": "witness offset (default 1/2)"},
    "graph": {"help": 'graph preset ("chain:N", "square:RxC"), JSON file, or inline JSON'},
    "t_final": {"type": _finite},
    "dt": {"type": _finite, "help": "RK4 step (default: 0.01/max(1, gamma/|g|) for evolve, "
                                    "0.005/max(1, |h|/|g|, gamma/|g|) for meanfield)"},
    "rho0": {"choices": ("plus", "zero", "mixed", "random"), "help": "initial state"},
    "sample_every": {"type": int},
    "s0": {"help": "initial (jx,jy,jz) as x,y,z; default perturbs a stable branch"},
    "gamma_grid": {"help": 'grid, e.g. "log:0.1:500:31"'},
    "skip_gap": {"action": "store_const", "const": True,
                 "help": "skip spectra (fast steady-state solves only)"},
    "epsilon": {"type": _finite, "help": "saturation criterion"},
    "n_values": {"help": "comma-separated chain lengths"},
    "gamma_policy": {},
    "weak_gamma": {"type": _finite},
    "strong_gamma": {"type": _finite,
                     "help": "fixed strong dissipation for the gap fit (default: largest gamma_sat)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clusterpump", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        p.add_argument("--out", default=".", help="output directory (default: current directory)")
        for key in defaults:
            p.add_argument("--" + key.replace("_", "-"), **_OPTIONS[key])
        p.set_defaults(**defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: its handler computes, then this writes each of its
    tables and ``<command>.json``, the summary with the resolved config and
    the version, and prints its message."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        handler, defaults = _COMMANDS[args.command]
        if args.config:
            # argv[0] is the command; the file's flags go before the command line's
            flags = _config_flags(args.config, ("out", *defaults))
            args = parser.parse_args([argv[0], *flags, *argv[1:]])
        cfg = {k: v for k, v in vars(args).items() if k != "config"}
        out_dir = Path(cfg["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        summary, tables, message = handler(cfg)
        for name, (header, rows) in tables.items():
            _write_csv(out_dir / name, header, rows)
        doc = {"config": cfg, "version": __version__, **summary}
        (out_dir / f"{args.command}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(message)
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
