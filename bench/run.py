"""clusterpump benchmark: fixed CLI workloads, timed and checked from outside.

    python3 bench/run.py --workload sweep_n6 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload sweep_n6 --seed 0 --seconds 40 --trace 1
    python3 bench/run.py --record --seed 0      # write bench/reference/seed_0.json

One client runs repetitions of the workload strictly one after another
(closed loop).  Every CLI command of a repetition runs in a fresh child
interpreter (``bench/child.py``) against the package under ``src/``, so no
in-process state carries from one command or repetition to the next.  The
seed fixes the inputs: h/g is drawn uniformly from [0.5, 1.0] and the seed
itself is the ``--seed`` of randomized initial states.

A run repeats the workload while another repetition still fits in
``--seconds`` (at least once), checks every output against seed-independent
invariants and, when ``bench/reference/seed_<seed>.json`` exists, against
values recorded from the reference implementation.  The last line of
standard output is the result object; the line before it holds the
per-repetition record, the environment and the failures.  With
``--trace 1`` each loop runs an untraced repetition and a traced one, and the
result holds the per-layer metrics instead of the end-to-end ones.

See bench/README.md for the workloads, metrics and layer predictions.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

# Seed 101 is held out: no change is tuned on it; it confirms a claim made
# on other seeds.
DEFAULT_SEED = 0

RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 3  # set-up-only children per run, after one warm-up
ETA = 0.5  # witness offset; the CLI default
WITNESS_TOL = 1e-12
STEADY_TOL = 1e-8
TRAJECTORY_TOL = 1e-6
COMPLEX_BYTES = 16

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Functions of each layer whose own metrics are reported; layer.<name>.self_s
# sums the self time of every traced function of that module.
LAYERS = ("cli", "experiments", "lindblad", "cluster", "solver", "observables", "operators", "meanfield")
PER_LAYER = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "experiments.gamma_sweep.self_s": "s",
    "experiments.size_scaling_study.self_s": "s",
    "experiments.sweep_points": "count",
    "experiments.sweep_points_failed": "count",
    "lindblad.liouvillian_parts.calls": "count",
    "lindblad.liouvillian_parts.busy_s": "s",
    "lindblad.liouvillian_parts.bytes_computed": "B",
    "lindblad.liouvillian_parts.distinct_ratio": "ratio",
    "lindblad.hamiltonian.busy_s": "s",
    "lindblad.projection_jumps.self_s": "s",
    "solver.steady_state_direct.calls": "count",
    "solver.steady_state_direct.busy_s": "s",
    "solver.steady_state_direct.p50_s": "s",
    "solver.steady_state_direct.failed": "count",
    "solver.full_spectrum.calls": "count",
    "solver.full_spectrum.busy_s": "s",
    "solver.full_spectrum.failed": "count",
    "solver.evolve_rk4.calls": "count",
    "solver.evolve_rk4.busy_s": "s",
    "solver.evolve_rk4.steps": "count",
    "observables.spin_expectations.calls": "count",
    "observables.spin_expectations.self_s": "s",
    "observables.fidelity.busy_s": "s",
    "observables.witness_expectation.busy_s": "s",
    "operators.pauli_to_dense.calls": "count",
    "operators.pauli_to_dense.busy_s": "s",
    "cluster.orthogonal_basis.busy_s": "s",
    "cluster.cluster_state.calls": "count",
    "meanfield.mean_field_evolve.busy_s": "s",
    "meanfield.mean_field_evolve.steps": "count",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------- checks


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _compare(values: list[float], refs: list[float], tol: float) -> str | None:
    if len(values) != len(refs):
        return f"{len(values)} values where the reference has {len(refs)}"
    for k, (v, r) in enumerate(zip(values, refs)):
        if not _close(v, r, tol):
            return f"value {k} is {v!r}, reference {r!r} (tolerance {tol:g})"
    return None


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(out: Path, ref: dict | None, n_points: int):
    """Grid points must be ok, obey witness = eta - F, keep F in [0, 1] and
    non-decreasing in gamma; gamma_sat must be detected."""
    rows = _read_csv(out / "sweep.csv")
    summary = json.loads((out / "sweep.json").read_text())
    fails = {}
    fid = [float(r["fidelity"]) for r in rows]
    wit = [float(r["witness"]) for r in rows]
    for i in range(n_points):
        if i >= len(rows):
            fails[f"point {i}"] = "missing from sweep.csv"
        elif rows[i]["status"] != "ok":
            fails[f"point {i}"] = f"status {rows[i]['status']!r}"
        elif not 0.0 <= fid[i] <= 1.0:
            fails[f"point {i}"] = f"fidelity {fid[i]!r} outside [0, 1]"
        elif abs(wit[i] - (ETA - fid[i])) > WITNESS_TOL:
            fails[f"point {i}"] = f"witness {wit[i]!r} differs from eta - F = {ETA - fid[i]!r}"
        elif i and fid[i] < fid[i - 1]:
            fails[f"point {i}"] = f"fidelity fell from {fid[i - 1]!r} to {fid[i]!r}"
    gamma_sat = summary["gamma_sat"]
    if gamma_sat is None:
        fails["cmd"] = f"gamma_sat not detected: {summary['gamma_sat_note']}"
    values = {"fidelity": fid, "witness": wit, "gamma_sat": gamma_sat}
    if ref:
        for i in range(min(n_points, len(rows))):
            problem = _compare([fid[i], wit[i]], [ref["fidelity"][i], ref["witness"][i]], STEADY_TOL)
            if problem and f"point {i}" not in fails:
                fails[f"point {i}"] = f"(F, witness) {problem}"
        if gamma_sat is not None and not _close(gamma_sat, ref["gamma_sat"], STEADY_TOL):
            fails["cmd"] = f"gamma_sat {gamma_sat!r}, reference {ref['gamma_sat']!r}"
    return values, fails


def check_scaling(out: Path, ref: dict | None, n_rows: int):
    """Every row needs a detected gamma_sat, F_sat in [0, 1] and positive gaps."""
    summary = json.loads((out / "scaling.json").read_text())
    rows = [[r["n"], r["gamma_sat"], r["f_sat"], r["gap_weak"], r["gap_strong"]] for r in summary["rows"]]
    fails = {}
    for i in range(n_rows):
        if i >= len(rows):
            fails[f"row {i}"] = "missing from scaling.json"
            continue
        _, gamma_sat, f_sat, gap_weak, gap_strong = rows[i]
        if not (math.isfinite(gamma_sat) and gamma_sat > 0):
            fails[f"row {i}"] = f"gamma_sat {gamma_sat!r} not detected"
        elif not 0.0 <= f_sat <= 1.0:
            fails[f"row {i}"] = f"f_sat {f_sat!r} outside [0, 1]"
        elif not (gap_weak > 0 and gap_strong > 0):
            fails[f"row {i}"] = f"gaps {gap_weak!r}, {gap_strong!r} not positive"
    fits = {name: [*fit["coefficients"], fit["r_squared"]] for name, fit in summary["fits"].items()}
    values = {"rows": rows, "fits": fits, "strong_gamma": summary["strong_gamma"]}
    if ref:
        for i in range(min(n_rows, len(rows))):
            problem = _compare(rows[i], ref["rows"][i], STEADY_TOL)
            if problem and f"row {i}" not in fails:
                fails[f"row {i}"] = problem
        problems = {name: _compare(fits.get(name, []), coef, STEADY_TOL) for name, coef in ref["fits"].items()}
        if not _close(values["strong_gamma"], ref["strong_gamma"], STEADY_TOL):
            problems["strong_gamma"] = f"{values['strong_gamma']!r}, reference {ref['strong_gamma']!r}"
        if any(problems.values()):
            fails["cmd"] = "; ".join(f"{name}: {p}" for name, p in problems.items() if p)
    return values, fails


def _trajectory(path: Path, stride: int) -> tuple[list[list[float]], list[list[float]]]:
    """All rows of a trajectory CSV, and every stride-th row plus the last for
    comparison with a reference."""
    rows = [[float(v) for v in r.values()] for r in _read_csv(path)]
    return rows, rows[::stride] + rows[-1:]


def _compare_trajectory(sampled: list[list[float]], ref: dict) -> str | None:
    if len(sampled) != len(ref["rows"]):
        return f"{len(sampled)} sampled rows, reference has {len(ref['rows'])}"
    problems = [_compare(v, r, TRAJECTORY_TOL) for v, r in zip(sampled, ref["rows"])]
    return next((f"trajectory differs from reference: {p}" for p in problems if p), None)


def check_evolve(out: Path, ref: dict | None, _sub_ops: int):
    """Every sample must be finite with F in [0, 1]."""
    rows, sampled = _trajectory(out / "evolve.csv", 25)
    fails = {}
    bad = [i for i, r in enumerate(rows) if not all(math.isfinite(v) for v in r) or not 0.0 <= r[4] <= 1.0]
    if not rows:
        fails["cmd"] = "evolve.csv has no samples"
    elif bad:
        fails["cmd"] = f"{len(bad)} samples not finite or with F outside [0, 1], first at t = {rows[bad[0]][0]!r}"
    elif ref and (problem := _compare_trajectory(sampled, ref)):
        fails["cmd"] = problem
    return {"rows": sampled}, fails


def check_meanfield(out: Path, ref: dict | None, _sub_ops: int):
    """The final mean-field state must lie inside the unit ball."""
    final = json.loads((out / "meanfield.json").read_text())["final_state"]
    _, sampled = _trajectory(out / "meanfield.csv", 20)
    fails = {}
    norm = math.sqrt(sum(v * v for v in final))
    if not norm <= 1.0:
        fails["cmd"] = f"final state {final!r} has norm {norm!r} > 1"
    elif ref and (problem := _compare_trajectory(sampled, ref)):
        fails["cmd"] = problem
    return {"rows": sampled}, fails


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # formatted with the workload inputs
    check: Callable
    sub_ops: int = 0  # grid points or rows, each one operation
    sub_op_kind: str = ""

    @property
    def name(self) -> str:
        return self.argv[0]

    def ops(self) -> list[str]:
        return ["cmd"] + [f"{self.sub_op_kind} {i}" for i in range(self.sub_ops)]


@dataclass(frozen=True)
class Workload:
    n_qubits: int  # largest register; sets the superoperator size
    commands: tuple[Command, ...]


WORKLOADS = {
    "sweep_n6": Workload(6, (
        Command(("sweep", "--graph", "square:2x3", "--h-g", "{h_g}", "--gamma-grid", "log:50:5000:4", "--skip-gap"),
                check_sweep, 4, "point"),
    )),
    "scaling_n5": Workload(5, (
        Command(("scaling", "--n-values", "2,3,4,5", "--h-g", "{h_g}", "--gamma-policy", "log:0.5:600:24"),
                check_scaling, 4, "row"),
    )),
    "dynamics_n5": Workload(5, (
        Command(("evolve", "--graph", "chain:5", "--h-g", "{h_g}", "--gamma-g", "5", "--t-final", "5",
                 "--rho0", "random", "--seed", "{seed}", "--sample-every", "10"), check_evolve),
        Command(("meanfield", "--h-g", "{h_g}", "--gamma-g", "5", "--t-final", "20", "--seed", "{seed}"),
                check_meanfield),
    )),
}


def workload_inputs(seed: int) -> dict:
    """The program's inputs for a seed: h/g uniform in [0.5, 1.0], and the seed."""
    return {"h_g": f"{random.Random(seed).uniform(0.5, 1.0):.6f}", "seed": str(seed)}


def load_reference(seed: int, inputs: dict) -> dict:
    path = REFERENCE_DIR / f"seed_{seed}.json"
    if not path.is_file():
        return {}
    ref = json.loads(path.read_text())
    if ref["inputs"] != inputs:
        raise BenchError(f"{path} was recorded for inputs {ref['inputs']}, not {inputs}")
    return ref["workloads"]


# ---------------------------------------------------------------- children


class Runner:
    """Starts child interpreters under one deadline, inside a work directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))
        self._next = 0

    def child(self, argv: list[str], trace: bool = False, rep: str = "-") -> tuple[dict | None, str]:
        """Run bench/child.py; return its result (None on failure) and stderr."""
        self._next += 1
        result_path = self.work / f"child-{self._next}.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path), "1" if trace else "0", rep]
        if argv:
            cmd += ["--", *argv]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"killed after {timeout:.0f} s"
        if proc.returncode != 0 or not result_path.is_file():
            return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        result = json.loads(result_path.read_text())
        if not Path(result["package_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported {result['package_file']}, not the package under {SRC}")
        return result, proc.stderr

    def repetition(self, workload: str, inputs: dict, refs: dict, rep: str, trace: bool) -> dict:
        """Run every command of the workload once, each in its own child, and check it."""
        spec = WORKLOADS[workload]
        record = {"rep": rep, "traced": trace, "h_g": inputs["h_g"], "seed": inputs["seed"],
                  "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "setup_s": [],
                  "ops": 0, "failures": {}, "values": {}, "traces": []}
        for j, command in enumerate(spec.commands):
            out = self.work / rep / f"{j}-{command.name}"
            out.mkdir(parents=True)
            argv = [a.format(**inputs) for a in command.argv] + ["--out", str(out)]
            ops = command.ops()
            record["ops"] += len(ops)
            result, stderr = self.child(argv, trace, rep)
            fails = {}
            if result is None or result["rc"] != 0:
                reason = stderr.strip()[-500:] if result is None else f"exit code {result['rc']}: {stderr.strip()[-500:]}"
                fails = {op: reason for op in ops}
            else:
                try:
                    values, fails = command.check(out, refs.get(command.name), command.sub_ops)
                    record["values"][command.name] = values
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    fails = {op: f"unreadable output: {exc!r}" for op in ops}
            record["failures"].update({f"{command.name} {op}": msg for op, msg in fails.items()})
            if result is not None:
                record["setup_s"].append(result["setup_s"])
                if "wall_s" in result:
                    record["wall_s"] += result["wall_s"]
                    record["cpu_s"] += result["cpu_s"]
                    record["peak_rss_mb"] = max(record["peak_rss_mb"], result["maxrss_kb"] / 1024.0)
                if "trace" in result:
                    record["traces"].append(result["trace"])
        shutil.rmtree(self.work / rep, ignore_errors=True)
        return record


# ---------------------------------------------------------------- metrics


def summarize(samples: list[float]) -> dict:
    """Median, and the highest listed percentile with at least ten samples beyond it."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "n": len(s), "tail": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(p / 100.0 * len(s))
        if len(s) - rank >= 10:
            out["tail"] = {"percentile": p, "value": s[rank - 1]}
            break
    return out


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one repetition from the spans of its commands."""
    funcs: dict[str, dict] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    counts: dict[str, int] = {}
    systems: list[list[str]] = []
    for trace in traces:
        spans = {s[0]: s for s in trace["spans"]}
        child_time = dict.fromkeys(spans, 0.0)
        for _, _, start, end, parent, _, _ in spans.values():
            if parent in child_time:
                child_time[parent] += end - start
        for sid, name, start, end, _, _, failed in spans.values():
            f = funcs.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0, "durations": []})
            f["calls"] += 1
            f["busy_s"] += end - start
            f["self_s"] += end - start - child_time[sid]
            f["failed"] += failed
            f["durations"].append(end - start)
            layer_self[name.split(".")[0]] += end - start - child_time[sid]
        trace_counts = dict(trace["counts"])
        # Systems can only repeat within one process; commands share no state.
        systems.append(trace_counts.pop("lindblad.liouvillian_parts.systems"))
        for key, value in trace_counts.items():
            counts[key] = counts.get(key, 0) + value
    n_calls = sum(len(keys) for keys in systems)
    counts["lindblad.liouvillian_parts.distinct_ratio"] = (
        sum(len(set(keys)) for keys in systems) / n_calls if n_calls else 0.0
    )
    out = {}
    for metric in PER_LAYER:
        if metric in counts:
            out[metric] = counts[metric]
        elif metric.startswith("layer."):
            out[metric] = layer_self[metric.split(".")[1]]
        elif not metric.startswith("trace."):
            name, stat = metric.rsplit(".", 1)
            f = funcs.get(name)
            if stat == "p50_s":
                out[metric] = statistics.median(f["durations"]) if f else 0.0
            else:
                out[metric] = f[stat] if f else 0
    return out


# ---------------------------------------------------------------- environment


def _cache_sizes() -> dict:
    """L2 and L3 sizes in bytes, read from sysfs; None where unavailable."""
    sizes = {"L2": None, "L3": None}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if f"L{level}" in sizes and size:
            factor = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1], 1)
            sizes[f"L{level}"] = int(size.rstrip("KMG")) * factor
    return sizes


def environment(numerics: dict, workload: str) -> dict:
    caches = _cache_sizes()
    superop = COMPLEX_BYTES * 16 ** WORKLOADS[workload].n_qubits
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **{k: numerics.get(k) for k in ("python", "numpy", "scipy", "blas")},
        "cache_bytes": caches,
        "superoperator_bytes": superop,
        "superoperator_fits_l3": None if caches["L3"] is None else superop <= caches["L3"],
    }


# ---------------------------------------------------------------- runs


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    inputs = workload_inputs(seed)
    refs = load_reference(seed, inputs).get(workload, {})
    start = time.monotonic()
    load_before = os.getloadavg()[0]
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        runner = Runner(work, start + RUN_LIMIT_S)
        warm, err = runner.child([])  # compiles bytecode; not timed
        if warm is None:
            raise BenchError(f"cannot import clusterpump: {err}")
        setup = []
        for _ in range(SETUP_PROBES):
            probe, err = runner.child([])
            if probe is None:
                raise BenchError(f"cannot import clusterpump: {err}")
            setup.append(probe["setup_s"])

        reps, units = [], []
        loop_start = time.monotonic()
        while not units or (
            time.monotonic() - loop_start + max(units) <= seconds
            and time.monotonic() + max(units) <= runner.deadline
        ):
            t0 = time.monotonic()
            for traced in (False, True) if trace else (False,):
                rep = runner.repetition(workload, inputs, refs, f"r{len(reps)}", traced)
                reps.append(rep)
                print(f"{workload} {rep['rep']} traced={traced} wall_s={rep['wall_s']:.3f} "
                      f"failed={len(rep['failures'])}", file=sys.stderr)
            units.append(time.monotonic() - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    setup += [s for r in reps for s in r["setup_s"]]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": setup,
    }
    summary = {name: summarize(values) for name, values in samples.items()}
    attempted = sum(r["ops"] for r in reps)
    failures = {f"{r['rep']} {op}": msg for r in reps for op, msg in r["failures"].items()}

    if trace:
        traced = [r for r in reps if r["traced"]]
        per_rep = [layer_metrics(r["traces"]) for r in traced]
        metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - summary["wall_s"]["median"]
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": unit} for name, unit in END_TO_END.items()}

    detail = {
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
        "reference": f"bench/reference/seed_{seed}.json" if refs else None,
        "load_model": "closed loop, one client, one child interpreter per command",
        "summary": summary,
        "failed_share": len(failures) / attempted,
        "failures": failures,
        "repetitions": [{k: r[k] for k in ("rep", "traced", "h_g", "seed", "wall_s", "cpu_s", "peak_rss_mb",
                                           "setup_s", "ops")} for r in reps],
        "environment": {**environment(warm, workload), "loadavg_1m": {"before": load_before,
                                                                       "after": os.getloadavg()[0]}},
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return {"detail": detail, "values": [r["values"] for r in plain]}, result


def record(seed: int, workloads: list[str]) -> Path:
    """Write the checked outputs of one repetition per workload as the seed's reference."""
    inputs = workload_inputs(seed)
    path = REFERENCE_DIR / f"seed_{seed}.json"
    ref = json.loads(path.read_text()) if path.is_file() else {"inputs": inputs, "workloads": {}}
    if ref["inputs"] != inputs:
        raise BenchError(f"{path} holds inputs {ref['inputs']}, not {inputs}")
    for workload in workloads:
        info, result = bench(workload, seed, 0, trace=False)
        if not result["correct"]:
            raise BenchError(f"{workload} failed its checks: {info['detail']['failures']}")
        ref["workloads"][workload] = info["values"][0]
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write bench/reference/seed_<seed>.json (all workloads unless --workload)")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "clusterpump" / "cli.py").is_file():
            raise BenchError(f"no clusterpump sources under {SRC}")
        if args.record:
            print(record(args.seed, [args.workload] if args.workload else list(WORKLOADS)))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        info, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info["detail"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
