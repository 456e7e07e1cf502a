"""Run one clusterpump CLI command in this fresh interpreter and measure it.

    python3 bench/child.py RESULT_JSON TRACE REP [-- COMMAND ARGS...]

Times the import of ``clusterpump.cli`` (set-up), then runs the command
through ``clusterpump.cli.main`` and records its wall time, the CPU seconds
and peak RSS of this process, and the exit code.  Without a command it only
imports the package and records the versions of the numerical stack.  With
TRACE=1 every public function named in ``LAYER_FUNCTIONS`` is wrapped at
every name it is bound to inside the package before the command starts, and
the spans are written to RESULT_JSON when the command ends.  REP labels the
spans with the repetition they belong to.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import math
import platform
import resource
import sys
import threading
import time
import traceback

# Public functions wrapped in a traced run, by module.  Besides the functions
# the per-layer metrics name, the list holds the remaining calls that
# `clusterpump.cli` makes into other modules, so that their time is charged
# to their own layer rather than to `cli`.
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "experiments": ("gamma_sweep", "size_scaling_study", "detect_gamma_sat"),
    "lindblad": ("hamiltonian", "projection_jumps", "liouvillian", "liouvillian_parts"),
    "solver": ("steady_state_direct", "full_spectrum", "evolve_rk4"),
    "observables": ("fidelity", "witness_expectation", "spin_expectations"),
    "operators": ("pauli_to_dense",),
    "cluster": ("cluster_state", "orthogonal_basis"),
    "meanfield": ("mean_field_evolve", "fixed_points"),
}

COMPLEX_BYTES = 16


def _rk4_steps(t_final: float, dt: float) -> int:
    """Fixed-step RK4 steps needed to reach t_final with steps no longer than dt."""
    if t_final == 0:
        return 0
    return max(1, int(math.ceil(t_final / dt - 1e-12)))


class Tracer:
    """Spans around calls into the package, kept in memory until the run ends.

    Each span is ``[name, start, end, parent_id, rep, failed]`` keyed by a
    span id; parents come from a per-thread stack.  Counts derived from call
    arguments and results are accumulated alongside.
    """

    def __init__(self, rep: str):
        self.rep = rep
        self.spans: dict[int, list] = {}
        self.counts = {
            "lindblad.liouvillian_parts.bytes_computed": 0,
            "lindblad.liouvillian_parts.systems": [],
            "solver.evolve_rk4.steps": 0,
            "meanfield.mean_field_evolve.steps": 0,
            "experiments.sweep_points": 0,
            "experiments.sweep_points_failed": 0,
        }
        self._counters = {
            "lindblad.liouvillian_parts": self._count_liouvillian,
            "solver.evolve_rk4": self._count_rk4,
            "meanfield.mean_field_evolve": self._count_mean_field,
            "experiments.gamma_sweep": self._count_sweep,
        }
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    # Counts derived from a call's arguments and result only.

    def _count_liouvillian(self, a: dict, result) -> None:
        ham, jumps = a["H"], list(a["jumps"])
        d = ham.shape[0]
        # One d^2 x d^2 Kronecker product per jump, two for the unitary part,
        # two for the anticommutator term, and the dissipator.
        self.counts["lindblad.liouvillian_parts.bytes_computed"] += (len(jumps) + 5) * d**4 * COMPLEX_BYTES
        key = hashlib.sha1(ham.tobytes()).hexdigest() + f":{ham.shape}:{len(jumps)}"
        self.counts["lindblad.liouvillian_parts.systems"].append(key)

    def _count_rk4(self, a: dict, result) -> None:
        self.counts["solver.evolve_rk4.steps"] += _rk4_steps(a["t_final"], a["dt"])

    def _count_mean_field(self, a: dict, result) -> None:
        dt = a["dt"]
        if dt is None:
            from clusterpump.meanfield import default_dt

            dt = default_dt(a["p"])
        self.counts["meanfield.mean_field_evolve.steps"] += _rk4_steps(a["t_final"], dt)

    def _count_sweep(self, a: dict, result) -> None:
        self.counts["experiments.sweep_points"] += len(result.status)
        self.counts["experiments.sweep_points_failed"] += sum(s != "ok" for s in result.status)

    def wrap(self, name: str, fn):
        counter = self._counters.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep, False]
            self.spans[span_id] = span
            stack.append(span_id)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each listed function at every name bound to it in the package;
        importing ``clusterpump.cli`` has loaded every module."""
        modules = {n: m for n, m in sys.modules.items() if n == "clusterpump" or n.startswith("clusterpump.")}
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = modules[f"clusterpump.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = self.wrap(f"{layer}.{fname}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def dump(self) -> dict:
        return {
            "spans": [[i, *span] for i, span in sorted(self.spans.items())],
            "counts": self.counts,
        }


def _numerics() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main() -> int:
    out_path, trace, rep = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    command = sys.argv[5:] if len(sys.argv) > 4 and sys.argv[4] == "--" else []

    t0 = time.perf_counter()
    import clusterpump.cli

    result = {"setup_s": time.perf_counter() - t0, "package_file": clusterpump.cli.__file__}
    if not command:
        result.update(_numerics())
    else:
        tracer = Tracer(rep) if trace else None
        if tracer:
            tracer.install()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t1 = time.perf_counter()
        try:
            rc = clusterpump.cli.main(command)
            error = None
        except Exception:  # an escaped exception fails the command; keep measuring
            rc = -1
            error = traceback.format_exc()
            sys.stderr.write(error)
        t2 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=t2 - t1,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            maxrss_kb=ru1.ru_maxrss,
            rc=rc,
            error=error,
        )
        if tracer:
            result["trace"] = tracer.dump()
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
