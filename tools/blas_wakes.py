"""Show which source lines of the package wake the BLAS thread pool.

    python tools/blas_wakes.py -- scaling --n-values 2,3,4,5 --h-g 0.922211 --out run

runs the CLI command (everything after ``--``) in this process under
``sys.settrace`` and then prints, for each ``clusterpump`` source line
during which a BLAS worker thread ran, ``<worker ms> <wakes>
<module>:<line>  <source>``, and a total.  A wake is one run of the line
during which a worker ran.

OpenBLAS hands a large enough product to its worker threads, which spin
for a while when it is done (``OPENBLAS_THREAD_TIMEOUT``, 2^28 cycles by
default) before they sleep; that spin is CPU time the calling thread does
not save.  The script re-runs itself with the timeout at its floor, 4, so a
worker sleeps at once and its time is booked on the line that woke it: at
every line event the tracer reads each worker's CPU clock, and when one
moved, it waits until they all stop and books the whole of it on the line.
Linux only: the workers are the other threads in ``/proc/self/task``.
"""

from __future__ import annotations

import linecache
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable

TIMEOUT = "4"
SRC = Path(__file__).resolve().parents[1] / "src"


def worker_clocks() -> list[int]:
    """The CPU-clock ids of this process's threads other than the calling one.

    ``time.clock_gettime_ns`` on one reads that thread's run time up to now,
    also while it runs; ``((~tid) << 3) | 6`` is the kernel's per-thread
    scheduler clock of thread ``tid``, readable within its own process.
    """
    me = threading.get_native_id()
    return [((~tid) << 3) | 6 for tid in map(int, os.listdir("/proc/self/task")) if tid != me]


def line_wakes(run: Callable[[], object], root: Path) -> dict[tuple[str, int], list[int]]:
    """Call ``run()`` under a tracer and return ``{(file, line): [worker ns,
    wakes]}`` for each line of a module under ``root`` during which a worker
    thread ran.  Time spent in untraced code (numpy, scipy) is booked on the
    innermost traced line that called it."""
    clocks = worker_clocks()
    prefix = str(root.resolve()) + os.sep
    traced: dict[str, bool] = {}
    found: dict[tuple[str, int], list[int]] = {}
    line = None
    last = 0

    def is_traced(filename: str) -> bool:
        if filename not in traced:
            traced[filename] = os.path.realpath(filename).startswith(prefix)
        return traced[filename]

    def workers_ns() -> int:
        return sum(time.clock_gettime_ns(clock) for clock in clocks)

    def book(frame) -> None:
        # the workers' time since the last event goes to the line that ran
        # then; the line running from now on is the innermost traced one
        nonlocal line, last
        now = workers_ns()
        if now != last:
            while True:  # a worker may still be running down its spin
                time.sleep(1e-4)
                settled, now = now, workers_ns()
                if settled == now:
                    break
            if line is not None:
                entry = found.setdefault(line, [0, 0])
                entry[0] += now - last
                entry[1] += 1
            last = now
        while frame is not None and not is_traced(frame.f_code.co_filename):
            frame = frame.f_back
        line = None if frame is None else (frame.f_code.co_filename, frame.f_lineno)

    def local(frame, event, arg):
        book(frame.f_back if event == "return" else frame)
        return local

    def enter(frame, event, arg):
        book(frame)
        return local if is_traced(frame.f_code.co_filename) else None

    last = workers_ns()
    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(None)
    return found


def main(argv: list[str]) -> int:
    if not argv or argv[0] != "--":
        print("usage: python tools/blas_wakes.py -- <clusterpump command and options>", file=sys.stderr)
        return 1
    if os.environ.get("OPENBLAS_THREAD_TIMEOUT") != TIMEOUT:
        env = dict(os.environ, OPENBLAS_THREAD_TIMEOUT=TIMEOUT)
        return subprocess.run([sys.executable, __file__, *argv], env=env).returncode
    sys.path.insert(0, str(SRC))
    from clusterpump import cli

    if not worker_clocks():
        print("no BLAS worker thread: the pool cannot wake", file=sys.stderr)
    status = []
    found = line_wakes(lambda: status.append(cli.main(argv[1:])), SRC / "clusterpump")
    for (file, line), (ns, wakes) in sorted(found.items()):
        name = os.path.relpath(os.path.realpath(file), SRC)
        print(f"{ns / 1e6:9.3f} ms {wakes:5d} {name}:{line}  {linecache.getline(file, line).strip()}")
    total_ns = sum(ns for ns, _ in found.values())
    print(f"{total_ns / 1e6:9.3f} ms {sum(wakes for _, wakes in found.values()):5d} total")
    return status[0]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
