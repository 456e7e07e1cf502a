import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "blas_wakes.py"

MODULE = """import numpy as np


def product():
    a = np.ones((300, 300))
    return a @ a


def ufunc():
    a = np.ones((300, 300))
    return np.exp(a)
"""

# Run in a child with OPENBLAS_THREAD_TIMEOUT=4, as the tool re-runs itself:
# loads the tool by path, traces each function of MODULE and prints the
# lines it reports as JSON, or the reason the pool cannot be watched
PROBE = """
import importlib.util, json, sys
from pathlib import Path
import numpy as np

tool_path, module_dir = sys.argv[1:]
spec = importlib.util.spec_from_file_location("blas_wakes", tool_path)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
    print("skip numpy's BLAS is not OpenBLAS")
    raise SystemExit
try:
    workers = tool.worker_clocks()
except OSError as exc:
    print("skip", exc)
    raise SystemExit
if not workers:
    print("skip no BLAS worker thread")
    raise SystemExit
sys.path.insert(0, module_dir)
import probed
print(json.dumps({
    name: [[line, ns, wakes] for (_, line), (ns, wakes) in tool.line_wakes(getattr(probed, name), Path(module_dir)).items()]
    for name in ("product", "ufunc")
}))
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("blas_wakes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_blas_wakes_books_a_large_product_and_no_ufunc(tmp_path):
    (tmp_path / "probed.py").write_text(MODULE)
    env = dict(os.environ, OPENBLAS_THREAD_TIMEOUT="4")
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(TOOL), str(tmp_path)], env=env, capture_output=True, text=True, check=True
    ).stdout
    if out.startswith("skip"):
        pytest.skip(out)
    found = json.loads(out)
    # a 300 x 300 product runs on every worker; exp runs on the calling thread
    assert [line for line, _, _ in found["product"]] == [6]
    assert all(ns > 0 and wakes >= 1 for _, ns, wakes in found["product"])
    assert found["ufunc"] == []


def test_blas_wakes_needs_a_command_after_the_separator(capsys):
    tool = load_tool()
    assert tool.main([]) == 1
    assert tool.main(["scaling"]) == 1
    assert "usage" in capsys.readouterr().err
