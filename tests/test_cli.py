import json

import numpy as np
import pytest

from clusterpump.cli import main, parse_graph
from clusterpump.cluster import GraphSpec


def run(args):
    return main(args)


# ----------------------------------------------------------------- graph parsing


def test_parse_graph_presets():
    assert parse_graph("chain:4") == GraphSpec.chain(4)
    assert parse_graph("square:2x2") == GraphSpec(4, ((0, 1), (0, 2), (1, 3), (2, 3)))


def test_parse_graph_inline_and_file(tmp_path):
    inline = parse_graph('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    assert inline == GraphSpec.chain(3)
    path = tmp_path / "g.json"
    path.write_text('{"n": 2, "edges": [[0, 1]]}')
    assert parse_graph(str(path)) == GraphSpec.chain(2)


def test_parse_graph_rejects_garbage():
    from clusterpump.errors import ConfigError

    for bad in ("chain:x", "square:4", "nope", '{"n": 2}'):
        with pytest.raises(ConfigError):
            parse_graph(bad)


# ----------------------------------------------------------------- commands


def test_cluster_command(tmp_path, capsys):
    assert run(["cluster", "--graph", "chain:4", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "cluster.json").read_text())
    assert doc["n_qubits"] == 4
    assert doc["stabilizer_max_deviation"] <= 1e-12
    amps = {row[0]: row[1] for row in doc["amplitudes"]}
    assert len(amps) == 16
    assert amps["0000"] == pytest.approx(0.25)
    assert amps["1111"] == pytest.approx(-0.25)
    assert "config" in doc
    out = capsys.readouterr().out
    assert "stabilizer" in out


def test_steady_command_strong_dissipation(tmp_path):
    assert (
        run(
            ["steady", "--graph", "chain:4", "--h-g", "1", "--gamma-g", "200",
             "--out", str(tmp_path)]
        )
        == 0
    )
    doc = json.loads((tmp_path / "steady.json").read_text())
    assert doc["fidelity"] >= 0.98
    assert doc["witness"] <= -0.48
    assert doc["kernel_dim"] == 1
    assert doc["steady_state_residual"] <= 1e-8 * max(1.0, 200.0 * 4)


def test_spectrum_command(tmp_path):
    assert run(["spectrum", "--graph", "chain:2", "--gamma-g", "2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 1 + 16
    res = [float(line.split(",")[0]) for line in lines[1:]]
    assert max(res) <= 1e-9
    doc = json.loads((tmp_path / "spectrum.json").read_text())
    assert doc["n_eigenvalues"] == 16


def test_evolve_command(tmp_path):
    assert (
        run(
            ["evolve", "--graph", "chain:2", "--h-g", "1", "--gamma-g", "50",
             "--t-final", "4", "--rho0", "plus", "--out", str(tmp_path)]
        )
        == 0
    )
    lines = (tmp_path / "evolve.csv").read_text().splitlines()
    assert lines[0] == "t,jx,jy,jz,fidelity,witness"
    doc = json.loads((tmp_path / "evolve.json").read_text())
    assert doc["final"]["fidelity"] > 0.95
    assert doc["final"]["t"] == pytest.approx(4.0)


def test_meanfield_command(tmp_path):
    assert (
        run(
            ["meanfield", "--h-g", "1", "--gamma-g", "5", "--s0", "0.9,0.1,0.1",
             "--t-final", "20", "--out", str(tmp_path)]
        )
        == 0
    )
    doc = json.loads((tmp_path / "meanfield.json").read_text())
    assert np.abs(doc["final_state"]).max() <= 1e-6
    labels = [fp["label"] for fp in doc["fixed_points"]]
    assert labels == ["s3"]
    table = (tmp_path / "meanfield_fixed_points.csv").read_text().splitlines()
    assert table[0] == "label,jx,jy,jz,stable,classification"


def test_sweep_command(tmp_path):
    assert (
        run(
            ["sweep", "--graph", "chain:2", "--gamma-grid", "log:0.5:400:10",
             "--skip-gap", "--out", str(tmp_path)]
        )
        == 0
    )
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["n_failed"] == 0
    assert doc["gamma_sat"] is not None
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "gamma_g,fidelity,witness,gap,status"
    assert len(lines) == 11


def test_scaling_command(tmp_path):
    assert (
        run(
            ["scaling", "--n-values", "2,3", "--h-g", "0.5",
             "--gamma-policy", "log:0.5:600:16", "--out", str(tmp_path)]
        )
        == 0
    )
    doc = json.loads((tmp_path / "scaling.json").read_text())
    assert len(doc["rows"]) == 2
    assert doc["fits"]["gamma_sat_linear"]["coefficients"][0] > 0


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"graph": "chain:2", "h_g": 1.0, "gamma_g": 1.0}))
    out = tmp_path / "out"
    assert run(["steady", "--config", str(cfg), "--gamma-g", "100", "--out", str(out)]) == 0
    doc = json.loads((out / "steady.json").read_text())
    assert doc["config"]["gamma_g"] == 100.0
    assert doc["config"]["graph"] == "chain:2"


def test_unknown_config_key_is_config_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grpah": "chain:2"}))
    assert run(["steady", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_bad_flag_exits_one(tmp_path, capsys):
    assert run(["steady", "--graph", "chain:2", "--gamma-g", "nope", "--out", str(tmp_path)]) == 1
    assert run(["no-such-command"]) == 1
    capsys.readouterr()


def test_oversize_graph_exits_one(tmp_path, capsys, monkeypatch):
    # every command that needs the dense generator stops at its guard (N = 8
    # and above); a sweep without gaps stops at the model's guard before H
    for args in (
        ["steady", "--graph", "chain:9"],
        ["evolve", "--graph", "chain:8"],
        ["sweep", "--graph", "square:2x4"],
        ["scaling", "--n-values", "2,8"],
    ):
        assert run([*args, "--out", str(tmp_path)]) == 1
        assert "GiB" in capsys.readouterr().err

    def unbuilt(*args):
        raise AssertionError("the Hamiltonian was built")

    monkeypatch.setattr("clusterpump.lindblad.hamiltonian", unbuilt)
    assert run(["sweep", "--graph", "chain:12", "--skip-gap", "--out", str(tmp_path)]) == 1
    assert "model guard" in capsys.readouterr().err


def test_sweep_without_gap_beyond_dense_guard(tmp_path):
    # N = 8 needs no 4^N x 4^N generator when the gap is skipped
    assert run(["sweep", "--graph", "chain:8", "--skip-gap", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["n_qubits"] == 8 and doc["n_failed"] == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == doc["n_points"] and all(row.endswith(",ok") for row in rows)


def test_numerical_failure_exits_two(tmp_path):
    # integration at an unstable step size is a numerical failure
    code = run(
        ["evolve", "--graph", "chain:2", "--gamma-g", "80", "--t-final", "5",
         "--dt", "0.5", "--out", str(tmp_path)]
    )
    assert code == 2


@pytest.mark.parametrize("command", ["evolve", "meanfield"])
@pytest.mark.parametrize(
    "flag, message",
    [("--dt", "dt must be positive, got 0.0"), ("--sample-every", "sample_every must be >= 1, got 0")],
    ids=["dt", "sample_every"],
)
def test_dynamics_rejects_zero_step_arguments(tmp_path, capsys, command, flag, message):
    # zero is a given value, not "unset": it is validated, never replaced by a default
    assert run([command, flag, "0", "--t-final", "0.1", "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


def test_steady_without_dissipation_reports_degenerate_kernel(tmp_path, capsys):
    # at gamma = 0 the kernel holds every diagonal of H's eigenbasis; it is a
    # degenerate kernel, not a missing steady state, and no state is written
    for n in (2, 3, 4):
        code = run(["steady", "--graph", f"chain:{n}", "--gamma-g", "0", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert "no steady state found" not in captured.out + captured.err
        assert code == 2 and "degenerate kernel (kernel_dim = " in captured.err
        assert not (tmp_path / "steady.json").exists()


def test_outputs_are_bit_identical_across_runs(tmp_path):
    # the identical config run twice produces identical bytes
    args_steady = ["steady", "--graph", "chain:3", "--h-g", "1", "--gamma-g", "25",
                   "--out", str(tmp_path)]
    args_sweep = ["sweep", "--graph", "chain:2", "--gamma-grid", "log:1:100:6",
                  "--out", str(tmp_path)]
    snapshots = []
    for _ in range(2):
        assert run(args_steady) == 0
        assert run(args_sweep) == 0
        snapshots.append(
            {name: (tmp_path / name).read_bytes() for name in ("steady.json", "sweep.csv", "sweep.json")}
        )
    assert snapshots[0] == snapshots[1]


def test_seeded_random_state_is_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert (
            run(
                ["evolve", "--graph", "chain:2", "--gamma-g", "3", "--t-final", "1",
                 "--rho0", "random", "--seed", "7", "--out", str(out)]
            )
            == 0
        )
    assert (out1 / "evolve.csv").read_bytes() == (out2 / "evolve.csv").read_bytes()
