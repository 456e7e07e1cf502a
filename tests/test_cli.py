import argparse
import csv
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from clusterpump import __version__, cli, solver
from clusterpump.cli import main, parse_graph
from clusterpump.cluster import GraphSpec, cluster_state, plus_state, stabilizers
from clusterpump.errors import NumericalError
from clusterpump.lindblad import KernelStep, PumpModel
from clusterpump.observables import fidelity, spin_expectations, witness_expectation
from clusterpump.operators import pauli_to_dense
from clusterpump.solver import evolve_rk4, pure_state_density
from conftest import kernel_density


def run(args):
    return main(args)


# the resolved configuration each command records: exactly the values it reads
CONFIG_KEYS = {
    "cluster": {"command", "out", "graph"},
    "steady": {"command", "out", "graph", "h_g", "gamma_g", "sign_g", "eta"},
    "spectrum": {"command", "out", "graph", "h_g", "gamma_g", "sign_g"},
    "evolve": {"command", "out", "seed", "graph", "h_g", "gamma_g", "sign_g", "eta",
               "t_final", "dt", "rho0", "sample_every"},
    "meanfield": {"command", "out", "seed", "h_g", "gamma_g", "sign_g", "s0", "t_final", "dt",
                  "sample_every"},
    "sweep": {"command", "out", "graph", "h_g", "sign_g", "eta", "gamma_grid", "skip_gap",
              "epsilon"},
    "scaling": {"command", "out", "h_g", "n_values", "gamma_policy", "epsilon", "weak_gamma",
                "strong_gamma"},
}


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


@pytest.mark.parametrize("source", ["inline", "file"])
@pytest.mark.parametrize(
    "text, key",
    [
        ('{"n": 2, "edges": 5}', "'edges'"),
        ('{"n": 2, "edges": [0, 1]}', "'edges'"),
        ('{"n": 2, "edges": [[0, 1.5]]}', "'edges'"),
        ('{"n": null, "edges": []}', "'n'"),
        ('{"n": 2.5, "edges": []}', "'n'"),
        ('{"n": true, "edges": []}', "'n'"),
    ],
    ids=["edges_number", "edges_flat", "endpoint_float", "n_null", "n_float", "n_bool"],
)
def test_malformed_graph_json_exits_one(tmp_path, capsys, source, text, key):
    # n and every endpoint must be JSON integers, and edges a list of pairs:
    # nothing is truncated to an integer, and nothing fails with a traceback
    if source == "file":
        path = tmp_path / "graph.json"
        path.write_text(text)
        graph, label = str(path), "bad graph file"
    else:
        graph, label = text, "bad inline graph JSON"
    err = assert_refused(capsys, ["cluster", "--graph", graph], tmp_path / "out")
    assert label in err and f"graph key {key}" in err


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
    assert set(doc["config"]) == CONFIG_KEYS["cluster"]
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
    assert set(doc["config"]) == CONFIG_KEYS["steady"]
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
    assert set(doc["config"]) == CONFIG_KEYS["spectrum"]


def test_steady_and_spectrum_build_no_superoperator(tmp_path, monkeypatch):
    # both commands work in the eigenbasis of H; the dense generator is an oracle only
    def refuse(*args, **kwargs):
        raise AssertionError("the 4^N x 4^N superoperator was used")

    monkeypatch.setattr(PumpModel, "liouvillian", refuse)
    monkeypatch.setattr(solver, "full_spectrum", refuse)
    # also any copy imported into cli by name, which the patch on solver would miss
    monkeypatch.setattr(cli, "full_spectrum", refuse, raising=False)
    for graph in ("chain:3", "square:2x2"):
        for command in ("steady", "spectrum"):
            assert run([command, "--graph", graph, "--gamma-g", "5", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "steady.json").read_text())
    assert doc["kernel_dim"] == 1
    assert doc["steady_state_residual"] <= 1e-10 and doc["antihermitian_residual"] <= 1e-12


def test_steady_matches_sweep_point(tmp_path):
    # one model, one route: the steady command and a sweep point at the same gamma agree bit for bit
    common = ["--graph", "square:2x3", "--h-g", "0.7", "--out", str(tmp_path)]
    assert run(["steady", "--gamma-g", "5", *common]) == 0
    assert run(["sweep", "--gamma-grid", "lin:1:5:2", *common]) == 0
    steady = json.loads((tmp_path / "steady.json").read_text())
    last = (tmp_path / "sweep.csv").read_text().splitlines()[-1].split(",")
    assert float(last[0]) == 5.0 and last[4] == "ok"
    assert [float(v) for v in last[1:4]] == [steady["fidelity"], steady["witness"], steady["gap"]]


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
    assert set(doc["config"]) == CONFIG_KEYS["evolve"]
    assert doc["final"]["fidelity"] > 0.95
    assert doc["final"]["t"] == pytest.approx(4.0)


def test_evolve_default_dt_follows_the_field_and_the_graph(tmp_path):
    # chain:4 at h/g 50: the step is 0.01 / ((3 edges + 4 * 50 + 1) / 100),
    # inside RK4's stability region, not the 0.01 that gamma alone would set
    args = ["evolve", "--graph", "chain:4", "--h-g", "50", "--gamma-g", "1", "--t-final", "1",
            "--out", str(tmp_path)]
    assert run(args) == 0
    doc = json.loads((tmp_path / "evolve.json").read_text())
    assert doc["dt"] == 0.01 / (204.0 / 100.0)
    assert doc["final"]["t"] == pytest.approx(1.0)


@pytest.mark.parametrize("rho0, spins", [("zero", (0.0, 0.0, 1.0)), ("mixed", (0.0, 0.0, 0.0))])
def test_evolve_starts_from_the_named_state(tmp_path, rho0, spins):
    # |0...0> and I / d both have fidelity 2^-N with a graph state, whose
    # every amplitude has modulus 2^(-N/2); |0...0> has jz = 1, I / d no spin
    args = ["evolve", "--graph", "chain:3", "--rho0", rho0, "--t-final", "1", "--out", str(tmp_path)]
    assert run(args) == 0
    first = next(csv.DictReader((tmp_path / "evolve.csv").read_text().splitlines()))
    assert float(first["t"]) == 0.0
    assert [float(first[k]) for k in ("jx", "jy", "jz")] == pytest.approx(spins, abs=1e-12)
    assert float(first["fidelity"]) == pytest.approx(2.0**-3, abs=1e-12)


def test_meanfield_command(tmp_path):
    assert (
        run(
            ["meanfield", "--h-g", "1", "--gamma-g", "5", "--s0", "0.9,0.1,0.1",
             "--t-final", "20", "--out", str(tmp_path)]
        )
        == 0
    )
    doc = json.loads((tmp_path / "meanfield.json").read_text())
    assert set(doc["config"]) == CONFIG_KEYS["meanfield"]
    assert np.abs(doc["final_state"]).max() <= 1e-6
    labels = [fp["label"] for fp in doc["fixed_points"]]
    assert labels == ["s3"]
    table = (tmp_path / "meanfield_fixed_points.csv").read_text().splitlines()
    assert table[0] == "label,jx,jy,jz,stable,classification"


def test_meanfield_with_a_negative_coupling(tmp_path, capsys):
    # h and gamma are ratios to |g|: the table lists the origin at gamma >= 2 h
    # and the stable s4 pair, with Jx negated, below it
    out = tmp_path / "strong"
    assert run(["meanfield", "--sign-g", "-1", "--h-g", "1", "--gamma-g", "3", "--out", str(out)]) == 0
    doc = json.loads((out / "meanfield.json").read_text())
    assert [(fp["label"], fp["stable"]) for fp in doc["fixed_points"]] == [("s3", True)]
    out = tmp_path / "weak"
    assert run(["meanfield", "--sign-g", "-1", "--h-g", "1", "--gamma-g", "0.5", "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "meanfield_fixed_points.csv").open()))
    assert [(row["label"], row["stable"]) for row in rows] == [("s4_plus", "True"), ("s4_minus", "True")]
    states = np.array([[float(row[k]) for k in ("jx", "jy", "jz")] for row in rows])
    assert np.abs(states - [[-0.46875, 0.12103, -0.48412], [-0.46875, -0.12103, 0.48412]]).max() <= 1e-5
    # the default start perturbs the first stable point, and the run ends on it
    final = json.loads((out / "meanfield.json").read_text())["final_state"]
    assert np.abs(np.array(final) - states[0]).max() <= 1e-3
    assert capsys.readouterr().err == ""


def test_sweep_command(tmp_path):
    assert (
        run(
            ["sweep", "--graph", "chain:2", "--gamma-grid", "log:0.5:400:10",
             "--skip-gap", "--out", str(tmp_path)]
        )
        == 0
    )
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert set(doc["config"]) == CONFIG_KEYS["sweep"]
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
    assert set(doc["config"]) == CONFIG_KEYS["scaling"]
    assert len(doc["rows"]) == 2
    assert doc["fits"]["gamma_sat_linear"]["coefficients"][0] > 0


@pytest.mark.parametrize(
    "command, args, tables",
    [
        ("cluster", ["--graph", "chain:2"], []),
        ("steady", ["--graph", "chain:2", "--gamma-g", "3"], []),
        ("spectrum", ["--graph", "chain:2"], ["spectrum.csv"]),
        ("evolve", ["--graph", "chain:2", "--t-final", "0.1"], ["evolve.csv"]),
        ("meanfield", ["--t-final", "1"], ["meanfield.csv", "meanfield_fixed_points.csv"]),
        ("sweep", ["--graph", "chain:2", "--gamma-grid", "lin:1:5:3"], ["sweep.csv"]),
        ("scaling", ["--n-values", "2,3", "--gamma-policy", "log:0.5:600:8"], ["scaling.csv"]),
    ],
    ids=["cluster", "steady", "spectrum", "evolve", "meanfield", "sweep", "scaling"],
)
def test_every_command_writes_its_summary_and_tables(tmp_path, command, args, tables):
    # one writer for every command: exactly <command>.json and the command's
    # CSVs, the summary embedding the resolved options and the version
    out = tmp_path / "out"
    argv = [command, *args, "--out", str(out)]
    assert run(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([f"{command}.json", *tables])
    doc = json.loads((out / f"{command}.json").read_text())
    resolved = {k: v for k, v in vars(cli.build_parser().parse_args(argv)).items() if k != "config"}
    assert doc["config"] == resolved and set(resolved) == CONFIG_KEYS[command]
    assert doc["version"] == __version__


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


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("steady", "--seed", "1"),
        ("spectrum", "--eta", "0.3"),
        ("sweep", "--jobs", "2"),
        ("sweep", "--gamma-g", "5"),
        ("scaling", "--eta", "0.3"),
        ("cluster", "--seed", "1"),
        ("meanfield", "--eta", "0.3"),
    ],
)
def test_options_a_command_does_not_read_are_rejected(tmp_path, capsys, command, flag, value):
    # an option that would change no output is unknown input, as a flag and as a config key
    assert run([command, flag, value, "--out", str(tmp_path)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: float(value)}))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["steady", "sweep"])
def test_sign_g_is_checked(tmp_path, capsys, command):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"graph": "chain:2", "sign_g": 2}))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "argument --sign-g: invalid choice: 2" in capsys.readouterr().err


def assert_refused(capsys, args, out):
    # exit 1 with a single "error:" line, and no file written
    assert run([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not list(out.glob("*"))
    return err


@pytest.mark.parametrize(
    "command, config",
    [
        ("steady", [{"graph": "chain:2"}]),
        ("sweep", {"skip_gap": "false"}),
        ("evolve", {"seed": 1.5}),
        ("evolve", {"sample_every": 2.5}),
        ("steady", {"gamma_g": float("nan")}),
    ],
    ids=["list", "skip_gap_string", "seed_float", "sample_every_float", "gamma_g_nan"],
)
def test_malformed_config_exits_one(tmp_path, capsys, command, config):
    # a config file is typed and checked by the command's parser, as its flags are
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert_refused(capsys, [command, "--config", str(cfg)], tmp_path / "out")


@pytest.mark.parametrize(
    "args",
    [
        ["steady", "--eta", "nan"],
        ["evolve", "--t-final", "inf"],
        ["sweep", "--epsilon", "nan"],
        ["sweep", "--gamma-grid", "lin:1:inf:3"],
    ],
    ids=["eta_nan", "t_final_inf", "epsilon_nan", "gamma_grid_inf"],
)
def test_non_finite_flag_exits_one(tmp_path, capsys, args):
    assert_refused(capsys, [*args, "--graph", "chain:2"], tmp_path / "out")


@pytest.mark.parametrize(
    "args, message",
    [
        (["cluster", "--graph", "chain:0"], "chain length must be positive, got 0"),
        (["steady", "--config", "{config}"], "config file is not valid JSON"),
        (["meanfield", "--s0", "1,2"], "bad s0 '1,2'; expected x,y,z"),
        (["scaling", "--n-values", "2,x"], "bad n_values '2,x'"),
        # a 1 EiB state vector, past any address space: no allocation starts
        (["cluster", "--graph", "chain:56"], "Unable to allocate 1.00 EiB"),
    ],
    ids=["chain_0", "config_not_json", "s0_two_components", "n_values_not_integers", "chain_56_memory"],
)
def test_bad_inputs_exit_one_with_their_message(tmp_path, capsys, args, message):
    config = tmp_path / "run.json"
    config.write_text("{not json")
    err = assert_refused(capsys, [a.format(config=config) for a in args], tmp_path / "out")
    assert message in err


@pytest.mark.parametrize(
    "command, config, flags",
    [
        ("cluster", {"graph": "square:2x2"}, ["--graph", "square:2x2"]),
        ("steady", {"graph": "chain:3", "h_g": 1, "gamma_g": "25", "sign_g": -1, "eta": None},
         ["--graph", "chain:3", "--h-g", "1", "--gamma-g", "25", "--sign-g", "-1"]),
        ("spectrum", {"command": "spectrum", "graph": "chain:2", "gamma_g": 2},
         ["--graph", "chain:2", "--gamma-g", "2"]),
        ("evolve", {"graph": "chain:2", "t_final": "1", "h_g": 1, "rho0": "random", "seed": 4,
                    "sample_every": 5, "dt": None},
         ["--graph", "chain:2", "--t-final", "1", "--h-g", "1", "--rho0", "random", "--seed", "4",
          "--sample-every", "5"]),
        ("meanfield", {"h_g": 1, "gamma_g": 5, "t_final": "2", "s0": "0.9,0.1,0.1"},
         ["--h-g", "1", "--gamma-g", "5", "--t-final", "2", "--s0", "0.9,0.1,0.1"]),
        ("sweep", {"graph": "chain:2", "gamma_grid": "lin:1:5:3", "skip_gap": True, "h_g": 1,
                   "epsilon": "0.01"},
         ["--graph", "chain:2", "--gamma-grid", "lin:1:5:3", "--skip-gap", "--h-g", "1",
          "--epsilon", "0.01"]),
        ("scaling", {"n_values": "2,3", "h_g": "0.5", "gamma_policy": "log:0.5:600:16", "weak_gamma": 1,
                     "strong_gamma": None},
         ["--n-values", "2,3", "--h-g", "0.5", "--gamma-policy", "log:0.5:600:16", "--weak-gamma", "1"]),
    ],
    ids=["cluster", "steady", "spectrum", "evolve", "meanfield", "sweep", "scaling"],
)
def test_config_file_writes_the_bytes_of_its_flags(tmp_path, command, config, flags):
    # ints and strings in a config file get their flag's type: the run is the
    # flag run, byte for byte, and null keeps the default
    def outputs(args):
        assert run([command, *args, "--out", str(tmp_path / "out")]) == 0
        return {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}

    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert outputs(["--config", str(cfg)]) == outputs(flags)


@pytest.mark.parametrize(
    "graph_arg",
    ["chain:4", "square:2x2", "square:2x3", '{"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}'],
    ids=["chain:4", "square:2x2", "square:2x3", "star:4"],
)
def test_stabilizer_deviation_matches_the_dense_generators(tmp_path, monkeypatch, rng, graph_arg):
    # the cluster command applies each generator to the state by index, with
    # no 2^N x 2^N matrix; on the target and on a random state it agrees with
    # the dense generators exactly
    graph = parse_graph(graph_arg)
    dense = [pauli_to_dense(s) for s in stabilizers(graph)]
    random = rng.standard_normal(2**graph.n_qubits) + 1j * rng.standard_normal(2**graph.n_qubits)
    for state in (cluster_state(graph), random / np.linalg.norm(random)):
        expected = max(float(np.linalg.norm(m @ state - state, np.inf)) for m in dense)
        assert cli._stabilizer_deviation(graph, state) == expected

    def refuse(*args):
        raise AssertionError("a dense stabilizer was built")

    monkeypatch.setattr("clusterpump.operators.pauli_to_dense", refuse)
    monkeypatch.setattr(cli, "pauli_to_dense", refuse, raising=False)
    assert run(["cluster", "--graph", graph_arg, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "cluster.json").read_text())["stabilizer_max_deviation"] == 0.0


def test_bad_flag_exits_one(tmp_path, capsys):
    assert run(["steady", "--graph", "chain:2", "--gamma-g", "nope", "--out", str(tmp_path)]) == 1
    assert run(["no-such-command"]) == 1
    capsys.readouterr()


def test_oversize_graph_exits_one(tmp_path, capsys, monkeypatch):
    # every command that needs Liouvillian eigenvalues stops at the spectrum
    # guard (N = 8 and above), naming the secular equation's work, evolve at
    # its sample-memory guard (10^8 samples of five floats); a sweep without
    # gaps stops at the model's guard before H
    spectrum = "poles, and an Aberth sweep about"
    for args, refusal in (
        (["steady", "--graph", "chain:9"], spectrum),
        (["evolve", "--graph", "chain:8", "--t-final", "1000000", "--dt", "0.01", "--sample-every", "1"], "GiB"),
        (["sweep", "--graph", "square:2x4"], spectrum),
        (["scaling", "--n-values", "2,8"], spectrum),
    ):
        assert run([*args, "--out", str(tmp_path)]) == 1
        assert refusal in capsys.readouterr().err

    def unbuilt(*args):
        raise AssertionError("the Hamiltonian was built")

    monkeypatch.setattr("clusterpump.lindblad.hamiltonian", unbuilt)
    assert run(["sweep", "--graph", "chain:12", "--skip-gap", "--out", str(tmp_path)]) == 1
    assert "model guard" in capsys.readouterr().err
    # N = 7 is allowed, N = 8 is not: a scaling study stops before the N = 7 work
    assert run(["scaling", "--n-values", "7,8", "--out", str(tmp_path)]) == 1
    assert ("spectrum guard (7); its secular equation has up to 4^N = 65,536 poles, "
            "and an Aberth sweep about 2.1e+09 evaluations") in capsys.readouterr().err


@pytest.mark.parametrize("n_values", ["3", "3,3"])
def test_scaling_refuses_fewer_than_two_sizes_before_any_work(tmp_path, capsys, monkeypatch, n_values):
    # the fits need two distinct sizes; the study stops before its first sweep
    def unsolved(*args):
        raise AssertionError("a steady state was solved")

    monkeypatch.setattr(PumpModel, "support_steady_states", unsolved)
    assert run(["scaling", "--n-values", n_values, "--out", str(tmp_path)]) == 1
    assert "at least 2 distinct sizes" in capsys.readouterr().err
    assert not (tmp_path / "scaling.csv").exists()


def test_sweep_whose_points_all_fail_writes_its_table(tmp_path, capsys):
    # every point fails at the gap; the table keeps each point's reason and
    # the summary has no gamma_sat, as a partly failed sweep's would
    args = ["sweep", "--graph", "chain:3", "--gamma-grid", "log:1e-12:1e-10:3", "--out", str(tmp_path)]
    assert run(args) == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert (doc["n_failed"], doc["gamma_sat"], doc["max_fidelity"], doc["min_witness"]) == (3, None, None, None)
    assert doc["gamma_sat_note"] == "fidelity series is all-failed"
    rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
    assert [row["status"] for row in rows] == ["degenerate kernel (kernel_dim = 8): the steady state is not unique"] * 3
    assert capsys.readouterr().err == ""


def test_sweep_without_gaps_refuses_a_degenerate_kernel(tmp_path):
    # gamma = 1e-12 and 1e-9 lie within the kernel tolerance of the O
    # diagonal poles -gamma, so the gap route counts kernel_dim = 8 there;
    # a sweep without gaps fails them too, and gamma_sat is not the first point
    for skip_gap in (["--skip-gap"], []):
        out = tmp_path / str(len(skip_gap))
        args = ["sweep", "--graph", "chain:3", "--gamma-grid", "log:1e-12:1e-6:3", *skip_gap, "--out", str(out)]
        assert run(args) == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert (doc["n_failed"], doc["gamma_sat"]) == (2, 1e-6)
        statuses = [row["status"] for row in csv.DictReader((out / "sweep.csv").open())]
        assert [status.startswith("degenerate kernel") for status in statuses] == [True, True, False]


def test_steady_states_at_huge_dissipation_pass_their_residual_check(tmp_path, capsys):
    # the residual's entries reach about 1e154 from gamma ~ 1e170 on, where
    # their squares would overflow (a RuntimeWarning, an error in this suite);
    # the check must still read a finite norm
    args = ["sweep", "--graph", "chain:3", "--gamma-grid", "log:1e150:1e200:6", "--skip-gap", "--out", str(tmp_path)]
    assert run(args) == 0
    rows = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
    assert [row["status"] for row in rows] == ["ok"] * 6
    assert [float(row["fidelity"]) for row in rows] == pytest.approx([1.0] * 6, abs=1e-12)
    assert run(["steady", "--graph", "chain:3", "--gamma-g", "1e200", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "steady.json").read_text())["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert capsys.readouterr().err == ""


def test_scaling_whose_sweep_points_all_fail_exits_two(tmp_path, capsys, monkeypatch):
    def failing(self, gammas):
        for _ in gammas:
            yield None, float("nan"), NumericalError("structured steady-state residual 1 exceeds tolerance 0")

    monkeypatch.setattr(PumpModel, "support_steady_states", failing)
    assert run(["scaling", "--n-values", "2,3", "--out", str(tmp_path)]) == 2
    assert "numerical failure: fidelity series is all-failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "scaling"])
@pytest.mark.parametrize("epsilon", ["-1", "0", "1", "1.5"])
def test_epsilon_outside_the_unit_interval_exits_one_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                                      epsilon):
    def unbuilt(*args):
        raise AssertionError("the Hamiltonian was built")

    monkeypatch.setattr("clusterpump.lindblad.hamiltonian", unbuilt)
    assert run([command, "--epsilon", epsilon, "--out", str(tmp_path)]) == 1
    assert f"epsilon must lie in (0, 1), got {float(epsilon):g}" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "seed_0.json"


def close_to(values, refs, tol=1e-8):
    """The benchmark's agreement rule: |v - r| <= tol max(1, |r|) throughout."""
    values, refs = np.asarray(values, dtype=float), np.asarray(refs, dtype=float)
    return values.shape == refs.shape and bool(np.all(np.abs(values - refs) <= tol * np.maximum(1.0, np.abs(refs))))


def test_sweep_and_scaling_match_the_bench_reference(tmp_path):
    # the sweep_n6 and scaling_n5 commands at the seed-0 inputs reproduce the
    # recorded reference outputs to the benchmark's 1e-8
    ref = json.loads(BENCH_REFERENCE.read_text())
    h_g = ref["inputs"]["h_g"]
    sweep_ref, scaling_ref = ref["workloads"]["sweep_n6"]["sweep"], ref["workloads"]["scaling_n5"]["scaling"]
    assert run(["sweep", "--graph", "square:2x3", "--h-g", h_g, "--gamma-grid", "log:50:5000:4", "--skip-gap",
                "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
    assert [row["status"] for row in rows] == ["ok"] * 4
    assert close_to([float(row["fidelity"]) for row in rows], sweep_ref["fidelity"])
    assert close_to([float(row["witness"]) for row in rows], sweep_ref["witness"])
    assert close_to(json.loads((tmp_path / "sweep.json").read_text())["gamma_sat"], sweep_ref["gamma_sat"])
    assert run(["scaling", "--n-values", "2,3,4,5", "--h-g", h_g, "--gamma-policy", "log:0.5:600:24",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "scaling.json").read_text())
    rows = [[r["n"], r["gamma_sat"], r["f_sat"], r["gap_weak"], r["gap_strong"]] for r in doc["rows"]]
    assert close_to(rows, scaling_ref["rows"])
    assert close_to(doc["strong_gamma"], scaling_ref["strong_gamma"])
    assert doc["fits"].keys() == scaling_ref["fits"].keys()
    for name, fit in doc["fits"].items():
        assert close_to([*fit["coefficients"], fit["r_squared"]], scaling_ref["fits"][name])


def test_sweep_without_gap_beyond_dense_guard(tmp_path):
    # N = 8 needs no 4^N x 4^N generator when the gap is skipped
    assert run(["sweep", "--graph", "chain:8", "--skip-gap", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["n_qubits"] == 8 and doc["n_failed"] == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == doc["n_points"] and all(row.endswith(",ok") for row in rows)


def test_evolve_beyond_dense_guard(tmp_path):
    # N = 8 steps in the eigenbasis of K without a 4^N x 4^N generator; the
    # samples match RK4 on the matrix-free action in the computational basis
    args = ["evolve", "--graph", "chain:8", "--h-g", "0.7", "--gamma-g", "3", "--t-final", "0.05",
            "--dt", "0.01", "--sample-every", "1", "--out", str(tmp_path)]
    assert run(args) == 0
    rows = np.loadtxt(tmp_path / "evolve.csv", delimiter=",", skiprows=1)
    model = PumpModel(GraphSpec.chain(8), 1.0, 0.7)
    rho0 = pure_state_density(plus_state(8))
    traj = evolve_rk4(rho0, lambda rho: model.apply(rho, 3.0), 0.05, 0.01)
    expected = [
        [t, *spin_expectations(rho).as_array(), fidelity(rho, model.target),
         witness_expectation(rho, model.target, eta=0.5)]
        for t, rho in zip(traj.times, traj.states)
    ]
    assert rows.shape == (6, 6)
    assert np.abs(rows - np.array(expected)).max() <= 1e-12


@pytest.mark.parametrize(
    "graph_arg, graph",
    [("square:2x2", GraphSpec.grid(2, 2)), ('{"n": 3, "edges": [[0, 1]]}', GraphSpec(3, ((0, 1),)))],
    ids=["square:2x2", "isolated:3"],
)
def test_evolve_observables_match_the_back_transformed_samples(tmp_path, graph_arg, graph):
    # a random start has <Y> != 0, and an isolated vertex gives the target a
    # nonzero energy; each row is read in the eigenbasis of K and must match
    # the observables of the same sample transformed back
    args = ["evolve", "--graph", graph_arg, "--h-g", "0.9", "--gamma-g", "2", "--t-final", "0.3",
            "--rho0", "random", "--seed", "5", "--sample-every", "1", "--eta", "0.4",
            "--out", str(tmp_path)]
    assert run(args) == 0
    rows = np.loadtxt(tmp_path / "evolve.csv", delimiter=",", skiprows=1)
    model = PumpModel(graph, 1.0, 0.9)
    kernel = model.kernel_step(2.0)
    rho0 = cli._initial_density("random", graph.n_qubits, np.random.default_rng(5))
    traj = kernel.evolve(rho0, 0.3, 0.005, 1, lambda x: x)
    expected = []
    for t, sample in zip(traj.times, traj.states):
        rho = kernel_density(kernel, sample)
        expected.append(
            [t, *spin_expectations(rho).as_array(), fidelity(rho, model.target),
             witness_expectation(rho, model.target, eta=0.4)]
        )
    assert rows.shape == (61, 6)
    assert np.abs(rows[:, 2]).max() > 1e-3
    assert np.abs(rows - np.array(expected)).max() <= 1e-12


def test_evolve_refuses_oversized_samples(tmp_path, capsys, monkeypatch):
    # 10^8 samples of five floats exceed the 0.75 GiB sample budget, and so
    # do 10^7 whole 4 x 4 density matrices at an exceptional point of K_J,
    # where the four-stage route stores states; each run stops before its
    # first step
    def never(self, tables, check):
        def advance(x, h, count):
            raise AssertionError("stepped")

        return advance

    def unapplied(self, rho, gamma):
        raise AssertionError("stepped")

    monkeypatch.setattr(KernelStep, "step", never)
    monkeypatch.setattr(PumpModel, "apply", unapplied)
    for args, refusal in (
        (["--graph", "chain:8", "--t-final", "1000000"], "100000001 samples would need 3.7 GiB"),
        (["--graph", "chain:2", "--h-g", "0", "--gamma-g", "4", "--t-final", "100000"],
         "10000001 samples would need 2.4 GiB"),
    ):
        assert run(["evolve", *args, "--dt", "0.01", "--sample-every", "1", "--out", str(tmp_path)]) == 1
        assert refusal in capsys.readouterr().err
        assert not (tmp_path / "evolve.csv").exists()


def test_meanfield_refuses_oversized_samples(tmp_path, capsys, monkeypatch):
    # 4 x 10^7 samples of three floats exceed the sample budget; the run
    # stops before its first step, whose blow-up guard reads math.hypot
    def never(*s):
        raise AssertionError("stepped")

    monkeypatch.setattr(math, "hypot", never)
    args = ["meanfield", "--dt", "0.001", "--t-final", "40000", "--sample-every", "1", "--out", str(tmp_path)]
    assert run(args) == 1
    assert "40000001 samples would need 0.9 GiB" in capsys.readouterr().err
    assert not (tmp_path / "meanfield.csv").exists()


def test_numerical_failure_exits_two(tmp_path):
    # integration at an unstable step size is a numerical failure
    code = run(
        ["evolve", "--graph", "chain:2", "--gamma-g", "80", "--t-final", "5",
         "--dt", "0.5", "--out", str(tmp_path)]
    )
    assert code == 2


def test_evolve_unstable_step_exits_two(tmp_path, capsys):
    # the run of test_rk4_unbounded_entry_raises: dt = 0.07 is outside RK4's
    # stability region at gamma = 50, and the one-map step refuses it too
    args = ["evolve", "--graph", "chain:2", "--h-g", "1", "--gamma-g", "50", "--t-final", "0.7",
            "--dt", "0.07", "--rho0", "random", "--out", str(tmp_path)]
    assert run(args) == 2
    assert "integration unstable, reduce dt" in capsys.readouterr().err
    assert not (tmp_path / "evolve.csv").exists()


def test_evolve_refuses_an_unstable_dt_before_stepping(tmp_path, capsys, monkeypatch):
    # the same run: dt = 0.07 puts a pole of L on a pair that touches O
    # outside RK4's stability region, so it is refused before any step
    def never(self, tables, check):
        raise AssertionError("stepped")

    monkeypatch.setattr(KernelStep, "step", never)
    args = ["evolve", "--graph", "chain:2", "--h-g", "1", "--gamma-g", "50", "--t-final", "0.7",
            "--dt", "0.07", "--rho0", "random", "--out", str(tmp_path)]
    assert run(args) == 2
    assert "integration unstable, reduce dt" in capsys.readouterr().err
    assert not (tmp_path / "evolve.csv").exists()


def test_evolve_at_an_exceptional_point_takes_four_stages(tmp_path):
    # chain:2 at h = 0, gamma = 4 has no eigenbasis of K; the command steps
    # by four stages of the matrix-free generator, and its rows are those of
    # a four-stage run of the dense generator in the computational basis
    args = ["evolve", "--graph", "chain:2", "--h-g", "0", "--gamma-g", "4", "--t-final", "0.5",
            "--rho0", "random", "--seed", "3", "--sample-every", "5", "--out", str(tmp_path)]
    assert run(args) == 0
    rows = np.loadtxt(tmp_path / "evolve.csv", delimiter=",", skiprows=1)
    model = PumpModel(GraphSpec.chain(2), 1.0, 0.0)
    assert model.kernel_step(4.0) is None
    rho0 = cli._initial_density("random", 2, np.random.default_rng(3))
    traj = evolve_rk4(rho0, model.liouvillian(4.0), 0.5, 0.0025, sample_every=5)
    expected = []
    for t, rho in zip(traj.times, traj.states):
        expected.append(
            [t, *spin_expectations(rho).as_array(), fidelity(rho, model.target),
             witness_expectation(rho, model.target, eta=0.5)]
        )
    assert rows.shape == (41, 6)
    assert np.abs(rows - np.array(expected)).max() <= 1e-12


def test_meanfield_nan_blowup_exits_two(tmp_path, capsys):
    # a step so large that the state turns NaN is a blow-up, not a trajectory
    code = run(
        ["meanfield", "--s0", "0.1,0.1,0.1", "--dt", "1e150", "--t-final", "1e151",
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "mean-field blow-up" in capsys.readouterr().err
    assert not (tmp_path / "meanfield.csv").exists()


@pytest.mark.parametrize("s0", ["nan,0,0", "0,inf,0", "0,0,-inf"])
def test_meanfield_rejects_non_finite_s0(tmp_path, capsys, s0):
    assert run(["meanfield", "--s0", s0, "--out", str(tmp_path)]) == 1
    assert "components must be finite" in capsys.readouterr().err
    assert not (tmp_path / "meanfield.csv").exists()


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


def _skew_weights(monkeypatch):
    factors = PumpModel._kernel_factors

    def skewed(self, gamma):
        kappa, R, a, smallest = factors(self, gamma)
        return kappa, R, a * np.linspace(1.0, 1.1, a.size), smallest

    monkeypatch.setattr(PumpModel, "_kernel_factors", skewed)


@pytest.mark.parametrize("command", ["steady", "spectrum"])
@pytest.mark.parametrize(
    "break_eigenvalues, label",
    [
        (lambda patch: patch.setattr(solver, "ABERTH_MAX_SWEEPS", 1), "secular equation unsolved"),
        (_skew_weights, "not to the trace"),
    ],
    ids=["sweep_limit", "trace"],
)
def test_eigenvalue_failures_exit_two(tmp_path, capsys, monkeypatch, command, break_eigenvalues, label):
    # an unsolved secular equation or a spectrum off the generator's trace is
    # a numerical failure, with its label, and no output is written
    break_eigenvalues(monkeypatch)
    assert run([command, "--graph", "chain:3", "--gamma-g", "5", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: " in err and label in err
    assert not list(tmp_path.glob("*.json"))


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
    args_spectrum = ["spectrum", "--graph", "square:2x2", "--gamma-g", "5", "--out", str(tmp_path)]
    args_scaling = ["scaling", "--n-values", "2,3", "--out", str(tmp_path)]
    names = ("steady.json", "sweep.csv", "sweep.json", "spectrum.csv", "spectrum.json", "scaling.csv", "scaling.json")
    snapshots = []
    for _ in range(2):
        for args in (args_steady, args_sweep, args_spectrum, args_scaling):
            assert run(args) == 0
        snapshots.append({name: (tmp_path / name).read_bytes() for name in names})
    assert snapshots[0] == snapshots[1]


def test_dynamics_outputs_are_bit_identical_across_runs(tmp_path):
    # the identical evolve and meanfield configs run twice in one process
    # produce identical bytes
    args_evolve = ["evolve", "--graph", "chain:3", "--gamma-g", "3", "--t-final", "1",
                   "--rho0", "random", "--seed", "3", "--out", str(tmp_path)]
    args_meanfield = ["meanfield", "--h-g", "0.8", "--gamma-g", "1", "--t-final", "5",
                      "--seed", "3", "--out", str(tmp_path)]
    snapshots = []
    for _ in range(2):
        assert run(args_evolve) == 0
        assert run(args_meanfield) == 0
        snapshots.append(
            {name: (tmp_path / name).read_bytes() for name in ("evolve.csv", "evolve.json", "meanfield.csv")}
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


# ----------------------------------------------------------------- parser and tables


def _commands_of(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def _outcome(capsys, argv):
    # exit code, stdout and stderr of one run; help and --version exit in argparse
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def _moved(key, value):
    """A value of ``key``'s flag other than its default ``value``."""
    choices = cli._OPTIONS[key].get("choices")
    if choices:
        return choices[-1]
    if value is None:
        return "0.5"
    if isinstance(value, str):
        return value + "0"
    return not value if isinstance(value, bool) else value + 1


def _recording(monkeypatch, command):
    # the command's handler replaced by one that records its resolved config
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, (lambda cfg: seen.append(cfg) or ({}, {}, ""),
                                                 cli._COMMANDS[command][1]))
    return seen


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_run_builds_the_parser_of_its_own_command_alone(tmp_path, monkeypatch, command):
    # a run registers only its own command's flags; the parser of no named
    # command offers every command
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *args: built.append(build(*args)) or built[-1])
    _recording(monkeypatch, command)
    assert run([command, "--out", str(tmp_path)]) == 0
    assert [_commands_of(parser) for parser in built] == [[command]]
    assert _commands_of(build()) == list(cli._COMMANDS) and len(cli._COMMANDS) == 7


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_the_one_command_parser_resolves_helps_and_fails_as_the_full_one(tmp_path, monkeypatch, capsys, command):
    # main's resolved config, stdout, stderr and exit code with the command's
    # own parser equal those with every command's, on the defaults, a config
    # file of every key, help and usage errors
    seen = _recording(monkeypatch, command)
    defaults = cli._COMMANDS[command][1]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: _moved(key, value) for key, value in defaults.items()}))
    out = str(tmp_path / "out")
    cases = [[command, "--out", out], [command, "--config", str(config), "--out", out], [command, "-h"],
             [command, "--no-such-flag"], [command, "--version"], ["-h"], [], ["no-such-command"]]

    def outcomes():
        seen.clear()
        return [_outcome(capsys, argv) for argv in cases], list(seen)

    own = outcomes()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert own == outcomes()
    (code, stdout, _), default_cfg, config_cfg = own[0][2], *own[1]
    assert code == 0 and f"clusterpump {command}" in stdout
    assert all(config_cfg[key] != default_cfg[key] for key in defaults)
    assert [c for c, *_ in own[0]] == [0, 0, 0, 1, 1, 0, 1, 1]


def test_tables_write_each_number_as_its_17_digit_float(tmp_path):
    # every number cell is format(float(x), ".17g"), whatever the number's
    # type; strings keep csv's quoting
    numbers = [3, -7, 0.1, 1 / 3, np.float64(2.5), np.int64(-12), np.float64(0.1), 0.0, -0.0,
               math.nan, math.inf, -math.inf, 5e-324, 1e-30]
    path = tmp_path / "table.csv"
    cli._write_csv(path, ["x", "status"], [[x, "ok"] for x in numbers] + [[1.0, 'failed: "a", b']])
    lines = ["x,status", *(f"{format(float(x), '.17g')},ok" for x in numbers), '1,"failed: ""a"", b"']
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_a_table_writes_the_same_bytes_in_chunks(tmp_path, monkeypatch, chunk):
    # float columns, a list of numbers, and a list whose string cells fall
    # in some chunks and not others give the bytes of the table written whole
    numbers = [[3.0, -7.0], [0.1, 1 / 3], [2.5, -0.0], [math.nan, math.inf], [-math.inf, 5e-324], [1e-30, 0.0]]
    tables = {
        "columns": tuple(np.array(numbers).T),
        "list": numbers,
        "mixed": [[1.0, 2.5], [3, "x"], [math.nan, 1e-30], [-0.0, 'a,"b"'], [5e-324, np.float64(7)]],
    }
    for name, rows in tables.items():
        cli._write_csv(tmp_path / f"{name}.csv", ["a", "b"], rows)
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    for name, rows in tables.items():
        cli._write_csv(tmp_path / f"{name}-chunked.csv", ["a", "b"], rows)
        assert (tmp_path / f"{name}-chunked.csv").read_bytes() == (tmp_path / f"{name}.csv").read_bytes()
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


def test_writing_a_table_takes_one_chunk_of_memory(tmp_path):
    # a table's Python floats and text exist one chunk at a time, so writing
    # five chunks of rows peaks about where writing one does
    def peak(n_rows):
        columns = tuple(np.random.default_rng(0).standard_normal((6, n_rows)))
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "table.csv", list("abcdef"), columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(5 * cli.CSV_CHUNK_ROWS) < 1.5 * peak(cli.CSV_CHUNK_ROWS)


@pytest.mark.parametrize("n_rows", [3, 0])
def test_a_table_of_numbers_writes_the_bytes_of_csv_writer(tmp_path, n_rows):
    # a table with no string cell takes one format string a row, and writes
    # what csv.writer wrote of each number's 17-digit form
    rows = [[3, -7, 0.1, 1 / 3], [np.float64(2.5), np.int64(-12), np.float64(-0.0), -0.0],
            [math.nan, math.inf, -math.inf, 5e-324]][:n_rows]
    header = ["a", "b", "c", "d"]
    path = tmp_path / "table.csv"
    cli._write_csv(path, header, rows)
    with (tmp_path / "expected.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(["%.17g" % c for c in row] for row in rows)
    assert path.read_bytes() == (tmp_path / "expected.csv").read_bytes()
