"""Command-line interface tests: commands, file plumbing, exit codes."""

import csv
import io
import json
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from xbarsim import cli, engine, netrunner
from xbarsim.circuit import oracle_solve
from xbarsim.config import CrossbarConfig
from xbarsim.errors import SolverError
from xbarsim.metrics import gen_input, gen_kernel
from xbarsim.netrunner import (build_tiny_model, load_model, load_tensor,
                               run_inference, save_model, save_tensor)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_simulate_single_cell(tmp_path):
    save_tensor(tmp_path / "g.npy", np.array([[1.0 / 15_000.0]]))
    save_tensor(tmp_path / "v.npy", np.array([0.2]))
    rc = cli.main(["simulate", "--conductance", str(tmp_path / "g.npy"),
                   "--input", str(tmp_path / "v.npy"),
                   "--out", str(tmp_path / "out.json")])
    assert rc == 0
    out = read_json(tmp_path / "out.json")
    assert out["i_out"][0] == pytest.approx(0.2 / 15_004.0, rel=1e-6)


def test_log_records_the_arguments_main_was_given(monkeypatch, tmp_path):
    save_tensor(tmp_path / "g.npy", np.array([[1.0 / 15_000.0]]))
    save_tensor(tmp_path / "v.npy", np.array([0.2]))
    args = ["simulate", "--conductance", str(tmp_path / "g.npy"),
            "--input", str(tmp_path / "v.npy"), "--out", str(tmp_path / "out.json")]
    # in-process: the host process's own arguments are not the command's
    monkeypatch.setattr(sys, "argv", ["host", "extra-host-arg"])
    assert cli.main(args) == 0
    log = (tmp_path / "out.json.log").read_text()
    assert log.split(" ", 1)[1] == "simulate " + " ".join(args) + "\n"
    # with no argv, main runs on the process's arguments and logs them
    monkeypatch.setattr(sys, "argv", ["xbarsim", *args])
    assert cli.main() == 0
    assert (tmp_path / "out.json.log").read_text().split(" ", 1)[1] == log.split(" ", 1)[1]


def test_simulate_matches_oracle_from_files(tmp_path):
    rng = np.random.default_rng(0)
    config = CrossbarConfig(4, 3)
    g = rng.uniform(config.g_min, config.g_max * 0.99, size=(4, 3))
    v = rng.uniform(0.0, 0.19, size=4)
    save_tensor(tmp_path / "g.npy", g)
    save_tensor(tmp_path / "v.npy", v)
    rc = cli.main(["simulate", "--conductance", str(tmp_path / "g.npy"),
                   "--input", str(tmp_path / "v.npy"),
                   "--out", str(tmp_path / "out.json")])
    assert rc == 0
    # the tensor files hold g and v exactly, so the oracle solves the same inputs
    ref = oracle_solve(config, g, v)
    got = np.array(read_json(tmp_path / "out.json")["i_out"])
    assert np.abs(got - ref.i_out).max() / np.abs(ref.i_out).max() <= 1e-9


def test_simulate_takes_a_conductance_near_the_range_end_as_given(tmp_path):
    config = CrossbarConfig(2, 2)
    g = np.full((2, 2), config.g_min)
    g[0, 1] = config.g_max * (1.0 - 5e-7)   # inside the range, not on its end
    v = np.array([0.1, 0.2])
    save_tensor(tmp_path / "g.npy", g)
    save_tensor(tmp_path / "v.npy", v)
    assert cli.main(["simulate", "--conductance", str(tmp_path / "g.npy"),
                     "--input", str(tmp_path / "v.npy"),
                     "--out", str(tmp_path / "out.json")]) == 0
    ref = oracle_solve(config, g, v).i_out
    got = np.array(read_json(tmp_path / "out.json")["i_out"])
    assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-9
    # the range end itself solves to another current in column 1
    at_end = oracle_solve(config, np.where(g == g[0, 1], config.g_max, g), v).i_out
    assert np.abs(got - at_end)[1] > 1e3 * np.abs(got - ref)[1]


def test_simulate_refuses_a_voltage_past_v_sense_max(tmp_path, capsys):
    config = CrossbarConfig(2, 2)
    save_tensor(tmp_path / "g.npy", np.full((2, 2), config.g_min))
    save_tensor(tmp_path / "v.npy", np.array([0.1, config.v_sense_max * (1.0 + 5e-7)]))
    assert cli.main(["simulate", "--conductance", str(tmp_path / "g.npy"),
                     "--input", str(tmp_path / "v.npy"),
                     "--out", str(tmp_path / "out.json")]) == cli.EXIT_VALIDATION
    assert "outside [0, " in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("shape", [(2, 2), (1, 4), (4, 1), (), (3,), (5,)])
def test_simulate_refuses_an_input_that_is_not_one_value_per_row(tmp_path, capsys, shape):
    # a 4-row crossbar takes a 1-D input of 4 voltages; a (2, 2) tensor holds
    # 4 values, but it is no input vector, and is not flattened into one
    save_tensor(tmp_path / "g.npy", np.full((4, 2), 1.0 / 15_000.0))
    save_tensor(tmp_path / "v.npy", np.full(shape, 0.1))
    assert cli.main(["simulate", "--conductance", str(tmp_path / "g.npy"),
                     "--input", str(tmp_path / "v.npy"),
                     "--out", str(tmp_path / "out.json")]) == cli.EXIT_VALIDATION
    assert f"input shape {shape} does not match 4 rows" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_simulate_rejects_nan_input(tmp_path):
    save_tensor(tmp_path / "g.npy", np.full((2, 2), 1.0 / 15_000.0))
    save_tensor(tmp_path / "v.npy", np.array([np.nan, 0.1]))
    rc = cli.main(["simulate", "--conductance", str(tmp_path / "g.npy"),
                   "--input", str(tmp_path / "v.npy"),
                   "--out", str(tmp_path / "out.json")])
    assert rc == cli.EXIT_VALIDATION
    assert not (tmp_path / "out.json").exists()


def test_simulate_rejects_non_finite_config(tmp_path):
    save_tensor(tmp_path / "g.npy", np.full((2, 2), 1.0 / 15_000.0))
    save_tensor(tmp_path / "v.npy", np.array([0.1, 0.1]))
    for bad in ({"r_wire": float("nan")}, {"r_transistor_on": float("nan")},
                {"g_max": float("inf")}):
        (tmp_path / "cfg.json").write_text(json.dumps({"crossbar": bad}))
        rc = cli.main(["simulate", "--config", str(tmp_path / "cfg.json"),
                       "--conductance", str(tmp_path / "g.npy"),
                       "--input", str(tmp_path / "v.npy"),
                       "--out", str(tmp_path / "out.json")])
        assert rc == cli.EXIT_VALIDATION
        assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("size", [{"rows": 16.0}, {"rows": True}, {"cols": 2.0}])
def test_build_engine_rejects_crossbar_size_that_is_not_an_integer(tmp_path, capsys,
                                                                 size):
    # a one-row weight matrix, which `"rows": true` would otherwise fit as 1
    (tmp_path / "cfg.json").write_text(json.dumps({"crossbar": size}))
    save_tensor(tmp_path / "w.npy", np.full((1, 2), 0.5))
    rc = cli.main(["build-engine", "--config", str(tmp_path / "cfg.json"),
                   "--weights", str(tmp_path / "w.npy"),
                   "--out", str(tmp_path / "e.json")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and next(iter(size)) in err
    assert not (tmp_path / "e.json").exists()


def test_missing_file_exits_with_usage_code(tmp_path):
    rc = cli.main(["simulate", "--conductance", str(tmp_path / "nope.npy"),
                   "--input", str(tmp_path / "nope2.npy"),
                   "--out", str(tmp_path / "out.json")])
    assert rc == cli.EXIT_USAGE


def test_invalid_bits_exits_with_validation_code(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"dac_bits": 0}))
    save_tensor(tmp_path / "w.npy", np.ones((2, 2)))
    rc = cli.main(["build-engine", "--config", str(tmp_path / "cfg.json"),
                   "--weights", str(tmp_path / "w.npy"),
                   "--out", str(tmp_path / "e.json")])
    assert rc == cli.EXIT_VALIDATION


# per command: configs with keys it does not read, and the rest of its
# arguments; build-engine always converts by transfer, which no conversion
# signal changes, so it reads no amplitude keys
UNREAD_CONFIG = {
    "simulate": ([{"dac_bits": 4}], ["--conductance", "g.npy", "--input", "v.npy"]),
    "build-engine": ([{"dca_bits": 8}, {"amplitudes": [1.0, 0.1]},
                      {"signal_fraction": 1.0}], ["--weights", "g.npy"]),
    "layer-exp": ([{"crossbar": {"r_wire": 0.0}, "x_max": 2.0}], []),
    "run-net": ([{"dac_bits": 4, "crossbar": {"r_wire": 0.0}}],
                ["--model", "tiny.json", "--images", "imgs"]),
}


@pytest.mark.parametrize("command", sorted(UNREAD_CONFIG))
def test_unknown_config_key_rejected(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    save_tensor("g.npy", np.full((2, 2), 1.0 / 15_000.0))
    save_tensor("v.npy", np.full(2, 0.1))
    save_model(build_tiny_model(seed=1, channels=(3,), hw=4), "tiny.json")
    os.mkdir("imgs")
    save_tensor("imgs/img0.npy", gen_input((4, 4, 3), 0.3, 1))
    bad_configs, args = UNREAD_CONFIG[command]
    for bad in bad_configs:
        Path("cfg.json").write_text(json.dumps(bad))
        rc = cli.main([command, "--config", "cfg.json", *args, "--out", "out"])
        assert rc == cli.EXIT_VALIDATION
        assert not Path("out").exists()
    # each command still takes every key it reads
    good = dict.fromkeys(cli.CONFIG_KEYS[command], 1)
    Path("cfg.json").write_text(json.dumps(good))
    assert cli._load_config("cfg.json", command) == good


CALI_ARGS = {
    "build-engine": ["--weights", "g.npy"],
    "layer-exp": ["--kernel-shape", "2x2x3x3", "--input-hw", "4"],
    "run-net": ["--model", "tiny.json", "--images", "imgs"],
}


@pytest.mark.parametrize("command", sorted(CALI_ARGS))
def test_bad_cali_samples_rejected_before_conversion(tmp_path, monkeypatch,
                                                     command):
    monkeypatch.chdir(tmp_path)
    save_tensor("g.npy", np.full((2, 2), 0.5))
    save_model(build_tiny_model(seed=1, channels=(3,), hw=4), "tiny.json")
    os.mkdir("imgs")
    save_tensor("imgs/img0.npy", gen_input((4, 4, 3), 0.3, 1))
    converted = []
    monkeypatch.setattr(engine, "convert",
                        lambda *args, **kwargs: converted.append(args))
    for bad in (0, -1, "3", 1.5):
        Path("cfg.json").write_text(json.dumps({"cali_samples": bad}))
        rc = cli.main([command, "--config", "cfg.json", *CALI_ARGS[command],
                       "--out", "out"])
        assert rc == cli.EXIT_VALIDATION
        assert not Path("out").exists()
    assert not converted


# config values the commands must reject before they build any engine
BAD_CONFIG_VALUES = [
    ("simulate", {"crossbar": 5}),
    ("simulate", {"crossbar": [1, 2]}),
    ("build-engine", {"crossbar": 5}),
    ("build-engine", {"crossbar": [1, 2]}),
    ("build-engine", {"x_max": float("nan")}),
    ("build-engine", {"x_max": 0}),
    ("build-engine", {"x_max": "1"}),
    ("build-engine", {"seed": -1}),
    ("build-engine", {"seed": 1.5}),
    ("build-engine", {"seed": True}),
    ("build-engine", {"adc_bits": "8"}),
    ("build-engine", {"dac_bits": 2.5}),
    ("build-engine", {"dac_bits": 1}),
    ("layer-exp", {"amplitudes": []}),
    ("layer-exp", {"amplitudes": [0.5, 0.0]}),
    ("layer-exp", {"amplitudes": [1.5]}),
    ("layer-exp", {"amplitudes": [float("nan")]}),
    ("layer-exp", {"amplitudes": 0.5}),
    ("layer-exp", {"seed": -1}),
    ("layer-exp", {"adc_bits": "8"}),
    ("run-net", {"seed": -1}),
    ("run-net", {"seed": 1.5}),
]


@pytest.mark.parametrize("command, config", BAD_CONFIG_VALUES, ids=[
    f"{command}-{key}={value!r}" for command, cfg in BAD_CONFIG_VALUES
    for key, value in cfg.items()])
def test_bad_config_value_rejected_before_conversion(tmp_path, monkeypatch,
                                                     capsys, command, config):
    monkeypatch.chdir(tmp_path)
    save_tensor("g.npy", np.full((2, 2), 0.5))
    save_tensor("v.npy", np.full(2, 0.1))
    save_model(build_tiny_model(seed=1, channels=(3,), hw=4), "tiny.json")
    os.mkdir("imgs")
    save_tensor("imgs/img0.npy", gen_input((4, 4, 3), 0.3, 1))
    converted = []
    monkeypatch.setattr(engine, "convert",
                        lambda *args, **kwargs: converted.append(args))
    Path("cfg.json").write_text(json.dumps(config))
    args = {**CALI_ARGS, "simulate": UNREAD_CONFIG["simulate"][1]}[command]
    sweep = ["--conv-amp-sweep"] if command == "layer-exp" else []
    rc = cli.main([command, "--config", "cfg.json", *args, *sweep,
                   "--out", "out"])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error:")
    assert not Path("out").exists()
    assert not converted


@pytest.mark.parametrize("samples", [
    np.full((5, 7), 0.5),              # 7 columns for 144-row weights
    np.full(144, 0.5),                 # one vector, not a batch
    np.full((1, 144), 0.5),            # a batch of one
    np.full((4, 144), 1.5),            # above x_max
    np.where(np.eye(4, 144) > 0, np.nan, 0.5),
], ids=["5x7", "1-D", "one-row", "above-x_max", "nan"])
def test_build_engine_rejects_bad_samples_before_conversion(tmp_path, monkeypatch,
                                                            capsys, samples):
    monkeypatch.chdir(tmp_path)
    save_tensor("w.npy", gen_kernel(1, (144, 4), 0))
    save_tensor("s.npy", samples)
    converted = []
    monkeypatch.setattr(engine, "convert",
                        lambda *args, **kwargs: converted.append(args))
    rc = cli.main(["build-engine", "--weights", "w.npy", "--samples", "s.npy",
                   "--out", "out.json"])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error:")
    assert not Path("out.json").exists()
    assert not converted


def test_layer_exp_rejects_negative_seed_option(tmp_path):
    rc = cli.main(["layer-exp", "--kernel-shape", "2x2x3x3", "--input-hw", "4",
                   "--seed", "-1", "--out", str(tmp_path / "exp")])
    assert rc == cli.EXIT_USAGE
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("input_hw", ["0", "-1"])
def test_layer_exp_rejects_non_positive_input_hw_option(tmp_path, input_hw):
    rc = cli.main(["layer-exp", "--kernel-shape", "2x2x3x3", "--input-hw", input_hw,
                   "--out", str(tmp_path / "exp")])
    assert rc == cli.EXIT_USAGE
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("sparsity", ["1.5", "-0.5", "nan"])
def test_layer_exp_rejects_bad_sparsity_before_out(tmp_path, sparsity):
    rc = cli.main(["layer-exp", "--kernel-shape", "2x2x3x3", "--input-hw", "4",
                   "--sparsity", sparsity, "--out", str(tmp_path / "exp")])
    assert rc == cli.EXIT_VALIDATION
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("args, match", [
    # a 5x5 kernel on a 1x1 map padded by 1 has no window
    (["--kernel-shape", "5x5x1x1", "--input-hw", "1"], "does not fit"),
    # an all-zero map makes every exact output 0
    (["--kernel-shape", "2x2x3x3", "--input-hw", "4", "--sparsity", "1.0"], "no range")],
    ids=["kernel-larger-than-map", "all-zero-map"])
def test_layer_exp_rejects_a_layer_it_cannot_measure_before_out(tmp_path, monkeypatch,
                                                                capsys, args, match):
    monkeypatch.setattr(engine, "convert", lambda *args, **kwargs: pytest.fail(
        "a variant was converted before the layer was checked"))
    rc = cli.main(["layer-exp", *args, "--out", str(tmp_path / "exp")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and match in err
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("image", ["wrong-shape", "above-1", "nan", "none"])
def test_run_net_rejects_bad_or_no_images_before_out(tmp_path, monkeypatch, capsys,
                                                     image):
    save_model(build_tiny_model(seed=2, channels=(3, 4), hw=6), tmp_path / "tiny.json")
    (tmp_path / "imgs").mkdir()
    good = gen_input((6, 6, 3), 0.3, 50)
    bad = {"wrong-shape": gen_input((5, 5, 3), 0.3, 50),
           "above-1": np.where(good == good.max(), 1.5, good),
           "nan": np.where(good == good.max(), np.nan, good)}
    if image != "none":   # a good image sorts first, so every image is checked
        save_tensor(tmp_path / "imgs" / "img0.npy", good)
        save_tensor(tmp_path / "imgs" / "img1.npy", bad[image])
    converted = []
    monkeypatch.setattr(engine, "convert",
                        lambda *args, **kwargs: converted.append(args))
    rc = cli.main(["run-net", "--model", str(tmp_path / "tiny.json"), "--images",
                   str(tmp_path / "imgs"), "--out", str(tmp_path / "net")])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error:")
    assert not converted and not (tmp_path / "net").exists()


@pytest.mark.parametrize("shape", ["3x3x-2x4", "3x3x0x4", "0x3x2x4", "3x3x4", "3x3xax4"])
def test_layer_exp_rejects_bad_kernel_shape_before_out(tmp_path, shape):
    rc = cli.main(["layer-exp", "--kernel-shape", shape, "--input-hw", "4",
                   "--out", str(tmp_path / "exp")])
    assert rc == cli.EXIT_VALIDATION
    assert not (tmp_path / "exp").exists()


def test_numeric_failure_exit_code(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise SolverError("synthetic numeric failure")
    monkeypatch.setattr(cli, "simulate", boom)
    save_tensor(tmp_path / "g.npy", np.full((1, 1), 1.0 / 20_000.0))
    save_tensor(tmp_path / "v.npy", np.array([0.1]))
    rc = cli.main(["simulate", "--conductance", str(tmp_path / "g.npy"),
                   "--input", str(tmp_path / "v.npy"),
                   "--out", str(tmp_path / "out.json")])
    assert rc == cli.EXIT_NUMERIC


def test_build_engine_is_idempotent(tmp_path):
    w = gen_kernel(1, (3, 3, 3, 4), 0).reshape(27, 4)
    save_tensor(tmp_path / "w.npy", w)
    for name in ("a", "b"):
        rc = cli.main(["build-engine", "--weights", str(tmp_path / "w.npy"),
                       "--out", str(tmp_path / f"{name}.json")])
        assert rc == 0
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    da = read_json(tmp_path / "a.json")
    db = read_json(tmp_path / "b.json")
    da.pop("blob_file"), db.pop("blob_file")
    assert da == db


def test_layer_exp_variant_report(tmp_path):
    rc = cli.main(["layer-exp", "--kernel-shape", "3x3x4x4", "--input-hw", "6",
                   "--sparsity", "0.5", "--out", str(tmp_path / "exp")])
    assert rc == 0
    lines = (tmp_path / "exp" / "variants.csv").read_text().strip().splitlines()
    assert lines[0] == "variant,mean,worst,samples,output_range"
    means = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
    assert set(means) == {"direct", "original_conversion",
                          "improved_uncalibrated", "improved"}
    assert means["improved"] < means["direct"]
    summary = read_json(tmp_path / "exp" / "summary.json")
    assert "improved" in summary


def test_layer_exp_amplitude_sweep(tmp_path):
    rc = cli.main(["layer-exp", "--kernel-shape", "2x2x2x2", "--input-hw", "4",
                   "--conv-amp-sweep", "--out", str(tmp_path / "exp")])
    assert rc == 0
    lines = (tmp_path / "exp" / "amplitude_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "fraction,mean,worst"
    assert len(lines) == 8   # header + 7 candidate amplitudes


def test_layer_exp_sweep_uses_cali_samples(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"cali_samples": 3}))
    rc = cli.main(["layer-exp", "--kernel-shape", "3x3x4x4", "--input-hw", "4",
                   "--conv-amp-sweep", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "exp")])
    assert rc == 0
    with open(tmp_path / "exp" / "variants.csv", newline="") as fh:
        improved = next(r for r in csv.DictReader(fh) if r["variant"] == "improved")
    with open(tmp_path / "exp" / "amplitude_sweep.csv", newline="") as fh:
        full = next(r for r in csv.DictReader(fh) if float(r["fraction"]) == 1.0)
    assert (full["mean"], full["worst"]) == (improved["mean"], improved["worst"])


def test_layer_exp_sweep_converts_three_arrays(tmp_path, monkeypatch):
    methods = []
    counted = engine.convert

    def counting_convert(*args, **kwargs):
        methods.append(kwargs["method"])
        return counted(*args, **kwargs)

    monkeypatch.setattr(engine, "convert", counting_convert)
    rc = cli.main(["layer-exp", "--kernel-shape", "2x2x2x2", "--input-hw", "4",
                   "--conv-amp-sweep", "--out", str(tmp_path / "exp")])
    assert rc == 0
    # direct, original_conversion, and the one array of improved and the sweep
    assert sorted(methods) == ["branch", "transfer", "transfer"]


def test_run_net_outputs(tmp_path):
    model = build_tiny_model(seed=1, channels=(3, 4), hw=6)
    save_model(model, tmp_path / "tiny.json")
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    for i in range(3):
        save_tensor(img_dir / f"img{i}.npy", gen_input((6, 6, 3), 0.3, 40 + i))
    rc = cli.main(["run-net", "--model", str(tmp_path / "tiny.json"),
                   "--images", str(img_dir), "--bits", "none,8",
                   "--taps", "fc", "--out", str(tmp_path / "net")])
    assert rc == 0
    lines = (tmp_path / "net" / "accuracy.csv").read_text().strip().splitlines()
    assert lines[0] == "bits,mean_rel_err,worst_rel_err,agreement,images"
    assert len(lines) == 3
    tap = np.load(tmp_path / "net" / "layer_fc.npy", allow_pickle=False)
    assert tap.dtype == netrunner.TAP_DTYPE
    assert len(tap) == 3 * 10   # 3 images x 10 output columns
    # each image's one window starts after the previous image's
    assert tap["window"].tolist() == [k for k in range(3) for _ in range(10)]
    assert [p.name for p in (tmp_path / "net").glob("*.csv")] == ["accuracy.csv"]
    summary = read_json(tmp_path / "net" / "summary.json")
    assert {row["bits"] for row in summary["accuracy"]} == {"none", 8}


def tiny_run_net_inputs(tmp_path, images):
    """A saved tiny model and a directory of `images` input tensors."""
    model = build_tiny_model(seed=3, channels=(3, 4), hw=6)
    save_model(model, tmp_path / "tiny.json")
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    for i in range(images):
        save_tensor(img_dir / f"img{i}.npy", gen_input((6, 6, 3), 0.3, 60 + i))
    return ["run-net", "--model", str(tmp_path / "tiny.json"),
            "--images", str(img_dir), "--out", str(tmp_path / "net")]


def test_run_net_rejects_bad_bits(tmp_path, monkeypatch):
    args = tiny_run_net_inputs(tmp_path, 1)
    assert cli.main(args + ["--bits", "8x"]) == cli.EXIT_USAGE
    assert not (tmp_path / "net").exists()
    converted = []
    monkeypatch.setattr(engine, "convert",
                        lambda *args, **kwargs: converted.append(args))
    for bits in ("none,1", "17"):
        assert cli.main(args + ["--bits", bits]) == cli.EXIT_VALIDATION
        assert not (tmp_path / "net").exists()
    assert not converted


@pytest.mark.parametrize("option, value", [
    ("--bits", ""), ("--bits", ","), ("--bits", " , "), ("--taps", ","), ("--taps", "")])
def test_run_net_rejects_bits_or_taps_that_name_nothing(tmp_path, monkeypatch, capsys,
                                                        option, value):
    args = tiny_run_net_inputs(tmp_path, 1)
    monkeypatch.setattr(cli, "load_model", lambda *args: pytest.fail(
        f"the model was loaded before {option} was checked"))
    options = {"--bits": "none", option: value}
    assert cli.main(args + [arg for item in options.items() for arg in item]) == \
        cli.EXIT_USAGE
    assert option in capsys.readouterr().err
    assert not (tmp_path / "net").exists()


def test_run_net_rejects_images_that_are_not_a_directory(tmp_path, monkeypatch,
                                                         capsys):
    args = tiny_run_net_inputs(tmp_path, 1)
    args[args.index("--images") + 1] = str(tmp_path / "tiny.json")
    monkeypatch.setattr(cli, "load_model", lambda *args: pytest.fail(
        "the model was loaded before --images was checked"))
    assert cli.main(args + ["--bits", "none"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: not a directory:")
    assert not (tmp_path / "net").exists()


def test_run_net_rejects_unknown_taps(tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("an engine was built before the taps were checked")
    monkeypatch.setattr(netrunner, "build_engine", no_build)
    args = tiny_run_net_inputs(tmp_path, 1)
    for taps in ("conv99", "conv0,relu0"):
        assert cli.main(args + ["--bits", "none", "--taps", taps]) == \
            cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert taps.split(",")[-1] in err and "conv0" not in err
    assert not (tmp_path / "net").exists()


def csv_writer_bytes(header, rows):
    """The reference: what csv.writer writes for `header` and `rows`."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("n", [9, 0])
@pytest.mark.parametrize("layer", ["conv0", "a,b", 'q"x', "line\nbreak"])
def test_write_csv_matches_csv_writer(tmp_path, layer, n):
    floats = [-0.0, 5e-324, 1e-05, 0.0001, 1e16, 123456789012345.6,
              float("nan"), float("inf"), float("-inf")][:n]
    # the lists of the reports, zero rows giving the header only: a bits
    # column mixing "none" with ints, as in accuracy.csv, strings, numbers
    # equal in value but written apart (0.0 and -0.0, 1 and 1.0 and True),
    # and floats from the least subnormal to infinities and NaN
    header = ("bits", "name", "value", layer, "float")
    columns = [["none", 8, 2**40, "none", 4, 2**31, 6, 2, 16][:n],
               [layer, "", " x", "cr\rlf", layer, "", "plain", "a,b", layer][:n],
               [0.0, -0.0, 1, 1.0, True, *floats[:4]][:n],
               [2**31 + k for k in range(n)], floats]
    cli._write_csv(tmp_path / "mixed.csv", header, columns)
    assert (tmp_path / "mixed.csv").read_bytes() == csv_writer_bytes(
        header, zip(*columns))


def layer_rows(report, layer):
    """`layer`'s tap rows: each tapped layer's rows are contiguous, in
    aggregates order, and its aggregate count says how many."""
    counts = [agg["count"] for agg in report.aggregates.values()]
    k = list(report.aggregates).index(layer)
    start = sum(counts[:k])
    assert sum(counts) == len(report.rows)
    return report.rows[start:start + counts[k]]


def test_run_net_tap_arrays(tmp_path):
    args = tiny_run_net_inputs(tmp_path, 3)
    assert cli.main(args + ["--bits", "none", "--taps", "all"]) == 0
    model = load_model(tmp_path / "tiny.json")
    reports = [run_inference(model, load_tensor(p), mode="analog", taps="all")[1]
               for p in sorted((tmp_path / "imgs").iterdir())]
    # image k+1's windows start after the largest window of image k
    offsets = [0]
    for rep in reports[:-1]:
        offsets.append(offsets[-1] + 1 + int(rep.rows["window"].max()))
    for layer in ("conv0", "conv1", "fc"):
        got = np.load(tmp_path / "net" / f"layer_{layer}.npy", allow_pickle=False)
        assert got.dtype == netrunner.TAP_DTYPE and got.ndim == 1
        expect = [(layer_rows(rep, layer), offset)
                  for rep, offset in zip(reports, offsets)]
        assert len(got) == sum(len(rows) for rows, _ in expect) == \
            3 * int(np.prod(model.shapes[layer]))
        for rows, offset in expect:
            # each image's rows start at its offset, appended after the last
            assert got["window"][0] == offset
            assert np.array_equal(got["window"][:len(rows)], rows["window"] + offset)
            for field in ("column", "ideal", "actual", "rel_err"):
                assert np.array_equal(got[field][:len(rows)], rows[field])
            got = got[len(rows):]
        # image 2 starts after the largest window of any layer of image 1
        assert offsets[2] > offsets[1] > 0
    assert not list((tmp_path / "net").glob("layer_*.csv"))


def test_outputs_deterministic_across_thread_settings(tmp_path):
    model = build_tiny_model(seed=2, channels=(3, 4), hw=6)
    save_model(model, tmp_path / "tiny.json")
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    for i in range(3):
        save_tensor(img_dir / f"img{i}.npy", gen_input((6, 6, 3), 0.3, 50 + i))
    outputs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"net{threads}"
        rc = cli.main(["--threads", threads, "run-net", "--model", str(tmp_path / "tiny.json"),
                       "--images", str(img_dir), "--bits", "8",
                       "--taps", "all", "--out", str(out)])
        assert rc == 0
        outputs[threads] = {p.name: p.read_bytes()
                            for p in out.iterdir() if p.suffix != ".log"}
    assert outputs["1"] == outputs["4"]
    assert len([name for name in outputs["1"] if name.startswith("layer_")]) == 3


def test_run_net_tap_writer_error_reaches_parent(tmp_path):
    args = tiny_run_net_inputs(tmp_path, 1)
    (tmp_path / "net" / "layer_conv0.npy").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        cli.main(args + ["--bits", "none", "--taps", "all"])


def test_run_net_failed_tap_pass_leaves_no_tap_reports(tmp_path, monkeypatch, capsys):
    # the second image's tap pass fails after the first image's rows were
    # written: the reports, whose headers promise both images' rows, go
    passes = []

    def failing_second_pass(*args, **kwargs):
        passes.append(1)
        if len(passes) > 1:
            raise SolverError("singular crossbar system: test")
        return netrunner.run_inference(*args, **kwargs)

    monkeypatch.setattr(cli, "run_inference", failing_second_pass)
    args = tiny_run_net_inputs(tmp_path, 2)
    assert cli.main(args + ["--bits", "none", "--taps", "all"]) == cli.EXIT_NUMERIC
    assert "numeric error: singular crossbar system: test" in capsys.readouterr().err
    assert len(passes) == 2
    assert sorted(p.name for p in (tmp_path / "net").iterdir()) == ["accuracy.csv"]


def test_run_net_memory_does_not_grow_with_images(tmp_path):
    # the parent holds one image's tap rows at a time, so six images peak
    # no higher than one, up to less than two images' rows
    model = build_tiny_model(seed=2, channels=(8, 8), hw=16)
    save_model(model, tmp_path / "tiny.json")
    image_rows = sum(int(np.prod(model.shapes[layer.name]))
                     for layer in model.weight_layers()) * netrunner.TAP_DTYPE.itemsize
    peaks = {}
    for images in (1, 6):
        img_dir = tmp_path / f"imgs{images}"
        img_dir.mkdir()
        for i in range(images):
            save_tensor(img_dir / f"img{i}.npy", gen_input((16, 16, 3), 0.3, 70 + i))
        tracemalloc.start()
        try:
            assert cli.main(["run-net", "--model", str(tmp_path / "tiny.json"),
                             "--images", str(img_dir), "--bits", "none",
                             "--taps", "all", "--out", str(tmp_path / f"net{images}")]) == 0
            peaks[images] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[6] - peaks[1] < 2 * image_rows, (peaks, image_rows)


def test_threads_flag_validation(capsys):
    args = ["simulate", "--conductance", "x", "--input", "y", "--out", "z"]
    assert cli.main(["--threads", "0", *args]) == cli.EXIT_VALIDATION
    assert "--threads must be >= 1, got 0" in capsys.readouterr().err
