"""Network graph, file format, and inference pipeline tests."""

import json

import numpy as np
import pytest

from xbarsim import cli, engine
from xbarsim.convmap import FeatureMap, resnet20_layer_table
from xbarsim.errors import ValidationError
from xbarsim.metrics import gen_input
from xbarsim.netrunner import (LayerSpec, NetworkModel, batchnorm_affine,
                               build_resnet20_model, build_tiny_model,
                               global_avg_pool, load_model, load_tensor,
                               quantization_sweep, relu, run_inference,
                               save_model, save_tensor, shortcut_add, softmax)


def test_tensor_round_trip(tmp_path):
    a = np.random.default_rng(0).normal(size=(4, 5, 3)).astype(np.float32)
    path = tmp_path / "t.mten"
    save_tensor(path, a)
    b = load_tensor(path)
    assert b.shape == (4, 5, 3)
    assert np.array_equal(b, a.astype(float))


def test_tensor_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.mten"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValidationError):
        load_tensor(path)


def test_tensor_rejects_truncated_payload(tmp_path):
    path = tmp_path / "t.mten"
    save_tensor(path, np.ones((3, 3)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValidationError):
        load_tensor(path)


def test_digital_op_trivials():
    assert relu(-1.0) == 0.0
    assert relu(2.0) == 2.0
    assert np.allclose(softmax(np.zeros(10)), 0.1)
    x = np.random.default_rng(1).normal(size=(2, 2, 3))
    assert np.array_equal(batchnorm_affine(x, np.ones(3), np.zeros(3)), x)
    with pytest.raises(ValidationError):
        shortcut_add(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)))


def test_global_avg_pool():
    fm = FeatureMap(np.arange(24, dtype=float).reshape(2, 4, 3))
    out = global_avg_pool(fm)
    assert out.data.shape == (1, 1, 3)
    assert np.allclose(out.data.ravel(), fm.data.mean(axis=(0, 1)))


def test_softmax_is_stable_for_large_inputs():
    p = softmax(np.array([1000.0, 1001.0]))
    assert np.isfinite(p).all() and p.sum() == pytest.approx(1.0)


def test_model_graph_validation():
    inp = LayerSpec("image", "input", params={"height": 2, "width": 2, "channels": 1})
    sm = LayerSpec("softmax", "softmax", predecessors=["image"])
    with pytest.raises(ValidationError):
        NetworkModel("m", [sm])                 # no input layer
    with pytest.raises(ValidationError):
        NetworkModel("m", [inp, sm, LayerSpec("r", "relu", predecessors=["ghost"])])
    with pytest.raises(ValidationError):
        NetworkModel("m", [inp, LayerSpec("a", "add", predecessors=["image"]), sm])
    with pytest.raises(ValidationError):
        LayerSpec("x", "mystery")


def test_model_manifest_round_trip(tmp_path):
    model = build_tiny_model(seed=3)
    manifest, blob = save_model(model, tmp_path / "tiny.json")
    clone = load_model(manifest)
    img = gen_input((8, 8, 3), 0.2, seed=9)
    p1, _ = run_inference(model, img, mode="software")
    p2, _ = run_inference(clone, img, mode="software")
    # weights round-trip through float32, outputs agree to that precision
    assert np.abs(p1 - p2).max() <= 1e-6


def test_model_manifest_checksum(tmp_path):
    model = build_tiny_model(seed=3)
    manifest, blob = save_model(model, tmp_path / "tiny.json")
    raw = bytearray(blob.read_bytes())
    raw[10] ^= 0xFF
    blob.write_bytes(bytes(raw))
    with pytest.raises(ValidationError):
        load_model(manifest)


@pytest.mark.parametrize("layer,key", [
    ("conv0", "kernel_h"), ("conv0", "kernel_w"), ("conv1", "in_channels"),
    ("fc", "out_channels"), ("bn0", "channels")])
def test_model_manifest_missing_shape_param(tmp_path, layer, key):
    model = build_tiny_model(seed=3)
    manifest, _ = save_model(model, tmp_path / "tiny.json")
    doc = json.loads(manifest.read_text())
    entry = next(e for e in doc["layers"] if e["name"] == layer)
    del entry["params"][key]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"{layer}.*{key}"):
        load_model(manifest)


@pytest.mark.parametrize("key", ["blob_offset", "blob_len"])
@pytest.mark.parametrize("value", ["missing", -4, 1.5, "0", None, True])
def test_model_manifest_bad_blob_slice(tmp_path, key, value):
    model = build_tiny_model(seed=3)
    manifest, _ = save_model(model, tmp_path / "tiny.json")
    doc = json.loads(manifest.read_text())
    entry = next(e for e in doc["layers"] if e["name"] == "conv1")
    if value == "missing":
        del entry[key]
    else:
        entry[key] = value
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="conv1.*blob_offset and blob_len"):
        load_model(manifest)


@pytest.mark.parametrize("field, value", [
    ("layers", 5), ("predecessors", 7), ("params", [1]), ("kernel_h", "3")])
def test_model_manifest_bad_field_types(tmp_path, field, value):
    model = build_tiny_model(seed=3)
    manifest, _ = save_model(model, tmp_path / "tiny.json")
    doc = json.loads(manifest.read_text())
    entry = next(e for e in doc["layers"] if e["name"] == "conv0")
    if field == "layers":
        doc["layers"] = value
    elif field == "kernel_h":
        entry["params"][field] = value
    else:
        entry[field] = value
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="'layers'" if field == "layers" else "conv0"):
        load_model(manifest)
    (tmp_path / "imgs").mkdir()
    assert cli.main(["run-net", "--model", str(manifest), "--images", str(tmp_path / "imgs"),
                     "--out", str(tmp_path / "net")]) == cli.EXIT_VALIDATION


def test_software_mode_matches_plain_numpy_reference():
    model = build_tiny_model(seed=4, channels=(3, 4), hw=6)
    img = gen_input((6, 6, 3), 0.1, seed=10)
    probs, report = run_inference(model, img, mode="software")
    assert probs.shape == (10,)
    assert probs.sum() == pytest.approx(1.0)
    assert report.prediction == int(np.argmax(probs))


def test_ideal_analog_matches_software():
    model = build_tiny_model(seed=5, channels=(3, 4), hw=6)
    img = gen_input((6, 6, 3), 0.2, seed=11)
    p_sw, _ = run_inference(model, img, mode="software")
    p_an, _ = run_inference(model, img, mode="analog",
                            engine_kwargs={"ideal": True})
    assert np.abs(p_an - p_sw).max() <= 1e-6


def test_default_parasitics_analog_is_close_and_tapped():
    model = build_tiny_model(seed=6, channels=(3, 4), hw=6)
    img = gen_input((6, 6, 3), 0.2, seed=12)
    p_sw, _ = run_inference(model, img, mode="software")
    p_an, report = run_inference(model, img, mode="analog", taps="all")
    assert np.abs(p_an - p_sw).max() <= 1e-2
    assert set(report.aggregates) == {"conv0", "conv1", "fc"}
    # aggregates equal recomputation from the raw rows
    for layer, agg in report.aggregates.items():
        rel = [r[5] for r in report.rows if r[0] == layer]
        assert agg["count"] == len(rel)
        assert agg["mean"] == pytest.approx(float(np.mean(rel)))
        assert agg["worst"] == pytest.approx(float(np.max(rel)))


def test_input_validation():
    model = build_tiny_model(seed=7)
    with pytest.raises(ValidationError):
        run_inference(model, np.zeros((4, 4, 3)))
    with pytest.raises(ValidationError):
        run_inference(model, np.full((8, 8, 3), 2.0))
    with pytest.raises(ValidationError):
        run_inference(model, np.zeros((8, 8, 3)), mode="quantum")


def test_identity_shortcut_equals_fused_kernel():
    # y = conv(x; W) + x equals conv(x; W + I) for a 1x1 kernel
    rng = np.random.default_rng(13)
    W = rng.normal(size=(3, 3)) * 0.3
    base = [LayerSpec("image", "input",
                      params={"height": 4, "width": 4, "channels": 3})]
    conv = LayerSpec("conv", "conv", predecessors=["image"],
                     params={"kernel_h": 1, "kernel_w": 1, "in_channels": 3,
                             "out_channels": 3}, weights=W)
    tail = [LayerSpec("pool", "global_avg_pool", predecessors=["add"]),
            LayerSpec("softmax", "softmax", predecessors=["pool"])]
    with_shortcut = NetworkModel("a", base + [
        conv, LayerSpec("add", "add", predecessors=["conv", "image"])] + tail)
    fused_conv = LayerSpec("conv", "conv", predecessors=["image"],
                           params=conv.params, weights=W + np.eye(3))
    fused = NetworkModel("b", base + [
        fused_conv,
        LayerSpec("add", "batchnorm", predecessors=["conv"],
                  params={"channels": 3},
                  weights=np.stack([np.ones(3), np.zeros(3)]))] + tail)
    img = gen_input((4, 4, 3), 0.0, seed=14)
    p1, _ = run_inference(with_shortcut, img, mode="software")
    p2, _ = run_inference(fused, img, mode="software")
    assert np.allclose(p1, p2, rtol=0, atol=1e-12)


def test_quantization_sweep_empty_images():
    assert quantization_sweep(build_tiny_model(seed=8), [], [8]) == []


def test_quantization_sweep_none_matches_software():
    model = build_tiny_model(seed=9, channels=(3, 4), hw=6)
    imgs = [gen_input((6, 6, 3), 0.3, seed=20 + i) for i in range(3)]
    table = quantization_sweep(model, imgs, ["none"])
    assert table[0]["agreement"] == 1.0
    assert table[0]["mean_rel_err"] <= 1e-6


def test_network_converts_each_weight_layer_once(monkeypatch):
    imgs = [gen_input((6, 6, 3), 0.3, seed=30 + i) for i in range(2)]
    bit_list = ["none", 8, 6]
    fresh = [row for bits in bit_list for row in quantization_sweep(
        build_tiny_model(seed=10, channels=(3, 4), hw=6), imgs, [bits])]
    calls = []
    counted = engine.convert

    def counting_convert(*args, **kwargs):
        calls.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(engine, "convert", counting_convert)
    model = build_tiny_model(seed=10, channels=(3, 4), hw=6)
    programs = {l.name: model.programmed(l) for l in model.weight_layers()}
    before = {name: p.solver.g.copy() for name, p in programs.items()}
    table = quantization_sweep(model, imgs, bit_list)
    assert table == fresh
    for layer in model.weight_layers():
        assert model.programmed(layer) is programs[layer.name]
        assert np.array_equal(programs[layer.name].solver.g, before[layer.name])
    assert len(calls) == len(model.weight_layers())


def test_resnet20_model_matches_layer_table():
    model = build_resnet20_model(seed=0)
    shapes = model.crossbar_shapes()
    for geom in resnet20_layer_table():
        assert shapes[geom.name] == geom.crossbar_shape
    assert len(model.weight_layers()) == 23


def test_resnet20_software_forward_pass():
    model = build_resnet20_model(seed=1)
    img = gen_input((32, 32, 3), 0.4, seed=21)
    probs, _ = run_inference(model, img, mode="software")
    assert probs.shape == (10,)
    assert np.isfinite(probs).all()
    assert probs.sum() == pytest.approx(1.0)
