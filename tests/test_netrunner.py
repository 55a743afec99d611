"""Network graph, file format, and inference pipeline tests."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from xbarsim import cli, engine
from xbarsim.convmap import FeatureMap
from xbarsim.errors import ValidationError
from xbarsim.metrics import gen_input
from xbarsim.netrunner import (LayerSpec, NetworkModel, batchnorm_affine,
                               build_resnet20_model, build_tiny_model,
                               global_avg_pool, load_model, load_tensor,
                               quantization_sweep, relu, run_inference,
                               save_model, save_tensor, shortcut_add, softmax)


def test_tensor_round_trip(tmp_path):
    # float64 values that float32 would round come back exactly
    a = np.random.default_rng(0).normal(size=(4, 5, 3))
    assert not np.array_equal(a.astype(np.float32), a)
    path = tmp_path / "t.npy"
    save_tensor(path, a)
    b = load_tensor(path)
    assert b.dtype == np.float64 and np.array_equal(b, a)
    assert np.load(path, allow_pickle=False).dtype == np.float64


def test_tensor_loads_any_real_dtype_exactly(tmp_path):
    a = np.random.default_rng(1).uniform(size=(3, 2)).astype(np.float32)
    for arr in (a, np.arange(6, dtype=np.uint8), np.arange(-3, 3, dtype=">i4")):
        np.save(tmp_path / "t.npy", arr)   # plain np.save, as a user writes it
        b = load_tensor(tmp_path / "t.npy")
        assert b.dtype == np.float64 and np.array_equal(b, arr)


def test_tensor_suffix_is_not_read(tmp_path):
    # save_tensor writes at exactly the path it is given, and load_tensor
    # reads a .npy array under any name
    save_tensor(tmp_path / "img0.mten", np.eye(2))
    assert [p.name for p in tmp_path.iterdir()] == ["img0.mten"]
    assert np.array_equal(load_tensor(tmp_path / "img0.mten"), np.eye(2))


def test_tensor_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.npy"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValidationError, match="is not a .npy array"):
        load_tensor(path)


def test_tensor_rejects_truncated_payload(tmp_path):
    path = tmp_path / "t.npy"
    save_tensor(path, np.ones((3, 3)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValidationError):
        load_tensor(path)


def write_refused_tensor(path, kind):
    """Write at `path` a file that `load_tensor` refuses, of the given kind."""
    if kind == "empty":
        path.write_bytes(b"")
    elif kind == "mten":   # the tensor files of earlier versions: [1.0] as float32
        path.write_bytes(b"MTEN" + np.array([1, 1, 1], "<u4").tobytes()
                         + np.array([1.0], "<f4").tobytes())
    elif kind == "truncated-magic":
        path.write_bytes(np.lib.format.magic(1, 0)[:7])
    elif kind == "truncated":
        save_tensor(path, np.ones((3, 3)))
        path.write_bytes(path.read_bytes()[:-8])
    elif kind == "trailing-bytes":
        save_tensor(path, np.ones(2))
        path.write_bytes(path.read_bytes() + bytes(8))
    elif kind == "pickled-object":
        with open(path, "wb") as fh:
            np.save(fh, np.array([1.0, "a"], dtype=object), allow_pickle=True)
    elif kind == "npz":
        with open(path, "wb") as fh:
            np.savez(fh, a=np.ones(2))
    elif kind == "huge-header":   # a shape no memory holds, on a short file
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": "<f8", "fortran_order": False, "shape": (2 ** 40,)})
            fh.write(bytes(16))
    else:
        dtype = {"complex": complex, "structured": [("a", float)], "bool": bool,
                 "string": "U3"}[kind]
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(2, dtype=dtype))


REFUSED_TENSORS = ["empty", "mten", "truncated-magic", "truncated", "trailing-bytes",
                   "pickled-object", "npz", "huge-header", "complex", "structured", "bool",
                   "string"]


@pytest.mark.parametrize("kind", REFUSED_TENSORS)
def test_tensor_rejects_what_is_not_an_array_of_real_numbers(tmp_path, kind):
    write_refused_tensor(tmp_path / "t.npy", kind)
    with pytest.raises(ValidationError, match="t.npy (is not a .npy array|holds)"):
        load_tensor(tmp_path / "t.npy")


@pytest.mark.parametrize("kind", REFUSED_TENSORS)
def test_simulate_refuses_a_conductance_that_is_not_an_array_of_numbers(tmp_path, kind):
    write_refused_tensor(tmp_path / "g.npy", kind)
    save_tensor(tmp_path / "v.npy", np.full(2, 0.1))
    assert cli.main(["simulate", "--conductance", str(tmp_path / "g.npy"),
                     "--input", str(tmp_path / "v.npy"),
                     "--out", str(tmp_path / "out.json")]) == cli.EXIT_VALIDATION
    assert not (tmp_path / "out.json").exists()


def test_tensor_missing_file_is_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_tensor(tmp_path / "gone.npy")


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


def test_model_graph_validation(tmp_path, monkeypatch):
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

    # layer shapes are inferred in graph order and must agree
    def conv(name, pred, kh, ic, oc, padding=0, kind="conv"):
        params = {"kernel_h": kh, "kernel_w": kh, "in_channels": ic,
                  "out_channels": oc, "padding": padding}
        return LayerSpec(name, kind, params, [pred], np.zeros((kh * kh * ic, oc)))
    bn2 = LayerSpec("bn", "batchnorm", {"channels": 2}, ["image"], np.ones((2, 2)))
    pool = LayerSpec("p", "global_avg_pool", predecessors=["image"])
    sm_c = LayerSpec("softmax", "softmax", predecessors=["c"])
    sm_s = LayerSpec("softmax", "softmax", predecessors=["s"])
    for layers, match in [
            ([inp, conv("c", "image", 1, 2, 3), sm_c], "in_channels 2.*'image' gives 1"),
            ([inp, bn2, LayerSpec("softmax", "softmax", predecessors=["bn"])],
             "channels 2.*'image' gives 1"),
            ([inp, conv("c", "image", 1, 1, 2),
              LayerSpec("s", "add", predecessors=["c", "image"]), sm_s],
             r"adds shapes \(2, 2, 2\) and \(2, 2, 1\)"),
            ([inp, conv("c", "image", 5, 1, 1, padding=1), sm_c],
             "'c': kernel 5x5 does not fit 2x2"),
            # an fc layer maps a 1x1 input to a 1x1 output; softmax takes any
            # shape (tests/test_convmap.py runs image -> conv -> softmax)
            ([inp, conv("c", "image", 1, 1, 2, kind="fc"), sm_c],
             r"'c' \(fc\) maps 2x2 to 2x2"),
            ([inp, pool, conv("c", "p", 1, 1, 2, padding=1, kind="fc"), sm_c],
             r"'c' \(fc\) maps 1x1 to 3x3")]:
        with pytest.raises(ValidationError, match=match):
            NetworkModel("m", layers)
    NetworkModel("m", [inp, pool, conv("c", "p", 1, 1, 2, kind="fc"), sm_c])
    # a saved manifest is rejected the same way, before --out or any engine:
    # fc after relu0 has the wrong channel count, fc after relu2 the right
    # one on an 8x8 map
    (tmp_path / "imgs").mkdir()
    save_tensor(tmp_path / "imgs" / "img0.npy", gen_input((8, 8, 3), 0.3, 1))
    converted = []
    monkeypatch.setattr(engine, "convert",
                        lambda *args, **kwargs: converted.append(args))
    for pred, match in (("relu0", "in_channels 8"),
                        ("relu2", r"\(fc\) maps 8x8 to 8x8")):
        manifest, _ = save_model(build_tiny_model(), tmp_path / "tiny.json")
        doc = json.loads(manifest.read_text())
        next(e for e in doc["layers"] if e["name"] == "fc")["predecessors"] = [pred]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=match):
            load_model(manifest)
        assert cli.main(["run-net", "--model", str(manifest), "--images",
                         str(tmp_path / "imgs"), "--bits", "none",
                         "--out", str(tmp_path / "net")]) == cli.EXIT_VALIDATION
        assert not converted and not (tmp_path / "net").exists()


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
    ("fc", "out_channels"), ("bn0", "channels"), ("image", "height")])
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
@pytest.mark.parametrize("value", [64, -4, 1.5, "0", None, True])
def test_model_manifest_bad_blob_slice(tmp_path, key, value):
    # a layer's share of the blob follows from the shapes before it, so an
    # entry that names a slice of its own, whatever its value, is refused
    model = build_tiny_model(seed=3)
    manifest, _ = save_model(model, tmp_path / "tiny.json")
    doc = json.loads(manifest.read_text())
    entry = next(e for e in doc["layers"] if e["name"] == "conv1")
    entry[key] = value
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=rf"'conv1' has keys \['{key}'\] besides "
                                              "name, kind, params, predecessors"):
        load_model(manifest)


def test_model_manifest_rejects_top_level_keys_besides_name_and_layers(tmp_path):
    manifest, _ = save_model(build_tiny_model(seed=3), tmp_path / "tiny.json")
    doc = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**doc, "blob_offset": 0, "version": 2}))
    with pytest.raises(ValidationError, match=r"model manifest .*tiny.json has unknown "
                                              r"keys: \['blob_offset', 'version'\]"):
        load_model(manifest)


@pytest.mark.parametrize("edit", [lambda raw: raw[:-4], lambda raw: raw + bytes(4)],
                         ids=["short", "long"])
def test_model_manifest_rejects_a_blob_of_the_wrong_length(tmp_path, monkeypatch, edit):
    model = build_tiny_model(seed=3)
    manifest, blob_path = save_model(model, tmp_path / "tiny.json")
    size = 4 * sum(l.weights.size for l in model.layers if l.weights is not None)
    blob = edit(blob_path.read_bytes())
    blob_path.write_bytes(blob)
    doc = json.loads(manifest.read_text())
    doc["blob_sha256"] = hashlib.sha256(blob).hexdigest()
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"holds {len(blob)} bytes, not the {size} "):
        load_model(manifest)
    (tmp_path / "imgs").mkdir()
    save_tensor(tmp_path / "imgs" / "img0.npy", gen_input((8, 8, 3), 0.3, 1))
    monkeypatch.setattr(engine, "convert", lambda *args, **kwargs: pytest.fail(
        "a layer was converted before the manifest was checked"))
    assert cli.main(["run-net", "--model", str(manifest), "--images", str(tmp_path / "imgs"),
                     "--bits", "none", "--out", str(tmp_path / "net")]) == cli.EXIT_VALIDATION
    assert not (tmp_path / "net").exists()


def test_resnet20_weights_survive_a_save_and_load(tmp_path):
    model = build_resnet20_model(seed=1)
    manifest, _ = save_model(model, tmp_path / "resnet20.json")
    doc = json.loads(manifest.read_text())
    assert all(sorted(e) == ["kind", "name", "params", "predecessors"] for e in doc["layers"])
    clone = load_model(manifest)
    assert [l.name for l in clone.layers] == [l.name for l in model.layers]
    for layer, loaded in zip(model.layers, clone.layers):
        if layer.weights is None:
            assert loaded.weights is None
        else:   # the blob holds float32
            assert np.array_equal(loaded.weights, layer.weights.astype(np.float32)), layer.name


@pytest.mark.parametrize("field, value", [
    ("layers", 5), ("predecessors", 7), ("params", [1]), ("kernel_h", "3"),
    ("entry", 5), ("stride", "2"), ("padding", "1"), ("padding", True),
    # names and predecessors are looked up in dicts, so each must be a string
    ("name", ["conv0"]), ("name", 5), ("predecessors", [["image"]]),
    ("predecessors", [{}]), ("predecessors", [5])])
def test_model_manifest_bad_field_types(tmp_path, field, value):
    model = build_tiny_model(seed=3)
    manifest, _ = save_model(model, tmp_path / "tiny.json")
    doc = json.loads(manifest.read_text())
    entry = next(e for e in doc["layers"] if e["name"] == "conv0")
    if field == "layers":
        doc["layers"] = value
    elif field == "entry":   # one layer entry that is not an object
        doc["layers"].insert(1, value)
    elif field in entry["params"]:
        entry["params"][field] = value
    else:
        entry[field] = value
    manifest.write_text(json.dumps(doc))
    match = {"layers": "'layers'", "entry": "'layers'", "name": "string name"}
    with pytest.raises(ValidationError, match=match.get(field, "conv0")):
        load_model(manifest)
    (tmp_path / "imgs").mkdir()
    assert cli.main(["run-net", "--model", str(manifest), "--images", str(tmp_path / "imgs"),
                     "--out", str(tmp_path / "net")]) == cli.EXIT_VALIDATION
    assert not (tmp_path / "net").exists()


# one value of each JSON type, put in place of one field at a time
JSON_VALUES = (5, 1.5, "x", [1], {}, None, True)
CONV1_PARAMS = ("kernel_h", "kernel_w", "in_channels", "out_channels", "stride", "padding")
# a top-level field, a field of the conv1 entry, or a key or index in one
MANIFEST_FIELDS = (("name",), ("layers",), ("blob_file",), ("blob_sha256",),
                   *(("conv1", k) for k in ("name", "kind", "params", "predecessors")),
                   *(("conv1", "params", k) for k in CONV1_PARAMS),
                   ("conv1", "predecessors", 0))


@pytest.mark.parametrize("path", MANIFEST_FIELDS, ids=lambda p: "-".join(map(str, p)))
def test_malformed_manifest_loads_or_is_rejected(tmp_path, path):
    """Any JSON value in any field of a manifest either loads or is a
    ValidationError, and run-net exits 0 or 2, making no --out on exit 2."""
    manifest, _ = save_model(build_tiny_model(seed=3), tmp_path / "tiny.json")
    doc = json.loads(manifest.read_text())
    conv1 = next(e for e in doc["layers"] if e["name"] == "conv1")
    # the fields above are every field there is
    assert {(k,) for k in doc} | {("conv1", k) for k in conv1} | {
        ("conv1", "params", k) for k in conv1["params"]} == set(MANIFEST_FIELDS[:-1])
    (tmp_path / "imgs").mkdir()   # run-net refuses a directory with no image
    save_tensor(tmp_path / "imgs" / "img0.npy", gen_input((8, 8, 3), 0.3, 1))
    for i, value in enumerate(JSON_VALUES):
        edited = json.loads(json.dumps(doc))
        parent, keys = edited, path
        if path[0] == "conv1":
            parent = next(e for e in edited["layers"] if e["name"] == "conv1")
            keys = path[1:]
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        manifest.write_text(json.dumps(edited))
        try:
            load_model(manifest)
            expected = 0
        except ValidationError:
            expected = cli.EXIT_VALIDATION
        out = tmp_path / f"net{i}"
        assert cli.main(["run-net", "--model", str(manifest), "--images",
                         str(tmp_path / "imgs"), "--out", str(out)]) == expected, value
        assert out.exists() == (expected == 0)


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
    # aggregates equal recomputation from the raw rows; each layer's rows
    # are contiguous, in aggregates order, and its count says how many
    start = 0
    for layer, agg in report.aggregates.items():
        rel = report.rows["rel_err"][start:start + agg["count"]]
        start += agg["count"]
        assert agg["count"] == len(rel)
        assert agg["mean"] == pytest.approx(float(np.mean(rel)))
        assert agg["worst"] == pytest.approx(float(np.max(rel)))
    assert start == len(report.rows)


def test_tap_layers_takes_a_string_as_one_layer_name():
    model = build_tiny_model(seed=6, channels=(3, 4), hw=6)
    assert model.tap_layers("conv0") == {"conv0"}
    assert model.tap_layers(["conv0", "fc"]) == {"conv0", "fc"}
    assert model.tap_layers("all") == {"conv0", "conv1", "fc"}
    with pytest.raises(ValidationError, match=r"no conv/fc layers named \['conv9'\]"):
        model.tap_layers("conv9")


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


def test_resnet20_software_forward_pass():
    model = build_resnet20_model(seed=1)
    img = gen_input((32, 32, 3), 0.4, seed=21)
    probs, _ = run_inference(model, img, mode="software")
    assert probs.shape == (10,)
    assert np.isfinite(probs).all()
    assert probs.sum() == pytest.approx(1.0)


def test_analog_inference_memory_does_not_grow_with_depth():
    # each layer's output is dropped once its last reader has run, so six
    # conv blocks hold no more maps at once than two; the preallocated tap
    # rows, which grow with the tapped layers by design, are not counted
    hw, width = 16, 8
    img = gen_input((hw, hw, 3), 0.3, seed=60)
    peaks = {}
    for blocks in (2, 6):
        model = build_tiny_model(seed=3, channels=(width,) * blocks, hw=hw)
        run_inference(model, img, mode="analog", taps="all")   # builds the engines
        tracemalloc.start()
        try:
            _, report = run_inference(model, img, mode="analog", taps="all")
            peaks[blocks] = tracemalloc.get_traced_memory()[1] - report.rows.nbytes
        finally:
            tracemalloc.stop()
    feature_map = hw * hw * width * 8
    assert peaks[6] - peaks[2] < feature_map, (peaks, feature_map)
