"""CNN inference over crossbar engines mixed with exact digital ops.

A network is a small acyclic graph of named layers. Convolution and
fully-connected layers carry unrolled weight matrices and can run either in
software (exact matrix products, the reference path) or through built
crossbar engines with quantizers; ReLU, batch-norm affine, pooling,
shortcut adds, and softmax always run digitally.

File formats:

- Tensor files: magic "MTEN", u32 version, u32 rank, u32 dims, then
  little-endian float32 payload, row-major, (H, W, C) order.
- Model manifest: JSON listing layers (name, kind, params, predecessors,
  blob_offset, blob_len) next to one raw float32 weight blob whose SHA-256
  is recorded in the manifest.
- Error taps: `ErrorReport.rows` is one `TAP_DTYPE` structured array, a
  row per output element of each tapped conv/fc layer (tapping any other
  name is a ValidationError). `run-net` writes it as one CSV per layer,
  numbering each image's windows after the previous image's largest.
"""

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import CrossbarConfig
from .convmap import ConvSpec, FeatureMap, unroll_kernel, window_matrix
from .engine import build_engine, program
from .errors import ValidationError
from .metrics import gen_kernel, output_range, relative_error

TENSOR_MAGIC = b"MTEN"
TENSOR_VERSION = 1

LAYER_KINDS = ("input", "conv", "fc", "relu", "batchnorm",
               "global_avg_pool", "add", "softmax")

# one error-tap row per (window, column) output element of a tapped layer
TAP_DTYPE = np.dtype([("layer", object), ("window", np.int64), ("column", np.int64),
                      ("ideal", float), ("actual", float), ("rel_err", float)])


# ---------------------------------------------------------------------------
# tensor files

def save_tensor(path, array):
    """Write a float tensor file: MTEN magic, version, rank, dims, f32 data."""
    a = np.asarray(array, dtype=np.float32)
    header = TENSOR_MAGIC + struct.pack("<II", TENSOR_VERSION, a.ndim)
    header += struct.pack(f"<{a.ndim}I", *a.shape)
    Path(path).write_bytes(header + a.astype("<f4").tobytes())


def load_tensor(path):
    """Read a tensor file back as a float64 array."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != TENSOR_MAGIC:
        raise ValidationError(f"{path} is not a tensor file")
    version, rank = struct.unpack_from("<II", raw, 4)
    if version != TENSOR_VERSION:
        raise ValidationError(f"unsupported tensor version {version}")
    if len(raw) < 12 + 4 * rank:
        raise ValidationError(f"{path} is truncated")
    dims = struct.unpack_from(f"<{rank}I", raw, 12)
    count = int(np.prod(dims)) if rank else 1
    payload = raw[12 + 4 * rank:]
    if len(payload) != 4 * count:
        raise ValidationError(
            f"{path} payload is {len(payload)} bytes, expected {4 * count}")
    return np.frombuffer(payload, dtype="<f4").astype(float).reshape(dims)


# ---------------------------------------------------------------------------
# digital ops

def relu(x):
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def batchnorm_affine(x, scale, bias):
    """Inference-time batch norm: per-channel y = scale * x + bias."""
    x = np.asarray(x, dtype=float)
    scale = np.asarray(scale, dtype=float)
    bias = np.asarray(bias, dtype=float)
    if scale.shape != bias.shape or scale.shape != (x.shape[-1],):
        raise ValidationError(
            f"scale/bias must match channel count {x.shape[-1]}")
    return x * scale + bias


def global_avg_pool(fm: FeatureMap):
    """Average over the spatial dimensions, keeping a 1x1 map per channel."""
    return FeatureMap(fm.data.mean(axis=(0, 1), keepdims=True))


def shortcut_add(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(f"shortcut shapes differ: {a.shape} vs {b.shape}")
    return a + b


def softmax(v):
    """Numerically stabilized softmax over a 1-D vector."""
    v = np.asarray(v, dtype=float).ravel()
    e = np.exp(v - v.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# model graph

@dataclass
class LayerSpec:
    """One named node of the network graph.

    conv/fc layers hold their weights as the unrolled (rows, out_channels)
    matrix; batchnorm holds a (2, channels) array of scale and bias rows.
    """

    name: str
    kind: str
    params: dict = field(default_factory=dict)
    predecessors: list = field(default_factory=list)
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValidationError(f"unknown layer kind {self.kind!r}")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)

    @property
    def conv_spec(self):
        p = self.params
        return ConvSpec(p["kernel_h"], p["kernel_w"], p["in_channels"],
                        p["out_channels"], stride=p.get("stride", 1),
                        padding=p.get("padding", 0))


class NetworkModel:
    """Ordered, validated layer graph with per-layer program and engine caches."""

    def __init__(self, name, layers):
        self.name = name
        self.layers = list(layers)
        self._by_name = {}
        self._programs = {}
        self._engines = {}
        self._validate()

    def _validate(self):
        seen = set()
        inputs = [l for l in self.layers if l.kind == "input"]
        sinks = [l for l in self.layers if l.kind == "softmax"]
        if len(inputs) != 1:
            raise ValidationError(f"model needs exactly 1 input layer, got {len(inputs)}")
        if len(sinks) != 1:
            raise ValidationError(f"model needs exactly 1 softmax layer, got {len(sinks)}")
        for layer in self.layers:
            if layer.name in seen:
                raise ValidationError(f"duplicate layer name {layer.name!r}")
            expected_preds = {"input": 0, "add": 2}.get(layer.kind, 1)
            if len(layer.predecessors) != expected_preds:
                raise ValidationError(
                    f"layer {layer.name!r} ({layer.kind}) needs "
                    f"{expected_preds} predecessors, got {len(layer.predecessors)}")
            for pred in layer.predecessors:
                if pred not in seen:
                    raise ValidationError(
                        f"layer {layer.name!r} references {pred!r} before definition")
            if layer.kind in ("conv", "fc"):
                spec = layer.conv_spec
                expect = (spec.unrolled_rows, spec.out_channels)
                if layer.weights is None or layer.weights.shape != expect:
                    raise ValidationError(
                        f"layer {layer.name!r} weights must have shape {expect}")
            if layer.kind == "batchnorm":
                ch = layer.params["channels"]
                if layer.weights is None or layer.weights.shape != (2, ch):
                    raise ValidationError(
                        f"layer {layer.name!r} needs (2, {ch}) scale/bias weights")
            seen.add(layer.name)
        self._by_name = {l.name: l for l in self.layers}

    def layer(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"no layer named {name!r}") from None

    def weight_layers(self):
        return [l for l in self.layers if l.kind in ("conv", "fc")]

    def tap_layers(self, taps):
        """The set of conv/fc layer names to tap, from names or "all"."""
        names = {l.name for l in self.weight_layers()}
        taps = names if taps == "all" else set(taps)
        if taps - names:
            raise ValidationError(
                f"no conv/fc layers named {sorted(taps - names)} to tap")
        return taps

    def programmed(self, layer, ideal=False):
        """Program (or fetch from cache) one layer's array with `program`'s
        defaults; `ideal` programs a parasitic-free crossbar."""
        key = (layer.name, ideal)
        if key not in self._programs:
            config = (CrossbarConfig(*layer.weights.shape, r_wire=0.0, r_in=0.0,
                                     r_out=0.0) if ideal else None)
            self._programs[key] = program(layer.weights, config=config)
        return self._programs[key]

    def engine(self, layer, dac_bits=None, adc_bits=None, seed=0, ideal=False,
               **readout):
        """Read out (or fetch from cache) the crossbar engine for one layer.

        Every bit setting and seed reads out the layer's one programmed
        array (`ideal` picks it); `readout` goes to `build_engine`.
        """
        key = (layer.name, dac_bits, adc_bits, seed, ideal,
               tuple(sorted(readout.items())))
        if key not in self._engines:
            self._engines[key] = build_engine(
                self.programmed(layer, ideal), dac_bits=dac_bits,
                adc_bits=adc_bits, seed=seed, name=layer.name, **readout)
        return self._engines[key]

    def crossbar_shapes(self):
        return {l.name: l.weights.shape for l in self.weight_layers()}


# ---------------------------------------------------------------------------
# manifest + blob io

def save_model(model: NetworkModel, manifest_path):
    """Write the JSON manifest plus one float32 weight blob (.bin)."""
    manifest_path = Path(manifest_path)
    blob_path = manifest_path.with_suffix(".bin")
    chunks = []
    offset = 0
    layers = []
    for layer in model.layers:
        entry = {"name": layer.name, "kind": layer.kind,
                 "params": layer.params, "predecessors": layer.predecessors,
                 "blob_offset": None, "blob_len": None}
        if layer.weights is not None:
            data = layer.weights.astype("<f4").tobytes()
            entry["blob_offset"] = offset
            entry["blob_len"] = len(data)
            chunks.append(data)
            offset += len(data)
        layers.append(entry)
    blob = b"".join(chunks)
    manifest = {"name": model.name, "layers": layers,
                "blob_file": blob_path.name,
                "blob_sha256": hashlib.sha256(blob).hexdigest()}
    blob_path.write_bytes(blob)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path, blob_path


def _layer_weight_shape(kind, params):
    if kind in ("conv", "fc"):
        rows = params["kernel_h"] * params["kernel_w"] * params["in_channels"]
        return (rows, params["out_channels"])
    if kind == "batchnorm":
        return (2, params["channels"])
    return None


def load_model(manifest_path):
    """Load and validate a model manifest plus its weight blob."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad model manifest: {exc}") from exc
    for key in ("name", "layers", "blob_file", "blob_sha256"):
        if key not in manifest:
            raise ValidationError(f"model manifest missing key {key!r}")
    blob_path = manifest_path.parent / manifest["blob_file"]
    if not blob_path.exists():
        raise ValidationError(f"missing weight blob {blob_path}")
    blob = blob_path.read_bytes()
    if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise ValidationError(f"weight blob checksum mismatch for {blob_path}")
    if not isinstance(manifest["layers"], list):
        raise ValidationError("model manifest 'layers' must be a list")
    layers = []
    for entry in manifest["layers"]:
        for key in ("name", "kind", "params", "predecessors"):
            if key not in entry:
                raise ValidationError(f"layer entry missing key {key!r}")
        p = entry["params"]
        if not (isinstance(p, dict) and isinstance(entry["predecessors"], list)) or any(
                not (type(p[k]) is int and p[k] >= 1) for k in (
                    "kernel_h", "kernel_w", "in_channels", "out_channels", "channels") if k in p):
            raise ValidationError(f"layer {entry['name']!r} needs object params with integer "
                                  "sizes >= 1 and list predecessors")
        try:
            shape = _layer_weight_shape(entry["kind"], entry["params"])
        except KeyError as exc:
            raise ValidationError(f"layer {entry['name']!r} params missing key "
                                  f"{exc.args[0]!r}") from None
        weights = None
        if shape is not None:
            offset, length = entry.get("blob_offset"), entry.get("blob_len")
            if not all(type(v) is int and v >= 0 for v in (offset, length)):
                raise ValidationError(f"layer {entry['name']!r} blob_offset and "
                                      "blob_len must be integers >= 0")
            count = int(np.prod(shape))
            if length != 4 * count or offset + length > len(blob):
                raise ValidationError(
                    f"layer {entry['name']!r} blob slice does not match shape {shape}")
            weights = np.frombuffer(blob, dtype="<f4", count=count,
                                    offset=offset).astype(float).reshape(shape)
        layers.append(LayerSpec(name=entry["name"], kind=entry["kind"],
                                params=entry["params"],
                                predecessors=list(entry["predecessors"]),
                                weights=weights))
    return NetworkModel(manifest["name"], layers)


# ---------------------------------------------------------------------------
# inference

@dataclass
class ErrorReport:
    """Tap rows (`TAP_DTYPE`), per-layer aggregates and the final prediction
    of one inference run."""

    rows: np.ndarray = field(default_factory=lambda: np.empty(0, TAP_DTYPE))
    aggregates: dict = field(default_factory=dict)
    prediction: int | None = None
    logits: np.ndarray | None = None           # final pre-softmax activations


def _tap_layer(report, name, ideal, actual):
    """Record one layer's error aggregates; return its TAP_DTYPE rows."""
    rng = output_range(ideal) or 1.0
    rel = relative_error(actual, ideal, rng)
    rows = np.empty(ideal.size, dtype=TAP_DTYPE)
    rows["layer"] = name
    rows["window"], rows["column"] = (i.ravel() for i in np.indices(ideal.shape))
    rows["ideal"], rows["actual"] = ideal.ravel(), actual.ravel()
    rows["rel_err"] = rel.ravel()
    report.aggregates[name] = {"mean": float(rel.mean()),
                               "worst": float(rel.max()),
                               "output_range": rng,
                               "count": int(rel.size)}
    return rows


def run_inference(model: NetworkModel, image, mode="software", taps=(),
                  dac_bits=None, adc_bits=None, seed=0, engine_kwargs=None):
    """Run one image through the network; returns (distribution, ErrorReport).

    Software mode computes every layer exactly. Analog mode routes conv/fc
    layers through crossbar engines (inputs rescaled to the engine's full
    input range, outputs scaled back) while digital ops stay exact. Tapped
    conv/fc layers are also evaluated exactly from the same upstream input,
    so their reported error isolates the crossbar error of that layer plus
    whatever error already accumulated upstream.
    """
    if mode not in ("software", "analog"):
        raise ValidationError(f"unknown inference mode {mode!r}")
    fm = image if isinstance(image, FeatureMap) else FeatureMap(image)
    taps = model.tap_layers(taps)
    engine_kwargs = engine_kwargs or {}
    report = ErrorReport()
    tapped = []
    outputs = {}
    probs = None
    for layer in model.layers:
        preds = [outputs[p] for p in layer.predecessors]
        if layer.kind == "input":
            p = layer.params
            expect = (p["height"], p["width"], p["channels"])
            if fm.data.shape != expect:
                raise ValidationError(
                    f"input image shape {fm.data.shape} != {expect}")
            if fm.data.min() < 0.0 or fm.data.max() > 1.0 + 1e-9:
                raise ValidationError("input image must be normalized to [0, 1]")
            out = fm
        elif layer.kind in ("conv", "fc"):
            spec = layer.conv_spec
            src = preds[0]
            X = window_matrix(src, spec)
            ideal = X @ layer.weights
            if mode == "software":
                Y = ideal
            else:
                engine = model.engine(layer, dac_bits=dac_bits,
                                      adc_bits=adc_bits, seed=seed,
                                      **engine_kwargs)
                peak = float(X.max())
                if peak > 0.0:
                    scale = peak / engine.mapping.x_max
                    Y = engine.execute_batch(X / scale) * scale
                else:
                    Y = np.zeros_like(ideal)
                if layer.name in taps:
                    tapped.append(_tap_layer(report, layer.name, ideal, Y))
            oh, ow = spec.output_shape(src.height, src.width)
            out = FeatureMap(Y.reshape(oh, ow, spec.out_channels))
        elif layer.kind == "relu":
            out = FeatureMap(relu(preds[0].data))
        elif layer.kind == "batchnorm":
            out = FeatureMap(batchnorm_affine(preds[0].data,
                                              layer.weights[0], layer.weights[1]))
        elif layer.kind == "global_avg_pool":
            out = global_avg_pool(preds[0])
        elif layer.kind == "add":
            out = FeatureMap(shortcut_add(preds[0].data, preds[1].data))
        else:   # softmax
            report.logits = preds[0].data.ravel().copy()
            probs = softmax(report.logits)
            out = FeatureMap(probs.reshape(1, 1, -1))
        outputs[layer.name] = out
    if tapped:
        report.rows = np.concatenate(tapped)
    report.prediction = int(np.argmax(probs))
    return probs, report


def quantization_sweep(model: NetworkModel, images, bit_list, seed=0,
                       engine_kwargs=None):
    """Run inference per quantizer setting per image; returns an accuracy table.

    Each bit setting ("none" or an integer applied to both DAC and ADC) is
    scored against the software reference: mean and worst final-activation
    relative error (normalized by the per-image software output range) and
    the fraction of images whose predicted class matches software.
    """
    images = list(images)
    if not images:
        return []
    refs = [run_inference(model, img, mode="software")[1] for img in images]
    table = []
    for bits in bit_list:
        label = "none" if bits in (None, "none") else int(bits)
        dac = adc = None if label == "none" else label
        rels = []
        agree = 0
        for img, ref in zip(images, refs):
            _, rep = run_inference(model, img, mode="analog",
                                   dac_bits=dac, adc_bits=adc, seed=seed,
                                   engine_kwargs=engine_kwargs)
            rng = output_range(ref.logits) or 1.0
            rels.append(relative_error(rep.logits, ref.logits, rng))
            agree += int(rep.prediction == ref.prediction)
        rels = np.concatenate(rels)
        table.append({"bits": label, "mean_rel_err": float(rels.mean()),
                      "worst_rel_err": float(rels.max()),
                      "agreement": agree / len(images),
                      "images": len(images)})
    return table


# ---------------------------------------------------------------------------
# model builders

def _unrolled_kernel(kernel_type, kh, kw, ic, oc, seed, scale=1.0):
    w = gen_kernel(kernel_type, (kh, kw, ic, oc), seed) * scale
    return unroll_kernel(ConvSpec(kh, kw, ic, oc, weights=w))


def _conv_layer(name, pred, kh, ic, oc, stride, padding, kernel_type, seed,
                scale=1.0):
    return LayerSpec(
        name=name, kind="conv", predecessors=[pred],
        params={"kernel_h": kh, "kernel_w": kh, "in_channels": ic,
                "out_channels": oc, "stride": stride, "padding": padding},
        weights=_unrolled_kernel(kernel_type, kh, kh, ic, oc, seed, scale))


def _bn_layer(name, pred, channels, rng):
    scale = rng.uniform(0.8, 1.2, size=channels)
    bias = rng.uniform(-0.1, 0.1, size=channels)
    return LayerSpec(name=name, kind="batchnorm", predecessors=[pred],
                     params={"channels": channels},
                     weights=np.stack([scale, bias]))


def build_tiny_model(seed=0, kernel_type=1, channels=(4, 6, 8), hw=8,
                     classes=10, name="tiny3"):
    """Three-conv test network: conv/bn/relu stack, pooling, fc, softmax.

    Kernels are scaled down with depth to keep activations in a numerically
    friendly range without training.
    """
    rng = np.random.default_rng(seed)
    layers = [LayerSpec("image", "input",
                        params={"height": hw, "width": hw, "channels": 3})]
    prev = "image"
    in_c = 3
    for i, out_c in enumerate(channels):
        scale = 1.0 / np.sqrt(9 * in_c)
        layers.append(_conv_layer(f"conv{i}", prev, 3, in_c, out_c, 1, 1,
                                  kernel_type, seed + 10 + i, scale))
        layers.append(_bn_layer(f"bn{i}", f"conv{i}", out_c, rng))
        layers.append(LayerSpec(f"relu{i}", "relu", predecessors=[f"bn{i}"]))
        prev = f"relu{i}"
        in_c = out_c
    layers.append(LayerSpec("pool", "global_avg_pool", predecessors=[prev]))
    layers.append(_conv_layer("fc", "pool", 1, in_c, classes, 1, 0,
                              kernel_type, seed + 99, 1.0 / np.sqrt(in_c)))
    layers[-1].kind = "fc"
    layers.append(LayerSpec("softmax", "softmax", predecessors=["fc"]))
    return NetworkModel(name, layers)


def build_resnet20_model(seed=0, kernel_type=1, name="resnet20-random"):
    """ResNet-20 topology for 32x32x3 images with seeded random weights.

    Three stages of three residual blocks (16, 32, 64 channels); the first
    block of each stage uses a projection shortcut (sum1..sum3), the rest
    add their input directly. Kernel scaling keeps untrained activations
    bounded; real use loads trained weights from a manifest instead.
    """
    rng = np.random.default_rng(seed)
    layers = [LayerSpec("image", "input",
                        params={"height": 32, "width": 32, "channels": 3})]

    def stack(name_, pred, kh, ic, oc, stride, padding, kseed):
        scale = 1.0 / np.sqrt(kh * kh * ic)
        layers.append(_conv_layer(name_, pred, kh, ic, oc, stride, padding,
                                  kernel_type, kseed, scale))
        layers.append(_bn_layer(f"bn_{name_}", name_, oc, rng))
        return f"bn_{name_}"

    out = stack("conv0", "image", 3, 3, 16, 1, 1, seed + 100)
    layers.append(LayerSpec("relu_conv0", "relu", predecessors=[out]))
    prev = "relu_conv0"
    conv_idx = 1
    sum_idx = 1
    stage_channels = (16, 32, 64)
    in_c = 16
    for stage, out_c in enumerate(stage_channels):
        for block in range(3):
            stride = 2 if stage > 0 and block == 0 else 1
            a = stack(f"conv{conv_idx}", prev, 3, in_c, out_c, stride, 1,
                      seed + 100 + conv_idx)
            layers.append(LayerSpec(f"relu_conv{conv_idx}", "relu",
                                    predecessors=[a]))
            b = stack(f"conv{conv_idx + 1}", f"relu_conv{conv_idx}", 3,
                      out_c, out_c, 1, 1, seed + 101 + conv_idx)
            if block == 0:
                shortcut = stack(f"sum{sum_idx}", prev, 1, in_c, out_c,
                                 stride, 0, seed + 200 + sum_idx)
                sum_idx += 1
            else:
                shortcut = prev
            layers.append(LayerSpec(f"add{conv_idx + 1}", "add",
                                    predecessors=[b, shortcut]))
            layers.append(LayerSpec(f"relu_add{conv_idx + 1}", "relu",
                                    predecessors=[f"add{conv_idx + 1}"]))
            prev = f"relu_add{conv_idx + 1}"
            conv_idx += 2
            in_c = out_c
    layers.append(LayerSpec("pool", "global_avg_pool", predecessors=[prev]))
    layers.append(_conv_layer("fc", "pool", 1, 64, 10, 1, 0, kernel_type,
                              seed + 300, 1.0 / 8.0))
    layers[-1].kind = "fc"
    layers.append(LayerSpec("softmax", "softmax", predecessors=["fc"]))
    return NetworkModel(name, layers)
