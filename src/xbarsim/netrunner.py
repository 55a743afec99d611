"""CNN inference over crossbar engines mixed with exact digital ops.

A network is a small acyclic graph of named layers. Convolution and
fully-connected layers carry unrolled weight matrices and can run either in
software (exact matrix products, the reference path) or through built
crossbar engines with quantizers; ReLU, batch-norm affine, pooling,
shortcut adds, and softmax always run digitally.

File formats:

- Tensor files: NumPy `.npy` arrays, (H, W, C) order for images, written
  as float64 by `save_tensor`. `load_tensor` reads one of any real dtype,
  whatever the file's suffix, as float64.
- Model manifest: JSON listing layers (name, kind, params, predecessors)
  next to one raw float32 blob, whose SHA-256 is recorded in the manifest,
  holding the weights of each conv, fc and batchnorm layer in model order;
  each layer's shape gives its share. `files.py` writes and checks the pair.
- Error taps: `ErrorReport.rows` is one numeric `TAP_DTYPE` structured
  array, a row per output element of each tapped conv/fc layer (tapping
  any other name is a ValidationError). Rows hold no layer name: each
  layer's rows are contiguous, in model order, and `ErrorReport.aggregates`,
  in the same order, gives their number as `aggregates[name]["count"]`.
  `run_inference` preallocates the array from the tapped layers' `shapes`
  and fills it layer by layer. `run-net` splits each image's rows by those
  counts and appends them to one `layer_<name>.npy` of `TAP_DTYPE` per
  layer, whose header it wrote first for all images' rows, numbering each
  image's windows after the previous image's largest, so it holds one
  image's rows at a time.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import CrossbarConfig
from .convmap import ConvSpec, FeatureMap, unroll_kernel, window_matrix
from .engine import build_engine, program
from .errors import ValidationError, is_int
from .files import load_with_blob, save_with_blob
from .metrics import gen_kernel, output_range, relative_error

LAYER_KINDS = ("input", "conv", "fc", "relu", "batchnorm",
               "global_avg_pool", "add", "softmax")
# the least value of each integer layer param a manifest may hold
INT_PARAM_MIN = {"kernel_h": 1, "kernel_w": 1, "in_channels": 1, "out_channels": 1,
                 "channels": 1, "height": 1, "width": 1, "stride": 1, "padding": 0}
# the keys of a manifest's layer entry, every one required
ENTRY_KEYS = ("name", "kind", "params", "predecessors")
# the params each layer kind must carry
CONV_PARAMS = ("kernel_h", "kernel_w", "in_channels", "out_channels")
REQUIRED_PARAMS = {"input": ("height", "width", "channels"), "conv": CONV_PARAMS,
                   "fc": CONV_PARAMS, "batchnorm": ("channels",)}

# one error-tap row per (window, column) output element of a tapped layer;
# the layer is found by position (see the module docstring)
TAP_DTYPE = np.dtype([("window", np.int64), ("column", np.int64),
                      ("ideal", float), ("actual", float), ("rel_err", float)])


# ---------------------------------------------------------------------------
# tensor files

def save_tensor(path, array):
    """Write `array` as a float64 .npy file at exactly `path` (given a path,
    `np.save` would add a .npy suffix)."""
    with open(path, "wb") as fh:
        np.save(fh, np.asarray(array, dtype=float))


def load_tensor(path):
    """The .npy array at `path`, whatever its suffix, as float64; a file that
    is not one .npy array of real numbers is a ValidationError."""
    with open(path, "rb") as fh:
        try:   # .npy only: no pickle, and no .npz archive
            a = np.lib.format.read_array(fh, allow_pickle=False)
        except (ValueError, MemoryError) as exc:   # or a shape too large to hold
            raise ValidationError(f"{path} is not a .npy array: {exc}") from exc
        if fh.read(1):
            raise ValidationError(f"{path} holds bytes after its .npy array")
    if a.dtype.kind not in "iuf":
        raise ValidationError(f"{path} holds {a.dtype} values, not real numbers")
    return a.astype(float, copy=False)


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
        missing = [k for k in REQUIRED_PARAMS.get(self.kind, ()) if k not in self.params]
        if missing:
            raise ValidationError(f"layer {self.name!r} params missing key {missing[0]!r}")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)

    @property
    def conv_spec(self):
        p = self.params
        return ConvSpec(p["kernel_h"], p["kernel_w"], p["in_channels"],
                        p["out_channels"], stride=p.get("stride", 1),
                        padding=p.get("padding", 0))

    @property
    def weight_shape(self):
        """The (rows, out_channels) unrolled kernel of a conv/fc layer, the
        (2, channels) scale/bias of a batchnorm, None for the other kinds."""
        if self.kind in ("conv", "fc"):
            return (self.conv_spec.unrolled_rows, self.params["out_channels"])
        return (2, self.params["channels"]) if self.kind == "batchnorm" else None


class NetworkModel:
    """Ordered, validated layer graph with per-layer program and engine caches.

    `shapes` maps each layer to its (H, W, C) output, `windows` each conv/fc
    layer to its output positions (one VMM each), and `sequential_windows` is
    the longest window-weighted path through the graph: the VMMs one image
    needs in sequence when branches run beside each other.
    """

    def __init__(self, name, layers):
        self.name = name
        self.layers = list(layers)
        self._programs = {}
        self._engines = {}
        self._validate()

    def _validate(self):
        inputs = [l for l in self.layers if l.kind == "input"]
        sinks = [l for l in self.layers if l.kind == "softmax"]
        if len(inputs) != 1:
            raise ValidationError(f"model needs exactly 1 input layer, got {len(inputs)}")
        if len(sinks) != 1:
            raise ValidationError(f"model needs exactly 1 softmax layer, got {len(sinks)}")
        self.shapes, self.windows, path = {}, {}, {}
        for layer in self.layers:
            name, kind, p = layer.name, layer.kind, layer.params
            if name in self.shapes:
                raise ValidationError(f"duplicate layer name {name!r}")
            expected_preds = {"input": 0, "add": 2}.get(kind, 1)
            if len(layer.predecessors) != expected_preds:
                raise ValidationError(
                    f"layer {name!r} ({kind}) needs "
                    f"{expected_preds} predecessors, got {len(layer.predecessors)}")
            for pred in layer.predecessors:
                if pred not in self.shapes:
                    raise ValidationError(
                        f"layer {name!r} references {pred!r} before definition")
            shape = layer.weight_shape
            if shape is not None and (layer.weights is None or layer.weights.shape != shape):
                raise ValidationError(f"layer {name!r} weights must have shape {shape}")
            ins = [self.shapes[pred] for pred in layer.predecessors]
            out = (p["height"], p["width"], p["channels"]) if kind == "input" else ins[0]
            key = {"conv": "in_channels", "fc": "in_channels", "batchnorm": "channels"}.get(kind)
            if key and p[key] != out[2]:
                raise ValidationError(f"layer {name!r} has {key} {p[key]}, but "
                                      f"{layer.predecessors[0]!r} gives {out[2]} channels")
            if kind in ("conv", "fc"):
                in_hw = out[:2]
                try:
                    out = (*layer.conv_spec.output_shape(*in_hw), p["out_channels"])
                except ValidationError as exc:
                    raise ValidationError(f"layer {name!r}: {exc}") from None
                if kind == "fc" and (in_hw, out[:2]) != ((1, 1), (1, 1)):
                    raise ValidationError(
                        f"layer {name!r} (fc) maps {in_hw[0]}x{in_hw[1]} to "
                        f"{out[0]}x{out[1]}; an fc layer maps 1x1 to 1x1")
                self.windows[name] = out[0] * out[1]
            elif kind == "global_avg_pool":
                out = (1, 1, out[2])
            elif kind == "add" and ins[1] != out:
                raise ValidationError(f"layer {name!r} adds shapes {ins[0]} and {ins[1]}")
            self.shapes[name] = out
            path[name] = self.windows.get(name, 0) + max(
                (path[pred] for pred in layer.predecessors), default=0)
        self.sequential_windows = max(path.values())
        self._by_name = {l.name: l for l in self.layers}
        # the outputs each layer reads last, or makes and nobody reads:
        # `run_inference` drops them once that layer has run
        last = {l.name: l.name for l in self.layers}
        last.update((p, l.name) for l in self.layers for p in l.predecessors)
        self._last_read = {l.name: [] for l in self.layers}
        for name, reader in last.items():
            self._last_read[reader].append(name)

    def layer(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"no layer named {name!r}") from None

    def check_image(self, image):
        """`image` as a FeatureMap, if it has the input's shape and values in [0, 1]."""
        fm = image if isinstance(image, FeatureMap) else FeatureMap(image)
        expect = self.shapes[self.layers[0].name]   # the input layer comes first
        if fm.data.shape != expect:
            raise ValidationError(f"input image shape {fm.data.shape} != {expect}")
        if not (fm.data.min() >= 0.0 and fm.data.max() <= 1.0 + 1e-9):
            raise ValidationError("input image must be normalized to [0, 1]")
        return fm

    def weight_layers(self):
        return [l for l in self.layers if l.kind in ("conv", "fc")]

    def tap_layers(self, taps):
        """The set of conv/fc layer names to tap, from "all", one layer's name
        or an iterable of names."""
        names = {l.name for l in self.weight_layers()}
        taps = names if taps == "all" else {taps} if isinstance(taps, str) else set(taps)
        if taps - names:
            raise ValidationError(
                f"no conv/fc layers named {sorted(taps - names)} to tap")
        return taps

    def programmed(self, layer, ideal=False):
        """Program (or fetch from cache) one layer's crossbar with `program`'s
        defaults: a VmmEngine with no DAC or ADC and the nominal readout,
        which `engine` reads out; `ideal` programs a parasitic-free crossbar."""
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


# ---------------------------------------------------------------------------
# manifest + blob io

def save_model(model: NetworkModel, manifest_path):
    """Write the JSON manifest plus one float32 blob (.bin) of the weights
    of every layer that has a weight shape, in model order."""
    layers = [{key: getattr(layer, key) for key in ENTRY_KEYS} for layer in model.layers]
    blob = b"".join(layer.weights.astype("<f4").tobytes() for layer in model.layers
                    if layer.weight_shape is not None)
    return save_with_blob(manifest_path, {"name": model.name, "layers": layers}, blob)


def load_model(manifest_path):
    """Load and validate a model manifest plus its weight blob, which must
    hold exactly the weights its layers' shapes ask for, in model order."""
    manifest, blob = load_with_blob(manifest_path, "model manifest", ("name", "layers"))
    if not isinstance(manifest["layers"], list):
        raise ValidationError("model manifest 'layers' must be a list")
    layers = []
    for entry in manifest["layers"]:
        if not isinstance(entry, dict):
            raise ValidationError("model manifest 'layers' must hold objects")
        for key in ENTRY_KEYS:
            if key not in entry:
                raise ValidationError(f"layer entry missing key {key!r}")
        if len(entry) > len(ENTRY_KEYS):
            raise ValidationError(f"layer {entry['name']!r} has keys "
                                  f"{sorted(entry.keys() - set(ENTRY_KEYS))} besides "
                                  f"{', '.join(ENTRY_KEYS)}")
        p, preds = entry["params"], entry["predecessors"]
        if not (isinstance(entry["name"], str) and isinstance(p, dict)
                and isinstance(preds, list) and all(isinstance(q, str) for q in preds)
                and all(is_int(p[k]) and p[k] >= low
                        for k, low in INT_PARAM_MIN.items() if k in p)):
            raise ValidationError(f"layer {entry['name']!r} needs a string name, object params "
                                  "with integer sizes and stride >= 1, padding >= 0 and a "
                                  "list of string predecessors")
        layers.append(LayerSpec(name=entry["name"], kind=entry["kind"], params=p,
                                predecessors=list(preds)))
    weighted = [(layer, shape) for layer in layers
                if (shape := layer.weight_shape) is not None]
    size = 4 * sum(rows * cols for _, (rows, cols) in weighted)
    if len(blob) != size:
        raise ValidationError(f"blob {manifest['blob_file']} holds {len(blob)} bytes, not "
                              f"the {size} of its layers' float32 weights")
    floats, start = np.frombuffer(blob, dtype="<f4"), 0
    for layer, (rows, cols) in weighted:
        layer.weights = floats[start:start + rows * cols].astype(float).reshape(rows, cols)
        start += rows * cols
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
    """Fill the report's next `ideal.size` rows, after those of the layers
    tapped before, and record the layer's error aggregates, whose "count"
    is that number of rows."""
    rng = output_range(ideal) or 1.0
    rel = relative_error(actual, ideal, rng)
    start = sum(agg["count"] for agg in report.aggregates.values())
    rows = report.rows[start:start + ideal.size]
    rows["window"], rows["column"] = (i.ravel() for i in np.indices(ideal.shape))
    rows["ideal"], rows["actual"] = ideal.ravel(), actual.ravel()
    rows["rel_err"] = rel.ravel()
    report.aggregates[name] = {"mean": float(rel.mean()),
                               "worst": float(rel.max()),
                               "output_range": rng,
                               "count": int(rel.size)}


def _weight_layer(model, layer, fm, mode, tap, report, readout):
    """The (windows, out_channels) output of one conv/fc layer on fm. In
    analog mode the windows are scaled in place to the engine's full input
    range, and a tapped layer's exact product is taken before that."""
    if mode == "software":
        return window_matrix(fm, layer.conv_spec) @ layer.weights
    # the engine, built on the layer's first analog run and then kept, is
    # made before the windows are copied: built after, its arrays can land
    # above that copy on the heap and keep the heap from shrinking when the
    # copy is freed, which raised a stage-1 run-net's peak RSS by 0.9 MB
    engine = model.engine(layer, **readout)
    X = window_matrix(fm, layer.conv_spec)
    exact = X @ layer.weights if tap else None
    peak = float(X.max())
    if peak > 0.0:
        scale = peak / engine.mapping.x_max
        X /= scale
        Y = engine.execute_batch(X) * scale
    else:
        Y = np.zeros((len(X), layer.weights.shape[1]))
    if tap:
        _tap_layer(report, layer.name, exact, Y)
    return Y


def run_inference(model: NetworkModel, image, mode="software", taps=(),
                  dac_bits=None, adc_bits=None, seed=0, engine_kwargs=None):
    """Run one image through the network; returns (distribution, ErrorReport).

    Software mode computes every layer exactly. Analog mode routes conv/fc
    layers through crossbar engines (inputs rescaled to the engine's full
    input range, outputs scaled back) while digital ops stay exact. Tapped
    conv/fc layers are also evaluated exactly from the same upstream input,
    so their reported error isolates the crossbar error of that layer plus
    whatever error already accumulated upstream. Each layer's output is
    dropped once the last layer that reads it has run, so the feature maps
    held at once do not grow with depth.
    """
    if mode not in ("software", "analog"):
        raise ValidationError(f"unknown inference mode {mode!r}")
    fm = model.check_image(image)
    taps = model.tap_layers(taps)
    readout = dict(dac_bits=dac_bits, adc_bits=adc_bits, seed=seed,
                   **(engine_kwargs or {}))
    report = ErrorReport()
    if mode == "analog":   # one row per output element of each tapped layer
        report.rows = np.empty(sum(int(np.prod(model.shapes[name])) for name in taps),
                               dtype=TAP_DTYPE)
    outputs = {}
    probs = None
    for layer in model.layers:
        preds = [outputs[p] for p in layer.predecessors]
        if layer.kind == "input":
            out = fm
        elif layer.kind in ("conv", "fc"):
            out = FeatureMap(_weight_layer(model, layer, preds[0], mode,
                                           layer.name in taps, report,
                                           readout).reshape(model.shapes[layer.name]))
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
        for name in model._last_read[layer.name]:
            del outputs[name]
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
                scale=1.0, kind="conv"):
    return LayerSpec(
        name=name, kind=kind, predecessors=[pred],
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
                              kernel_type, seed + 99, 1.0 / np.sqrt(in_c), kind="fc"))
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
                              seed + 300, 1.0 / 8.0, kind="fc"))
    layers.append(LayerSpec("softmax", "softmax", predecessors=["fc"]))
    return NetworkModel(name, layers)
