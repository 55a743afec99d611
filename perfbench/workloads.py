"""The benchmark's workloads: seeded inputs, the timed calls, and their checks.

Each workload is three functions:

- ``prepare(seed, workdir)`` makes the inputs from the seed and writes any
  files the program reads. It is the set-up that ``setup_s`` times.
- ``run(inputs, outdir)`` makes the calls ``run_s`` times, through the
  public API or the CLI in-process.
- ``score(inputs, outdir, result)`` reads the outputs back after the timed
  phase and returns ``(metrics, failures, digest)``: the accuracy metrics,
  a list of failed correctness checks (empty when all pass) and a SHA-256
  of the outputs.

The accuracy metrics compare the modelled crossbar against exact software
arithmetic. The repository holds no measurements of real devices, so the
device model itself is unvalidated; these numbers say nothing about how
close the simulator is to hardware.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from xbarsim import cli
from xbarsim.convmap import ConvSpec, FeatureMap, unroll_kernel, window_matrix
from xbarsim.engine import build_engine, evaluate_engine
from xbarsim.metrics import gen_input, gen_kernel
from xbarsim.netrunner import (LayerSpec, NetworkModel, build_resnet20_model,
                               save_model, save_tensor)

# The weights set how much work a build does (the 576x64 conversion takes
# 19 to 24 iterations over kernel seeds 1-5), so every workload keeps its
# weights fixed and draws from --seed the data they process. That keeps the
# work of a run the same for every seed.
LAYER576_KERNEL_SEED = 7     # the criterion-6 kernel
STAGE1_MODEL_SEED = 0
LAYER288_SEED = 0            # layer-exp's own kernel and input seed

# criterion-6 bounds for the 576x64 layer
LAYER576_MEAN_BOUND = 0.005
LAYER576_WORST_BOUND = 0.025
# bits-none logit error bounds for stage1-runnet; seeds 1-10 measure means
# of 6.1e-4 to 7.2e-4 and worst cases of at most 1.8e-3
RUNNET_MEAN_BOUND = 0.005
RUNNET_WORST_BOUND = 0.025

# accuracy statistics a workload may report, all relative to output range
ACCURACY_UNITS = {"mean_rel_err": "fraction", "worst_rel_err": "fraction",
                  "q8_mean_rel_err": "fraction", "agreement": "fraction"}

STAGE1_IMAGES = 2
# the run-net thread cap equals the 2 CPUs the benchmark is sized for
RUNNET_THREADS = 2


def _digest_files(outdir):
    """SHA-256 over the report files (name and bytes), sidecar logs excluded."""
    h = hashlib.sha256()
    for path in sorted(Path(outdir).iterdir()):
        if path.is_file() and path.suffix != ".log":
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def report_bytes(outdir):
    """Total size of the report files the CLI wrote, sidecar logs excluded."""
    return sum(p.stat().st_size for p in Path(outdir).iterdir()
               if p.is_file() and p.suffix != ".log")


# ---------------------------------------------------------------------------
# layer576-build: build_engine + evaluate_engine on the criterion-6 layer

def prepare_layer576(seed, workdir):
    spec = ConvSpec(3, 3, 64, 64, padding=1,
                    weights=gen_kernel(1, (3, 3, 64, 64), LAYER576_KERNEL_SEED))
    fm = FeatureMap(gen_input((8, 8, 64), 0.5, seed))
    return {"seed": seed, "A": unroll_kernel(spec), "X": window_matrix(fm, spec)}


def run_layer576(inputs, outdir):
    engine = build_engine(inputs["A"], sample_inputs=inputs["X"],
                          seed=inputs["seed"])
    return engine, evaluate_engine(engine, inputs["X"])


def score_layer576(inputs, outdir, result):
    engine, stats = result
    actual = engine.execute_batch(inputs["X"])
    failures = []
    if not stats.mean <= LAYER576_MEAN_BOUND:
        failures.append(f"mean_rel_err {stats.mean:.4g} > {LAYER576_MEAN_BOUND}")
    if not stats.worst <= LAYER576_WORST_BOUND:
        failures.append(f"worst_rel_err {stats.worst:.4g} > {LAYER576_WORST_BOUND}")
    digest = hashlib.sha256(np.ascontiguousarray(actual, dtype="<f8").tobytes())
    return ({"mean_rel_err": stats.mean, "worst_rel_err": stats.worst},
            failures, digest.hexdigest())


# ---------------------------------------------------------------------------
# stage1-runnet: `xbarsim run-net` over ResNet-20 stage 1

def stage1_model(seed=STAGE1_MODEL_SEED):
    """ResNet-20 up to the end of stage 1, closed by pool -> fc -> softmax."""
    full = build_resnet20_model(seed)
    names = [layer.name for layer in full.layers]
    layers = full.layers[:names.index("relu_add6") + 1]
    fc = ConvSpec(1, 1, 16, 10, weights=gen_kernel(1, (1, 1, 16, 10), seed + 300))
    layers += [
        LayerSpec("pool", "global_avg_pool", predecessors=["relu_add6"]),
        LayerSpec("fc", "fc", predecessors=["pool"],
                  params={"kernel_h": 1, "kernel_w": 1, "in_channels": 16,
                          "out_channels": 10, "stride": 1, "padding": 0},
                  weights=unroll_kernel(fc) / 4.0),
        LayerSpec("softmax", "softmax", predecessors=["fc"]),
    ]
    return NetworkModel("resnet20-stage1", layers)


def prepare_stage1(seed, workdir):
    workdir = Path(workdir)
    save_model(stage1_model(), workdir / "model.json")
    images = workdir / "images"
    images.mkdir()
    for i in range(STAGE1_IMAGES):
        save_tensor(images / f"img{i}.mten", gen_input((32, 32, 3), 0.3, seed + i))
    return {"seed": seed, "model": workdir / "model.json", "images": images}


def run_stage1(inputs, outdir):
    return cli.main(["--threads", str(RUNNET_THREADS), "run-net",
                     "--model", str(inputs["model"]),
                     "--images", str(inputs["images"]),
                     "--bits", "none,8", "--taps", "all",
                     "--out", str(outdir)])


def score_stage1(inputs, outdir, rc):
    if rc != 0:
        return {}, [f"run-net exited {rc}"], None
    with open(Path(outdir) / "accuracy.csv", newline="") as fh:
        rows = {row["bits"]: row for row in csv.DictReader(fh)}
    none, q8 = rows["none"], rows["8"]
    metrics = {
        "mean_rel_err": float(none["mean_rel_err"]),
        "worst_rel_err": float(none["worst_rel_err"]),
        "q8_mean_rel_err": float(q8["mean_rel_err"]),
        "agreement": (float(none["agreement"]) + float(q8["agreement"])) / 2,
    }
    failures = []
    if not metrics["mean_rel_err"] <= RUNNET_MEAN_BOUND:
        failures.append(f"bits-none mean logit error {metrics['mean_rel_err']:.4g}"
                        f" > {RUNNET_MEAN_BOUND}")
    if not metrics["worst_rel_err"] <= RUNNET_WORST_BOUND:
        failures.append(f"bits-none worst logit error {metrics['worst_rel_err']:.4g}"
                        f" > {RUNNET_WORST_BOUND}")
    return metrics, failures, _digest_files(outdir)


# ---------------------------------------------------------------------------
# layer288-exp: `xbarsim layer-exp` with the conversion-amplitude sweep

def prepare_layer288(seed, workdir):
    """The build seed goes in through --config: it picks the calibration windows."""
    config = Path(workdir) / "config.json"
    config.write_text(json.dumps({"seed": seed}) + "\n")
    return {"config": config}


def run_layer288(inputs, outdir):
    return cli.main(["layer-exp", "--kernel-shape", "3x3x32x32",
                     "--input-hw", "8", "--sparsity", "0.5",
                     "--seed", str(LAYER288_SEED), "--conv-amp-sweep",
                     "--config", str(inputs["config"]), "--out", str(outdir)])


def score_layer288(inputs, outdir, rc):
    if rc != 0:
        return {}, [f"layer-exp exited {rc}"], None
    summary = json.loads((Path(outdir) / "summary.json").read_text())
    improved = summary["improved"]["mean"]
    failures = [f"improved mean {improved:.4g} not below {name} "
                f"{summary[name]['mean']:.4g}"
                for name in ("direct", "original_conversion")
                if not improved < summary[name]["mean"]]
    return ({"mean_rel_err": improved,
             "worst_rel_err": summary["improved"]["worst"]},
            failures, _digest_files(outdir))


WORKLOADS = {
    "layer576-build": (prepare_layer576, run_layer576, score_layer576),
    "stage1-runnet": (prepare_stage1, run_stage1, score_stage1),
    "layer288-exp": (prepare_layer288, run_layer288, score_layer288),
}
