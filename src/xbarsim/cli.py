"""Command-line front end: one-shot solves, engine builds, layer experiments,
and full-network quantization sweeps.

All outputs are machine-parseable CSV/JSON and deterministic for a given
config and seed; timestamps go to a sidecar .log file only. Exit codes:
0 success, 1 usage errors (including missing files), 2 validation errors,
3 numeric failures.
"""

import csv
import datetime
import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from .circuit import simulate
from .config import CrossbarConfig
from .engine import (DEFAULT_CALI_SAMPLES, DEFAULT_SIGNAL_FRACTION,
                     SIGNAL_AMPLITUDES, VmmEngine, build_engine,
                     evaluate_engine, get_cali_para, map_weights,
                     optimize_conversion_signal)
from .errors import SolverError, ValidationError
from .metrics import RelErrorStats, gen_input, gen_kernel
from .netrunner import load_model, load_tensor, run_inference, quantization_sweep
from .convmap import ConvSpec, FeatureMap, unroll_kernel, window_matrix

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

CONFIG_KEYS = {"crossbar", "dac_bits", "adc_bits", "signal_fraction",
               "amplitudes", "cali_samples", "seed", "x_max"}


def _load_config(path):
    """Parse and validate an experiment config JSON file."""
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(path)
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad config JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(cfg) - CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _require_file(path):
    if not Path(path).exists():
        raise FileNotFoundError(path)
    return Path(path)


def _write_log(out_path, command):
    """Sidecar log next to the output; the only place a timestamp appears."""
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    Path(str(out_path) + ".log").write_text(
        f"{stamp} {command} {' '.join(sys.argv[1:])}\n")


def _resolve_threads(threads):
    if threads is None:
        env = os.environ.get("XBAR_THREADS")
        threads = int(env) if env else 1
    if threads < 1:
        raise ValidationError(f"--threads must be >= 1, got {threads}")
    return threads


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _stats_row(variant, stats):
    row = {"variant": variant, "mean": stats.mean, "worst": stats.worst,
           "samples": stats.sample_count, "output_range": stats.output_range}
    return row


def _write_stats_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "mean", "worst", "samples", "output_range"])
        for row in rows:
            writer.writerow([row["variant"], repr(row["mean"]), repr(row["worst"]),
                             row["samples"], repr(row["output_range"])])


@click.group()
@click.option("--threads", type=int, default=None,
              help="Validated (>= 1; env XBAR_THREADS as fallback) but not "
                   "used yet: every command runs in one process.")
@click.pass_context
def cli(ctx, threads):
    """Memristor-crossbar CNN inference simulator."""
    ctx.ensure_object(dict)
    ctx.obj["threads"] = _resolve_threads(threads)


@cli.command("simulate")
@click.option("--config", "config_path", type=str, default=None,
              help="Experiment config JSON.")
@click.option("--conductance", "cond_path", type=str, required=True,
              help="Conductance matrix tensor file (rows x cols).")
@click.option("--input", "input_path", type=str, required=True,
              help="Input voltage vector tensor file.")
@click.option("--out", "out_path", type=str, required=True)
def simulate_cmd(config_path, cond_path, input_path, out_path):
    """One-shot crossbar solve; writes output currents and node voltages."""
    cfg = _load_config(config_path)
    g = load_tensor(_require_file(cond_path))
    v = load_tensor(_require_file(input_path))
    if g.ndim != 2:
        raise ValidationError(f"conductance tensor must be 2-D, got {g.shape}")
    xb = dict(cfg.get("crossbar", {}))
    xb.setdefault("rows", g.shape[0])
    xb.setdefault("cols", g.shape[1])
    config = CrossbarConfig.from_dict(xb)
    # tensor files are float32; snap boundary values back onto the range
    snap = 1e-6
    g = np.where(np.abs(g - config.g_max) <= snap * config.g_max,
                 config.g_max, g)
    g = np.where(np.abs(g - config.g_min) <= snap * config.g_min,
                 config.g_min, g)
    v = v.ravel()
    near_range = (v >= -snap) & (v <= config.v_sense_max * (1.0 + snap))
    v = np.where(near_range, np.clip(v, 0.0, config.v_sense_max), v)
    sol = simulate(config, g, v)
    _write_json(out_path, {
        "i_out": sol.i_out.tolist(),
        "v_top": sol.v_top.tolist(),
        "v_bot": sol.v_bot.tolist(),
        "residual": sol.residual,
    })
    _write_log(out_path, "simulate")


@cli.command("build-engine")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--weights", "weights_path", type=str, required=True,
              help="2-D weight matrix tensor file.")
@click.option("--samples", "samples_path", type=str, default=None,
              help="Optional calibration sample tensor (batch x rows).")
@click.option("--optimize-signal", is_flag=True,
              help="Sweep conversion-signal amplitudes before the build.")
@click.option("--out", "out_path", type=str, required=True)
def build_engine_cmd(config_path, weights_path, samples_path, optimize_signal,
                     out_path):
    """Map, convert, and calibrate one crossbar engine; serialize it."""
    cfg = _load_config(config_path)
    weights = load_tensor(_require_file(weights_path))
    if weights.ndim != 2:
        raise ValidationError(f"weights tensor must be 2-D, got {weights.shape}")
    samples = None
    if samples_path is not None:
        samples = load_tensor(_require_file(samples_path))
    config = None
    if "crossbar" in cfg:
        xb = dict(cfg["crossbar"])
        xb.setdefault("rows", weights.shape[0])
        xb.setdefault("cols", weights.shape[1])
        config = CrossbarConfig.from_dict(xb)
    kwargs = dict(
        config=config,
        x_max=cfg.get("x_max", 1.0),
        dac_bits=cfg.get("dac_bits"),
        adc_bits=cfg.get("adc_bits"),
        sample_inputs=samples,
        cali_sample_count=cfg.get("cali_samples", DEFAULT_CALI_SAMPLES),
        seed=cfg.get("seed", 0),
    )
    fraction = cfg.get("signal_fraction", DEFAULT_SIGNAL_FRACTION)
    if optimize_signal:
        fraction, _ = optimize_conversion_signal(
            weights, amplitudes=tuple(cfg.get("amplitudes", SIGNAL_AMPLITUDES)),
            **kwargs)
    engine = build_engine(weights, signal_fraction=fraction, **kwargs)
    engine.save(out_path)
    _write_log(out_path, "build-engine")


@cli.command("layer-exp")
@click.option("--kernel-type", type=click.IntRange(1, 3), default=1)
@click.option("--kernel-shape", type=str, default="3x3x32x32",
              help="Kernel dims kh x kw x in_c x out_c, e.g. 3x3x32x32.")
@click.option("--input-hw", type=int, default=8,
              help="Synthetic input feature map height/width.")
@click.option("--sparsity", type=float, default=0.5)
@click.option("--seed", type=int, default=0)
@click.option("--conv-amp-sweep", is_flag=True,
              help="Also sweep conversion-signal amplitudes.")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--out", "out_dir", type=str, required=True)
def layer_exp_cmd(kernel_type, kernel_shape, input_hw, sparsity, seed,
                  conv_amp_sweep, config_path, out_dir):
    """Single-layer accuracy experiment over mapping/conversion variants.

    Emits error statistics for direct mapping, uncalibrated conversion with
    absolute (unscaled) targets, uncalibrated auto-scaled conversion, and
    the full auto-scaled conversion plus calibration.
    """
    cfg = _load_config(config_path)
    try:
        kh, kw, ic, oc = (int(x) for x in kernel_shape.lower().split("x"))
    except ValueError:
        raise ValidationError(
            f"kernel shape must be KHxKWxICxOC, got {kernel_shape!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = ConvSpec(kh, kw, ic, oc, stride=1, padding=1,
                    weights=gen_kernel(kernel_type, (kh, kw, ic, oc), seed))
    A = unroll_kernel(spec)
    fm = FeatureMap(gen_input((input_hw, input_hw, ic), sparsity, seed + 1))
    X = window_matrix(fm, spec)
    dac = cfg.get("dac_bits")
    adc = cfg.get("adc_bits")
    common = dict(sample_inputs=X, dac_bits=dac, adc_bits=adc,
                  seed=cfg.get("seed", seed),
                  cali_sample_count=cfg.get("cali_samples", DEFAULT_CALI_SAMPLES))
    variants = {
        "direct": build_engine(A, max_iter=0, calibrate=False, **common),
        "original_conversion": build_engine(A, method="branch",
                                            target_scale=1.0,
                                            signal_fraction=1.0,
                                            calibrate=False, **common),
        "improved_uncalibrated": build_engine(A, calibrate=False, **common),
        "improved": build_engine(A, **common),
    }
    rows = []
    summary = {}
    for label, engine in variants.items():
        stats = evaluate_engine(engine, X)
        rows.append(_stats_row(label, stats))
        summary[label] = stats.to_dict()
        summary[label]["conversion"] = engine.conversion_info
    _write_stats_csv(out / "variants.csv", rows)
    if conv_amp_sweep:
        _, sweep = optimize_conversion_signal(
            A, sample_inputs=X, seed=cfg.get("seed", seed),
            amplitudes=tuple(cfg.get("amplitudes", SIGNAL_AMPLITUDES)),
            dac_bits=dac, adc_bits=adc)
        with open(out / "amplitude_sweep.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fraction", "mean", "worst"])
            for entry in sweep:
                writer.writerow([repr(entry["fraction"]), repr(entry["mean"]),
                                 repr(entry["worst"])])
        summary["amplitude_sweep"] = sweep
    _write_json(out / "summary.json", summary)
    _write_log(out / "summary.json", "layer-exp")


@cli.command("run-net")
@click.option("--model", "model_path", type=str, required=True)
@click.option("--images", "images_dir", type=str, required=True,
              help="Directory of input tensor files (sorted by name).")
@click.option("--bits", type=str, default="none,8,6,4",
              help="Comma-separated quantizer settings (none or bit widths).")
@click.option("--taps", type=str, default=None,
              help="Comma-separated conv/fc layer names, or 'all'.")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--out", "out_dir", type=str, required=True)
def run_net_cmd(model_path, images_dir, bits, taps, config_path, out_dir):
    """Quantization sweep plus optional per-layer error taps over a model."""
    cfg = _load_config(config_path)
    model = load_model(_require_file(model_path))
    images_dir = _require_file(images_dir)
    image_files = sorted(p for p in Path(images_dir).iterdir()
                         if p.is_file() and p.suffix != ".log")
    images = [load_tensor(p) for p in image_files]
    bit_list = []
    for token in bits.split(","):
        token = token.strip()
        if not token:
            continue
        bit_list.append("none" if token == "none" else int(token))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.get("seed", 0)
    engine_kwargs = {}
    if "cali_samples" in cfg:
        engine_kwargs["cali_sample_count"] = cfg["cali_samples"]
    table = quantization_sweep(model, images, bit_list, seed=seed,
                               engine_kwargs=engine_kwargs or None)
    with open(out / "accuracy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bits", "mean_rel_err", "worst_rel_err",
                         "agreement", "images"])
        for row in table:
            writer.writerow([row["bits"], repr(row["mean_rel_err"]),
                             repr(row["worst_rel_err"]),
                             repr(row["agreement"]), row["images"]])
    summary = {"accuracy": table}
    if taps:
        tap_set = "all" if taps.strip() == "all" else \
            [t.strip() for t in taps.split(",") if t.strip()]
        first_bits = bit_list[0] if bit_list else "none"
        dac = adc = None if first_bits == "none" else int(first_bits)
        tap_rows = {}
        aggregates = {}
        offset = 0
        for img in images:
            _, rep = run_inference(model, img, mode="analog", taps=tap_set,
                                   dac_bits=dac, adc_bits=adc, seed=seed,
                                   engine_kwargs=engine_kwargs or None)
            for layer, window, col, ideal, actual, rel in rep.rows:
                tap_rows.setdefault(layer, []).append(
                    (layer, window + offset, col, ideal, actual, rel))
            if rep.rows:
                offset += 1 + max(r[1] for r in rep.rows)
            for layer, agg in rep.aggregates.items():
                aggregates.setdefault(layer, []).append(agg)
        for layer, rows in tap_rows.items():
            with open(out / f"layer_{layer}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["layer", "window", "column",
                                 "ideal", "actual", "rel_err"])
                for row in rows:
                    writer.writerow([row[0], row[1], row[2], repr(row[3]),
                                     repr(row[4]), repr(row[5])])
        summary["taps"] = {
            layer: {"mean": float(np.mean([a["mean"] for a in aggs])),
                    "worst": float(max(a["worst"] for a in aggs))}
            for layer, aggs in aggregates.items()}
    _write_json(out / "summary.json", summary)
    _write_log(out / "summary.json", "run-net")


def main(argv=None):
    """Entry point mapping exceptions onto the exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except FileNotFoundError as exc:
        click.echo(f"error: file not found: {exc}", err=True)
        return EXIT_USAGE
    except ValidationError as exc:
        click.echo(f"validation error: {exc}", err=True)
        return EXIT_VALIDATION
    except (SolverError, FloatingPointError, np.linalg.LinAlgError) as exc:
        click.echo(f"numeric error: {exc}", err=True)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
