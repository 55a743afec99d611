"""Command-line front end: one-shot solves, engine builds, layer experiments,
and full-network quantization sweeps.

All outputs are machine-parseable CSV/JSON and deterministic for a given
config and seed; timestamps go to a sidecar .log file only. Exit codes:
0 success, 1 usage errors (including missing files), 2 validation errors,
3 numeric failures.
"""

import csv
import datetime
import sys
from contextlib import ExitStack
from pathlib import Path

import click
import numpy as np

from .circuit import simulate
from .config import CrossbarConfig
from .engine import (DEFAULT_CALI_SAMPLES, build_engine, check_sample_inputs,
                     evaluate_engine, optimize_conversion_signal, program)
from .errors import SolverError, ValidationError, check_int, check_number
from .files import read_json_object, write_json
from .metrics import gen_input, gen_kernel, output_range
from .netrunner import (TAP_DTYPE, load_model, load_tensor, quantization_sweep,
                        run_inference)
from .convmap import ConvSpec, FeatureMap, unroll_kernel, window_matrix
from .quantize import check_bits

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


def _check_crossbar(xb):
    if not isinstance(xb, dict):
        raise ValidationError(f"crossbar must be a JSON object, got {xb!r}")
    return xb


# every config key: its default and the check its value must pass
CONFIG_VALUES = {
    "crossbar": ({}, _check_crossbar),
    "dac_bits": (None, check_bits),
    "adc_bits": (None, check_bits),
    "cali_samples": (DEFAULT_CALI_SAMPLES,
                     lambda n: check_int(n, "calibration sample count", 2)),
    "seed": (0, lambda seed: check_int(seed, "seed")),
    "x_max": (1.0, lambda x: check_number(x, "x_max", 0, strict=True)),
}
# the config keys each command reads; any other key is rejected
CONFIG_KEYS = {
    "simulate": {"crossbar"},
    "build-engine": {"crossbar", "dac_bits", "adc_bits", "cali_samples", "seed",
                     "x_max"},
    "layer-exp": {"dac_bits", "adc_bits", "cali_samples", "seed"},
    "run-net": {"cali_samples", "seed"},
}


def _load_config(path, command):
    """Parse an experiment config JSON file and validate its keys against
    those `command` reads."""
    if path is None:
        return {}
    cfg = read_json_object(_require_file(path), "config")
    unknown = set(cfg) - CONFIG_KEYS[command]
    if unknown:
        raise ValidationError(
            f"config keys {sorted(unknown)} not used by {command}; it accepts "
            f"{sorted(CONFIG_KEYS[command])}")
    return cfg


def _read_config(path, command, **defaults):
    """Every key `command` reads, checked: its value in the config file at
    `path`, else its default in `defaults`, else the one in CONFIG_VALUES."""
    cfg = _load_config(path, command)
    return {key: check(cfg.get(key, defaults.get(key, default)))
            for key, (default, check) in CONFIG_VALUES.items()
            if key in CONFIG_KEYS[command]}


def _crossbar_config(xb, shape):
    """A config's `crossbar` object as a CrossbarConfig, sized to `shape`
    (rows, cols) unless the object sets its own."""
    return CrossbarConfig.from_dict({"rows": shape[0], "cols": shape[1], **xb})


def _require_file(path):
    if not Path(path).exists():
        raise FileNotFoundError(path)
    return Path(path)


def _write_log(out_path, command):
    """Sidecar log next to the output, with the arguments `main` was given;
    the only place a timestamp appears."""
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    argv = click.get_current_context().obj["argv"]
    Path(str(out_path) + ".log").write_text(f"{stamp} {command} {' '.join(argv)}\n")


def _write_csv(path, header, columns):
    """The one CSV writer: a header line, then one row per element of the
    equal-length `columns`, both written by one `csv.writer`: floats with
    repr, other numbers with str, strings quoted as QUOTE_MINIMAL quotes
    them, and CRLF line endings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns, strict=True))


@click.group()
@click.option("--threads", type=int, default=1,
              help="Worker processes (>= 1). Checked, but every command runs "
                   "in this one process at present; no report depends on N.")
@click.pass_context
def cli(ctx, threads):
    """Memristor-crossbar CNN inference simulator."""
    ctx.ensure_object(dict)
    if threads < 1:   # checked, though no command reads it at present
        raise ValidationError(f"--threads must be >= 1, got {threads}")


@cli.command("simulate")
@click.option("--config", "config_path", type=str, default=None,
              help="Experiment config JSON.")
@click.option("--conductance", "cond_path", type=str, required=True,
              help="Conductance matrix tensor file (rows x cols).")
@click.option("--input", "input_path", type=str, required=True,
              help="Input voltage vector tensor file (1-D, one value per row).")
@click.option("--out", "out_path", type=str, required=True)
def simulate_cmd(config_path, cond_path, input_path, out_path):
    """One-shot crossbar solve; writes output currents and node voltages."""
    cfg = _read_config(config_path, "simulate")
    g = load_tensor(_require_file(cond_path))
    v = load_tensor(_require_file(input_path))
    if g.ndim != 2:
        raise ValidationError(f"conductance tensor must be 2-D, got {g.shape}")
    sol = simulate(_crossbar_config(cfg["crossbar"], g.shape), g, v)
    write_json(out_path, {
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
@click.option("--out", "out_path", type=str, required=True)
def build_engine_cmd(config_path, weights_path, samples_path, out_path):
    """Map, convert, and calibrate one crossbar engine; serialize it."""
    cfg = _read_config(config_path, "build-engine")
    weights = load_tensor(_require_file(weights_path))
    if weights.ndim != 2:
        raise ValidationError(f"weights tensor must be 2-D, got {weights.shape}")
    samples = None
    if samples_path is not None:   # checked before any conversion
        samples = check_sample_inputs(load_tensor(_require_file(samples_path)),
                                      weights.shape[0], cfg["x_max"])
    programmed = program(weights, x_max=cfg["x_max"],
                         config=_crossbar_config(cfg["crossbar"], weights.shape))
    engine = build_engine(programmed, dac_bits=cfg["dac_bits"],
                          adc_bits=cfg["adc_bits"], sample_inputs=samples,
                          cali_sample_count=cfg["cali_samples"], seed=cfg["seed"])
    engine.save(out_path)
    _write_log(out_path, "build-engine")


@cli.command("layer-exp")
@click.option("--kernel-type", type=click.IntRange(1, 3), default=1)
@click.option("--kernel-shape", type=str, default="3x3x32x32",
              help="Kernel dims kh x kw x in_c x out_c, e.g. 3x3x32x32.")
@click.option("--input-hw", type=click.IntRange(min=1), default=8,
              help="Synthetic input feature map height/width.")
@click.option("--sparsity", type=float, default=0.5)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--conv-amp-sweep", is_flag=True,
              help="Also sweep conversion-signal amplitudes.")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--out", "out_dir", type=str, required=True)
def layer_exp_cmd(kernel_type, kernel_shape, input_hw, sparsity, seed,
                  conv_amp_sweep, config_path, out_dir):
    """Single-layer accuracy experiment over mapping/conversion variants.

    Emits error statistics for direct mapping, uncalibrated conversion with
    absolute (unscaled) targets, uncalibrated auto-scaled conversion, and
    the full auto-scaled conversion plus calibration. The last two, and
    every amplitude of the sweep, read out one programmed array.
    """
    cfg = _read_config(config_path, "layer-exp", seed=seed)
    try:
        dims = [int(x) for x in kernel_shape.lower().split("x")]
    except ValueError:
        dims = []
    if len(dims) != 4 or min(dims) < 1:
        raise ValidationError(f"kernel shape must be KHxKWxICxOC, four integers "
                              f">= 1, got {kernel_shape!r}")
    kh, kw, ic, oc = dims
    # the map, the kernel's windows on it and their exact outputs' range are
    # checked before --out: gen_input checks --sparsity, window_matrix the fit
    fm = FeatureMap(gen_input((input_hw, input_hw, ic), sparsity, seed + 1))
    spec = ConvSpec(kh, kw, ic, oc, stride=1, padding=1,
                    weights=gen_kernel(kernel_type, (kh, kw, ic, oc), seed))
    A = unroll_kernel(spec)
    X = window_matrix(fm, spec)
    if output_range(X @ A) <= 0.0:
        raise ValidationError("the layer's exact outputs have no range (all equal), "
                              "so no relative error can be measured")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    common = dict(sample_inputs=X, dac_bits=cfg["dac_bits"], adc_bits=cfg["adc_bits"],
                  seed=cfg["seed"], cali_sample_count=cfg["cali_samples"])
    improved = program(A)
    variants = {
        "direct": build_engine(program(A, max_iter=0), calibrate=False, **common),
        "original_conversion": build_engine(
            program(A, method="branch", target_scale=1.0, signal_fraction=1.0),
            calibrate=False, **common),
        "improved_uncalibrated": build_engine(improved, calibrate=False, **common),
        "improved": build_engine(improved, **common),
    }
    rows = []
    summary = {}
    for label, engine in variants.items():
        stats = evaluate_engine(engine, X)
        rows.append((label, stats.mean, stats.worst, stats.sample_count,
                     stats.output_range))
        summary[label] = stats.to_dict()
        summary[label]["conversion"] = engine.conversion_info
    _write_csv(out / "variants.csv",
               ("variant", "mean", "worst", "samples", "output_range"), zip(*rows))
    if conv_amp_sweep:
        _, sweep = optimize_conversion_signal(improved, **common)
        header = ("fraction", "mean", "worst")
        _write_csv(out / "amplitude_sweep.csv", header,
                   [[entry[k] for entry in sweep] for k in header])
        summary["amplitude_sweep"] = sweep
    write_json(out / "summary.json", summary)
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
    """Quantization sweep plus optional per-layer error taps over a model.

    The sweep checks every image before any tap report is written. Each
    tapped layer's report is one `layer_<name>.npy` array of `TAP_DTYPE`:
    its header, sized for every image's rows, is written first, and each
    image's tap pass then appends the layer's rows. So this process holds
    one image's tap rows at a time. A tap pass that fails removes the
    reports, whose headers promise rows they would not hold.
    """
    try:
        bit_list = [t if t == "none" else int(t)
                    for t in map(str.strip, bits.split(",")) if t]
    except ValueError:
        bit_list = []
    if not bit_list:
        raise click.BadParameter(
            f"expected 'none' or bit widths, got {bits!r}", param_hint="--bits")
    for b in bit_list:
        check_bits(None if b == "none" else b)
    if taps is not None:
        taps = "all" if taps.strip() == "all" else [
            t for t in map(str.strip, taps.split(",")) if t]
        if not taps:
            raise click.BadParameter("expected 'all' or conv/fc layer names, got "
                                     "none", param_hint="--taps")
    images_dir = _require_file(images_dir)
    if not images_dir.is_dir():
        raise NotADirectoryError(images_dir)
    cfg = _read_config(config_path, "run-net")
    engine_kwargs = {"cali_sample_count": cfg["cali_samples"]}
    model = load_model(_require_file(model_path))
    if taps:   # checked before any engine is built
        tap_set = model.tap_layers(taps)
    image_files = sorted(p for p in images_dir.iterdir()
                         if p.is_file() and p.suffix != ".log")
    # every image is checked, and one at least required, before --out is made
    images = [model.check_image(load_tensor(p)) for p in image_files]
    if not images:
        raise ValidationError(f"no image files in {images_dir}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = quantization_sweep(model, images, bit_list, seed=cfg["seed"],
                               engine_kwargs=engine_kwargs)
    header = ("bits", "mean_rel_err", "worst_rel_err", "agreement", "images")
    _write_csv(out / "accuracy.csv", header,
               [[row[k] for row in table] for k in header])
    summary = {"accuracy": table}
    if taps:
        dac = adc = None if bit_list[0] == "none" else bit_list[0]
        per_layer = {}   # layer -> its aggregates, one per image
        offset = 0
        descr = np.lib.format.dtype_to_descr(TAP_DTYPE)
        # the reports are closed, and then removed unless every row was written
        with ExitStack() as removal, ExitStack() as stack:
            files = {}   # each tapped layer's report, its header sized for all images
            for name in (l.name for l in model.weight_layers() if l.name in tap_set):
                path = out / f"layer_{name}.npy"
                files[name] = stack.enter_context(open(path, "wb"))
                removal.callback(path.unlink)
                np.lib.format.write_array_header_1_0(files[name], {
                    "descr": descr, "fortran_order": False,
                    "shape": (int(np.prod(model.shapes[name])) * len(images),)})
            for img in images:
                _, rep = run_inference(model, img, mode="analog", taps=tap_set,
                                       dac_bits=dac, adc_bits=adc, seed=cfg["seed"],
                                       engine_kwargs=engine_kwargs)
                # number this image's windows after the previous image's
                if len(rep.rows):
                    rep.rows["window"] += offset
                    offset = 1 + int(rep.rows["window"].max())
                # each tapped layer's rows are contiguous, in aggregates order
                ends = np.cumsum([0, *(a["count"] for a in rep.aggregates.values())])
                for (layer, agg), lo, hi in zip(rep.aggregates.items(), ends, ends[1:]):
                    rep.rows[lo:hi].tofile(files[layer])
                    per_layer.setdefault(layer, []).append(agg)
                del rep   # the next tap pass starts without these rows
            removal.pop_all()   # every image's rows are written: keep the reports
        summary["taps"] = {
            layer: {"mean": float(np.mean([a["mean"] for a in aggs])),
                    "worst": float(max(a["worst"] for a in aggs))}
            for layer, aggs in per_layer.items()}
    write_json(out / "summary.json", summary)
    _write_log(out / "summary.json", "run-net")


def main(argv=None):
    """Entry point mapping exceptions onto the exit-code contract; `argv`
    defaults to the process's own arguments."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cli.main(args=argv, standalone_mode=False, obj={"argv": argv})
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
    except NotADirectoryError as exc:
        click.echo(f"error: not a directory: {exc}", err=True)
        return EXIT_USAGE
    except ValidationError as exc:
        click.echo(f"validation error: {exc}", err=True)
        return EXIT_VALIDATION
    except (SolverError, FloatingPointError, np.linalg.LinAlgError) as exc:
        click.echo(f"numeric error: {exc}", err=True)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
