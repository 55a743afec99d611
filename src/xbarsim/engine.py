"""Weight-to-conductance mapping, conversion, calibration, and VMM execution.

One crossbar is one `VmmEngine` record, made in two steps. `program`
(steps 1-2) maps and converts a weight matrix into one, with no quantizers
and the nominal readout, and it is the only entry point that takes
conversion arguments; `build_engine` reads one out (steps 3-4) into a new
record for its DAC/ADC bits, sample inputs and seed. A programmed engine
can be read out any number of times and is never changed by it.

1. `map_weights` shifts and scales a real weight matrix onto the device
   conductance window (non-negative dense mapping with a shift constant c).
2. `convert` tunes the programmed conductances so the loaded array, with all
   wire and terminal parasitics, reproduces the target multiply. Targets are
   auto-scaled per column to what the array can physically reach; the scale
   is absorbed by the digital readout. It stops when the array converged,
   stalled or reached `max_iter`, and returns the solver of the last array
   it evaluated; every engine read out from the array runs on it.
3. The readout fits the ADC reference range to sample currents and gives
   the engine its one `ReadoutMap` (per-column gain, offset and baseline,
   and the shift): the nominal map, or the one `get_cali_para` fits on a few
   random sample inputs, absorbing residual distortion and quantizer bias.
4. `VmmEngine.execute` runs the full signal chain: DAC, transfer-matrix
   product, ADC, then the readout map: baseline, gain and offset, shift.

`VmmEngine.save`/`load` keep an engine on disk through `files.py`. A
descriptor stores only what the loader cannot work out: `map_weights`
gives the mapping again from the weights, `config` and `x_max`, the DAC
range is [0, v_sense_max], and the blob's layout follows from `shape` and
`config`.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import INPUT_SLACK, CrossbarSolver
from .config import CrossbarConfig
from .errors import ValidationError, check_int, check_number, is_int, is_number
from .files import load_with_blob, save_with_blob
from .quantize import AdcSpec, DacSpec, adc_quantize, calibrate_adc_range, dac_quantize

# flat conversion/calibration signal amplitudes swept by
# optimize_conversion_signal, as fractions of v_sense_max
SIGNAL_AMPLITUDES = (1.0, 0.5, 0.2, 0.1, 0.05, 0.01, 0.001)
DEFAULT_SIGNAL_FRACTION = 0.1

# the keys `VmmEngine.load` requires of a descriptor, which may also hold
# format, version and name, but no other key
DESCRIPTOR_KEYS = {"blob_file", "blob_sha256", "config", "x_max", "shape",
                   "col_scale", "conversion", "dac", "adc", "readout"}

DEFAULT_CALI_SAMPLES = 10
CONVERGED_TOL = 1e-6   # col_error at or below which a conversion converged
# a conversion stalled when its largest relative device update is below both
# G_TOL and half of its col_error
G_TOL = 1e-5
_DEGENERATE_SPREAD = 1e-18


@dataclass
class WeightMapping:
    """Linear map between weight/input space and conductance/voltage space.

    g_target = g_min + beta * (A + c), v = alpha * x. The shift c makes all
    mapped values non-negative; its contribution c * sum(x) is subtracted
    digitally after readout.
    """

    c: float
    alpha: float
    beta: float
    x_max: float

    def __post_init__(self):
        # the shift may be 0; the scales and the input full scale may not
        for name, value in vars(self).items():
            check_number(value, f"mapping {name}", 0, strict=name != "c")


@dataclass
class ConversionResult:
    """The solver of the programmed array plus convergence diagnostics.

    Under method "transfer" the solver has cached T, residual-checked on
    every node, and so released its grid factor; the T of every earlier pass
    only steered an update and was never checked. Under "branch" it keeps
    the factor its last solve used.
    """

    solver: CrossbarSolver    # on the returned conductances, read-only
    col_scale: np.ndarray     # per-column target scale s, in (0, 1]
    iterations: int           # updates applied to the mapped targets
    converged: bool
    stop: str                 # exit taken: "converged", "stalled" or "max_iter"
    col_error: float          # worst per-column current error vs scaled target
    clipped_low: int          # devices pinned at g_min
    clipped_high: int         # devices pinned at g_max

    @property
    def g_device(self):
        return self.solver.g


def map_weights(weights, config: CrossbarConfig, x_max=1.0):
    """Map a real weight matrix onto [g_min, g_max] conductance targets.

    Returns (g_target, WeightMapping). g_target has the physical array shape;
    rows/columns beyond the weight shape are padded with g_min. The mapping
    uses the minimal shift c = max(0, -min(A)) and the full conductance
    window, so the realized multiply is y = x (A + c) - c * sum(x).
    """
    A = np.asarray(weights, dtype=float)
    if A.ndim != 2:
        raise ValidationError(f"weights must be 2-D, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValidationError("weights contain non-finite values")
    m, n = A.shape
    if m > config.rows or n > config.cols:
        raise ValidationError(
            f"weights {m}x{n} do not fit {config.rows}x{config.cols} array")
    check_number(x_max, "x_max", 0, strict=True)
    c = max(0.0, -float(A.min()))
    top = float(A.max()) + c
    beta = (config.g_max - config.g_min) / top if top > 0.0 else 1.0
    g_target = np.full((config.rows, config.cols), config.g_min)
    g_target[:m, :n] = config.g_min + beta * (A + c)
    return g_target, WeightMapping(c=c, alpha=config.v_sense_max / x_max,
                                   beta=beta, x_max=float(x_max))


def convert(config: CrossbarConfig, g_target, v_conv, method="transfer",
            target_scale="auto", max_iter=100):
    """Iteratively tune programmed conductances against the solved circuit.

    Each pass solves the current array and its per-column output error, then
    takes the first of three exits that applies:

    - "converged": `col_error` <= CONVERGED_TOL;
    - "max_iter": `max_iter` updates have been applied;
    - "stalled": the next update would move no device by G_TOL (1e-5)
      relative or more, below any device programming precision, nor by half
      of `col_error` or more. The guard keeps a converging array from
      stalling just short of CONVERGED_TOL: its largest update was 1.25 to
      1.84 times its `col_error` on every pass of the ResNet-20 stage-1
      layers that converge (conv0, conv1, sum1, conv5 and conv6 of
      `build_resnet20_model(0)`). A plateaued array, with clipped devices,
      keeps a flat `col_error` while its updates shrink, and stalls at G_TOL.

    Otherwise it reprograms every device so its realized contribution
    matches the (scaled) target, clipping to [g_min, g_max], and goes round
    again:

    - method "transfer": matches the exact per-device input-to-output
      transfer coefficients, so the converged array reproduces the scaled
      target multiply for every input signal.
    - method "branch": matches branch currents under the specific conversion
      signal v_conv (the classic multiplicative update).

    target_scale "auto" rescales each column to the largest fraction of the
    ideal target its devices can reach without ceiling saturation; a numeric
    value (e.g. 1.0) fixes the scale, which large parasitic arrays cannot
    reach. The signal must lie in (0, v_sense_max], target_scale be "auto"
    or in (0, 1] and max_iter be an integer >= 0. Returns a
    ConversionResult whose `solver` (the engine's, in `build_engine`),
    `g_device` and `col_error` belong to the last array solved.
    `iterations` counts the updates applied: max_iter=0 is direct mapping,
    and `iterations + 1` arrays are factorized. `stop` names the exit taken;
    `converged` reports whether `col_error` <= CONVERGED_TOL.

    Under "transfer" each pass steers on its T unchecked
    (`transfer_matrix(check=False)`), and only the returned solver's T is
    residual-checked, once, after the last pass; a failing check is a
    SolverError. So a conversion can steer off an array whose T would fail
    the check: a 64x64 array at r_wire = 1e10, whose mapped targets' T reads
    a residual just above RESIDUAL_TOL, now returns an array whose T passes,
    though a `solve` on it is still refused (ROADMAP item 11). And a regime
    in which every array fails raises only after the last pass. A steering
    T with a non-finite entry is a SolverError at once.
    """
    g_target = np.asarray(g_target, dtype=float)
    if g_target.shape != (config.rows, config.cols):
        raise ValidationError(
            f"g_target shape {g_target.shape} != array {config.rows}x{config.cols}")
    v_conv = np.asarray(v_conv, dtype=float)
    if v_conv.shape != (config.rows,):
        raise ValidationError(f"v_conv must have shape ({config.rows},)")
    if method not in ("transfer", "branch"):
        raise ValidationError(f"unknown conversion method {method!r}")
    # also rejects NaN entries
    if not ((v_conv > 0.0) & (v_conv <= config.v_sense_max * (1.0 + INPUT_SLACK))).all():
        raise ValidationError(
            f"conversion signal must lie in (0, {config.v_sense_max}] V")
    if not (is_number(target_scale) and 0.0 < target_scale <= 1.0
            or isinstance(target_scale, str) and target_scale == "auto"):
        raise ValidationError(
            f"target_scale must be 'auto' or a number in (0, 1], got {target_scale!r}")
    check_int(max_iter, "max_iter")

    i_unit = v_conv @ g_target     # ideal column currents at unit scale
    norm = max(float(np.abs(i_unit).max()), 1e-300)
    gp = g_target
    s = np.ones(config.cols)
    iterations = 0
    while True:
        solver = CrossbarSolver(config, gp)
        gp = solver.g   # the solver's read-only copy, so a pass holds one
        i_out, eff = _response(solver, method, v_conv)
        col_error = float(np.abs(i_out - s * i_unit).max()) / norm
        if col_error <= CONVERGED_TOL:
            stop = "converged"
            break
        if iterations >= max_iter:
            stop = "max_iter"
            break
        # the devices each column wants at unit scale, scaled and clipped in
        # place into the next ones, which the next solver copies
        g_new = g_target / eff
        s_new = (np.minimum(config.g_max / g_new.max(axis=0), 1.0)
                 if target_scale == "auto" else np.full(config.cols, float(target_scale)))
        g_new *= s_new
        np.clip(g_new, config.g_min, config.g_max, out=g_new)
        if np.max(np.abs(g_new - gp) / gp) < min(G_TOL, col_error / 2):
            stop = "stalled"
            break
        s, gp = s_new, g_new
        iterations += 1
        # free this pass's solver and eff before the next solver is built, and leave
        # gp the one name of the next targets, so only the next solver's copy stays
        del solver, g_new, eff
    if method == "transfer":
        # the one residual check, of the T returned, with this pass's eff
        # and next targets freed as on every pass
        eff = g_new = None
        solver.transfer_matrix()
    return ConversionResult(
        solver=solver, col_scale=s, iterations=iterations,
        converged=stop == "converged", stop=stop, col_error=col_error,
        clipped_low=max(0, int(np.count_nonzero(gp <= config.g_min)
                               - np.count_nonzero(g_target <= config.g_min))),
        clipped_high=max(0, int(np.count_nonzero(gp >= config.g_max)
                                - np.count_nonzero(g_target >= config.g_max))))


def _response(solver, method, v_conv):
    """One pass's output currents and each device's realized fraction `eff`."""
    if method == "transfer":
        transfer = solver.transfer_matrix(check=False)
        return v_conv @ transfer, transfer / solver.g
    sol = solver.solve(v_conv, check_range=False)
    v_drop = np.maximum(sol.v_top - sol.v_bot, 1e-300)
    return sol.i_out, solver.g_dev * v_drop / (v_conv[:, None] * solver.g)


@dataclass
class ReadoutMap:
    """An engine's per-column affine map of its ADC currents I, in this order:
    y = gain * (I - outer(alpha * g_min * sum(x), baseline)) + offset - c * sum(x).

    `baseline` scales each column's g_min floor current (it is the column's
    target scale s); alpha and the shift c are the engine's mapping's. The
    nominal map has gain 1 / (alpha beta s) and offset -0.0, which adding
    leaves bit for bit.
    """

    gain: np.ndarray
    offset: np.ndarray
    baseline: np.ndarray
    sample_count: int = 0     # samples fitted on: 0 for the nominal map, else >= 2
    degenerate: list = field(default_factory=list)   # fitted columns with no spread

    @classmethod
    def nominal(cls, mapping, col_scale):
        """The map with no fit, for weight columns of target scale `col_scale`."""
        return cls(gain=1.0 / (mapping.alpha * mapping.beta * col_scale),
                   offset=np.full(len(col_scale), -0.0), baseline=col_scale)

    def to_dict(self):
        return {"gain": self.gain.tolist(), "offset": self.offset.tolist(),
                "baseline": self.baseline.tolist(),
                "sample_count": self.sample_count, "degenerate": list(self.degenerate)}

    @classmethod
    def from_dict(cls, d, cols):
        """The readout of a descriptor, with one gain, offset and baseline
        for each of its `cols` weight columns."""
        gain, offset, baseline = (_numbers(d[key], cols, f"readout {key}")
                                  for key in ("gain", "offset", "baseline"))
        count, degenerate = d["sample_count"], d["degenerate"]
        unknown = sorted(d.keys() - {"gain", "offset", "baseline", "sample_count",
                                     "degenerate"})
        if unknown:
            raise ValueError(f"readout has unknown keys: {unknown}")
        if count != 0 or not is_int(count):   # 0: the nominal map
            check_int(count, "calibration sample count", 2)
        if not (isinstance(degenerate, list)
                and all(is_int(j) and 0 <= j < cols for j in degenerate)
                and len(set(degenerate)) == len(degenerate) and (count or not degenerate)):
            raise ValueError(f"readout degenerate must be distinct column indices in "
                             f"[0, {cols}), none at sample_count 0, got {degenerate!r}")
        return cls(gain, offset, baseline, count, degenerate)


def _numbers(value, count, what):
    """A descriptor's list of `count` finite real numbers as a float array,
    else a ValueError naming it `what`."""
    if not (isinstance(value, list) and len(value) == count
            and all(map(is_number, value))):
        raise ValueError(f"{what} must be {count} numbers")
    return np.array(value, dtype=float)


def check_inputs(X, rows, x_max):
    """A batch of input vectors as a 2-D float array, one vector being a
    batch of one; each must have `rows` finite entries in [0, x_max]."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != rows:
        raise ValidationError(f"inputs must have {rows} entries, got shape {X.shape}")
    # one range test: a NaN fails both comparisons, so isfinite runs only
    # to word the error
    if X.size and not (X.min() >= -1e-12 and X.max() <= x_max * (1.0 + 1e-9)):
        if not np.isfinite(X).all():
            raise ValidationError("inputs contain non-finite values")
        raise ValidationError(f"inputs must lie in [0, {x_max}]")
    return X


def check_sample_inputs(X, rows, x_max):
    """Calibration sample inputs: a 2-D batch of at least 2 input vectors,
    each as `check_inputs` accepts it."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValidationError(f"calibration needs a 2-D batch of at least 2 "
                              f"sample inputs, got shape {X.shape}")
    return check_inputs(X, rows, x_max)


def get_cali_para(engine, sample_inputs, sample_count=DEFAULT_CALI_SAMPLES, seed=0):
    """The readout map with per-column gain and offset fitted on a few random
    sample inputs.

    Runs the samples through the analog chain (DAC, solver, ADC, baseline
    correction) and regresses the shifted products y = x (A + c) on the
    corrected currents I, all columns at once, in centred closed form:
    gain = sum(dI dy) / sum(dI^2), offset = mean(y) - gain mean(I). Columns
    whose currents show no spread keep the nominal gain, take that offset
    and are listed in `degenerate`.
    """
    check_int(sample_count, "calibration sample count", 2)   # a gain/offset fit needs 2
    X = check_sample_inputs(sample_inputs, engine.shape[0], engine.mapping.x_max)
    if X.shape[0] > sample_count:
        rng = np.random.default_rng(seed)
        X = X[rng.choice(X.shape[0], size=sample_count, replace=False)]
    i_corr = engine._corrected_currents(X, X.sum(axis=1))
    y_shift = X @ (engine.weights + engine.mapping.c)
    nominal = ReadoutMap.nominal(engine.mapping, engine.col_scale[:engine.shape[1]])
    i_mean, y_mean = i_corr.mean(axis=0), y_shift.mean(axis=0)
    di = i_corr - i_mean
    flat = np.ptp(i_corr, axis=0) < _DEGENERATE_SPREAD
    gain = nominal.gain
    np.divide(np.sum(di * (y_shift - y_mean), axis=0), np.sum(di * di, axis=0),
              out=gain, where=~flat)
    return replace(nominal, gain=gain, offset=y_mean - gain * i_mean,
                   sample_count=X.shape[0], degenerate=np.flatnonzero(flat).tolist())


@dataclass(eq=False)
class VmmEngine:
    """One crossbar: a weight matrix mapped and converted onto it (steps 1-2)
    and the DAC, ADC and readout map that read it out (steps 3-4). `config`
    and `g_device` are its solver's; once the solver has cached T, it keeps
    T and not its grid factor, which inference never reads, and a `solve`
    factorizes again. `execute` maps a non-negative input vector x in
    [0, x_max] to an approximation of x @ weights through the analog signal
    chain and the one `readout` map, the nominal one unless another is given.
    """

    weights: np.ndarray
    mapping: WeightMapping
    solver: CrossbarSolver    # of the last array `convert` evaluated
    col_scale: np.ndarray
    conversion_info: dict     # method, signal, iterations, col_error, clipping
    dac: DacSpec | None = None
    adc: AdcSpec | None = None
    readout: ReadoutMap | None = None
    name: str = "engine"

    def __post_init__(self):
        if self.readout is None:
            self.readout = ReadoutMap.nominal(self.mapping, self.col_scale[:self.shape[1]])

    @property
    def config(self):
        return self.solver.config

    @property
    def g_device(self):
        return self.solver.g

    @property
    def shape(self):
        return self.weights.shape

    def _validate_inputs(self, X):
        return check_inputs(X, self.weights.shape[0], self.mapping.x_max)

    def raw_currents(self, X):
        """Post-ADC column currents for a batch of validated inputs."""
        return self._raw_currents(self._validate_inputs(X))

    def corrected_currents(self, X):
        """Post-ADC currents with the conductance baseline removed.

        The dense mapping rides every device on g_min (scaled by the column
        target scale, the readout's `baseline`); its known contribution
        alpha * g_min * s * sum(x) is subtracted before gain and offset.
        """
        X = self._validate_inputs(X)
        return self._corrected_currents(X, X.sum(axis=1))

    def execute_batch(self, X):
        """Run a batch of input vectors; returns (batch, cols) outputs."""
        X = self._validate_inputs(X)
        r, sums = self.readout, X.sum(axis=1)
        return (r.gain * self._corrected_currents(X, sums) + r.offset
                - self.mapping.c * sums[:, None])

    # the private helpers take a batch `_validate_inputs` already returned
    def _raw_currents(self, X):
        m, n = self.weights.shape
        V = np.empty((X.shape[0], self.config.rows))
        np.multiply(self.mapping.alpha, X, out=V[:, :m])
        V[:, m:] = 0.0   # the rows beyond the weights are driven at 0 V
        V = dac_quantize(V, self.dac)
        I = self.solver.currents(V, check_range=False)[:, :n]
        return adc_quantize(I, self.adc)

    def _corrected_currents(self, X, sums):
        """Raw currents less the baseline, for X and its row sums."""
        floor = self.mapping.alpha * self.config.g_min * sums
        return self._raw_currents(X) - np.outer(floor, self.readout.baseline)

    def execute(self, x):
        """Run one input vector; returns a 1-D output vector."""
        return self.execute_batch(x)[0]

    def to_descriptor(self):
        """The engine's JSON descriptor, but for the blob's name and SHA-256,
        which `save` adds."""
        return {
            "format": "xbar-engine",
            "version": 3,
            "name": self.name,
            "config": self.config.to_dict(),
            "x_max": self.mapping.x_max,
            "shape": list(self.weights.shape),
            "col_scale": self.col_scale.tolist(),
            "conversion": self.conversion_info,
            "dac": None if self.dac is None else {"bits": self.dac.bits},
            "adc": None if self.adc is None else
                {"bits": self.adc.bits, "i_max": self.adc.i_max, "i_min": self.adc.i_min},
            "readout": self.readout.to_dict(),
        }

    def save(self, json_path):
        """Write the JSON descriptor plus a blob of the weights, then the
        device conductances, as little-endian f64, with
        `files.save_with_blob`, which records the blob's name and SHA-256."""
        blob = b"".join(arr.astype("<f8").tobytes() for arr in (self.weights, self.g_device))
        return save_with_blob(json_path, self.to_descriptor(), blob)

    @classmethod
    def load(cls, json_path):
        """Rebuild an engine byte-identically from descriptor plus blob, both
        checked by `files.load_with_blob`; `map_weights` maps the weights
        again, and checks them and `x_max`."""
        desc, blob = load_with_blob(json_path, "engine descriptor", DESCRIPTOR_KEYS,
                                    optional=("format", "version", "name"))
        if desc.get("format") != "xbar-engine":
            raise ValidationError(f"{json_path} is not an engine descriptor")
        shape, dac, adc = desc["shape"], desc["dac"], desc["adc"]
        try:
            config = CrossbarConfig.from_dict(desc["config"])
            if not (isinstance(shape, list) and len(shape) == 2
                    and all(is_int(k) and k >= 1 for k in shape)):
                raise ValueError(f"shape must be 2 integers >= 1, got {shape!r}")
            (m, n), rows, cols = shape, config.rows, config.cols
            size = 8 * (m * n + rows * cols)
            if len(blob) != size:
                raise ValidationError(
                    f"blob {desc['blob_file']} holds {len(blob)} bytes, not the {size} "
                    f"of {m}x{n} weights and {rows}x{cols} conductances")
            # a copy, so that it does not hold the blob; the solver copies g_device
            weights = np.frombuffer(blob, dtype="<f8", count=m * n).reshape(m, n).copy()
            _, mapping = map_weights(weights, config, desc["x_max"])
            col_scale = _numbers(desc["col_scale"], cols, "col_scale")
            if not isinstance(desc["conversion"], dict):
                raise TypeError("conversion must be an object")
            dac = None if dac is None else DacSpec(v_max=config.v_sense_max, **dac)
            adc = None if adc is None else AdcSpec(**adc)
            readout = ReadoutMap.from_dict(desc["readout"], n)
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(
                f"engine descriptor {json_path} has a malformed entry: {exc!r}") from exc
        g_device = np.frombuffer(blob, dtype="<f8", offset=8 * m * n).reshape(rows, cols)
        return cls(weights, mapping, CrossbarSolver(config, g_device), col_scale,
                   desc["conversion"], dac, adc, readout, desc.get("name", "engine"))


def default_sample_inputs(rows, x_max=1.0, count=32, seed=0):
    """Uniform random non-negative sample inputs for range/readout fitting."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, x_max, size=(count, rows))


def program(weights, config=None, x_max=1.0, method="transfer",
            target_scale="auto", signal_fraction=DEFAULT_SIGNAL_FRACTION,
            max_iter=100):
    """Map and convert a weight matrix onto a crossbar (steps 1-2).

    Converts with a flat signal at signal_fraction * v_sense_max; under
    method "transfer" the conductances do not depend on it. The crossbar
    defaults to one sized to the weights. Returns the crossbar's VmmEngine,
    with no DAC or ADC and the nominal readout.
    """
    A = np.asarray(weights, dtype=float)
    if config is None:
        if A.ndim != 2:
            raise ValidationError(f"weights must be 2-D, got shape {A.shape}")
        config = CrossbarConfig(rows=A.shape[0], cols=A.shape[1])
    g_target, mapping = map_weights(A, config, x_max)
    v_conv = np.full(config.rows, signal_fraction * config.v_sense_max)
    result = convert(config, g_target, v_conv, method=method,
                     target_scale=target_scale, max_iter=max_iter)
    info = {"method": method, "target_scale": target_scale,
            "signal_fraction": signal_fraction,
            "iterations": result.iterations, "converged": result.converged,
            "col_error": result.col_error,
            "clipped_low": result.clipped_low,
            "clipped_high": result.clipped_high}
    return VmmEngine(A, mapping, result.solver, result.col_scale, info)


def build_engine(programmed, *, dac_bits=None, adc_bits=None, sample_inputs=None,
                 calibrate=True, cali_sample_count=DEFAULT_CALI_SAMPLES, seed=0,
                 name="engine"):
    """Read out a programmed VmmEngine as a new ready-to-run one (steps 3-4).

    A bare weight matrix is first programmed with `program`'s defaults;
    conversion arguments go to `program` only. The new engine is `programmed`
    with its own DAC, ADC, readout and name: it shares the arrays and the
    solver, converts nothing and leaves `programmed` as it was. The readout
    attaches the DAC, fits the ADC reference range to observed sample
    currents, then fits the readout map (`get_cali_para`), or keeps the
    nominal one if not `calibrate`. When no sample inputs are given, uniform
    random ones are generated from `seed`.
    """
    check_int(cali_sample_count, "calibration sample count", 2)
    if not isinstance(programmed, VmmEngine):
        programmed = program(programmed)
    dac = (None if dac_bits is None else
           DacSpec(bits=dac_bits, v_max=programmed.config.v_sense_max))
    engine = replace(programmed, dac=dac, adc=None, readout=None, name=name)
    if (calibrate or adc_bits is not None) and sample_inputs is None:
        sample_inputs = default_sample_inputs(engine.shape[0],
                                              engine.mapping.x_max, seed=seed)
    if adc_bits is not None:
        engine.adc = calibrate_adc_range(adc_bits, engine.raw_currents(sample_inputs))
    if calibrate:
        engine.readout = get_cali_para(engine, sample_inputs,
                                       sample_count=cali_sample_count, seed=seed)
    return engine


def evaluate_engine(engine, inputs):
    """Relative-error statistics of an engine against the exact product."""
    from .metrics import RelErrorStats
    X = np.asarray(inputs, dtype=float)
    actual = engine.execute_batch(X)
    ideal = X @ engine.weights
    return RelErrorStats.from_outputs(actual, ideal)


def optimize_conversion_signal(programmed, *, sample_inputs=None, seed=0, **readout):
    """Sweep the flat conversion-signal amplitudes SIGNAL_AMPLITUDES and pick
    the most accurate.

    `programmed` is a VmmEngine from a "transfer" conversion, whose
    conductances do not depend on the signal amplitude. Each amplitude
    (a fraction of v_sense_max) reads it out once with the `readout`
    arguments of `build_engine` and evaluates the mean relative error over
    the sample inputs. Returns (best_fraction, report) where report lists
    per-amplitude statistics. Ties within numerical noise resolve to the
    largest amplitude, which has the best analog signal-to-noise ratio in
    hardware.
    """
    if not (isinstance(programmed, VmmEngine)
            and programmed.conversion_info["method"] == "transfer"):
        raise ValidationError(
            "the sweep reads out one engine from a transfer conversion; a "
            "branch conversion depends on the signal amplitude")
    report = []
    for frac in SIGNAL_AMPLITUDES:
        engine = build_engine(programmed, sample_inputs=sample_inputs, seed=seed,
                              **readout)
        X = sample_inputs if sample_inputs is not None else default_sample_inputs(
            engine.shape[0], engine.mapping.x_max, seed=seed)
        stats = evaluate_engine(engine, X)
        report.append({"fraction": float(frac), "mean": stats.mean,
                       "worst": stats.worst})
    best = min(entry["mean"] for entry in report)
    tie = best * (1.0 + 1e-9) + 1e-15
    chosen = max(entry["fraction"] for entry in report if entry["mean"] <= tie)
    return chosen, report
