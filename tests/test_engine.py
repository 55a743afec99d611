"""Weight mapping, conversion, calibration, and engine execution tests."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbarsim.circuit import CrossbarSolver, oracle_solve
from xbarsim.config import CrossbarConfig
from xbarsim import circuit as circuit_mod, engine as engine_mod
from xbarsim.convmap import ConvSpec, FeatureMap, unroll_kernel, window_matrix
from xbarsim.engine import (CONVERGED_TOL, SIGNAL_AMPLITUDES, VmmEngine,
                            build_engine, check_inputs, convert, default_sample_inputs,
                            evaluate_engine, get_cali_para, map_weights,
                            optimize_conversion_signal, program)
from xbarsim.errors import SolverError, ValidationError
from xbarsim.metrics import gen_input, gen_kernel
from xbarsim.netrunner import build_resnet20_model
from xbarsim.quantize import dac_quantize

IDEAL = dict(r_wire=0.0, r_in=0.0, r_out=0.0)


def ideal_config(rows, cols):
    return CrossbarConfig(rows, cols, **IDEAL)


def test_map_weights_symmetric_example():
    config = CrossbarConfig(2, 2)
    g, mapping = map_weights([[-1.0, 0.0], [0.0, 1.0]], config)
    mid = (config.g_min + config.g_max) / 2.0
    assert mapping.c == 1.0
    assert mapping.beta == pytest.approx((config.g_max - config.g_min) / 2.0)
    assert np.allclose(g, [[config.g_min, mid], [mid, config.g_max]])


def test_map_weights_all_zero():
    config = CrossbarConfig(3, 3)
    g, mapping = map_weights(np.zeros((3, 3)), config)
    assert mapping.c == 0.0
    assert np.all(g == config.g_min)


def test_map_weights_ternary_three_levels():
    config = CrossbarConfig(6, 6)
    w = gen_kernel(3, (6, 6), seed=0, zero_fraction=0.4)
    g, _ = map_weights(w, config)
    mid = (config.g_min + config.g_max) / 2.0
    levels = np.unique(np.round(g, 12))
    assert np.allclose(levels, np.round([config.g_min, mid, config.g_max], 12))


def test_map_weights_pads_unused_cells_with_g_min():
    config = CrossbarConfig(4, 4)
    g, _ = map_weights(np.ones((2, 2)), config)
    assert np.all(g[2:, :] == config.g_min)
    assert np.all(g[:, 2:] == config.g_min)


def test_map_weights_validation():
    config = CrossbarConfig(2, 2)
    with pytest.raises(ValidationError):
        map_weights(np.ones((3, 2)), config)
    with pytest.raises(ValidationError):
        map_weights([[np.nan, 0.0], [0.0, 0.0]], config)
    with pytest.raises(ValidationError):
        map_weights(np.ones((2, 2)), config, x_max=0.0)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 1000))
def test_shift_identity_exact(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(5, 3))
    x = rng.uniform(0.0, 1.0, size=5)
    c = max(0.0, -A.min())
    assert np.allclose(x @ (A + c) - c * x.sum(), x @ A, rtol=0, atol=1e-12)


def test_convert_zero_parasitics_is_identity():
    config = ideal_config(4, 3)
    g, _ = map_weights(gen_kernel(1, (4, 3), 0), config)
    result = convert(config, g, np.full(4, 0.02))
    assert np.array_equal(result.g_device, g)
    assert result.converged
    assert np.all(result.col_scale == 1.0)


def test_convert_column_outputs_match_scaled_targets():
    config = CrossbarConfig(144, 16)
    g, _ = map_weights(gen_kernel(1, (3, 3, 16, 16), 0).reshape(144, 16), config)
    v_conv = np.full(144, 0.1 * config.v_sense_max)
    result = convert(config, g, v_conv)
    i_out = CrossbarSolver(config, result.g_device).solve(v_conv).i_out
    target = result.col_scale * (v_conv @ g)
    assert np.abs(i_out - target).max() / np.abs(target).max() <= 1e-4
    assert result.col_error <= 1e-4


def test_convert_small_unclamped_array_converges_tightly():
    config = CrossbarConfig(8, 4)
    rng = np.random.default_rng(1)
    # mid-range targets leave compensation headroom on both sides
    g = rng.uniform(config.g_min * 3, config.g_max * 0.7, size=(8, 4))
    result = convert(config, g, np.full(8, 0.02))
    assert result.converged
    assert result.col_error <= 1e-6


def test_convert_stays_in_device_range():
    config = CrossbarConfig(32, 8)
    g, _ = map_weights(gen_kernel(1, (32, 8), 2), config)
    result = convert(config, g, np.full(32, 0.02))
    assert result.g_device.min() >= config.g_min - 1e-18
    assert result.g_device.max() <= config.g_max + 1e-18


def test_convert_compensates_upward_under_wire_loss():
    config = CrossbarConfig(8, 4)
    rng = np.random.default_rng(3)
    g = rng.uniform(config.g_min * 2, config.g_max * 0.5, size=(8, 4))
    result = convert(config, g, np.full(8, 0.02))
    interior = (result.g_device > config.g_min) & (result.g_device < config.g_max)
    assert np.all(result.g_device[interior] >= g[interior] - 1e-15)


def test_convert_branch_method_matches_targets():
    config = CrossbarConfig(16, 4)
    g, _ = map_weights(gen_kernel(1, (16, 4), 4), config)
    v_conv = np.full(16, 0.02)
    result = convert(config, g, v_conv, method="branch")
    i_out = CrossbarSolver(config, result.g_device).solve(v_conv).i_out
    target = result.col_scale * (v_conv @ g)
    assert np.abs(i_out - target).max() / np.abs(target).max() <= 1e-5


def test_convert_absolute_targets_report_saturation():
    config = CrossbarConfig(288, 32)
    g, _ = map_weights(gen_kernel(1, (3, 3, 32, 32), 5).reshape(288, 32), config)
    result = convert(config, g, np.full(288, config.v_sense_max),
                     method="branch", target_scale=1.0, max_iter=20)
    # unreachable absolute targets: not converged, many ceiling-pinned devices
    assert not result.converged
    assert result.clipped_high > 0


@pytest.mark.parametrize("method, target_scale, max_iter, stop", [
    ("transfer", "auto", 100, "converged"),
    ("branch", "auto", 100, "converged"),
    ("transfer", 1.0, 100, "stalled"),
    ("transfer", 1.0, 1, "max_iter"),
    ("branch", 1.0, 1, "max_iter"),
])
def test_convert_error_belongs_to_returned_conductances(method, target_scale,
                                                        max_iter, stop):
    config = CrossbarConfig(16, 4)
    g, _ = map_weights(gen_kernel(1, (16, 4), 4), config)
    v_conv = np.full(16, 0.02)
    result = convert(config, g, v_conv, method=method,
                     target_scale=target_scale, max_iter=max_iter)
    assert result.stop == stop
    assert result.converged == (stop == "converged")
    # only the max_iter exit applies all max_iter updates
    assert (result.iterations == max_iter) == (stop == "max_iter")
    solver = CrossbarSolver(config, result.g_device)
    i_out = (v_conv @ solver.transfer_matrix() if method == "transfer"
             else solver.solve(v_conv, check_range=False).i_out)
    i_unit = v_conv @ g
    col_error = np.abs(i_out - result.col_scale * i_unit).max() / np.abs(i_unit).max()
    assert col_error == pytest.approx(result.col_error, rel=1e-12)


@pytest.mark.parametrize("shape, seed", [((3, 3, 16, 16), 0), ((3, 3, 32, 32), 5)],
                         ids=["144x16", "288x32"])
def test_early_exits_stay_near_full_conversion(monkeypatch, shape, seed):
    A = gen_kernel(1, shape, seed).reshape(-1, shape[-1])
    config = CrossbarConfig(*A.shape)
    g, _ = map_weights(A, config)
    v_conv = np.full(A.shape[0], 0.1 * config.v_sense_max)
    early = convert(config, g, v_conv)
    # reference: no converged exit, and a stall only on updates below both
    # 1e-12 and half of col_error, so at 144x16 the guard keeps it going to
    # max_iter; the early exit's devices measured 3.0e-6 from it at 288x32
    monkeypatch.setattr("xbarsim.engine.G_TOL", 1e-12)
    monkeypatch.setattr("xbarsim.engine.CONVERGED_TOL", -1.0)
    full = convert(config, g, v_conv)
    assert full.iterations > early.iterations
    rel = np.abs(early.g_device - full.g_device) / full.g_device
    assert rel.max() <= 1e-5
    assert abs(early.col_error - full.col_error) <= CONVERGED_TOL


def _convert_flat(A):
    """`program`'s conversion of the weights A, with its mapping."""
    config = CrossbarConfig(*A.shape)
    g, mapping = map_weights(A, config)
    return convert(config, g, np.full(A.shape[0], 0.1 * config.v_sense_max)), mapping


@pytest.mark.parametrize("name", ["conv0", "conv1", "sum1", "conv5", "conv6"])
def test_converging_layers_keep_the_stall_rule_of_g_tol_1e_6(monkeypatch, name):
    # the ResNet-20 stage-1 layers that converge (conv2, conv3 and conv4
    # stall): each update moves some device by at least half the column
    # error, so the guard never stalls them, and G_TOL does not matter
    layer = next(l for l in build_resnet20_model(0).layers if l.name == name)
    now, _ = _convert_flat(layer.weights)
    monkeypatch.setattr("xbarsim.engine.G_TOL", 1e-6)
    old, _ = _convert_flat(layer.weights)
    assert now.stop == old.stop == "converged"
    assert now.iterations == old.iterations
    assert np.array_equal(now.g_device, old.g_device)


@pytest.mark.parametrize("seed, updates", [(7, 7), (3, 8)])
def test_plateaued_conversion_stalls_near_full_conversion(monkeypatch, seed, updates):
    # the criterion-6 layer clips devices: its column error stays near 1e-4
    # while its updates shrink about 5x a pass, so it stalls once none moves
    # a device by G_TOL (after 9 and 10 updates at 1e-6); its held-out
    # windows read out within 1e-3 (bits none) and 2e-5 (8 bits) of a full
    # conversion's means, measured 4.7e-4 and 3.7e-6 at seed 7
    spec = ConvSpec(3, 3, 64, 64, padding=1, weights=gen_kernel(1, (3, 3, 64, 64), seed))
    A = unroll_kernel(spec)
    fit, held = (window_matrix(FeatureMap(gen_input((8, 8, 64), 0.5, seed + k)), spec)
                 for k in (1, 2))

    def held_out_means():
        result, mapping = _convert_flat(A)
        programmed = VmmEngine(A, mapping, result.solver, result.col_scale, {})
        none = build_engine(programmed, calibrate=False)
        q8 = build_engine(programmed, dac_bits=8, adc_bits=8, sample_inputs=fit,
                          calibrate=False)
        return result, np.array([evaluate_engine(e, held).mean for e in (none, q8)])

    early, means = held_out_means()
    assert early.stop == "stalled" and early.iterations <= updates
    monkeypatch.setattr("xbarsim.engine.G_TOL", 1e-12)
    monkeypatch.setattr("xbarsim.engine.CONVERGED_TOL", -1.0)
    full, full_means = held_out_means()
    assert full.iterations > early.iterations
    rel = np.abs(means - full_means) / full_means
    assert rel[0] <= 1e-3 and rel[1] <= 2e-5


def test_transfer_conversion_ignores_signal_amplitude():
    for shape in ((3, 3, 3, 8), (3, 3, 16, 16)):
        A = gen_kernel(1, shape, 0).reshape(-1, shape[-1])
        config = CrossbarConfig(*A.shape)
        g, _ = map_weights(A, config)
        low, high = (convert(config, g, np.full(A.shape[0], f * config.v_sense_max))
                     for f in (0.001, 1.0))
        assert np.array_equal(low.g_device, high.g_device)


def test_convert_validation():
    config = CrossbarConfig(4, 4)
    g, _ = map_weights(np.zeros((4, 4)), config)
    with pytest.raises(ValidationError):
        convert(config, g, np.full(3, 0.02))
    with pytest.raises(ValidationError):
        convert(config, g, np.full(4, 0.02), method="nope")
    with pytest.raises(ValidationError):
        convert(config, g, np.zeros(4), method="branch")
    v_max = config.v_sense_max
    # a signal outside (0, v_sense_max] under either method
    for method in ("transfer", "branch"):
        for signal in (0.0, -0.01, np.nan, np.inf, 1.01 * v_max):
            with pytest.raises(ValidationError, match="conversion signal"):
                convert(config, g, np.full(4, signal), method=method)
    for target_scale in (0.0, -1.0, 1.5, np.nan, "foo", None, True):
        with pytest.raises(ValidationError, match="target_scale"):
            convert(config, g, np.full(4, 0.02), target_scale=target_scale)
    for max_iter in (-3, 2.5, None, True):
        with pytest.raises(ValidationError, match="max_iter"):
            convert(config, g, np.full(4, 0.02), max_iter=max_iter)
    # the range ends and numpy scalars are accepted
    convert(config, g, np.full(4, v_max), target_scale=1, max_iter=np.int64(0))
    convert(config, g, np.full(4, 0.02), target_scale=np.float64(0.5), max_iter=0)
    # program converts at signal_fraction * v_sense_max
    for kwargs in ({"signal_fraction": 0.0}, {"signal_fraction": np.nan},
                   {"signal_fraction": 1.5}, {"target_scale": 0.0},
                   {"target_scale": -1.0}, {"target_scale": "foo"}, {"max_iter": -3}):
        with pytest.raises(ValidationError):
            program(gen_kernel(1, (4, 4), 0), **kwargs)


def test_calibration_ideal_engine_nominal_gain_zero_offset():
    A = gen_kernel(1, (12, 5), 6)
    engine = build_engine(program(A, config=ideal_config(12, 5)), seed=0)
    nominal = 1.0 / (engine.mapping.alpha * engine.mapping.beta)
    assert np.allclose(engine.readout.gain, nominal, rtol=1e-9)
    assert np.abs(engine.readout.offset).max() <= 1e-9 * nominal
    assert engine.readout.sample_count == 10


def test_calibration_two_point_line_single_cell():
    engine = build_engine(np.array([[0.5]]), calibrate=False, seed=0)
    samples = np.array([[0.2], [0.9]])
    cali = get_cali_para(engine, samples)
    i = engine.corrected_currents(samples)[:, 0]
    y = samples[:, 0] * (0.5 + engine.mapping.c)
    gain = (y[1] - y[0]) / (i[1] - i[0])
    assert cali.gain[0] == pytest.approx(gain, rel=1e-12)
    assert cali.offset[0] == pytest.approx(y[0] - gain * i[0], rel=1e-9)


def test_calibration_improves_on_uncorrected_conversion():
    # absolute-target conversion leaves a systematic wire-loss attenuation
    # that the fitted per-column readout absorbs
    A = gen_kernel(1, (3, 3, 16, 16), 7).reshape(144, 16)
    X = default_sample_inputs(144, count=64, seed=1)
    programmed = program(A, method="branch", target_scale=1.0,
                         signal_fraction=1.0)
    cal = build_engine(programmed, sample_inputs=X, seed=0)
    raw = build_engine(programmed, sample_inputs=X, calibrate=False, seed=0)
    assert evaluate_engine(cal, X).mean < evaluate_engine(raw, X).mean


def test_calibration_degenerate_column_flagged():
    # with no negative weights the shift c is 0, so an all-zero column
    # carries zero current for every sample and cannot be fitted
    A = np.array([[0.5, 0.0], [0.25, 0.0]])
    engine = build_engine(program(A, config=ideal_config(2, 2)), calibrate=False,
                          seed=0)
    samples = np.array([[0.1, 0.2], [0.4, 0.3], [0.7, 0.1]])
    cali = get_cali_para(engine, samples)
    assert cali.degenerate == [1]
    assert np.isfinite(cali.gain).all()
    assert cali.gain[1] != 0.0
    assert cali.offset[1] == pytest.approx(0.0, abs=1e-12)


def test_fit_matches_per_column_polyfit():
    # a parasitic 144x16 array with non-negative weights (c = 0) and one
    # all-zero column; the 30 windows permute one window, so the zero
    # column's 8-bit currents and its baseline do not change between them
    A = np.abs(gen_kernel(1, (3, 3, 16, 16), 7).reshape(144, 16))
    A[:, 5] = 0.0
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, size=144)
    X = np.array([rng.permutation(x) for _ in range(30)])
    engine = build_engine(A, adc_bits=8, sample_inputs=X, calibrate=False, seed=0)
    fit = get_cali_para(engine, X, sample_count=30)
    # the per-column fit the closed form replaces
    i = engine.corrected_currents(X)
    y = X @ (engine.weights + engine.mapping.c)
    nominal = 1.0 / (engine.mapping.alpha * engine.mapping.beta * engine.col_scale[:16])
    gain, offset, degenerate = np.zeros(16), np.zeros(16), []
    for j in range(16):
        if np.ptp(i[:, j]) < 1e-18:
            gain[j] = nominal[j]
            offset[j] = np.mean(y[:, j] - gain[j] * i[:, j])
            degenerate.append(j)
        else:
            gain[j], offset[j] = np.polyfit(i[:, j], y[:, j], 1)
    assert degenerate == [5]
    assert fit.degenerate == [5]
    assert fit.sample_count == 30
    assert np.abs(fit.gain - gain).max() <= 1e-12 * np.abs(gain).min()
    assert np.abs(fit.offset - offset).max() <= 1e-12 * np.abs(y).max()


@pytest.mark.parametrize("kwargs", [
    {}, dict(dac_bits=8), dict(dac_bits=6, adc_bits=6),
    dict(config=CrossbarConfig(8, 4, r_wire=0.0, r_in=0.0, r_out=0.0))])
def test_nominal_readout_keeps_the_bits_of_the_nominal_formula(kwargs, monkeypatch):
    config = kwargs.pop("config", None)
    A = gen_kernel(1, (8, 3), 23)    # negative weights, so c > 0
    engine = build_engine(program(A, config=config), calibrate=False, seed=0, **kwargs)
    m = engine.mapping
    s = engine.col_scale[:3]

    def nominal_formula(raw, X):
        return ((raw - np.outer(m.alpha * engine.config.g_min * X.sum(axis=1), s))
                * (1.0 / (m.alpha * m.beta * s)) - m.c * X.sum(axis=1)[:, None])

    X = np.vstack([np.zeros(8), np.full(8, -0.0), np.full(8, -1e-13),
                   default_sample_inputs(8, count=12, seed=7)])
    want = nominal_formula(engine.raw_currents(X), X)
    assert m.c > 0.0
    assert engine.readout.sample_count == 0 and engine.readout.degenerate == []
    assert engine.execute_batch(X).tobytes() == want.tobytes()
    # a current of -0.0 keeps its sign bit through the readout, as through
    # the formula, for no input makes the nominal offset add a +0.0
    raw = np.full((2, 3), -0.0)
    monkeypatch.setattr(engine, "_raw_currents", lambda X: raw)
    assert np.signbit(nominal_formula(raw, np.zeros((2, 8)))).all()
    assert engine.execute_batch(np.zeros((2, 8))).tobytes() == \
        nominal_formula(raw, np.zeros((2, 8))).tobytes()


def test_execute_ideal_engine_matches_double_loop_oracle():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(10, 4))
    engine = build_engine(program(A, config=ideal_config(10, 4)), seed=0)
    X = rng.uniform(0.0, 1.0, size=(6, 10))
    got = engine.execute_batch(X)
    ref = np.zeros((6, 4))
    for k in range(6):
        for j in range(4):
            for i in range(10):
                ref[k, j] += X[k, i] * A[i, j]
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() / scale <= 1e-9


def test_execute_zero_input_gives_zero_output():
    A = gen_kernel(1, (8, 3), 9)
    engine = build_engine(program(A, config=ideal_config(8, 3)), seed=0)
    y = engine.execute(np.zeros(8))
    assert np.abs(y).max() <= 1e-6


def test_execute_validates_inputs():
    engine = build_engine(gen_kernel(1, (4, 2), 10), seed=0)
    with pytest.raises(ValidationError):
        engine.execute([0.1, 0.2, 0.3])
    with pytest.raises(ValidationError):
        engine.execute([0.1, 0.2, 0.3, 1.5])
    with pytest.raises(ValidationError):
        engine.execute([0.1, -0.2, 0.3, 0.4])


def test_empty_batch_gives_empty_outputs():
    # a (0, rows) batch passes validation as the solver's currents do, with
    # and without quantizers and calibration
    A = gen_kernel(1, (16, 4), 10)
    for kwargs in ({}, dict(dac_bits=8, adc_bits=8,
                            sample_inputs=default_sample_inputs(16, count=6, seed=1))):
        engine = build_engine(A, seed=0, **kwargs)
        for method in (engine.execute_batch, engine.corrected_currents,
                       engine.raw_currents):
            assert method(np.empty((0, 16))).shape == (0, 4), method.__name__
        assert engine.solver.currents(np.empty((0, engine.config.rows))).shape == (0, 4)


def test_each_public_call_validates_once(monkeypatch):
    engine = build_engine(gen_kernel(1, (16, 4), 10), dac_bits=8, adc_bits=8,
                          seed=0)
    X = default_sample_inputs(16, count=6, seed=1)
    calls = []
    validate = VmmEngine._validate_inputs

    def counting_validate(self, X):
        calls.append(X)
        return validate(self, X)

    monkeypatch.setattr(VmmEngine, "_validate_inputs", counting_validate)
    for method in (engine.execute_batch, engine.corrected_currents,
                   engine.raw_currents):
        calls.clear()
        method(X)
        assert len(calls) == 1, method.__name__


def test_engine_with_padded_array_matches_product():
    A = gen_kernel(1, (5, 3), 11)
    config = ideal_config(8, 6)   # larger than the weights
    engine = build_engine(program(A, config=config), seed=0)
    rng = np.random.default_rng(12)
    X = rng.uniform(0.0, 1.0, size=(4, 5))
    got = engine.execute_batch(X)
    ref = X @ A
    assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-9


def test_engine_deterministic_across_rebuilds():
    A = gen_kernel(1, (16, 4), 13)
    X = default_sample_inputs(16, count=20, seed=2)
    e1 = build_engine(A, sample_inputs=X, dac_bits=8, adc_bits=8, seed=5)
    e2 = build_engine(A, sample_inputs=X, dac_bits=8, adc_bits=8, seed=5)
    assert np.array_equal(e1.readout.gain, e2.readout.gain)
    assert np.array_equal(e1.execute_batch(X), e2.execute_batch(X))


def test_raw_currents_match_node_solves():
    # the transfer-matrix path against per-row node-voltage solves
    A = gen_kernel(1, (16, 4), 16)
    engine = build_engine(A, dac_bits=8, calibrate=False, seed=0)
    X = default_sample_inputs(16, count=12, seed=4)
    got = engine.raw_currents(X)
    V = dac_quantize(engine.mapping.alpha * X, engine.dac)
    ref = np.array([engine.solver.solve(v, check_range=False).i_out for v in V])
    assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-12


def test_build_factorizes_once_per_conversion_pass(monkeypatch):
    built = []
    init = CrossbarSolver.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CrossbarSolver, "__init__", counting_init)
    A = gen_kernel(1, (16, 4), 18)
    X = default_sample_inputs(16, count=4, seed=5)
    for method in ("transfer", "branch"):
        built.clear()
        engine = build_engine(program(A, method=method), calibrate=False, seed=0)
        passes = engine.conversion_info["iterations"] + 1
        assert len(built) == passes
        assert engine.solver is built[-1]
        engine.execute_batch(X)   # runs on the conversion's last solver
        assert len(built) == passes


def test_engine_serialization_round_trip(tmp_path):
    A = gen_kernel(1, (12, 4), 14)
    engine = build_engine(A, dac_bits=8, adc_bits=8, seed=0)
    json_path, blob_path = engine.save(tmp_path / "engine.json")
    clone = VmmEngine.load(json_path)
    X = default_sample_inputs(12, count=8, seed=3)
    assert np.array_equal(engine.execute_batch(X), clone.execute_batch(X))
    clone.save(tmp_path / "clone.json")
    assert (tmp_path / "engine.bin").read_bytes() == (tmp_path / "clone.bin").read_bytes()


@pytest.mark.parametrize("bits", [None, 8], ids=["bits-none", "bits-8"])
@pytest.mark.parametrize("crossbar, x_max", [
    ({"rows": 16, "cols": 6, "r_wire": 0.5}, 2.0),
    ({"rows": 12, "cols": 4, "r_wire": 0.0, "r_in": 2.0, "r_out": 3.0}, 1.0)],
    ids=["padded", "lumped"])
def test_loaded_engine_executes_to_the_same_bits(tmp_path, bits, crossbar, x_max):
    # the loader maps the weights again, and takes the DAC range from config
    A = gen_kernel(1, (12, 4), 25)
    X = default_sample_inputs(12, x_max=x_max, count=8, seed=4)
    engine = build_engine(program(A, CrossbarConfig.from_dict(crossbar), x_max=x_max),
                          dac_bits=bits, adc_bits=bits, seed=1)
    json_path, _ = engine.save(tmp_path / "engine.json")
    clone = VmmEngine.load(json_path)
    assert clone.mapping == engine.mapping
    assert (clone.dac, clone.adc) == (engine.dac, engine.adc)
    assert clone.execute_batch(X).tobytes() == engine.execute_batch(X).tobytes()


def test_saved_engine_loads_back_as_the_same_record(tmp_path):
    engine = build_engine(gen_kernel(1, (12, 4), 14), dac_bits=8, adc_bits=6, seed=2,
                          name="conv3")
    json_path, _ = engine.save(tmp_path / "engine.json")
    clone = VmmEngine.load(json_path)
    for field in ("weights", "g_device", "col_scale"):
        assert np.array_equal(getattr(clone, field), getattr(engine, field))
    assert (clone.config, clone.mapping) == (engine.config, engine.mapping)
    assert clone.conversion_info == engine.conversion_info
    assert clone.readout.to_dict() == engine.readout.to_dict()
    assert (clone.dac, clone.adc, clone.name) == (engine.dac, engine.adc, "conv3")


def test_loaded_engine_holds_one_read_only_copy_of_g_device(tmp_path):
    engine = build_engine(gen_kernel(1, (12, 4), 14), seed=0)
    json_path, _ = engine.save(tmp_path / "engine.json")
    clone = VmmEngine.load(json_path)
    assert np.array_equal(clone.g_device, engine.g_device)
    assert clone.g_device is clone.solver.g
    assert not clone.g_device.flags.writeable
    with pytest.raises(ValueError):
        clone.g_device[0, 0] = 1e-5


def test_nominal_readout_is_saved_and_loaded(tmp_path):
    engine = build_engine(gen_kernel(1, (12, 4), 14), calibrate=False, seed=0)
    json_path, _ = engine.save(tmp_path / "engine.json")
    desc = json.loads(json_path.read_text())
    assert desc["version"] == 3 and "calibration" not in desc
    readout = desc["readout"]
    assert sorted(readout) == ["baseline", "degenerate", "gain", "offset", "sample_count"]
    assert readout["sample_count"] == 0 and readout["degenerate"] == []
    assert readout["offset"] == [0.0] * 4
    assert readout["baseline"] == engine.col_scale[:4].tolist()
    clone = VmmEngine.load(json_path)
    X = default_sample_inputs(12, count=8, seed=3)
    assert clone.execute_batch(X).tobytes() == engine.execute_batch(X).tobytes()


def test_descriptor_stores_no_field_the_loader_works_out(tmp_path):
    engine = build_engine(gen_kernel(1, (12, 4), 14), dac_bits=8, adc_bits=8, seed=0)
    json_path, _ = engine.save(tmp_path / "engine.json")
    desc = json.loads(json_path.read_text())
    assert sorted(desc) == sorted([
        "format", "version", "name", "config", "x_max", "shape", "col_scale",
        "conversion", "dac", "adc", "readout", "blob_file", "blob_sha256"])
    assert desc["dac"] == {"bits": 8} and desc["x_max"] == 1.0
    # the weights, then the 12x4 crossbar's conductances
    assert len((tmp_path / "engine.bin").read_bytes()) == 8 * (12 * 4 + 12 * 4)


@pytest.mark.parametrize("edit", [lambda raw: raw[:-8], lambda raw: raw + bytes(8)],
                         ids=["short", "long"])
def test_engine_load_rejects_a_blob_of_the_wrong_length(tmp_path, edit):
    engine = build_engine(gen_kernel(1, (4, 2), 15), seed=0)
    json_path, blob_path = engine.save(tmp_path / "engine.json")
    blob = edit(blob_path.read_bytes())
    blob_path.write_bytes(blob)
    desc = json.loads(json_path.read_text())
    desc["blob_sha256"] = hashlib.sha256(blob).hexdigest()
    json_path.write_text(json.dumps(desc))
    with pytest.raises(ValidationError, match=f"holds {len(blob)} bytes, not the 128"):
        VmmEngine.load(json_path)


def test_version_2_descriptor_is_rejected(tmp_path):
    # version 2 stored the mapping and an offset table of three arrays in
    # place of x_max; it fails the key check, whatever its blob holds
    engine = build_engine(gen_kernel(1, (4, 2), 15), seed=0)
    json_path, _ = engine.save(tmp_path / "engine.json")
    desc = json.loads(json_path.read_text())
    desc.update(version=2, mapping={"c": engine.mapping.c, "alpha": engine.mapping.alpha,
                                    "beta": engine.mapping.beta, "x_max": desc.pop("x_max")},
                arrays={key: {"offset": 64 * i, "shape": [4, 2]}
                        for i, key in enumerate(("weights", "g_target", "g_device"))})
    json_path.write_text(json.dumps(desc))
    with pytest.raises(ValidationError, match=r"missing keys: \['x_max'\]"):
        VmmEngine.load(json_path)


def test_version_1_descriptor_is_rejected(tmp_path):
    engine = build_engine(gen_kernel(1, (4, 2), 15), seed=0)
    json_path, _ = engine.save(tmp_path / "engine.json")
    desc = json.loads(json_path.read_text())
    readout = desc.pop("readout")
    desc.update(version=1, calibration={k: readout[k] for k in
                                        ("gain", "offset", "sample_count", "degenerate")})
    json_path.write_text(json.dumps(desc))
    with pytest.raises(ValidationError, match=r"missing keys: \['readout'\]"):
        VmmEngine.load(json_path)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.update(mapping={"alpha": 99.0}),
     r"engine descriptor .*engine.json has unknown keys: \['mapping'\]"),
    (lambda d: d.update(arrays={}, g_target=[]),
     r"engine descriptor .*engine.json has unknown keys: \['arrays', 'g_target'\]"),
    (lambda d: d["readout"].update(c=5.0),
     r"malformed entry.*readout has unknown keys: \['c'\]")],
    ids=["mapping", "arrays-and-g_target", "readout-c"])
def test_engine_load_rejects_keys_it_does_not_read(tmp_path, edit, match):
    # fields that version 2 stored and the loader now works out are refused,
    # not dropped
    engine = build_engine(gen_kernel(1, (12, 4), 3), dac_bits=8, adc_bits=8, seed=0)
    json_path, _ = engine.save(tmp_path / "engine.json")
    desc = json.loads(json_path.read_text())
    edit(desc)
    json_path.write_text(json.dumps(desc))
    with pytest.raises(ValidationError, match=match):
        VmmEngine.load(json_path)


@pytest.mark.parametrize("edit, match", [
    (lambda r: r.update(baseline=[1.0]), "readout baseline must be 2 numbers"),
    (lambda r: r.pop("baseline"), "KeyError.*baseline"),
    (lambda r: r.update(sample_count=-1), "sample count must be an integer >= 2, got -1"),
    (lambda r: r.update(sample_count=0, degenerate=[1]), "none at sample_count 0")],
    ids=["baseline-per-column", "no-baseline", "sample_count-negative",
         "degenerate-at-nominal"])
def test_engine_load_rejects_malformed_readout(tmp_path, edit, match):
    engine = build_engine(gen_kernel(1, (4, 2), 15), seed=0)
    json_path, _ = engine.save(tmp_path / "engine.json")
    desc = json.loads(json_path.read_text())
    edit(desc["readout"])
    json_path.write_text(json.dumps(desc))
    with pytest.raises(ValidationError, match=match):
        VmmEngine.load(json_path)


def test_engine_load_detects_corruption(tmp_path):
    engine = build_engine(gen_kernel(1, (4, 2), 15), seed=0)
    json_path, blob_path = engine.save(tmp_path / "engine.json")
    raw = bytearray(blob_path.read_bytes())
    raw[0] ^= 0xFF
    blob_path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError):
        VmmEngine.load(json_path)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.pop("blob_sha256"), r"missing keys: \['blob_sha256'\]"),
    (lambda d: d.pop("x_max"), r"missing keys: \['x_max'\]"),
    # the blob holds the 4x2 weights and the 4x2 crossbar's conductances, 128 bytes
    (lambda d: d.update(shape=[5, 2]),
     r"engine.bin holds 128 bytes, not the 144 of 5x2 weights and 4x2 conductances"),
    (lambda d: d.update(shape=[-4, 2]), r"malformed entry.*shape must be 2 integers >= 1"),
    (lambda d: d.update(readout={}), "malformed entry.*gain"),
    (lambda d: d.update(dac=[8, 1.0]), "malformed entry"),
    # parsed inside the same guard, so none of these escapes as a TypeError
    # or ValueError
    (lambda d: d.update(config=5), "malformed entry"),
    (lambda d: d.update(conversion=[1]), "malformed entry.*conversion must be an object"),
    (lambda d: d.update(col_scale=["1", "2"]), "malformed entry.*col_scale must be 2 numbers"),
    (lambda d: d.update(col_scale=None), "malformed entry.*col_scale must be 2 numbers"),
    (lambda d: d.update(blob_file=7), "blob_file is not a string"),
    # checked at load, not coerced, nor left to fail in the first execute
    (lambda d: d.update(x_max=-1.0), "x_max must be a finite number > 0, got -1.0"),
    (lambda d: d.update(x_max=True), "x_max must be a finite number > 0, got True"),
    # an integer past the float range
    (lambda d: d.update(x_max=10 ** 400), "malformed entry.*OverflowError"),
    (lambda d: d.update(shape=[4.7, 2]), r"malformed entry.*shape must be 2 integers"),
    (lambda d: d.update(shape=[8]), r"malformed entry.*shape must be 2 integers"),
    # as many weights as the blob holds, but wider than the 4x2 crossbar
    (lambda d: d.update(shape=[2, 4]), r"weights 2x4 do not fit 4x2 array"),
    (lambda d: d["readout"].update(gain=["1", "2"]),
     "malformed entry.*readout gain must be 2 numbers"),
    (lambda d: d["readout"].update(gain=[1.0, 2.0, 3.0]),
     "malformed entry.*readout gain must be 2 numbers"),
    (lambda d: d["readout"].update(offset=[0.0, True]),
     "malformed entry.*readout offset must be 2 numbers"),
    (lambda d: d["readout"].update(sample_count=2.7),
     "calibration sample count must be an integer >= 2, got 2.7"),
    (lambda d: d["readout"].update(sample_count=True),
     "calibration sample count must be an integer >= 2, got True"),
    (lambda d: d["readout"].update(sample_count=1),
     "calibration sample count must be an integer >= 2, got 1"),
    (lambda d: d["readout"].update(degenerate="ab"),
     r"malformed entry.*readout degenerate must be distinct column indices in \[0, 2\)"),
    (lambda d: d["readout"].update(degenerate=[1, 1]),
     "malformed entry.*readout degenerate must be distinct column indices"),
    (lambda d: d["readout"].update(degenerate=[2]),
     "malformed entry.*readout degenerate must be distinct column indices"),
    (lambda d: d["readout"].update(degenerate=[0.0]),
     "malformed entry.*readout degenerate must be distinct column indices")],
    ids=["no-blob_sha256", "no-x_max", "past-blob-end", "negative-dim",
         "no-calibration-gain",
         "dac-not-a-mapping", "config-not-an-object", "conversion-not-an-object",
         "col_scale-not-numbers", "col_scale-null", "blob_file-not-a-string",
         "x_max-negative", "x_max-bool", "x_max-past-float-range", "shape-not-integers",
         "shape-1d", "weights-wider-than-crossbar", "calibration-gain-strings",
         "calibration-gain-per-column", "calibration-offset-bool",
         "calibration-sample_count-float", "calibration-sample_count-bool",
         "calibration-sample_count-one", "calibration-degenerate-string",
         "calibration-degenerate-repeated", "calibration-degenerate-past-cols",
         "calibration-degenerate-float"])
def test_engine_load_rejects_incomplete_descriptor(tmp_path, edit, match):
    engine = build_engine(gen_kernel(1, (4, 2), 15), seed=0)
    json_path, _ = engine.save(tmp_path / "engine.json")
    desc = json.loads(json_path.read_text())
    edit(desc)
    json_path.write_text(json.dumps(desc))
    with pytest.raises(ValidationError, match=match):
        VmmEngine.load(json_path)


TOP_LEVEL_FIELDS = sorted(engine_mod.DESCRIPTOR_KEYS | {"format", "version", "name", "shape"})


@pytest.mark.parametrize("field", TOP_LEVEL_FIELDS)
def test_malformed_descriptor_loads_or_is_rejected(tmp_path, field):
    """Any JSON value in any top-level field of a descriptor either loads
    or is a ValidationError."""
    engine = build_engine(gen_kernel(1, (4, 2), 15), adc_bits=8, seed=0)
    json_path, _ = engine.save(tmp_path / "engine.json")
    desc = json.loads(json_path.read_text())
    assert sorted(desc) == TOP_LEVEL_FIELDS
    for value in (5, 1.5, "x", [1], {}, None, True):
        json_path.write_text(json.dumps({**desc, field: value}))
        try:
            VmmEngine.load(json_path)
        except ValidationError:
            pass


def test_engine_load_rejects_non_finite_adc_range(tmp_path):
    engine = build_engine(gen_kernel(1, (4, 2), 15), adc_bits=8, seed=0)
    json_path, _ = engine.save(tmp_path / "engine.json")
    desc = json.loads(json_path.read_text())
    desc["adc"]["i_max"] = float("nan")
    json_path.write_text(json.dumps(desc))
    with pytest.raises(ValidationError, match="ADC range must be finite"):
        VmmEngine.load(json_path)


@pytest.mark.parametrize("spec, key, value", [
    ("adc", "i_max", True), ("adc", "i_min", False), ("dac", "clip_count", "x"),
    ("adc", "clip_count", -1), ("adc", "clip_count", 1.0)])
def test_engine_load_rejects_quantizer_values_that_are_not_numbers(tmp_path, spec,
                                                                   key, value):
    # a bool is no range end and a clip count is an integer >= 0: neither
    # loads to fail, or count wrongly, in the first execute
    engine = build_engine(gen_kernel(1, (4, 2), 15), dac_bits=8, adc_bits=8, seed=0)
    json_path, _ = engine.save(tmp_path / "engine.json")
    desc = json.loads(json_path.read_text())
    desc[spec][key] = value
    json_path.write_text(json.dumps(desc))
    with pytest.raises(ValidationError, match=spec.upper()):
        VmmEngine.load(json_path)


def test_engine_load_rejects_non_finite_config(tmp_path):
    engine = build_engine(gen_kernel(1, (4, 2), 15), seed=0)
    json_path, _ = engine.save(tmp_path / "engine.json")
    desc = json.loads(json_path.read_text())
    desc["config"]["r_wire"] = float("nan")
    json_path.write_text(json.dumps(desc))
    with pytest.raises(ValidationError, match="r_wire must be a finite number"):
        VmmEngine.load(json_path)


@pytest.mark.parametrize("count", [1, 0, -1, 2.0, "3", True])
def test_bad_calibration_sample_count_rejected_before_conversion(monkeypatch,
                                                                 count):
    A = gen_kernel(1, (4, 2), 22)
    X = default_sample_inputs(4, count=6, seed=1)
    engine = build_engine(A, calibrate=False, seed=0)
    converted = []
    monkeypatch.setattr(engine_mod, "convert",
                        lambda *args, **kwargs: converted.append(args))
    with pytest.raises(ValidationError, match="sample count"):
        build_engine(A, cali_sample_count=count, seed=0)
    assert not converted
    with pytest.raises(ValidationError, match="sample count"):
        get_cali_para(engine, X, sample_count=count)


def test_optimize_signal_zero_parasitics_tie_breaks_to_largest():
    A = gen_kernel(1, (16, 4), 16)
    frac, report = optimize_conversion_signal(
        program(A, config=ideal_config(16, 4)), seed=0)
    assert frac == 1.0
    assert len(report) == len(SIGNAL_AMPLITUDES)


@pytest.mark.parametrize("method", ["transfer", "branch"])
def test_readout_of_a_program_equals_a_full_build(method):
    A = gen_kernel(1, (16, 4), 19)
    X = default_sample_inputs(16, count=12, seed=6)
    programmed = program(A, method=method)
    g = programmed.solver.g.copy()
    for readout in (dict(seed=3), dict(dac_bits=6, adc_bits=6, seed=4),
                    dict(calibrate=False, adc_bits=8, seed=3)):
        shared = build_engine(programmed, **readout)
        full = build_engine(program(A, method=method), **readout)
        assert shared.solver is programmed.solver
        assert shared.conversion_info == full.conversion_info
        assert np.array_equal(shared.execute_batch(X), full.execute_batch(X))
    assert np.array_equal(programmed.solver.g, g)


def test_a_programmed_engine_reads_out_as_a_nominal_build():
    # `program` returns the crossbar's one record: no quantizers, nominal readout
    A = gen_kernel(1, (16, 4), 23)
    X = default_sample_inputs(16, count=8, seed=7)
    programmed = program(A)
    assert isinstance(programmed, VmmEngine)
    assert (programmed.dac, programmed.adc, programmed.name) == (None, None, "engine")
    assert programmed.readout.sample_count == 0
    built = build_engine(program(A), calibrate=False)
    assert programmed.execute_batch(X).tobytes() == built.execute_batch(X).tobytes()


def test_a_readout_shares_the_array_and_leaves_the_programmed_engine():
    programmed = program(gen_kernel(1, (16, 4), 24))
    before = (programmed.dac, programmed.adc, programmed.readout, programmed.name)
    engine = build_engine(programmed, dac_bits=8, adc_bits=8, seed=1, name="conv9")
    after = (programmed.dac, programmed.adc, programmed.readout, programmed.name)
    assert all(a is b for a, b in zip(before, after))
    for field in ("weights", "col_scale", "solver"):
        assert getattr(engine, field) is getattr(programmed, field)
    assert (engine.dac.bits, engine.adc.bits, engine.name) == (8, 8, "conv9")
    assert engine.readout is not programmed.readout and engine.readout.sample_count > 0


def test_programmed_array_keeps_t_and_drops_its_grid_factor(monkeypatch):
    # inference reads only T, so the criterion-6 576x64 array holds no grid
    # factor once programmed; `solve` makes it again, to the bits a fresh
    # solver on the same g gives, and keeps it for the next solve
    A = unroll_kernel(ConvSpec(3, 3, 64, 64, padding=1,
                               weights=gen_kernel(1, (3, 3, 64, 64), 7)))
    solver = program(A).solver
    T = solver.transfer_matrix()
    assert solver._lu is None
    made, slab_factor = [], circuit_mod._SlabFactor

    def counting_slab_factor(*args):
        made.append(args)
        return slab_factor(*args)

    monkeypatch.setattr(circuit_mod, "_SlabFactor", counting_slab_factor)
    v = np.random.default_rng(8).uniform(0.0, solver.config.v_sense_max, size=576)
    fresh = CrossbarSolver(solver.config, solver.g)
    want = fresh.solve(v)
    assert len(made) == 1
    for _ in range(2):   # the second solve reuses the factor the first made
        got = solver.solve(v)
        assert len(made) == 2 and solver._lu is not None
        for field in ("v_top", "v_bot", "i_out"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
    assert solver.transfer_matrix() is T
    assert np.array_equal(T, fresh.transfer_matrix())


def test_a_transfer_conversion_checks_only_the_array_it_returns(monkeypatch):
    # every pass steers on an unchecked T; one residual check, on every
    # node of the returned array, runs per `program` (one per pass before,
    # 8 on the criterion-6 576x64 layer), and then the grid factor goes
    A = gen_kernel(1, (3, 3, 16, 16), 0).reshape(144, 16)
    residuals, worst_residual = [], circuit_mod._worst_residual

    def recording_worst_residual(num2, den2):
        residuals.append(worst_residual(num2, den2))
        return residuals[-1]

    monkeypatch.setattr(circuit_mod, "_worst_residual", recording_worst_residual)
    engine = program(A)
    assert engine.conversion_info["iterations"] == 5
    assert len(residuals) == 1 and engine.solver._lu is None
    # the same conversion with RESIDUAL_TOL below the returned array's
    # residual refuses it, after as many arrays as it steered through
    made, slab_factor = [], circuit_mod._SlabFactor

    def counting_slab_factor(*args):
        made.append(args)
        return slab_factor(*args)

    monkeypatch.setattr(circuit_mod, "_SlabFactor", counting_slab_factor)
    monkeypatch.setattr(circuit_mod, "RESIDUAL_TOL", 0.99 * residuals[0])
    with pytest.raises(SolverError, match="residual"):
        program(A)
    assert len(made) == 6


def test_a_non_finite_steering_transfer_is_a_solver_error(monkeypatch):
    # an unchecked T is still checked finite, so the first pass raises, and
    # not the next one's conductance check with a ValidationError
    made, transfer = [], circuit_mod._SlabFactor.transfer

    def poisoned_transfer(self):
        made.append(self)
        T = transfer(self)
        T[0, 0] = np.nan
        return T

    monkeypatch.setattr(circuit_mod._SlabFactor, "transfer", poisoned_transfer)
    with pytest.raises(SolverError, match="non-finite"):
        program(gen_kernel(1, (16, 4), 3))
    assert len(made) == 1


def test_a_conversion_steers_off_an_array_that_fails_the_check(monkeypatch):
    # at r_wire = 1e10 the mapped targets of a 32x8 array read a residual
    # about ten times that of the array one update steers to (9-18 times
    # over seeds 0-5), and a solve about twenty times. With RESIDUAL_TOL
    # between the two check residuals, the mapped array's T is refused; a
    # conversion, checked once, steers off it and returns the array whose
    # T passes, and a solve on that array is still refused
    config = CrossbarConfig(32, 8, r_wire=1e10)
    A = np.random.default_rng(0).normal(size=(32, 8))
    residuals, worst_residual = [], circuit_mod._worst_residual

    def recording_worst_residual(num2, den2):
        residuals.append(worst_residual(num2, den2))
        return residuals[-1]

    monkeypatch.setattr(circuit_mod, "_worst_residual", recording_worst_residual)
    monkeypatch.setattr(circuit_mod, "RESIDUAL_TOL", np.inf)
    CrossbarSolver(config, map_weights(A, config)[0]).transfer_matrix()
    program(A, config).solver.solve(np.full(32, 0.1))
    mapped, returned, solved = residuals
    assert mapped > 4 * returned and solved > 4 * returned
    monkeypatch.setattr(circuit_mod, "RESIDUAL_TOL", np.sqrt(mapped * returned))
    with pytest.raises(SolverError, match="residual"):
        CrossbarSolver(config, map_weights(A, config)[0]).transfer_matrix()
    engine = program(A, config)
    assert engine.conversion_info["iterations"] == 1
    T = engine.solver.transfer_matrix()
    assert np.isfinite(T).all()
    with pytest.raises(SolverError, match="residual"):
        engine.solver.solve(np.full(32, 0.1))


def test_program_takes_no_conversion_arguments_again():
    # conversion arguments go to `program` only; a readout has none
    A = gen_kernel(1, (4, 2), 20)
    programmed = program(A)
    for weights in (A, programmed):
        with pytest.raises(TypeError, match="method"):
            build_engine(weights, method="branch")
    with pytest.raises(TypeError, match="max_iter"):
        optimize_conversion_signal(programmed, max_iter=3)


def test_optimize_signal_shares_only_a_transfer_program(monkeypatch):
    A = gen_kernel(1, (16, 4), 21)
    X = default_sample_inputs(16, count=8, seed=2)
    for not_transfer in (program(A, method="branch"), A):
        with pytest.raises(ValidationError, match="engine from a transfer conversion"):
            optimize_conversion_signal(not_transfer, sample_inputs=X)
    calls = []
    counted = engine_mod.convert

    def counting_convert(*args, **kwargs):
        calls.append(kwargs["method"])
        return counted(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "convert", counting_convert)
    _, report = optimize_conversion_signal(program(A), sample_inputs=X, adc_bits=8)
    assert calls == ["transfer"]
    # one array programmed per amplitude gives the same report, bit for bit
    for entry, frac in zip(report, SIGNAL_AMPLITUDES):
        stats = evaluate_engine(build_engine(program(A, signal_fraction=frac),
                                             sample_inputs=X, adc_bits=8), X)
        assert (entry["mean"], entry["worst"]) == (stats.mean, stats.worst)


def test_improvement_over_direct_mapping():
    A = gen_kernel(1, (3, 3, 16, 16), 17).reshape(144, 16)
    X = default_sample_inputs(144, count=64, seed=4)
    improved = build_engine(A, sample_inputs=X, seed=0)
    direct = build_engine(program(A, max_iter=0), sample_inputs=X, seed=0,
                          calibrate=False)
    assert evaluate_engine(improved, X).mean < evaluate_engine(direct, X).mean


@pytest.mark.parametrize("bad, message", [
    ([np.nan], "non-finite"), ([np.inf], "non-finite"), ([-np.inf], "non-finite"),
    ([np.nan, 2.0], "non-finite"), ([-0.1], r"must lie in \[0, 1.0\]"),
    ([1.01], r"must lie in \[0, 1.0\]")])
def test_check_inputs_words_each_refusal(bad, message):
    # one range test refuses every bad batch; a non-finite entry is named
    # as such, a finite out-of-range one by the range
    X = np.full((3, 4), 0.5)
    X.flat[:len(bad)] = bad
    with pytest.raises(ValidationError, match=message):
        check_inputs(X, 4, 1.0)
    assert check_inputs(np.r_[0.0, -1e-13, 1.0, 1.0 + 1e-10], 4, 1.0).shape == (1, 4)
