"""Dense-mapping convolution lowering tests."""

import numpy as np
import pytest

from xbarsim.convmap import (ConvSpec, FeatureMap, conv_reference,
                             conv_reference_loops, unroll_kernel, window_matrix)
from xbarsim.errors import ValidationError
from xbarsim.metrics import gen_input, gen_kernel
from xbarsim.netrunner import (LayerSpec, NetworkModel, build_resnet20_model,
                               run_inference)


def make_spec(kh, kw, ic, oc, stride=1, padding=0, seed=0):
    return ConvSpec(kh, kw, ic, oc, stride=stride, padding=padding,
                    weights=gen_kernel(1, (kh, kw, ic, oc), seed))


def run_conv(fm, spec, **kwargs):
    """One conv layer through the analog path of `run_inference`.

    The model is image -> conv -> softmax, so the report's logits are the
    conv output in raster order.
    """
    params = {"kernel_h": spec.kernel_h, "kernel_w": spec.kernel_w,
              "in_channels": spec.in_channels,
              "out_channels": spec.out_channels, "stride": spec.stride,
              "padding": spec.padding}
    model = NetworkModel("one-conv", [
        LayerSpec("image", "input", params={
            "height": fm.height, "width": fm.width, "channels": fm.channels}),
        LayerSpec("conv", "conv", params=params, predecessors=["image"],
                  weights=unroll_kernel(spec)),
        LayerSpec("softmax", "softmax", predecessors=["conv"])])
    _, report = run_inference(model, fm, mode="analog", **kwargs)
    oh, ow = spec.output_shape(fm.height, fm.width)
    return FeatureMap(report.logits.reshape(oh, ow, spec.out_channels)), report


def test_unroll_shapes_match_layer_table():
    assert unroll_kernel(make_spec(3, 3, 3, 16)).shape == (27, 16)
    assert unroll_kernel(make_spec(1, 1, 16, 32)).shape == (16, 32)


def test_unroll_single_weight():
    spec = ConvSpec(1, 1, 1, 1, weights=np.full((1, 1, 1, 1), 2.5))
    assert np.array_equal(unroll_kernel(spec), [[2.5]])


def test_window_counts():
    fm = FeatureMap(gen_input((32, 32, 3), 0.0, seed=0))
    spec = make_spec(3, 3, 3, 16, stride=1, padding=1)
    X = window_matrix(fm, spec)
    assert X.shape == (1024, 27)
    fm = FeatureMap(gen_input((32, 32, 16), 0.0, seed=1))
    spec = make_spec(3, 3, 16, 32, stride=2, padding=1)
    assert window_matrix(fm, spec).shape == (256, 144)


def test_window_single_pixel():
    fm = FeatureMap(np.full((1, 1, 1), 0.7))
    spec = ConvSpec(1, 1, 1, 1, weights=np.ones((1, 1, 1, 1)))
    X = window_matrix(fm, spec)
    assert np.array_equal(X, [[0.7]])


def window_matrix_loops(fm, spec):
    """One row per output position in raster order, each filled element by
    element: channel-major, then kernel row, then kernel column."""
    oh, ow = spec.output_shape(fm.height, fm.width)
    p, s = spec.padding, spec.stride
    padded = np.pad(fm.data, ((p, p), (p, p), (0, 0)))
    rows = []
    for oy in range(oh):
        for ox in range(ow):
            rows.append([padded[oy * s + ky, ox * s + kx, c]
                         for c in range(spec.in_channels)
                         for ky in range(spec.kernel_h)
                         for kx in range(spec.kernel_w)])
    return np.array(rows)


def test_window_matrix_matches_patch_loop():
    fm = FeatureMap(gen_input((7, 10, 3), 0.3, seed=2))
    for stride in (1, 2, 3):
        for padding in (0, 1):
            spec = make_spec(3, 2, 3, 1, stride=stride, padding=padding)
            got = window_matrix(fm, spec)
            ref = window_matrix_loops(fm, spec)
            assert got.shape == ref.shape
            assert got.flags.c_contiguous
            assert np.array_equal(got, ref)


def test_window_unroll_ordering_consistency():
    # dot(window vector, unrolled column) equals the direct convolution sum
    fm = FeatureMap(gen_input((5, 7, 3), 0.2, seed=3))
    spec = make_spec(3, 3, 3, 4, stride=2, padding=1, seed=4)
    got = conv_reference(fm, spec)
    ref = conv_reference_loops(fm, spec)
    assert np.allclose(got.data, ref.data, rtol=0, atol=1e-12)


def test_conv_execute_ideal_engine_matches_loop_oracle():
    fm = FeatureMap(gen_input((6, 6, 3), 0.4, seed=5))
    spec = make_spec(3, 3, 3, 4, padding=1, seed=6)
    out, _ = run_conv(fm, spec, engine_kwargs={"ideal": True})
    ref = conv_reference_loops(fm, spec)
    rng = ref.data.max() - ref.data.min()
    assert np.abs(out.data - ref.data).max() / rng <= 1e-6


def test_conv_execute_identity_kernel():
    fm = FeatureMap(gen_input((4, 4, 1), 0.0, seed=7))
    spec = ConvSpec(1, 1, 1, 1, weights=np.ones((1, 1, 1, 1)))
    out, _ = run_conv(fm, spec, engine_kwargs={"ideal": True})
    assert np.allclose(out.data, fm.data, rtol=0, atol=1e-9)


def test_conv_execute_error_rows():
    fm = FeatureMap(gen_input((4, 4, 2), 0.0, seed=8))
    spec = make_spec(3, 3, 2, 2, padding=1, seed=9)
    out, report = run_conv(fm, spec, taps=["conv"])
    assert len(report.rows) == out.data.size
    # rows carry no layer name: the one tapped layer's count covers them all
    assert list(report.aggregates) == ["conv"]
    assert report.aggregates["conv"]["count"] == len(report.rows)
    w, j, ideal, actual, rel = report.rows[0]
    assert (w, j) == (0, 0)
    assert out.data.ravel()[0] == actual
    assert ideal == (window_matrix(fm, spec) @ unroll_kernel(spec))[0, 0]


def test_layer_table_shapes_and_iterations():
    expected = {
        "conv0": ((27, 16), 1024),
        "conv1": ((144, 16), 1024),
        "sum1": ((16, 16), 1024),
        "sum2": ((16, 32), 256),
        "conv7": ((144, 32), 256),
        "conv8": ((288, 32), 256),
        "sum3": ((32, 64), 64),
        "conv13": ((288, 64), 64),
        "conv14": ((576, 64), 64),
        "conv18": ((576, 64), 64),
        "fc": ((64, 10), 1),
    }
    model = build_resnet20_model(0)
    for name, (shape, iters) in expected.items():
        assert model.layer(name).weight_shape == shape
        assert model.windows[name] == iters


def test_sequential_iteration_total():
    model = build_resnet20_model(0)
    assert model.sequential_windows == 9089
    # the shortcut layers run beside their blocks' convolutions, off the
    # longest path
    assert model.windows["sum1"] == 1024
    assert sum(model.windows.values()) - model.sequential_windows == 1024 + 256 + 64


def test_geometry_validation():
    with pytest.raises(ValidationError):
        ConvSpec(3, 3, 2, 2, padding=-1)
    with pytest.raises(ValidationError):
        ConvSpec(3, 3, 2, 2, weights=np.zeros((3, 3, 2, 3)))
    fm = FeatureMap(gen_input((2, 2, 2), 0.0, seed=0))
    with pytest.raises(ValidationError):
        window_matrix(fm, make_spec(3, 3, 2, 2, padding=0))
    with pytest.raises(ValidationError):
        window_matrix(fm, make_spec(3, 3, 4, 2, padding=1))
