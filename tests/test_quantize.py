"""Uniform DAC/ADC quantizer model tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbarsim.errors import ValidationError
from xbarsim.quantize import (AdcSpec, DacSpec, _quantize, adc_quantize,
                              calibrate_adc_range, dac_quantize)


def test_dac_two_bit_grid():
    # 4 levels over [0, 0.2]: {0, 0.0667, 0.1333, 0.2}; 0.11 rounds up
    spec = DacSpec(bits=2, v_max=0.2)
    assert dac_quantize(0.11, spec) == pytest.approx(0.2 * 2 / 3, rel=1e-12)


def test_dac_disabled_is_identity():
    spec = DacSpec(bits=None, v_max=0.2)
    v = np.array([0.0123456, 0.19999])
    assert np.array_equal(dac_quantize(v, spec), v)


def test_dac_top_of_range_maps_to_top_code():
    spec = DacSpec(bits=8, v_max=0.2)
    assert dac_quantize(0.2, spec) == pytest.approx(0.2, rel=1e-12)


def test_adc_eight_bit_microamp_grid():
    # LSB = 255 uA / 255 = 1 uA
    spec = AdcSpec(bits=8, i_max=255e-6)
    assert adc_quantize(100.4e-6, spec) == pytest.approx(100e-6, rel=1e-12)
    assert adc_quantize(0.0, spec) == 0.0


def test_adc_clamps_and_counts_out_of_range():
    spec = AdcSpec(bits=8, i_max=255e-6)
    assert adc_quantize(300e-6, spec) == pytest.approx(255e-6, rel=1e-12)
    assert spec.clip_count == 1
    adc_quantize(np.array([256e-6, 100e-6, -1e-6]), spec)
    assert spec.clip_count == 3


@pytest.mark.parametrize("lo, hi", [(0.0, 3.0), (1.0, 4.0), (0.0, 0.2), (2e-6, 257e-6)])
@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_quantize_is_the_rounding_formula_bit_for_bit(lo, hi, shape):
    # the clipped-then-in-place rounding against the formula it implements,
    # with out-of-range values, -0.0 and, where the LSB is 1, exact
    # half-levels, which round up; the clip count is unchanged
    bits, size = 2, int(np.prod(shape))
    lsb = (hi - lo) / (2 ** bits - 1)
    rng = np.random.default_rng(size)
    special = [-0.0, lo - lsb, hi + lsb, lo + 0.5 * lsb, lo + 1.5 * lsb, lo + 2.5 * lsb, hi]
    x = np.r_[special, rng.uniform(lo - lsb, hi + lsb, size=size)][:size].reshape(shape)
    if not shape:
        x = x[()]
    spec = AdcSpec(bits=bits, i_min=lo, i_max=hi)
    got = _quantize(x, lo, hi, bits, spec)
    want = lo + np.floor((np.clip(x, lo, hi) - lo) / lsb + 0.5) * lsb
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert spec.clip_count == np.count_nonzero((x < lo) | (x > hi))
    if lsb == 1.0 and size >= len(special):
        assert list(np.ravel(got)[3:6]) == [lo + 1.0, lo + 2.0, lo + 3.0]


@settings(max_examples=100, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=0.2),
       bits=st.integers(min_value=2, max_value=16))
def test_quantization_error_bound(x, bits):
    spec = DacSpec(bits=bits, v_max=0.2)
    lsb = 0.2 / (2 ** bits - 1)
    assert abs(dac_quantize(x, spec) - x) <= lsb / 2 + 1e-15


@settings(max_examples=100, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=0.2),
       bits=st.integers(min_value=2, max_value=12))
def test_quantization_idempotent(x, bits):
    spec = DacSpec(bits=bits, v_max=0.2)
    once = dac_quantize(x, spec)
    assert dac_quantize(once, spec) == once


@settings(max_examples=100, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=1e-4),
       y=st.floats(min_value=0.0, max_value=1e-4),
       bits=st.integers(min_value=2, max_value=12))
def test_quantization_monotonic(x, y, bits):
    spec = AdcSpec(bits=bits, i_max=1e-4)
    lo, hi = sorted((x, y))
    assert adc_quantize(lo, spec) <= adc_quantize(hi, spec)


def test_calibrate_adc_range_headroom():
    spec = calibrate_adc_range(8, np.array([50e-6, 200e-6, 120e-6]))
    assert spec.i_max == pytest.approx(210e-6, rel=1e-12)
    assert spec.i_min == 0.0


def test_calibrate_adc_range_clip_rate_in_distribution():
    rng = np.random.default_rng(0)
    sample = rng.uniform(0.0, 100e-6, size=500)
    spec = calibrate_adc_range(8, sample)
    fresh = rng.uniform(0.0, 100e-6, size=2000)
    adc_quantize(fresh, spec)
    assert spec.clip_count / fresh.size <= 0.05


def test_calibrate_adc_range_rejects_degenerate_samples():
    with pytest.raises(ValidationError):
        calibrate_adc_range(8, np.array([]))
    with pytest.raises(ValidationError):
        calibrate_adc_range(8, np.zeros(4))


def test_bit_width_bounds():
    with pytest.raises(ValidationError):
        DacSpec(bits=1, v_max=0.2)
    with pytest.raises(ValidationError):
        AdcSpec(bits=17, i_max=1e-4)
    with pytest.raises(ValidationError):
        AdcSpec(bits=8, i_max=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantizer_ranges_must_be_finite(bad):
    with pytest.raises(ValidationError, match="finite"):
        DacSpec(bits=8, v_max=bad)
    with pytest.raises(ValidationError, match="finite"):
        AdcSpec(bits=8, i_max=bad)
    with pytest.raises(ValidationError, match="finite"):
        AdcSpec(bits=8, i_max=1e-4, i_min=bad)
    with pytest.raises(ValidationError, match="finite"):
        calibrate_adc_range(8, np.array([1e-6, bad]))
