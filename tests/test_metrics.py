"""Error-metric formulas and synthetic data generator tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbarsim.errors import ValidationError
from xbarsim.metrics import (RelErrorStats, bit_accuracy, gen_input,
                             gen_kernel, output_range, relative_error)


def test_relative_error_trivials():
    assert relative_error(1.0, 1.0, 2.0) == 0.0
    assert relative_error(3.0, 1.0, 2.0) == 1.0


@settings(max_examples=50, deadline=None)
@given(actual=st.floats(-10, 10), ideal=st.floats(-10, 10),
       rng=st.floats(0.1, 10), k=st.floats(0.01, 100))
def test_relative_error_scale_invariant(actual, ideal, rng, k):
    base = relative_error(actual, ideal, rng)
    scaled = relative_error(k * actual, k * ideal, k * rng)
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_relative_error_rejects_zero_range():
    with pytest.raises(ValidationError):
        relative_error(1.0, 1.0, 0.0)


def test_bit_accuracy_reference_points():
    assert 8.6 <= bit_accuracy(0.0025) <= 8.7
    assert 6.3 <= bit_accuracy(0.012) <= 6.5
    assert bit_accuracy(1.0) == pytest.approx(1.0)


def test_bit_accuracy_decreasing_and_near_b_for_powers_of_two():
    values = [bit_accuracy(e) for e in (0.001, 0.01, 0.1, 0.5)]
    assert values == sorted(values, reverse=True)
    for b in range(4, 11):
        assert bit_accuracy(2.0 ** -b) == pytest.approx(b, abs=0.1)


def test_bit_accuracy_rejects_zero():
    with pytest.raises(ValidationError):
        bit_accuracy(0.0)


def test_gen_kernel_type3_no_zero_fraction():
    w = gen_kernel(3, (3, 3, 4, 4), seed=1, zero_fraction=0.0)
    assert set(np.unique(w)) <= {-1.0, 1.0}


def test_gen_kernel_type2_dead_zone():
    w = gen_kernel(2, (3, 3, 8, 8), seed=2, dead_zone=0.2)
    assert np.abs(w).min() >= 0.2


def test_gen_kernel_type1_near_zero_mean():
    w = gen_kernel(1, (5, 5, 10, 10), seed=3)
    assert abs(w.mean()) <= 3.0 / np.sqrt(w.size)


def test_gen_kernel_deterministic():
    a = gen_kernel(1, (3, 3, 2, 2), seed=7)
    b = gen_kernel(1, (3, 3, 2, 2), seed=7)
    assert np.array_equal(a, b)


def test_gen_kernel_rejects_bad_type():
    with pytest.raises(ValidationError):
        gen_kernel(4, (1, 1, 1, 1), seed=0)


def test_gen_input_exact_zero_count():
    x = gen_input((10, 10), 0.57, seed=4)
    assert np.count_nonzero(x == 0.0) == 57
    assert x.min() >= 0.0


def test_gen_input_extremes():
    assert np.all(gen_input((5, 5), 1.0, seed=0) == 0.0)
    assert np.count_nonzero(gen_input((5, 5), 0.0, seed=0) == 0.0) == 0


def test_rel_error_stats_histogram_mass():
    rng = np.random.default_rng(5)
    ideal = rng.normal(size=200)
    actual = ideal + rng.normal(scale=0.01, size=200)
    stats = RelErrorStats.from_outputs(actual, ideal)
    assert stats.histogram.sum() == stats.sample_count == 200
    assert stats.worst >= stats.mean >= 0.0
    assert stats.output_range == pytest.approx(output_range(ideal))
