"""Crossbar configuration validation tests."""

import math

import numpy as np
import pytest

from xbarsim.config import CrossbarConfig
from xbarsim.errors import ValidationError

FIELDS = ("rows", "cols", "g_min", "g_max", "r_wire", "r_in", "r_out",
          "r_transistor_on", "v_sense_max")


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1", True])
def test_config_rejects_values_that_are_not_finite_numbers(field, value):
    # a NaN r_wire would otherwise fail `r_wire > 0` and run the lumped model
    with pytest.raises(ValidationError, match=f"{field} must be a finite number"):
        CrossbarConfig(**{"rows": 4, "cols": 3, field: value})
    with pytest.raises(ValidationError, match=f"{field} must be a finite number"):
        CrossbarConfig.from_dict({"rows": 4, "cols": 3, field: value})



@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("value", [16.0, 2.5])
def test_config_rejects_sizes_that_are_not_integers(field, value):
    # a float size would reach numpy shapes and fail there with a TypeError
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        CrossbarConfig.from_dict({"rows": 4, "cols": 3, field: value})
    assert CrossbarConfig.from_dict({"rows": 4, "cols": 3, field: np.int64(16)})
