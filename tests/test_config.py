"""Crossbar configuration validation tests."""

import math

import pytest

from xbarsim.config import CrossbarConfig
from xbarsim.errors import ValidationError

FIELDS = ("rows", "cols", "g_min", "g_max", "r_wire", "r_in", "r_out",
          "r_transistor_on", "v_sense_max")


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1"])
def test_config_rejects_values_that_are_not_finite_numbers(field, value):
    # a NaN r_wire would otherwise fail `r_wire > 0` and run the lumped model
    with pytest.raises(ValidationError, match=f"{field} must be a finite number"):
        CrossbarConfig(**{"rows": 4, "cols": 3, field: value})
    with pytest.raises(ValidationError, match=f"{field} must be a finite number"):
        CrossbarConfig.from_dict({"rows": 4, "cols": 3, field: value})

