"""The one rule for integers and numbers, and the checks built on it."""

import math

import numpy as np
import pytest

from xbarsim.errors import (ValidationError, check_int, check_number, is_int,
                            is_number)


@pytest.mark.parametrize("value, integer, number", [
    (3, True, True), (np.int64(3), True, True), (np.uint8(3), True, True),
    (2.0, False, True), (np.float32(0.5), False, True), (True, False, False),
    (np.bool_(True), False, False), (math.nan, False, False),
    (-math.inf, False, False), ("1", False, False), (None, False, False)])
def test_a_bool_is_no_integer_and_no_number(value, integer, number):
    assert is_int(value) is integer
    assert is_number(value) is number


def test_checks_return_the_value_or_name_it():
    assert check_int(np.int64(2), "count", 2) == 2
    assert check_number(0, "c", 0) == 0
    with pytest.raises(ValidationError, match=r"^seed must be an integer >= 0, got True$"):
        check_int(True, "seed")
    with pytest.raises(ValidationError, match=r"^count must be an integer >= 2, got 1$"):
        check_int(1, "count", 2)
    with pytest.raises(ValidationError, match=r"^x must be a finite number > 0, got 0$"):
        check_number(0, "x", 0, strict=True)
    with pytest.raises(ValidationError, match=r"^c must be a finite number >= 0, got -1.0$"):
        check_number(-1.0, "c", 0)
    with pytest.raises(ValidationError, match=r"^r must be a finite number, got nan$"):
        check_number(math.nan, "r")
