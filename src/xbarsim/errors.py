"""Exception types shared across the package, and its one rule for values:
an integer is a `numbers.Integral` (an int or an `np.integer`), a number is
a finite `numbers.Real`, and a bool is neither. `check_int` and
`check_number` raise a ValidationError that names the value they refuse."""

import math
import numbers


class ValidationError(ValueError):
    """A contract violation: bad dimensions, out-of-range values, bad files."""


class SolverError(RuntimeError):
    """The linear system could not be solved to the requested tolerance.

    Carries the achieved residual when one is available.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def is_int(value):
    """Whether `value` is an integer; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value):
    """Whether `value` is a finite real number; a bool is not. An int past
    the float range raises OverflowError."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def check_int(value, what, low=0):
    """`value` if it is an integer >= `low`; else a ValidationError naming `what`."""
    if not (is_int(value) and value >= low):
        raise ValidationError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def check_number(value, what, low=None, strict=False):
    """`value` if it is a number, and with `low` also >= `low` (> `low` if
    `strict`), else a ValidationError naming it `what`."""
    if not (is_number(value) and (low is None or value > low
                                  or (value == low and not strict))):
        bound = "" if low is None else f" {'>' if strict else '>='} {low}"
        raise ValidationError(f"{what} must be a finite number{bound}, got {value!r}")
    return value
