"""Shared exception types, and the one rule for what a number is: a `finite_number`
is a real number, not a bool, that is finite as a float; an `integer` is an `Integral`,
a numpy one included, that is not a bool; a `valid_seed` is an `integer` >= 0. No test
raises for a value of another type: each caller raises its own typed error, for a
string as for a nan."""

import math
from numbers import Integral, Real


class BsnsimError(ValueError):
    """Base of every error bsnsim raises for bad input or parameters."""


class ParameterError(BsnsimError):
    """An argument violates an operation's precondition."""


class FrameError(BsnsimError):
    """A sensor frame or frame buffer is malformed (bad field, short buffer, bad CRC)."""


class ScenarioError(BsnsimError):
    """A scenario file failed to parse or validate; `line` is the offending line, if one is."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UndefinedBatteryLifeError(BsnsimError):
    """Battery life is undefined because the average current is zero."""


def finite_number(value) -> bool:
    """A float skips the `Real` test (0.4 µs): the calibration fits build thousands of interferers."""
    number = isinstance(value, float) or isinstance(value, Real) and not isinstance(value, bool)
    try:
        return number and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def integer(value) -> bool:
    """A plain int skips the `Integral` test: a frame holds nine integers."""
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def require_positive(name: str, value) -> None:
    if not (finite_number(value) and value > 0):
        raise ParameterError(f"{name} must be positive and finite, got {value}")


def valid_seed(value) -> bool:
    """The seeds numpy's generators take that the library accepts: one `integer` >= 0."""
    return integer(value) and value >= 0


def require_seed(value) -> None:
    if not valid_seed(value):
        raise ParameterError(f"seed must be a non-negative integer, got {value!r}")
