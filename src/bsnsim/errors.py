"""Shared exception types, and the one rule for what a number is: a `finite_number`
is a real number, not a bool, that is finite as a float, and a `finite_point` an (x, y)
tuple of two; an `integer` is an `Integral`, a numpy one included, that is not a bool; a
`valid_seed` is an `integer` >= 0. No test raises for a value of another type. Each rule
on one field is checked, and its `ParameterError` worded, by one helper: `require_finite`
(optionally in [low, high]), `require_integer`, `require_type`, `require_positive` or
`require_seed`."""

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


def finite_point(value) -> bool:
    return isinstance(value, tuple) and len(value) == 2 and finite_number(value[0]) and finite_number(value[1])


def integer(value) -> bool:
    """A plain int skips the `Integral` test: a frame holds nine integers."""
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def require_finite(name: str, value, low: float = -math.inf, high: float = math.inf) -> None:
    # a float skips the `finite_number` call: a parse or a fit checks thousands
    if not ((math.isfinite(value) if type(value) is float else finite_number(value)) and low <= value <= high):
        bounds = "" if low == -math.inf and high == math.inf else f" in [{low:g}, {high:g}]"
        raise ParameterError(f"{name} must be a finite number{bounds}, got {value!r}")


def require_integer(name: str, value, low: int, high: float = math.inf) -> None:
    if not (integer(value) and low <= value <= high):
        raise ParameterError(f"{name} must be an integer in [{low}, {high:g}], got {value!r}")


def require_type(name: str, value, kind: type | tuple[type, ...]) -> None:
    if not isinstance(value, kind):
        kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        article = "an" if kinds[0] in "AEIOUaeiou" else "a"
        raise ParameterError(f"{name} must be {article} {kinds}, got {type(value).__name__}")


def require_positive(name: str, value) -> None:
    if not (finite_number(value) and value > 0):
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")


def valid_seed(value) -> bool:
    """The seeds numpy's generators take that the library accepts: one `integer` >= 0."""
    return integer(value) and value >= 0


def require_seed(value) -> None:
    if not valid_seed(value):
        raise ParameterError(f"seed must be a non-negative integer, got {value!r}")
