"""Shared exception types."""


class BsnsimError(ValueError):
    """Base of every error bsnsim raises for bad input or parameters."""


class ParameterError(BsnsimError):
    """An argument violates an operation's precondition."""


class FrameError(BsnsimError):
    """A sensor frame buffer is malformed (short buffer, bad CRC, field overflow)."""


class ScenarioError(BsnsimError):
    """A scenario file failed to parse or validate.

    Carries the offending line number when the error is tied to a
    specific line of the scenario file.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UndefinedBatteryLifeError(BsnsimError):
    """Battery life is undefined because the average current is zero."""
