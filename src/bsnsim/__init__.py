"""Body sensor network simulator: synthetic motion, the adaptive
accelerometer workflow, 2.4 GHz coexistence modeling, adaptive channel
selection, and battery-life arithmetic.

The package namespace holds the names of the README's Library example, the
`BsnsimError` family and `__version__`; every other name lives in its
submodule (`bsnsim.rf`, `bsnsim.selector`, `bsnsim.energy`, ...)."""

from .classify import detect_abnormal
from .errors import BsnsimError, FrameError, ParameterError, ScenarioError, UndefinedBatteryLifeError
from .linksim import EchoTestConfig, run_echo_test
from .motion import ActivityKind, generate_trace
from .rf import ChannelSpec
from .scenario import load_scenario
from .sensor import initial_state, replay_trace

__version__ = "0.1.0"
