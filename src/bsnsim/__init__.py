"""Body sensor network simulator: synthetic motion, the adaptive
accelerometer workflow, 2.4 GHz coexistence modeling, adaptive channel
selection, and battery-life arithmetic."""

from .classify import (
    AbnormalEvent,
    AbnormalTrigger,
    ActivityClass,
    ClassifierConfig,
    classify_window,
    detect_abnormal,
)
from .energy import (
    Battery,
    ComponentCurrent,
    average_current_ma,
    battery_life_hours,
    simulate_energy,
)
from .errors import BsnsimError, FrameError, ParameterError, ScenarioError, UndefinedBatteryLifeError
from .frames import FRAME_LEN, SensorFrame, crc16_ccitt, decode_frame, encode_frame
from .linksim import EchoTestConfig, RunStats, run_echo_test, run_star_network
from .motion import AccelTrace, ActivityKind, compose_schedule, generate_trace
from .rf import (
    ChannelSpec,
    Interferer,
    InterferenceCalibration,
    Material,
    Obstacle,
    RadioStandard,
    channel_center_freq,
    message_success_prob,
    spectral_overlap,
)
from .scenario import Scenario, load_scenario, parse_scenario, serialize_scenario
from .selector import ScanReport, adaptive_policy, scan, select_channel
from .sensor import (
    AxisReading,
    MeasurementRange,
    SensorMode,
    SensorState,
    dequantize,
    initial_state,
    quantize,
    replay_trace,
    select_range,
)

__version__ = "0.1.0"
