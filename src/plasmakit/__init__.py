"""Low-cost plasma diagnostics toolkit.

Modules:
    probe        compensated RC-ladder high-voltage probe analysis/design
    calibration  log-cubic illuminance calibration (fit, eval, invert)
    acquisition  raw ADC frames to volts/amps/watts/lux
    dataset      run loading and power-vs-illuminance characterization
    svgchart     dependency-free SVG chart emission
    files        the one CSV reader and the one atomic writer for every file
    cli          command-line interface
"""

from .acquisition import (
    ChannelConfig,
    counts_to_volts,
    detect_ignition,
    instantaneous_power,
    needle_voltage,
    Samples,
    replay_stream,
    shunt_current,
)
from .calibration import (
    CalibrationCurve,
    InputKind,
    eval_log_poly,
    fit_log_cubic,
    input_from_lux,
    lux_from_input,
    monotone_direction,
)
from .dataset import (
    Characterization,
    ExperimentRun,
    characterize,
    load_characterization,
    load_run,
)
from .errors import (
    DomainError,
    FitError,
    PlasmaKitError,
    PreconditionError,
    RowError,
    SchemaError,
    SingularityError,
)
from .probe import (
    FrequencySweep,
    ProbeNetwork,
    RCStage,
    RationalTransferFunction,
    bode_sweep,
    compensation_capacitor,
    dc_attenuation,
    design_probe,
    is_compensated,
    transfer_function,
)

__version__ = "0.1.0"
