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

from .acquisition import *
from .calibration import *
from .dataset import *
from .errors import *
from .probe import *

__version__ = "0.1.0"
