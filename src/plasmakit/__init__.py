"""Low-cost plasma diagnostics toolkit.

Modules:
    probe        compensated RC-ladder high-voltage probe analysis/design
    calibration  log-cubic illuminance calibration (fit, eval, invert)
    acquisition  raw ADC frames to volts/amps/watts/lux
    dataset      run loading and power-vs-illuminance characterization
    svgchart     dependency-free SVG chart emission
    files        the one CSV reader and the one atomic writer for every file
    cli          command-line interface

A module asked for by name loads on its first use.  The package's names are
the `__all__` lists of the _EXPORTERS, all five loaded when one name is asked for.
"""

from . import _lazy  # finds NumPy: without it, `import plasmakit` fails

__version__ = "0.1.0"
_EXPORTERS = ("acquisition", "calibration", "dataset", "errors", "probe")


def __getattr__(name: str):
    if name in {*_EXPORTERS, "cli", "files", "svgchart"}:  # `from plasmakit import cli`
        return _lazy.lazy(f"{__name__}.{name}")  # asks for cli before importing it
    names = {n: getattr(m, n) for m in map(__getattr__, _EXPORTERS) for n in m.__all__}
    globals().update(names, __all__=list(names))
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
