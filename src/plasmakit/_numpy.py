"""NumPy on first use: write `from ._numpy import np`, never `import numpy`.
An import statement reads `__spec__._initializing` of the module it finds in
sys.modules, and that read loads the lazy module registered here."""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    if (spec := importlib.util.find_spec("numpy")) is None:
        import numpy as np  # raises the usual ModuleNotFoundError
    else:
        spec.loader = importlib.util.LazyLoader(spec.loader)
        np = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(np)
