"""Modules on first use: `lazy(name)` is sys.modules[name], else a module put there that
runs its code on its first attribute access, or on `import name` anywhere, which reads
`__spec__._initializing`.  Write `from ._lazy import np`, never `import numpy`."""

import importlib.util
import sys


def lazy(name: str):
    if (module := sys.modules.get(name)) is None:
        if (spec := importlib.util.find_spec(name)) is None:
            return importlib.import_module(name)  # raises the usual ModuleNotFoundError
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


np = lazy("numpy")
