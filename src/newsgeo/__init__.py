"""Batch analytics for the geographic circulation of reputable and
non-reputable news across U.S. states, from raw comment archives."""

import importlib

__version__ = "0.1.0"


def __getattr__(name):
    """`newsgeo.<module>` imports that submodule on first access: a stage
    imports only the modules it runs, so the others may not be loaded."""
    module = f"{__name__}.{name}"
    try:
        return importlib.import_module(module)
    except ModuleNotFoundError as exc:
        if exc.name != module:  # the submodule exists; its own import failed
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
