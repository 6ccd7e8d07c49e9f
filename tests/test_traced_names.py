"""Every library attribute the benchmark's tracer wraps still exists.

perfbench/tracing.py replaces module functions and class methods by name;
a refactor that renames or removes one breaks the traced benchmark runs.
The tracer module is loaded from its file and only read, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for module, attr, span in _tracing().FUNCTIONS:
        mod = importlib.import_module(f"ehrhil.{module}")
        assert callable(getattr(mod, attr, None)), span


def test_traced_methods_are_defined_on_their_class():
    # install() reads cls.__dict__, so an inherited method would not do
    for module, cls_name, attr, span in _tracing().METHODS:
        cls = getattr(importlib.import_module(f"ehrhil.{module}"), cls_name)
        assert attr in cls.__dict__, span
