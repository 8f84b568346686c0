"""Each module's ``__all__`` matches what the module defines."""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import cubicscan


def test_each_all_lists_exactly_the_public_functions_and_classes_defined():
    checked = 0
    for info in pkgutil.iter_modules(cubicscan.__path__):
        module = importlib.import_module(f"cubicscan.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        defined = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        }
        listed = {
            name
            for name in module.__all__
            if inspect.isfunction(getattr(module, name)) or inspect.isclass(getattr(module, name))
        }
        assert listed == defined, info.name
        checked += 1
    assert checked >= 6
    # the package re-exports; every name it lists must resolve
    assert all(hasattr(cubicscan, name) for name in cubicscan.__all__)


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # perfbench/tracing.py replaces package functions by name when a traced
    # run installs it; a removed or renamed one would fail only those runs
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for span_name in tracing.LAYER_OF:
        module_name, attr = span_name.split(".", 1)
        target = getattr(importlib.import_module(f"cubicscan.{module_name}"), attr, None)
        if attr == "_PARSERS":
            assert target and all(callable(parser) for parser in target.values()), span_name
        else:
            assert callable(target), span_name
