"""Each module's ``__all__`` matches what the module defines."""

import importlib
import inspect
import pkgutil

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
