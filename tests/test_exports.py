"""The package's export list names exactly what `import dirtysim` offers,
and its records follow one rule: a record that checks its own fields is a
frozen dataclass, and a result is a named tuple."""

import dataclasses
import importlib
import pkgutil
import types

import dirtysim

# Records that only carry a result, by module.
RESULTS = {"analysis": ("ErrorReport", "SweepRow"),
           "policy": ("EvictionExperimentResult", "DirtyEvictionResult"),
           "measurement": ("LatencySample",),
           "channel": ("ChannelReport", "GadgetResult")}


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from dirtysim import *", namespace)
    assert set(dirtysim.__all__) <= set(namespace)


def test_all_lists_every_public_attribute():
    public = {name for name, value in vars(dirtysim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(dirtysim.__all__) == len(set(dirtysim.__all__))
    assert set(dirtysim.__all__) == public


def test_a_dataclass_checks_itself_and_a_result_is_a_named_tuple():
    modules = [importlib.import_module(f"dirtysim.{info.name}")
               for info in pkgutil.iter_modules(dirtysim.__path__)]
    records = [value for module in modules for value in vars(module).values()
               if isinstance(value, type) and dataclasses.is_dataclass(value)
               and value.__module__ == module.__name__]
    assert records
    for cls in records:
        assert cls.__dataclass_params__.frozen and "__post_init__" in vars(cls), cls
    for module, names in RESULTS.items():
        for name in names:
            cls = getattr(getattr(dirtysim, module), name)
            # A named tuple, and no subclass of it gives an instance a __dict__.
            assert issubclass(cls, tuple) and cls._fields, name
            assert cls.__dictoffset__ == 0, name
