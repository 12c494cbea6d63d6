"""The package's export list names exactly what `import dirtysim` offers."""

import types

import dirtysim


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from dirtysim import *", namespace)
    assert set(dirtysim.__all__) <= set(namespace)


def test_all_lists_every_public_attribute():
    public = {name for name, value in vars(dirtysim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(dirtysim.__all__) == len(set(dirtysim.__all__))
    assert set(dirtysim.__all__) == public
