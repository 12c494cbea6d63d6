"""Every name the benchmark's tracer wraps still exists in the package.

`benchmarks/tracer.py` looks up each traced function and method by name and
skips a name it cannot find, so a rename would quietly drop that span from
every traced run.  This test fails on such a rename instead.  It cannot see a
traced function that still exists but is no longer called: its span then
reads 0 calls, and only a check of the traced counts themselves would catch
that.

The tracer is loaded with bytecode writing off, as the reference copy is in
`test_differential`, so nothing is written under `benchmarks/`.
"""

import importlib
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def load_tracer(path=TRACER):
    spec = importlib.util.spec_from_file_location("dirtysim_bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracer = load_tracer()


@pytest.mark.parametrize("modname,attr,span", tracer.FUNCTIONS,
                         ids=[f"{m}.{a}" for m, a, _ in tracer.FUNCTIONS])
def test_traced_function_exists(modname, attr, span):
    module = importlib.import_module(f"dirtysim.{modname}")
    assert callable(getattr(module, attr, None)), f"dirtysim.{modname} has no {attr}"


@pytest.mark.parametrize("modname,clsname,attr,span", tracer.METHODS,
                         ids=[f"{c}.{a}" for _, c, a, _ in tracer.METHODS])
def test_traced_method_is_defined_on_its_class(modname, clsname, attr, span):
    # The tracer patches the class's own attribute, so an inherited method
    # would be skipped as well.
    cls = getattr(importlib.import_module(f"dirtysim.{modname}"), clsname, None)
    assert cls is not None, f"dirtysim.{modname} has no {clsname}"
    assert callable(cls.__dict__.get(attr)), f"{clsname} defines no {attr} of its own"


def test_loading_the_tracer_writes_no_bytecode(tmp_path):
    # On a copy, since bytecode a benchmark run left under benchmarks/ would
    # not be written again.
    copy = tmp_path / "tracer.py"
    shutil.copyfile(TRACER, copy)
    assert load_tracer(copy).FUNCTIONS == tracer.FUNCTIONS
    assert not list(tmp_path.rglob("__pycache__"))
