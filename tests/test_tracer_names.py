"""Every name the benchmark's tracer wraps still exists in the package.

`benchmarks/tracer.py` looks up each traced function and method by name and
skips a name it cannot find, so a rename would quietly drop that span from
every traced run.  This test fails on such a rename instead.  It cannot see a
traced function that still exists but is no longer called: its span then
reads 0 calls, and only a check of the traced counts themselves would catch
that.  The tracer's hooks also read what the wrapped calls return, so a
traced run must still succeed and write what an untraced run writes; the
last test runs the CLI both ways on small cases of every path that
accesses the cache outside a fill or a probe.

The tracer is loaded with bytecode writing off, as the reference copy is in
`test_differential`, so nothing is written under `benchmarks/`.
"""

import contextlib
import importlib
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from dirtysim import cli

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


# 16-bit runs: a multibit Tree-PLRU sweep with noise writes and slip, a
# jittered channel with noise writes (a cache that draws acts every event on
# its own cache), and every gadget case.
TRACED_CASES = {
    "sweep": ["sweep", "--encoding", "multibit", "--policy", "tree-plru", "--noise-rate", "1.0",
              "--noise-write-prob", "0.5", "--slip", "300", "--message-bits", "16",
              "--seed", "2024"],
    "run-channel": ["run-channel", "--message-bits", "16", "--jitter", "1", "--noise-rate", "1.0",
                    "--noise-write-prob", "0.5", "--seed", "2024"],
    **{f"gadget-{variant}-{scenario}-{secret}": ["gadget", "--variant", variant,
                                                  "--scenario", scenario, "--secret", str(secret)]
       for scenario, variants in (("set-state-dirty", "a"), ("prime-with-dirty", "b"),
                                  ("victim-timing", "ab"))
       for variant in variants for secret in (0, 1)},
}


@pytest.mark.parametrize("argv", TRACED_CASES.values(), ids=TRACED_CASES)
def test_a_traced_run_writes_what_an_untraced_run_writes(argv, tmp_path):
    written = []
    for traced in (False, True):
        outdir = tmp_path / ("traced" if traced else "untraced")
        outdir.mkdir()
        files = ["--out", str(outdir / "out")]
        if argv[0] == "run-channel":
            files += ["--trace", str(outdir / "trace.csv")]
        trace = tracer.Tracer()
        with trace.installed() if traced else contextlib.nullcontext():
            assert cli.main([*argv, *files]) == 0
        assert trace.calls["cli.main"] == traced
        written.append({path.name: path.read_bytes() for path in outdir.iterdir()})
    assert written[0] == written[1]
