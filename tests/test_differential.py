"""Differential guard: the CLI against the frozen reference copy of dirtysim.

`benchmarks/reference/dirtysim` is the package's source at the commit the
benchmark froze, which `benchmarks/run.py` times the program against.  Both
`cli.main`s run here in one process on argv that hypothesis draws for every
subcommand, at small sizes, some of it moved into a config file, flat or
JSON.  The seed is given as --seed, or now and then through DIRTYSIM_SEED or
the config file, which both programs read alike.  Now and then an --out or
--trace path lies under a directory that does not exist.  They must agree
on the exit code, standard output and the bytes of every file written
through --out and --trace.  Standard error is not compared: its messages
were reworded on purpose.

Some inputs the program rejects on purpose where the reference runs, or
fails another way.  `INTENDED` lists them: each entry is a predicate on the
drawn case that cites the commit which made the difference, and it excuses
only "the program exits 2".  Nothing excuses a difference in standard output
or in a file.  A change that alters output on purpose narrows the strategy
or adds an entry; an entry is never widened to hide a difference.

The reference is loaded under another package name with bytecode writing
off, so nothing is written under `benchmarks/`.  Its calibration reads
numpy, so the module is skipped where numpy is missing.  Tier-1 draws a few
dozen cases; `pytest --hypothesis-profile=differential` draws the count of
that profile (see `conftest.py`).
"""

import contextlib
import importlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtysim import cli

pytest.importorskip("numpy")

REFERENCE = Path(__file__).resolve().parent.parent / "benchmarks" / "reference" / "dirtysim"
POLICIES = ("lru", "tree-plru", "random")
ODD_VALUES = ("", "true", "2.9")  # config text that is no value of the flag
# Tier-1 checks the same few dozen cases on every run; the `differential`
# profile draws its own count of fresh ones.
DRAWS = (settings.default if settings.get_current_profile_name() == "differential"
         else settings(max_examples=60, derandomize=True))


def load_reference(root=REFERENCE, name="dirtysim_reference"):
    """The `cli` module of the package at `root`, imported as package `name`."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, root / "__init__.py", submodule_search_locations=[str(root)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            spec.loader.exec_module(package)
            importlib.import_module(name + ".cli")
        except BaseException:
            del sys.modules[name]
            raise
        finally:
            sys.dont_write_bytecode = dont_write
    return sys.modules[name + ".cli"]


class Case(NamedTuple):
    command: str
    flags: tuple    # (key, text) pairs given as --key text
    config: tuple   # (key, text) pairs written to a flat config file
    outputs: tuple  # the file options the run writes: "out", "trace"
    seed: int
    seed_from: str = "flag"  # "flag", "env" (DIRTYSIM_SEED) or "config"
    json_config: bool = False  # the config file as JSON, not flat lines
    missing: tuple = ()  # the file options whose path lies under a missing directory

    def options(self):
        """Each option's text as the run sees it: flags win over the file."""
        return {**dict(self.config), **dict(self.flags)}

    def environ(self):
        return {"DIRTYSIM_SEED": str(self.seed)} if self.seed_from == "env" else {}

    def argv(self, workdir):
        argv = [self.command]
        config = self.config
        if self.seed_from == "flag":
            argv += ["--seed", str(self.seed)]
        elif self.seed_from == "config":
            config += (("seed", str(self.seed)),)
        for key, text in self.flags:
            argv += [f"--{key}", text]
        if config:
            path = workdir / "run.cfg"
            if self.json_config:
                # Each value as its flat line reads it: JSON where the text
                # parses, and text (a list's commas too) where it does not.
                path.write_text(json.dumps({key.replace("-", "_"): json_value(text)
                                            for key, text in config}))
            else:
                path.write_text("".join(f"{key} = {text}\n" for key, text in config))
            argv += ["--config", str(path)]
        for key in self.outputs:
            folder = workdir / "missing" if key in self.missing else workdir
            argv += [f"--{key}", str(folder / key)]
        return argv


def json_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


# Each predicate reads option text as drawn, since a config value may be odd.

def odd_config_value(case):
    return any(text in ODD_VALUES for _, text in case.config)


def nested_config(case):
    return any(key == "config" for key, _ in case.config)


def period_below_two(case):
    return case.command == "sweep" and "1" in case.options()["periods"].split(",")


def invalid_sweep_template(case):
    opts = case.options()
    noisy = opts.get("noise-rate", "0.0") != "0.0"
    return case.command == "sweep" and noisy and opts.get("defense") == "partition"


def sweep_period(case):
    return case.command == "sweep" and "period" in case.options()


def rset_below_ways(case):
    return case.command == "latency-cdf" and case.options().get("rset-size") in ("6", "7")


def empty_list(case):
    return any(key in ("n", "d", "l", "d-values", "periods") and text == ""
               for key, text in case.options().items())


def noise_rate_above_one(case):
    return case.options().get("noise-rate") == "5.0"


def other_encodings_option(case):
    opts = case.options()
    multibit = opts.get("encoding") == "multibit"
    return ("levels" in opts and not multibit) or ("d-one" in opts and multibit)


def cache_set_option(case):
    return "target-set" in case.options()


def gadget_line_set(case):
    opts = case.options()
    return case.command == "gadget" and ("line0-set" in opts or "line1-set" in opts)


def output_under_missing_dir(case):
    return bool(case.missing)


INTENDED = {  # why the program exits 2 where the reference does not
    "55c803a: sweep checks its template before calibrating": invalid_sweep_template,
    "11d09bf: latency-cdf rejects rset_size below the associativity": rset_below_ways,
    "b6378f7: an empty list option is a config error": empty_list,
    "d89ab9d: NoiseConfig rejects a rate above 1": noise_rate_above_one,
    "9536012: the other encoding's option is a config error": other_encodings_option,
    "d977669: a config value is read as its flag's text": odd_config_value,
    "after 3366322: sweep checks every period before it calibrates": period_below_two,
    "after 3366322: a config file may not name another config file": nested_config,
    "after ae63c71: sweep takes no --period, which changed no output": sweep_period,
    "after 3366322: an --out or --trace path that cannot be written is a config error":
        output_under_missing_dir,
    "after 62546ac: no option names the channel's cache set, which changed no output":
        cache_set_option,
    "after 62546ac: the gadget places its own lines, so no option names their sets":
        gadget_line_set,
}


# -- strategies --------------------------------------------------------------

def rarely(common, rare):
    """`rare` in about one draw of 20: now and then an input that fails.

    Hypothesis favours the ends of a range, so the rare branch sits inside it.
    """
    return st.integers(0, 19).flatmap(lambda i: rare if i == 13 else common)


SELDOM = rarely(st.just(False), st.just(True))


def required(key, values):
    return values.map(lambda v: [(key, str(v))])


def option(key, values):
    """`key` with a drawn value, or left out."""
    return st.one_of(st.just([]), required(key, values))


def int_list(values):
    return st.lists(values, min_size=1, max_size=3).map(lambda vs: ",".join(map(str, vs)))


@st.composite
def encoding_options(draw):
    """The encoding, maybe its own option, rarely the other's, and a message."""
    name = draw(st.sampled_from((None, "binary", "multibit")))
    d_one = ("d-one", str(draw(rarely(st.integers(1, 8), st.sampled_from((0, 9))))))
    levels = ("levels", draw(rarely(st.sampled_from(("0,3,5,8", "0,8", "1,2,4,8")),
                                    st.just("0,4,2,8"))))
    own, other = (levels, d_one) if name == "multibit" else (d_one, levels)
    pairs = [("encoding", name)] if name else []
    pairs += [own] * draw(st.booleans()) + [other] * draw(SELDOM)
    k = 2 if name == "multibit" else 1  # a message is whole symbols of every encoding drawn
    pairs.append(draw(st.one_of(
        st.integers(1, 16).map(lambda n: ("message-bits", str(k * n))),
        st.text("01", min_size=1, max_size=12).map(lambda m: ("message", m * k)))))
    return pairs


POLICY = option("policy", st.sampled_from(POLICIES))
CACHE_OPTIONS = (
    POLICY,
    option("jitter", st.integers(0, 3)),
    rarely(st.just([]), required("target-set", st.integers(0, 63))),
)
CHANNEL_OPTIONS = (
    *CACHE_OPTIONS,
    option("rset-size", st.integers(8, 24)),
    encoding_options(),
    option("noise-rate", rarely(st.sampled_from((0.0, 0.3, 1.0)), st.just(5.0))),
    option("noise-write-prob", st.sampled_from((0.0, 0.5, 1.0))),
    option("defense", st.sampled_from(("none", "write-through", "partition"))),
    option("slip", st.integers(0, 2000)),
)
PERIOD = rarely(st.sampled_from((2, 400, 1000, 1600, 5500)), st.just(1))
PERIODS = int_list(st.sampled_from((2, 400, 800, 1600, 5500, 11000)))
COMMANDS = {  # command -> (option strategies, file options it may write)
    "evict-prob": ((POLICY,
                    required("n", rarely(int_list(st.integers(1, 12)), st.just(""))),
                    required("trials", st.integers(1, 40))), ("out",)),
    "dirty-evict": ((required("d", rarely(int_list(st.integers(0, 8)), st.just(""))),
                     required("l", int_list(st.integers(1, 14))),
                     required("trials", st.integers(1, 40))), ("out",)),
    "latency-cdf": ((*CACHE_OPTIONS,
                     option("rset-size", rarely(st.integers(8, 16), st.sampled_from((6, 7)))),
                     required("d-values", int_list(st.integers(0, 8))),
                     required("trials", st.integers(1, 4))), ("out",)),
    "run-channel": ((*CHANNEL_OPTIONS, option("period", PERIOD)), ("out", "trace")),
    "sweep": ((*CHANNEL_OPTIONS,
               rarely(st.just([]), required("period", PERIOD)),
               required("periods", rarely(PERIODS, st.one_of(
                   st.just(""), PERIODS.map(lambda text: text + ",1")))),
               required("trials", st.integers(1, 2))), ("out",)),
    "gadget": ((option("variant", st.sampled_from(("a", "b"))),
                option("scenario", st.sampled_from(
                    ("set-state-dirty", "prime-with-dirty", "victim-timing", "1", "2", "3"))),
                option("secret", st.sampled_from((0, 1))),
                rarely(st.just([]), required("line0-set", st.integers(0, 63))),
                rarely(st.just([]), required("line1-set", st.integers(0, 63)))), ("out",)),
}


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    strategies, files = COMMANDS[command]
    pairs = [pair for group in draw(st.tuples(*strategies)) for pair in group]
    # A message that reads as a JSON number is an int in the reference's
    # config, so messages stay on the command line.
    in_file = [draw(st.booleans()) and key != "message" for key, _ in pairs]
    config = [pair for pair, moved in zip(pairs, in_file) if moved]
    if config and draw(SELDOM):
        config[0] = (config[0][0], draw(st.sampled_from(ODD_VALUES)))
    if draw(SELDOM):
        config.append(("config", "nested.cfg"))
    outputs = tuple(key for key in files if draw(st.booleans()))
    return Case(command,
                tuple(pair for pair, moved in zip(pairs, in_file) if not moved),
                tuple(config),
                outputs,
                draw(st.integers(0, 2**16)),
                draw(st.one_of(st.just("flag"), st.sampled_from(("env", "config")))),
                draw(st.booleans()),
                tuple(key for key in outputs if draw(SELDOM)))


# -- running -----------------------------------------------------------------

def run(main, case):
    """Exit code, stdout and written files of `main` on `case`, in a fresh directory.

    A `SystemExit` counts as its code and any other exception as exit 1, as
    in `benchmarks/run.py`.
    """
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        stdout = io.StringIO()
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()),
              mock.patch.dict(os.environ, case.environ())):
            try:
                code = main(case.argv(workdir))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = 1
        files = {key: (workdir / key).read_bytes()
                 for key in case.outputs if (workdir / key).exists()}
    return code, stdout.getvalue(), files


def excuses(case):
    return [why for why, applies in INTENDED.items() if applies(case)]


def check_agrees(case, reference_cli):
    head = run(cli.main, case)
    reference = run(reference_cli.main, case)
    if head == reference:
        return
    assert head[0] == 2 and head[1:] == ("", {}), (
        f"exit {head[0]} (reference {reference[0]}), outputs differ: {case}")
    assert excuses(case), f"exit 2 (reference {reference[0]}), no listed reason: {case}"


@settings(DRAWS, deadline=None)
@given(cases())
def test_cli_agrees_with_the_reference(case):
    check_agrees(case, load_reference())


def test_loading_the_reference_writes_no_bytecode(tmp_path):
    # On a copy, since bytecode an earlier load or a benchmark run left under
    # benchmarks/ would not be written again.
    copy = tmp_path / "dirtysim"
    shutil.copytree(REFERENCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    name = "dirtysim_reference_copy"
    try:
        reference_cli = load_reference(copy, name)
        assert Path(reference_cli.__file__).parent == copy
        check_agrees(Case("run-channel", (("message-bits", "16"),), (), ("out", "trace"), 1),
                     reference_cli)
    finally:
        for module in [m for m in sys.modules if m.split(".")[0] == name]:
            del sys.modules[module]
    assert not list(copy.rglob("__pycache__"))


@pytest.mark.parametrize("case,reason", [
    (Case("sweep", (("message-bits", "32"), ("jitter", "2"), ("trials", "1"),
                    ("periods", "5500,1")), (), (), 4),
     "after 3366322: sweep checks every period before it calibrates"),
    (Case("evict-prob", (("n", "8"),), (("trials", "5"), ("config", "nested.cfg")), (), 1),
     "after 3366322: a config file may not name another config file"),
    (Case("run-channel", (("message-bits", "16"), ("levels", "0,8")), (), ("out",), 1),
     "9536012: the other encoding's option is a config error"),
    (Case("sweep", (("message-bits", "16"), ("trials", "1"), ("periods", "1600"),
                    ("period", "5500")), (), (), 1),
     "after ae63c71: sweep takes no --period, which changed no output"),
    (Case("run-channel", (("message-bits", "16"),), (), ("out", "trace"), 1, missing=("out",)),
     "after 3366322: an --out or --trace path that cannot be written is a config error"),
    (Case("latency-cdf", (("d-values", "0,8"), ("trials", "1")), (("target-set", "7"),),
          ("out",), 1, json_config=True),
     "after 62546ac: no option names the channel's cache set, which changed no output"),
    (Case("gadget", (("scenario", "2"), ("variant", "b"), ("line0-set", "5")), (), ("out",), 1),
     "after 62546ac: the gadget places its own lines, so no option names their sets"),
])
def test_listed_differences_are_real(case, reason):
    # Each of these exits 2 here and not in the reference, for the listed reason.
    head, reference = run(cli.main, case), run(load_reference().main, case)
    assert head == (2, "", {}) and reference[0] != 2
    assert reason in excuses(case)
