"""Byte-for-byte comparison of CLI output against committed golden files.

Criterion 12 only shows that one build repeats itself; these files pin the
bytes themselves, so a refactor that changes any number fails here.  The
CLI files were written by the code before the lean-cache refactor, and the
demo files hold the stdout of demos 01 and 02 (written by the code before the
experiments returned whole curves) and of demos 04 and 05 (noise, multibit,
both defenses and every gadget pair; written before replacement sets became
plain tuples).  To rewrite them after an intended change
of output, run from the repo root:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dirtysim.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SEED = 2024
# golden name -> demo script whose stdout it holds
DEMOS = {
    "demo-01": "01_eviction_probability.py",
    "demo-02": "02_random_replacement.py",
    "demo-04": "04_covert_channel.py",
    "demo-05": "05_defenses_and_gadgets.py",
}

# name -> argv without --seed/--out.  A run-channel case whose name ends in
# "-trace" also writes its event trace to <name>.trace.csv.
CASES = {
    # criterion 12's argument lists
    "evict-prob": ("evict-prob", "--policy", "tree-plru", "--n", "8,9", "--trials", "200"),
    "dirty-evict": ("dirty-evict", "--d", "2,3", "--l", "8,13", "--trials", "200"),
    "latency-cdf": ("latency-cdf", "--d-values", "0,4,8", "--trials", "5"),
    "run-channel-noise-trace": ("run-channel", "--message-bits", "64", "--noise-rate", "0.2",
                                "--noise-write-prob", "0.5"),
    "sweep": ("sweep", "--message-bits", "32", "--trials", "2", "--periods", "1600,5500"),
    "gadget": ("gadget", "--variant", "a", "--scenario", "set-state-dirty", "--secret", "1"),
    # encodings, defenses, jitter and policies
    "evict-prob-random": ("evict-prob", "--policy", "random", "--n", "8,10", "--trials", "200"),
    "latency-cdf-jitter": ("latency-cdf", "--d-values", "0,3,8", "--trials", "5", "--jitter", "2"),
    "latency-cdf-tree-plru": ("latency-cdf", "--d-values", "1,5", "--trials", "4",
                              "--policy", "tree-plru", "--target-set", "7"),
    "latency-cdf-random": ("latency-cdf", "--d-values", "2,6", "--trials", "6",
                           "--policy", "random", "--rset-size", "12"),
    "run-channel-multibit": ("run-channel", "--message-bits", "64", "--encoding", "multibit"),
    "run-channel-write-through": ("run-channel", "--message-bits", "64",
                                  "--defense", "write-through"),
    "run-channel-partition": ("run-channel", "--message-bits", "64", "--defense", "partition"),
    "run-channel-jitter": ("run-channel", "--message-bits", "64", "--jitter", "2"),
    "run-channel-tree-plru": ("run-channel", "--message-bits", "64", "--policy", "tree-plru"),
    "run-channel-random": ("run-channel", "--message-bits", "64", "--policy", "random",
                           "--rset-size", "24"),
    "run-channel-slip-trace": ("run-channel", "--message-bits", "64", "--period", "1600",
                               "--noise-rate", "0.3", "--noise-write-prob", "0.6",
                               "--slip", "600"),
    "sweep-multibit-slip": ("sweep", "--message-bits", "32", "--trials", "2",
                            "--periods", "800,5500", "--encoding", "multibit",
                            "--policy", "tree-plru", "--slip", "500", "--noise-rate", "0.6",
                            "--noise-write-prob", "0.7"),
    "gadget-a-set-state-dirty-0": ("gadget", "--variant", "a", "--scenario",
                                   "set-state-dirty", "--secret", "0"),
    "gadget-b-prime-with-dirty-1": ("gadget", "--variant", "b", "--scenario",
                                    "prime-with-dirty", "--secret", "1"),
    "gadget-b-prime-with-dirty-0": ("gadget", "--variant", "b", "--scenario",
                                    "prime-with-dirty", "--secret", "0"),
    "gadget-a-victim-timing-1": ("gadget", "--variant", "a", "--scenario",
                                 "victim-timing", "--secret", "1"),
    "gadget-b-victim-timing-0": ("gadget", "--variant", "b", "--scenario",
                                 "victim-timing", "--secret", "0"),
}


def run_case(name, out_dir):
    """Run one case into out_dir; return the paths it wrote."""
    out = out_dir / f"{name}.out"
    argv = [*CASES[name], "--seed", str(SEED), "--out", str(out)]
    paths = [out]
    if name.endswith("-trace"):
        trace = out_dir / f"{name}.trace.csv"
        argv += ["--trace", str(trace)]
        paths.append(trace)
    assert cli_main(argv) == 0, argv
    return paths


def run_demo(name, cwd):
    """Run one demo script with this checkout's package; return its stdout bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / DEMOS[name])],
                          cwd=cwd, env=env, capture_output=True, check=True)
    return proc.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    for path in run_case(name, tmp_path):
        golden = GOLDEN / path.name
        assert path.read_bytes() == golden.read_bytes(), f"{golden.name} differs"


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output_matches_golden(name, tmp_path):
    assert run_demo(name, tmp_path) == (GOLDEN / f"{name}.out").read_bytes()


def test_every_golden_file_has_a_case():
    expected = ({f"{name}.out" for name in CASES}
                | {f"{name}.trace.csv" for name in CASES if name.endswith("-trace")}
                | {f"{name}.out" for name in DEMOS})
    assert {p.name for p in GOLDEN.iterdir()} == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        for written in run_case(case, GOLDEN):
            print(written.relative_to(ROOT), file=sys.stderr)
    for demo in sorted(DEMOS):
        written = GOLDEN / f"{demo}.out"
        written.write_bytes(run_demo(demo, ROOT))
        print(written.relative_to(ROOT), file=sys.stderr)
