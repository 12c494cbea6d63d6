"""dirtysim benchmark: end-to-end host time of CLI experiments, and a traced run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload sweep-noisy --seed 1 --seconds 30 --trace 0

Each pass runs one workload's CLI commands through `dirtysim.cli.main` in this
process, with no threads, and every command builds its simulated cache empty.
Every output is checked against oracles that hold at any seed.

`--trace 0` reports end-to-end metrics with tracing off.  Passes of the
program come in pairs with passes of a frozen reference copy of dirtysim
(`reference/`, run by `reference_worker.py` in a child process), in
alternating order, while another pair fits in `--seconds` (at least three).
`wall_vs_ref` is the median over the pairs of the program's pass time over
the reference's, so slow spells of a shared host cancel out.  Set-up is the
median time a fresh interpreter takes to import `dirtysim.cli`, and peak
resident memory is that of this process.  The summary line before the result
adds the program's own pass times: median, quartiles, tail and work per
second.  `--trace 1` alternates untraced passes with passes traced by
`tracer.py` and reports per-layer call counts and self times.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  An operation is one CLI
call of the program; it fails on a non-zero exit, a failed output check, or
output that differs from the run's first pass.  Outputs or per-layer counts
that differ from an earlier run of the same code and seed, or reference
outputs that fail the checks, make the result incorrect.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Per-run scratch and the record that makes determinism checkable across runs.
WORK = ROOT / ".perfbench"
MIN_PAIRS = 3
PAIRS_PER_SETUP = 2  # one fresh-import sample per this many pairs
IMPORTTIME_SAMPLES = 3


class Mismatch(Exception):
    """An output broke one of the workload's oracles."""


def require(condition, message):
    if not condition:
        raise Mismatch(message)


# -- output oracles ----------------------------------------------------------

PREAMBLE_BITS = 16  # the channel's default preamble, 0xF0F0
MESSAGE_BITS = 512
SWEEP_BITS = 128
PERIODS = (800, 1000, 1600, 2200, 5500, 11000)
CLOCK_HZ = 2.2e9
WAYS = 8
SWEEP_TRIALS = 2
CDF_TRIALS = 100
TRIALS = 1000  # per Monte-Carlo experiment


def _table(data, header):
    lines = data.decode("utf-8").splitlines()
    require(lines and lines[0] == header, f"header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_channel(out):
    report = json.loads(out["report.json"])
    require(len(report["sent_bits"]) == MESSAGE_BITS, "message length")
    require(report["ber"] == 0 and report["edit_distance"] == 0, "ber is not 0")
    require(report["preamble_locked"] is True, "preamble not locked")
    require(report["received_bits"] == report["sent_bits"], "received bits differ from sent")
    rows = _table(out["trace.csv"], "cycle,actor,action,set,d,latency,decoded_bit,truth_bit")
    symbols = PREAMBLE_BITS + MESSAGE_BITS
    for action in ("encode", "decode"):
        require(sum(row[2] == action for row in rows) == symbols, f"{action} rows != {symbols}")


def check_sweep(out):
    rows = _table(out["sweep.csv"], "period_cycles,rate_kbps,encoding,d,trials,mean_ber")
    require([int(row[0]) for row in rows] == list(PERIODS), "periods")
    for period, rate, encoding, d, trials, ber in rows:
        # Multi-bit symbols carry 2 bits, one per period at 2.2 GHz.
        require(rate == f"{2 * CLOCK_HZ / int(period) / 1000:.3f}", f"rate at {period}")
        require((encoding, d, trials) == ("multibit", "0-3-5-8", str(SWEEP_TRIALS)), f"row at {period}")
        require(0.0 <= float(ber) <= 1.0, f"BER {ber} outside [0, 1]")


def check_cdf(out):
    rows = _table(out["cdf.csv"], "d,trial,total_cycles")
    require(len(rows) == (WAYS + 1) * CDF_TRIALS, "row count")
    for i, (d, trial, total) in enumerate(rows):
        # Ten serialized refills: 11 cycles each, 11 more per dirty victim.
        require((int(d), int(trial)) == divmod(i, CDF_TRIALS), f"row {i} order")
        require(int(total) == 110 + 11 * int(d), f"row {i}: total {total} != 110 + 11*{d}")


def check_evict(out):
    rows = _table(out["evict.csv"], "policy,N,trials,fraction")
    require([row[:3] for row in rows] == [["tree-plru", str(n), str(TRIALS)] for n in (8, 9, 10)],
            "rows")
    # Exhaustive enumeration shows Tree-PLRU always evicts within N >= W fills.
    require(all(float(row[3]) == 1.0 for row in rows), "Tree-PLRU fraction is not 1.0")


def check_dirty(out):
    rows = _table(out["dirty.csv"], "d,L,trials,mc_fraction,analytic_p")
    grid = [(d, l) for d in (2, 3) for l in range(8, 14)]
    require([(int(r[0]), int(r[1]), int(r[2])) for r in rows] == [(d, l, TRIALS) for d, l in grid],
            "grid")
    for (d, l), row in zip(grid, rows):
        p = 1 - ((WAYS - d) / WAYS) ** l
        require(row[4] == f"{p:.4f}", f"analytic p at d={d} L={l}")
        sigma = math.sqrt(p * (1 - p) / TRIALS)
        require(abs(float(row[3]) - p) <= 4 * sigma + 5e-5, f"MC fraction at d={d} L={l}")


# -- workloads ---------------------------------------------------------------

@dataclass(frozen=True)
class Call:
    command: str
    flags: tuple
    outputs: tuple  # (flag, file name) for each file the call writes
    check: object   # {file name: bytes} -> None, raising on a broken output

    def argv(self, seed, outdir):
        argv = [self.command, *self.flags, "--seed", str(seed)]
        for flag, name in self.outputs:
            argv += [flag, str(outdir / name)]
        return argv


@dataclass(frozen=True)
class Workload:
    calls: tuple
    work: int  # symbols simulated, or Monte-Carlo trials, per pass

    def files(self):
        return [name for call in self.calls for _, name in call.outputs]


WORKLOADS = {
    "channel-512": Workload(
        (Call("run-channel", ("--message-bits", str(MESSAGE_BITS)),
              (("--out", "report.json"), ("--trace", "trace.csv")), check_channel),),
        work=PREAMBLE_BITS + MESSAGE_BITS),
    "sweep-noisy": Workload(
        (Call("sweep", ("--encoding", "multibit", "--policy", "tree-plru",
                        "--noise-rate", "1.0", "--noise-write-prob", "0.5", "--slip", "300",
                        "--message-bits", str(SWEEP_BITS), "--trials", str(SWEEP_TRIALS)),
              (("--out", "sweep.csv"),), check_sweep),),
        work=len(PERIODS) * SWEEP_TRIALS * (PREAMBLE_BITS + SWEEP_BITS) // 2),
    "cdf-9x100": Workload(
        (Call("latency-cdf", ("--d-values", "0,1,2,3,4,5,6,7,8", "--trials", str(CDF_TRIALS)),
              (("--out", "cdf.csv"),), check_cdf),),
        work=(WAYS + 1) * CDF_TRIALS),
    "montecarlo": Workload(
        (Call("evict-prob", ("--policy", "tree-plru", "--n", "8,9,10", "--trials", str(TRIALS)),
              (("--out", "evict.csv"),), check_evict),
         Call("dirty-evict", ("--d", "2,3", "--l", "8,9,10,11,12,13", "--trials", str(TRIALS)),
              (("--out", "dirty.csv"),), check_dirty)),
        work=(3 + 2 * 6) * TRIALS),
}


# -- one pass ----------------------------------------------------------------

def _invoke(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code
    except Exception:
        traceback.print_exc()
        return 1


def run_pass(cli, workload, seed, outdir):
    """Run every call once; return (wall seconds, [(call, exit code, outputs)])."""
    for name in workload.files():
        (outdir / name).unlink(missing_ok=True)
    argvs = [call.argv(seed, outdir) for call in workload.calls]
    gc.collect()  # leave no garbage of an earlier pass, as a fresh CLI process would
    start = time.perf_counter()
    codes = [_invoke(cli, argv) for argv in argvs]
    wall = time.perf_counter() - start
    results = []
    for call, code in zip(workload.calls, codes):
        outputs = {name: (outdir / name).read_bytes()
                   for _, name in call.outputs if (outdir / name).exists()}
        results.append((call, code, outputs))
    return wall, results


def digest(outputs):
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())}


def problems(call, code, outputs, recorded):
    """Everything wrong with one call's result; empty when it passed."""
    if code != 0:
        return [f"{call.command} exited with {code}"]
    try:
        call.check(outputs)
    except (Mismatch, KeyError, IndexError, ValueError) as exc:
        return [f"{call.command}: {type(exc).__name__}: {exc}"]
    if recorded:
        return [f"{call.command}: {name} differs from the recorded digest"
                for name, sha in digest(outputs).items() if recorded.get(name) != sha]
    return []


def self_check(results, recorded):
    """Drop the last line of each output and confirm the checks catch it."""
    missed = []
    for call, code, outputs in results:
        for name, data in outputs.items():
            broken = dict(outputs)
            broken[name] = b"\n".join(data.rstrip(b"\n").split(b"\n")[:-1]) + b"\n"
            if not problems(call, code, broken, recorded):
                missed.append(f"self-check: a truncated {name} passed the checks")
    return missed


class Ledger:
    """Attempted and failed operations, plus determinism across passes and runs."""

    def __init__(self, workload_name, seed):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first = None  # output digests of the first pass, per call
        self.state = WORK / "state" / f"{workload_name}-{seed}-{source_digest()[:16]}.json"
        recorded = json.loads((HERE / "digests.json").read_text())
        self.recorded = recorded["outputs"][workload_name] if seed == recorded["seed"] else {}

    def record(self, results):
        digests = [digest(outputs) for _, _, outputs in results]
        if self.first is None:
            self.first = digests
            self.errors += self_check(results, self.recorded)
            self.errors += remember(self.state, "outputs", digests)
        for (call, code, outputs), sha, first in zip(results, digests, self.first):
            found = problems(call, code, outputs, self.recorded)
            if sha != first:
                found.append(f"{call.command}: output differs from the first pass")
            self.attempted += 1
            self.failed += bool(found)
            self.errors += found

    def check_reference(self, results):
        """The reference must pass the oracles too, or its times mean nothing."""
        for call, code, outputs in results:
            self.errors += [f"reference {problem}" for problem in problems(call, code, outputs, {})]

    def result(self, metrics):
        for error in self.errors:
            print(f"error: {error}", file=sys.stderr)
        return {"correct": not self.errors and self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def source_digest():
    sha = hashlib.sha256()
    for path in sorted((SRC / "dirtysim").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def remember(path, section, value):
    """Compare `value` with what an earlier run of the same code and seed saw."""
    known = json.loads(path.read_text()) if path.exists() else {}
    if section in known:
        return [] if known[section] == value else [f"{section} differ from an earlier run"]
    known[section] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)
    return []


# -- set-up: a fresh interpreter importing the CLI ---------------------------

def fresh_import(*options):
    """Seconds for a new interpreter to import dirtysim.cli, and its stderr.

    Bytecode writing is allowed, so after the first import the package loads
    from `__pycache__` as an installed one would.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *options, "-c", "import dirtysim.cli"],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()}")
    return elapsed, proc.stderr


def import_seconds():
    """Cumulative import time of dirtysim (with cli) and of numpy, from -X importtime."""
    _, report = fresh_import("-X", "importtime")
    rows = []
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2]
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
    top = min(depth for depth, _, _ in rows)
    dirtysim_s = sum(s for depth, name, s in rows
                     if depth == top and name.split(".")[0] == "dirtysim")
    numpy_s = sum(s for _, name, s in rows if name == "numpy")
    return dirtysim_s, numpy_s


# -- runs --------------------------------------------------------------------

def tail(samples):
    """(percentile, value) of the highest percentile with ten samples above it."""
    ordered = sorted(samples)
    i = len(ordered) - 11
    if i < 0 or (i + 1) / len(ordered) <= 0.5:
        return None  # too few samples for a tail above the median
    return 100 * (i + 1) / len(ordered), ordered[i]


class Reference:
    """The frozen reference copy of dirtysim, run pass by pass in a child process.

    The child only runs while this process waits for it, so the two never
    compete for a core.  A separate process keeps the reference's memory out
    of `peak_rss_mb`.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference_worker.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run_pass(self, workload, seed, outdir):
        """Like `run_pass`, with the reference's CLI."""
        for name in workload.files():
            (outdir / name).unlink(missing_ok=True)
        self.proc.stdin.write(json.dumps([call.argv(seed, outdir) for call in workload.calls])
                              + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference worker exited with {self.proc.wait()}")
        reply = json.loads(line)
        results = []
        for call, code in zip(workload.calls, reply["codes"]):
            outputs = {name: (outdir / name).read_bytes()
                       for _, name in call.outputs if (outdir / name).exists()}
            results.append((call, code, outputs))
        return reply["wall"], results

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # the worker has already exited
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def timed_run(cli, name, workload, seed, seconds, outdir, ledger):
    fresh_import()  # writes bytecode, untimed
    refdir = outdir / "reference"
    refdir.mkdir()
    setup, walls, ref_walls, ratios = [], [], [], []
    start = time.perf_counter()
    with Reference() as reference:
        # One untimed pair first: it pays first-call costs on both sides.
        ledger.check_reference(reference.run_pass(workload, seed, refdir)[1])
        ledger.record(run_pass(cli, workload, seed, outdir)[1])
        # Stop before a further pair would overrun.  Each pair runs the
        # reference and the program back to back, in alternating order, so a
        # slow spell of the host slows both sides of a ratio alike.
        longest = 0.0
        while len(ratios) < MIN_PAIRS or _elapsed(start) + longest <= seconds:
            if len(ratios) % PAIRS_PER_SETUP == 0:
                setup.append(fresh_import()[0])
            began = time.perf_counter()
            if len(ratios) % 2 == 0:
                ref_wall, ref_results = reference.run_pass(workload, seed, refdir)
                wall, results = run_pass(cli, workload, seed, outdir)
            else:
                wall, results = run_pass(cli, workload, seed, outdir)
                ref_wall, ref_results = reference.run_pass(workload, seed, refdir)
            longest = max(longest, _elapsed(began))
            ledger.check_reference(ref_results)
            ledger.record(results)
            walls.append(wall)
            ref_walls.append(ref_wall)
            ratios.append(wall / ref_wall)
    q1, median, q3 = statistics.quantiles(walls, n=4)
    tail_text = "n/a" if tail(walls) is None else "p{:.0f}={:.4f}".format(*tail(walls))
    rq1, ratio, rq3 = statistics.quantiles(ratios, n=4)
    print(f"{name} seed={seed}: {len(walls)} pairs, wall_vs_ref median={ratio:.4f} "
          f"q1={rq1:.4f} q3={rq3:.4f}; wall_s median={median:.4f} q1={q1:.4f} q3={q3:.4f} "
          f"tail={tail_text} best={min(walls):.4f}; work_per_s median={workload.work / median:.1f}; "
          f"failed_ratio={ledger.failed}/{ledger.attempted}; passes: "
          + " ".join(f"{wall:.3f}" for wall in walls)
          + "; reference passes: " + " ".join(f"{wall:.3f}" for wall in ref_walls))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_vs_ref": (ratio, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _elapsed(start):
    return time.perf_counter() - start


def traced_run(cli, name, workload, seed, seconds, outdir, ledger):
    imports = [import_seconds() for _ in range(IMPORTTIME_SAMPLES)]
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or _elapsed(start) * (1 + 1 / len(traced)) <= seconds:
        wall, results = run_pass(cli, workload, seed, outdir)
        untraced.append(wall)
        ledger.record(results)
        with tracer.Tracer().installed() as trace:
            wall, results = run_pass(cli, workload, seed, outdir)
        traced.append(wall)
        ledger.record(results)
        layers.append(trace.metrics())
    counts = {k: v for k, v in layers[0].items() if not k.endswith("_s")}
    for i, other in enumerate(layers[1:], start=2):
        if {k: v for k, v in other.items() if not k.endswith("_s")} != counts:
            ledger.errors.append(f"per-layer counts of traced pass {i} differ from pass 1")
    ledger.errors += remember(ledger.state, "counts", counts)
    metrics = {}
    for key, value in layers[0].items():
        if key.endswith("_s"):
            metrics[key] = (statistics.median(layer[key] for layer in layers), "s")
        else:
            metrics[key] = (value, "ratio" if key.endswith("_ratio") else "count")
    metrics["cli.import.dirtysim_s"] = (statistics.median(i[0] for i in imports), "s")
    metrics["cli.import.numpy_s"] = (statistics.median(i[1] for i in imports), "s")
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    # Paired with the untraced pass just before, so a slow spell of the host
    # shifts both sides of a difference.
    overhead = [t - u for t, u in zip(traced, untraced)]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    print(f"{name} seed={seed}: {len(traced)} traced and {len(untraced)} untraced passes, "
          f"failed_ratio={ledger.failed}/{ledger.attempted}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dirtysim" / "cli.py").is_file():
        print(f"error: no dirtysim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from dirtysim import cli

    workload = WORKLOADS[args.workload]
    ledger = Ledger(args.workload, args.seed)
    run = traced_run if args.trace else timed_run
    if hasattr(os, "sched_setaffinity"):
        # One core for this process and the children it starts, which inherit
        # it: the program and the reference then share that core's speed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as outdir:
        metrics = run(cli, args.workload, workload, args.seed, args.seconds, Path(outdir), ledger)
    result = ledger.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
