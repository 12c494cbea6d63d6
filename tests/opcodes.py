"""Count the Python opcodes that one pass of each benchmark workload executes.

A count does not drift with the host, as a wall time does, so two commits'
counts compare exactly.  The workloads and the pass are those of
`benchmarks/run.py`, imported read-only (`WORKLOADS` and `run_pass`): each
workload runs one warm pass first, so class-level memos fill, and then two
passes counted with `sys.settrace` and `f_trace_opcodes`, all at the
benchmark's seed, 2024.  It exits 1 if the two counts differ, or if a call
exits non-zero.

Only Python frames count: work in C (big-int arithmetic, the json encoder,
`getrandbits`) is invisible, so a count is not a time.  Counts depend on the
bytecode, so compare them within one Python version.  Standard library
only; run it from the repository root:

    python tests/opcodes.py
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from dirtysim import cli  # noqa: E402
from run import WORKLOADS, run_pass  # noqa: E402


def counted_pass(workload, seed, outdir) -> int:
    """Opcodes executed by one `run_pass` of `workload`."""
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return on_opcode

    sys.settrace(on_call)
    try:
        _, results = run_pass(cli, workload, seed, outdir)
    finally:
        sys.settrace(None)
    failed = [call.command for call, code, _ in results if code != 0]
    if failed:
        raise SystemExit(f"{', '.join(failed)} exited non-zero")
    return count


SEED = 2024  # the seed of every count in BENCH_af4fc89.json


def main() -> int:
    print(f"python {sys.version.split()[0]}, seed {SEED}")
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        for name, workload in WORKLOADS.items():
            run_pass(cli, workload, SEED, outdir)  # warm: memos fill
            counts = [counted_pass(workload, SEED, outdir) for _ in range(2)]
            print(f"{counts[0]:9,}  {name}" + ("" if counts[0] == counts[1]
                                                else f"  (second pass {counts[1]:,})"))
            status |= counts[0] != counts[1]
    return status


if __name__ == "__main__":
    sys.exit(main())
