"""Run passes of the frozen reference copy of dirtysim, one per request.

`run.py` starts this script as a child process and times the reference
beside the program under test.  Each line on standard input is a JSON list
of CLI argument lists, one pass; the script runs them through the
reference's `dirtysim.cli.main` and answers with one JSON line,
`{"wall": seconds, "codes": [exit code, ...]}`.  It exits when its input
closes.  Anything the CLI prints goes to standard error.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import traceback
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
sys.path.insert(0, str(REFERENCE))

from dirtysim import cli  # noqa: E402  (the reference copy, by the path above)


def invoke(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:
        traceback.print_exc()
        return 1


def main():
    if Path(cli.__file__).resolve().parent != REFERENCE / "dirtysim":
        print(f"error: imported dirtysim from {cli.__file__}, not the reference",
              file=sys.stderr)
        return 2
    replies, sys.stdout = sys.stdout, sys.stderr
    for line in sys.stdin:
        argvs = json.loads(line)
        gc.collect()  # as run.py does before each pass of the program under test
        start = time.perf_counter()
        codes = [invoke(argv) for argv in argvs]
        wall = time.perf_counter() - start
        replies.write(json.dumps({"wall": wall, "codes": codes}) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
