"""The README's quick start runs against the package as documented."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from dirtysim.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_documented_values():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    # The value in the block's own comment.
    assert out.getvalue() == "1375.0 0.0\n"


def test_every_documented_command_parses():
    # Parse only: a flag the README shows but its command lost fails here.
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    commands = re.findall(r"^dirtysim (.+)$", text, re.MULTILINE)
    assert len(commands) >= 6
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command))
