"""Count the lines of the dirtysim package: physical and code-only, per file.

Code-only lines leave out blank lines, comment-only lines and the lines of
module, class and function docstrings.  Standard library only; run it from
the repository root:

    python tests/loc.py [package directory, default src/dirtysim]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree) -> set:
    """Line numbers spanned by the docstrings in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str):
    """(physical, code-only) line counts of one file's source."""
    physical = source.splitlines()
    skipped = docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    return len(physical), len(code - skipped)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/dirtysim")
    total_physical = total_code = 0
    for path in sorted(root.glob("*.py")):
        physical, code = count(path.read_text())
        total_physical += physical
        total_code += code
        print(f"{physical:6,} {code:6,}  {path.name}")
    print(f"{total_physical:6,} {total_code:6,}  total (physical, code-only)")


if __name__ == "__main__":
    main(sys.argv)
