"""Count the code lines of the Python modules under a directory.

A code line is a physical line that holds a token other than a comment, a
docstring or layout (newlines, indentation).  A docstring here is a string
token that starts a statement: a module's, class's or function's docstring,
or any other bare string statement.  A token that spans several lines, such
as a triple-quoted string inside an expression, counts on every line it
covers.

    python tools/code_lines.py src/clusterpump

prints ``<count> <module>`` per module, by path, then ``<total> total``.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# tokens that end a statement or open a block: a string right after one starts a statement
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_LAYOUT = _STATEMENT_START | {tokenize.NL, tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    previous = tokenize.NEWLINE  # the first token of the file starts a statement
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT and not (token.type == tokenize.STRING and previous in _STATEMENT_START):
            lines.update(range(token.start[0], token.end[0] + 1))
        if token.type not in (tokenize.NL, tokenize.COMMENT):
            previous = token.type
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/code_lines.py <directory>", file=sys.stderr)
        return 1
    root = Path(argv[0])
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
