#!/usr/bin/env python3
"""Code, docstring and comment-only lines of each module in a directory.

    python3 tools/src_lines.py [DIR]

DIR defaults to the repository's `src/fbsecsim`; each `*.py` file directly
in it is one row, and the last row is their total.  A docstring line is a
line of a module, class or function docstring, found with `ast`.  A
comment-only line holds a comment and no other token, and a code line
holds a token that is neither a comment nor layout and is no docstring
line, both found with `tokenize`.  A blank line is none of the three.

Standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(source: str) -> tuple[int, int, int]:
    """(code, docstring, comment-only) lines of the Python `source`."""
    docs: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    return len(code), len(docs), len(comments - code - docs)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = args[0] if args else os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                             os.pardir, "src", "fbsecsim")
    total = [0, 0, 0]
    print(f"{'code':>6} {'doc':>6} {'comment':>7}  module")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as f:
                counts = count_lines(f.read())
            total = [t + c for t, c in zip(total, counts)]
            print(f"{counts[0]:>6} {counts[1]:>6} {counts[2]:>7}  {name}")
    print(f"{total[0]:>6} {total[1]:>6} {total[2]:>7}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
