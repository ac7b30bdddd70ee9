"""Code lines of the package's modules: lines that hold code, with
docstrings, comments and blank lines left out.

Run from the root of a checkout:

    python3 tests/code_lines.py              # the modules of src/antiflex
    python3 tests/code_lines.py a.py b.py    # chosen files

It prints one line per module, its code lines and its total lines, then
the sums.  A line counts when a token other than a comment or a line
break starts or runs on it, so a bracketed expression split over three
lines counts three; the lines of a docstring (the string that opens a
module, class or function body) do not count.  Its name does not start
with `test_`, so pytest does not collect it.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "antiflex")
SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER)


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main(argv: list) -> int:
    paths = argv or sorted(os.path.join(PACKAGE, name)
                           for name in os.listdir(PACKAGE)
                           if name.endswith(".py"))
    code = total = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        n, m = code_lines(source), source.count("\n")
        code, total = code + n, total + m
        print(f"{os.path.basename(path):16} {n:6,} {m:6,}")
    print(f"{'total':16} {code:6,} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
