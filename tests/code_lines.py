"""Count the code lines of a Python source tree: the lines that hold a
token of code, leaving out blank lines, comments and docstrings (the
string that opens a module, class or function body).

Run as `python tests/code_lines.py [DIR]` (DIR defaults to src/ewaldkit):
it prints one count per module and the total, the figure the size claims
in CHANGES.md quote.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token of code, outside
    every docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def tree_counts(root: str) -> dict:
    """{file name: code lines} for every .py file directly under root."""
    counts = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                counts[name] = code_lines(fh.read())
    return counts


def main(argv) -> None:
    root = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "ewaldkit")
    counts = tree_counts(root)
    for name, count in counts.items():
        print("%-16s %5d" % (name, count))
    print("%-16s %5d" % ("total", sum(counts.values())))


if __name__ == "__main__":
    main(sys.argv)
