#!/usr/bin/env python3
"""Line counts per module of a package directory.

    python3 tools/src_lines.py [DIR]

Prints, for every `*.py` file of DIR (default `src/treepursuit`), its
total lines and how they split into code, docstring, comment and blank
lines, then a total row.  A docstring line lies within the docstring of
the module, a class or a function, as `ast` places it; of the other
lines a blank one holds only whitespace, a comment one only a comment,
and every line left is a code line.
"""

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source):
    """{column: lines} of one module's source."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docs:
            kind = "docstring"
        elif not text:
            kind = "blank"
        elif text.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["total"] += 1
    return counts


def table(directory):
    """(name, counts) per module of `directory` in name order, then the total."""
    rows = [(path.name, count_lines(path.read_text()))
            for path in sorted(Path(directory).glob("*.py"))]
    total = {column: sum(counts[column] for _, counts in rows) for column in COLUMNS}
    return rows + [("total", total)]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="line counts per module of a package")
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src" / "treepursuit"))
    args = parser.parse_args()
    print("%-20s" % "module" + "".join("%10s" % column for column in COLUMNS))
    for name, counts in table(args.dir):
        print("%-20s" % name + "".join("%10d" % counts[column] for column in COLUMNS))
