#!/usr/bin/env python3
"""List the function-body lines of src/costarb that the tests never run.

    python3 tools/unreached.py [pytest arguments, default: -q tests]

Runs pytest in this process under a ``sys.settrace`` line tracer (and
``threading.settrace`` for the threads the scans start) that records the
lines run in src/costarb, and prints, per module, the first lines of the
statements inside function bodies that never ran. Module-level lines run at
import, before tracing starts, and are not listed. Lines run only in forked
worker processes are not seen.
"""

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "costarb"
ran = defaultdict(set)  # file -> line numbers that ran


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(str(PACKAGE)):
        return None
    lines = ran[frame.f_code.co_filename]

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line

    return line


def body_lines(path: Path) -> set:
    """The first line of every statement inside a function body."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, functions):
            body = node.body[1:] if ast.get_docstring(node) else node.body
            found |= {s.lineno for top in body for s in ast.walk(top) if isinstance(s, ast.stmt)}
    return found


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    threading.settrace(trace)
    status = pytest.main(sys.argv[1:] or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    sys.settrace(None)
    threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        unreached = sorted(body_lines(path) - ran[str(path)])
        print(f"{path.name}: {', '.join(map(str, unreached)) or 'every line ran'}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
