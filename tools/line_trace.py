"""List the statements of src/painleve_hh that neither the tests nor the CLI
grid execute.

    PYTHONPATH=src python tools/line_trace.py

Installs a ``sys.settrace`` and ``threading.settrace`` collector limited to
the package's files, runs ``pytest -q tests`` in process, then runs every
argv of ``tools/cli_grid.py``'s grid through ``painleve_hh.cli.main`` in a
temporary directory, the way that tool runs one tree.  The statements of a module are the line
numbers ``co_lines()`` gives for its compiled code and every code object
nested in it.  Prints each statement that never ran as ``file:line``, then
their count, and exits 0.  Code that tests run in subprocesses
(``python -m painleve_hh.cli``) is not traced; PYTHONPATH=src lets those
subprocesses import the package.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "painleve_hh"

executed: set[tuple[str, int]] = set()
traced: dict[str, bool] = {}


def _local(frame, event, arg):
    executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in traced:
        traced[name] = os.path.abspath(name).startswith(str(PACKAGE))
    return _local(frame, event, arg) if traced[name] else None


def statements(path: Path) -> set[int]:
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def run_grid() -> None:
    import cli_grid

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="line-trace-") as tmp:
        os.chdir(tmp)
        try:
            cli_grid.run_grid(ROOT / "src", Path(tmp) / "results.json")
        finally:
            os.chdir(cwd)


def main() -> int:
    import pytest

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        pytest.main(["-q", str(ROOT / "tests")])
        run_grid()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = {(os.path.abspath(name), line) for name, line in executed}
    missing = [(path, line) for path in sorted(PACKAGE.glob("*.py"))
               for line in sorted(statements(path))
               if (str(path), line) not in ran]
    for path, line in missing:
        print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{len(missing)} statements of src/painleve_hh not executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
