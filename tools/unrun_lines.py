"""List the executable lines of ``src/fareyflats`` that tier-1 never runs.

    python tools/unrun_lines.py

Runs the tier-1 suite (``pytest -q --continue-on-collection-errors`` over
``tests/``) in this process under a stdlib ``sys.settrace`` line tracer
that records only frames of the package's own files, then prints each
module's unrun executable lines and the total.  A line is executable when
an instruction of the compiled module maps to it (``co_lines``), so a
``def`` or ``class`` line counts as run when its module is imported.

Subprocesses are not followed: a line that only a test's subprocess runs
(some CLI tests start one) is listed as unrun.  Tracing slows the suite
several times over.  The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fareyflats"


def executable_lines(path: Path) -> set[int]:
    """The lines some instruction of the compiled module maps to."""
    lines: set[int] = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, such as 12, 40-43."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(
            ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = executable = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unrun = sorted(line for line in lines if (str(path), line) not in hits)
        executable += len(lines)
        total += len(unrun)
        listing = f": {spans(unrun)}" if unrun else ""
        print(f"{path.name}: {len(unrun)} unrun{listing}")
    print(f"total: {total} unrun of {executable} executable lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
