"""Report the lines of ``src/unitforge`` that the test suite never runs.

A stdlib ``sys.settrace`` tracer, limited to the package's own files, runs
pytest in this process (threads included). A line is executable when the
compiled module maps an instruction to it. For each module the report gives
its executable line count and the lines no test reached, then the totals.
Code that runs only in a child process (``python -m unitforge``) is not seen.

Usage, from the repository root (pytest arguments default to ``tests``):

    python3 tools/line_reach.py [PYTEST_ARGS...]

The exit status is pytest's. Tracing makes the suite about twice as slow.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "unitforge"


def executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def line_tracer(hits: set[int]):
    add = hits.add

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local

    return local


def ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    files = sorted(PACKAGE.glob("*.py"))
    hits: dict[str, set[int]] = {str(f): set() for f in files}
    tracers = {name: line_tracer(seen) for name, seen in hits.items()}

    def trace(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    sys.path.insert(0, str(SRC))
    # children started by the tests (``python -m unitforge``) import the same tree
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unreached_total = 0
    print(f"\n{'module':<24}{'lines':>7}{'unreached':>11}  lines")
    for f in files:
        lines = executable_lines(f)
        unreached = sorted(lines - hits[str(f)])
        total += len(lines)
        unreached_total += len(unreached)
        print(f"{f.name:<24}{len(lines):>7}{len(unreached):>11}  {ranges(unreached)}")
    print(f"{'total':<24}{total:>7}{unreached_total:>11}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
