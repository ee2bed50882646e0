"""How the package reads text files and writes every output file.

Reading: ``read_lines`` (a file) and ``split_lines`` (text in memory) hold
the one line rule. Text is strict UTF-8. A line ends at ``"\\n"`` or
``"\\r\\n"`` and at no other character, so U+2028, U+0085, ``\\v``,
``\\f`` and a lone ``\\r`` are data. A final line end adds no empty line.

Joining: ``join_lines`` and ``join_rows`` (TSV) build the text that the
reader splits back into the same lines and cells, each line ending with
``"\\n"``. A line holding ``"\\n"`` or ending with ``"\\r"`` would not come
back, nor would a cell or header name holding a tab or ``"\\n"``, or a
row's last cell ending with ``"\\r"``: each raises the caller's error,
naming its line (and column). A ``"\\r"`` anywhere else is data.

Writing: ``write_file`` writes to a hidden temporary file
``.NAME.<random>.tmp`` in the target's directory and renames it over the
target, so the target holds either its old bytes or all of the new ones.
A failed write removes the temporary file and leaves the old target in
place. Nothing is fsynced. The target is replaced, not rewritten: a
symlink at the path becomes a regular file, and the new file takes the
mode that the umask gives a newly created one.
"""

from __future__ import annotations

import io
import os
from typing import Callable, Iterable, Iterator, Sequence


def _lines(stream: Iterable[str]) -> Iterator[str]:
    """Lines of a stream opened with ``newline="\\n"``, line ends removed."""
    for line in stream:
        if line.endswith("\r\n"):
            yield line[:-2]
        elif line.endswith("\n"):
            yield line[:-1]
        else:
            yield line


def read_lines(path: str | os.PathLike) -> Iterator[str]:
    """The lines of the UTF-8 text file ``path``, one at a time."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        yield from _lines(fh)


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, split as :func:`read_lines` splits a file."""
    return list(_lines(io.StringIO(text, newline="\n")))


def read_two_columns(path: str | os.PathLike,
                     error: Callable[[str], Exception]) -> Iterator[tuple[int, str, str]]:
    """``(line number, first, second)`` for each line of a two-column TSV;
    a line of whitespace only is skipped, any other without one tab raises ``error``."""
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise error(f"{path}:{lineno}: expected 2 tab-separated columns, got {len(cols)}")
        yield lineno, cols[0], cols[1]


def join_lines(lines: Iterable[str], error: Callable[[str], Exception]) -> str:
    """The text that :func:`split_lines` splits back into ``lines``; a line
    holding ``"\\n"`` or ending with ``"\\r"`` raises ``error``, naming the line."""
    lines = [*lines, ""]
    text = "\n".join(lines)
    if "\r\n" in text or text.count("\n") != len(lines) - 1:
        for n, line in enumerate(lines, start=1):
            if "\n" in line or line.endswith("\r"):
                raise error(f"line {n}: {line!r} holds a line break")
    return text


def join_rows(header: Sequence[str], rows: Iterable[Sequence[str]],
              error: Callable[[str], Exception]) -> str:
    """:func:`join_lines` over ``header`` and ``rows`` of one cell per header
    name, cells joined by tabs; a cell or header name holding a tab or
    ``"\\n"``, or a last one ending with ``"\\r"``, raises ``error``, naming
    the line and column."""
    table = [header, *rows]
    last = len(header) - 1
    for n, cells in enumerate(table, start=1):
        for j, cell in enumerate(cells):
            if "\t" in cell or "\n" in cell or j == last and cell.endswith("\r"):
                raise error(
                    f"line {n}, column {header[j]!r}: {cell!r} holds a tab or a line break")
    return join_lines(map("\t".join, table), error)


def write_file(path: str | os.PathLike, *parts) -> None:
    """Replace ``path`` with the concatenation of ``parts``.

    ``str`` parts are encoded as UTF-8 without newline translation;
    bytes-like parts (including contiguous numpy arrays) are written as
    they are.
    """
    target = os.fspath(path)
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = target  # report the target, not the temporary name
        raise
    try:
        with open(fd, "wb") as fh:
            for part in parts:
                fh.write(part.encode("utf-8") if isinstance(part, str) else part)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
