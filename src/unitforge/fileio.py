"""How the package reads text files and writes every output file.

Reading: ``read_lines`` (a file) and ``split_lines`` (text in memory) hold
the one line rule. Text is strict UTF-8. A line ends at ``"\\n"`` or
``"\\r\\n"`` and at no other character, so U+2028, U+0085, ``\\v``,
``\\f`` and a lone ``\\r`` are data. A final line end adds no empty line.
Each line is decoded on its own, and every reader draws its lines inside
``numbered``, which names the line of an input error: ``PATH:LINE: message``.

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
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence


def _lines(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` without their line ends, ``"\\n"`` or ``"\\r\\n"``."""
    for line in lines:
        yield line[:-2] if line.endswith("\r\n") else line[:-1] if line.endswith("\n") else line


def read_lines(path: str | os.PathLike) -> Iterator[str]:
    """The lines of the UTF-8 text file ``path``, one at a time."""
    with open(path, "rb") as fh:
        yield from _lines(map(bytes.decode, fh))


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, split as :func:`read_lines` splits a file."""
    return list(_lines(io.StringIO(text, newline="\n")))


@contextmanager
def numbered(path: str | os.PathLike, error: Callable[[str], Exception],
             items: Iterable | None = None) -> Iterator[Iterator]:
    """The lines of ``path`` (or ``items``, the N-th standing for line N) for
    the block to draw. A ``ValueError`` raised in the block while line N is
    the last one drawn becomes ``error("PATH:N: message")``, or ``PATH: ``
    before line 1, as with ``items=()``; a line that is not UTF-8 gives
    ``PATH:N: not UTF-8``. An error that an inner block located passes as it is."""
    drawn = 0

    def count(lines: Iterable) -> Iterator:
        nonlocal drawn
        for drawn, line in enumerate(lines, start=1):
            yield line

    try:
        yield count(read_lines(path) if items is None else items)
    except ValueError as exc:
        if getattr(exc, "located", False):  # an inner block has named its input
            raise
        if isinstance(exc, UnicodeDecodeError):  # raised while the next line was drawn
            located = error(f"{path}:{drawn + 1}: not UTF-8")
        else:
            located = error(f"{path}:{drawn}: {exc}" if drawn else f"{path}: {exc}")
        located.located = True
        raise located from None


def read_text(path: str | os.PathLike, error: Callable[[str], Exception]) -> str:
    """The whole UTF-8 text file ``path``; bytes that are not UTF-8 raise
    ``error("PATH:N: not UTF-8")``, line N holding them."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8") from None


def two_columns(lines: Iterable[str]) -> Iterator[tuple[str, str]]:
    """The two tab-separated cells of each line; a line of whitespace only is
    skipped, any other without exactly one tab raises ``ValueError``."""
    for line in lines:
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ValueError(f"expected 2 tab-separated columns, got {len(cols)}")
        yield cols[0], cols[1]


def read_table(path: str | os.PathLike, error: Callable[[str], Exception]) -> dict[str, str]:
    """The two-column TSV ``path`` as a lookup table from its first cells to
    its second; a key on more than one line raises ``error`` at its second."""
    table: dict[str, str] = {}
    with numbered(path, error) as lines:
        for key, value in two_columns(lines):
            if key in table:
                raise ValueError(f"repeated key {key!r}")
            table[key] = value
    return table


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
