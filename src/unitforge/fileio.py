"""The one write path for every file the package produces.

``write_file`` writes to a hidden temporary file ``.NAME.<random>.tmp``
in the target's directory and renames it over the target, so the target
holds either its old bytes or all of the new ones. A failed write
removes the temporary file and leaves the old target in place. Nothing
is fsynced. The target is replaced, not rewritten: a symlink at the path
becomes a regular file, and the new file takes the mode that the umask
gives a newly created one.
"""

from __future__ import annotations

import os


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
