"""All-or-nothing text file writes."""

from __future__ import annotations

import itertools
import os
import stat
from contextlib import contextmanager, suppress

_serial = itertools.count()


def _create_beside(path):
    """Create a new file in path's directory and return (name, text file).

    The name (".<pid>.<n>.tmp") does not grow with path's own name, so a
    target of the longest name the file system allows still gets one.
    """
    folder = os.path.dirname(path)
    while True:
        tmp = os.path.join(folder, f".{os.getpid()}.{next(_serial)}.tmp")
        try:
            return tmp, open(tmp, "x", encoding="utf-8", newline="\n")
        except FileExistsError:
            continue


@contextmanager
def atomic_open(path):
    """Yield a text file to write in place of path (UTF-8, "\\n" newlines).

    The text goes to a temporary file beside path, which replaces path only
    once the block has finished without an error. If the block or the
    replacement fails, the temporary file is removed and path keeps its old
    bytes, or stays absent. As with open(path, "w"), a symlink at path is
    written through and an existing file keeps its permission bits.
    """
    path = os.path.realpath(path)
    tmp, fh = _create_beside(path)
    try:
        with fh:
            yield fh
        with suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
