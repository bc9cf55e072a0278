"""Atomic file writes: a failed write leaves any earlier file as it was."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def open_atomic(path):
    """Open a text file for writing under a temporary name in the same
    directory; rename it over `path` when the block exits cleanly, and
    remove it on any failure."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
