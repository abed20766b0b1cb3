"""Small shared I/O helpers.

:func:`write_atomic` is the repository's one way to publish a file
other processes may be reading concurrently: the text lands in a
temporary file in the destination directory and moves into place with
``os.replace``, so a reader opening the path sees either the previous
complete contents or the new complete contents — never a torn write.
The batch workers' per-day label CSVs, the warehouse manifest and the
serve scheduler's journal all go through it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def write_atomic_bytes(path: Union[str, Path], payload: bytes) -> None:
    """Binary twin of :func:`write_atomic` (tmp file + ``os.replace``).

    Column bundles go through this — warehouse segment files and
    alarm-cache entries: a reader memory-mapping or loading the path
    sees either the previous complete bundle or the new one, never a
    torn one.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_atomic(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    The temporary file is created in ``path``'s directory so the final
    rename stays on one filesystem (cross-device renames are copies,
    not atomic).  On any failure the temporary file is removed and the
    destination is left untouched.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
