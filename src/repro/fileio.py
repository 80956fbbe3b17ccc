"""Atomic file publication: the one way this package replaces a file.

Every writer whose readers must never observe a torn file — verdict-cache
scopes, the job journal's result store, metrics and heartbeat
snapshots, trace exports — goes through :func:`atomic_write`:
write a temporary sibling, then ``os.replace`` it over the target (atomic
on POSIX), unlinking the temporary on any failure.
"""

from __future__ import annotations

import os
import tempfile
from typing import Callable, Optional, Union


def atomic_write(
    path: Union[str, os.PathLike],
    data: Union[str, bytes],
    *,
    fsync: bool = False,
    before_replace: Optional[Callable[[str], None]] = None,
) -> None:
    """Publish *data* at *path* atomically, creating the directory if needed.

    *fsync* forces the bytes to disk before the rename (durability, not just
    atomicity).  *before_replace* is called with the temporary file's path
    once it is fully written and closed, right before it is renamed into
    place — the fault-injection harness truncates it there.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=os.path.basename(path), suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        if before_replace is not None:
            before_replace(tmp_name)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
