"""Atomic artifact writes: a reader sees the old file or the whole new one."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_write(path, newline: str | None = None) -> Iterator[IO[str]]:
    """Open a UTF-8 text file for writing in ``path``'s place.

    The text goes to a temporary file in the same directory, which replaces
    ``path`` with ``os.replace`` when the block ends normally. When the
    block raises, the temporary file is removed and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
