"""Exception types shared across the package.

``exit_code`` is the CLI's exit status for each error: 1 for a config
error, 3 when training diverged, 2 (the base class's) for everything else.
A class exists only where something tells it apart: its own exit code, an
attribute the caller reads, or a handler that catches it.
"""

from __future__ import annotations

import contextlib
from typing import Iterator


class RstcohError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class DataError(RstcohError):
    """Malformed or inconsistent data: a tensor shape, a tree, a document, a
    word-vector file, a checkpoint or an empty evaluation."""


class ParseError(DataError):
    """Malformed tree text. ``offset`` is the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class IngestError(DataError):
    """Malformed record in a corpus file. ``line`` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(RstcohError):
    """A configuration value is illegal or inconsistent."""

    exit_code = 1


@contextlib.contextmanager
def allocating(what: str) -> Iterator[None]:
    """Turn a failed allocation in the block into a :class:`ConfigError`
    that names ``what``, the configured sizes being allocated."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        # numpy's ValueErrors for a size that no array can have
        if isinstance(exc, ValueError) and not str(exc).startswith(
                ("array is too big", "Maximum allowed dimension exceeded")):
            raise
        raise ConfigError(f"{what} cannot be allocated: {exc}") from None


class TrainingDiverged(RstcohError):
    """A document's loss in training, or its class distribution in
    evaluation, became non-finite."""

    exit_code = 3

    def __init__(self, doc_id: str):
        super().__init__(f"non-finite loss on document {doc_id!r}")
        self.doc_id = doc_id
