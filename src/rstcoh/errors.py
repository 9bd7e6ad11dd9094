"""Exception types shared across the package.

``exit_code`` is the CLI's exit status for each error: 1 for a config
error, 3 when training diverged, 2 (the base class's) for everything else.
A class exists only where something tells it apart: its own exit code, an
attribute the caller reads, or a handler that catches it.
"""

from __future__ import annotations


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


class TrainingDiverged(RstcohError):
    """Loss became non-finite during training."""

    exit_code = 3

    def __init__(self, doc_id: str):
        super().__init__(f"non-finite loss on document {doc_id!r}")
        self.doc_id = doc_id
