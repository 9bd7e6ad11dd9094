"""Exception types shared across the package.

``exit_code`` is the CLI's exit status for each error: 1 for a config
error, 3 when training diverged, 2 (the base class's) for everything else.
"""

from __future__ import annotations


class RstcohError(Exception):
    """Base class for all package errors."""

    exit_code = 2


# --- numerics ---------------------------------------------------------------


class DimensionError(RstcohError):
    """Operands have incompatible shapes for the requested operation."""


class ShapeError(RstcohError):
    """A tensor has the wrong rank/shape for this context (e.g. non-scalar loss)."""


class StateError(RstcohError):
    """Optimizer state is inconsistent with the requested step."""


# --- tree format ------------------------------------------------------------


class ParseError(RstcohError):
    """Malformed tree text. ``offset`` is the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EmptyVocabError(RstcohError):
    """No trees were supplied to build a relation vocabulary from."""


class ValidationError(RstcohError):
    """A tree violates structural requirements at a point where that is fatal."""


class DegenerateTreeError(RstcohError):
    """A tree with fewer than two leaves cannot be classified."""


# --- corpus -----------------------------------------------------------------


class IngestError(RstcohError):
    """Malformed record in a corpus file. ``line`` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateIdError(RstcohError):
    """The same document id appears more than once."""


class FormatError(RstcohError):
    """A word-vector file is internally inconsistent."""


class EmptyDocumentError(RstcohError):
    """A document yields no tokens at all."""


class ConfigError(RstcohError):
    """A configuration value is illegal or inconsistent."""

    exit_code = 1


# --- training / evaluation --------------------------------------------------


class TrainingDiverged(RstcohError):
    """Loss became non-finite during training."""

    exit_code = 3

    def __init__(self, doc_id: str):
        super().__init__(f"non-finite loss on document {doc_id!r}")
        self.doc_id = doc_id


class EmptyEvaluationError(RstcohError):
    """An evaluation was requested over zero observations."""
