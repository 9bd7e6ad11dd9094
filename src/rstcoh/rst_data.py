"""Binary discourse trees: text format, flat form and its violations,
vocabulary.

Tree text format (one s-expression per line in tree files)::

    tree     := leaf | internal
    leaf     := "(" "edu" quoted-string ")"
    internal := "(" "rel" label "/" nuc label "/" nuc tree tree ")"
    nuc      := "N" | "S"
    label    := [A-Za-z][A-Za-z0-9-]*

Whitespace (any character for which ``str.isspace`` holds) between tokens
is insignificant. Inside quoted strings the escapes \\" and \\\\ are honored.
The first label/nuc pair describes the left child, the second the right
child; the root itself carries no label. Every :class:`ParseError` carries
the UTF-8 byte offset of the offending token, and a lexical error anywhere
on a line is reported before any grammar error on it.

A child's :class:`NodeLabel` is its relation and its nuclearity, "N" or "S".
Vocabularies, checkpoints and generator configs hold it as one string,
``<relation>_<N|S>``: :meth:`NodeLabel.combined` writes that form and
:func:`parse_label` is its one reader.

A tree is held as its text, and there is no object tree: :func:`edu_text`
and :func:`rel_text` write the canonical text, and :func:`parse_tree` is
the one walk of a tree and the one producer of its :class:`TreeShape`, the
flat form that models and vocabularies read. It is also the one place that
knows the violation rules and their L/R paths.
"""

from __future__ import annotations

import re
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, NoReturn

import numpy as np

from .errors import DataError, ParseError


class NodeLabel(NamedTuple):
    relation: str
    nuclearity: str  # "N" or "S": parse_tree and parse_label match no other

    def combined(self) -> str:
        return f"{self.relation}_{self.nuclearity}"


_LABEL = r"[A-Za-z][A-Za-z0-9-]*"
_COMBINED_RE = re.compile(rf"({_LABEL})_([NS])")


def parse_label(text: str) -> NodeLabel:
    """The label whose :meth:`NodeLabel.combined` form is ``text``; anything
    else, a non-string included, raises :class:`DataError`."""
    m = _COMBINED_RE.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise DataError(f"not a <relation>_<N|S> label: {text!r}")
    return NodeLabel(*m.groups())


# --- flat form ----------------------------------------------------------------


class Violation(NamedTuple):
    code: str  # DegenerateTree | EmptyEduText
    path: str  # "" = root, else a string of L/R steps


class TreeShape(NamedTuple):
    """A tree in flat form. A node's height is 0 for a leaf, else one more
    than its taller child's; its position counts the nodes of its height
    before it in post-order, so the leaves' positions run left to right."""

    leaves: list[str]  # the leaves' texts
    labels: list[NodeLabel]  # each internal node's two child labels, in post-order
    # (N, 5) intp: the height, then the left and right child's heights, then
    # their positions, of each internal node but the root, in post-order
    nodes: np.ndarray
    root: tuple[int, int, int, int] | None  # the same of the root's children
    # Sorted, empty for a usable tree: EmptyEduText at each blank leaf,
    # DegenerateTree at a lone leaf.
    violations: list[Violation]


# --- text ----------------------------------------------------------------------


def edu_text(text: str) -> str:
    """The canonical text of a leaf whose EDU text is ``text``."""
    return '(edu "' + text.replace("\\", "\\\\").replace('"', '\\"') + '")'


def rel_text(left: str, right: str, left_label: NodeLabel, right_label: NodeLabel) -> str:
    """The canonical text of an internal node over the subtrees whose
    canonical texts are ``left`` and ``right``."""
    return (f"(rel {left_label.relation}/{left_label.nuclearity} "
            f"{right_label.relation}/{right_label.nuclearity} {left} {right})")


def count_leaves(text: str) -> int:
    return len(parse_tree(text).leaves)


# --- parsing ----------------------------------------------------------------


# One match per node: a leaf ``(edu "...")`` whole, or the header
# ``(rel A/N B/S`` of an internal node; a third pattern matches its ``)``.
# Every match starts and ends on a token boundary, so the text before a
# failed match holds whole, well-formed tokens.
_PAIR = rf"({_LABEL})\s*/\s*([NS])(?![A-Za-z0-9-])"
_STRING_BODY = r'([^"\\]*(?:\\["\\][^"\\]*)*)'  # up to a quote or a bad escape
_NODE_RE = re.compile(rf'\s*\(\s*(?:edu\s*"(?!"){_STRING_BODY}"\s*\)'
                      rf"|rel\s+{_PAIR}\s*{_PAIR})")
_CLOSE_RE = re.compile(r"\s*\)")
_UNESCAPE_RE = re.compile(r'\\(["\\])')
# One token of the error path: punctuation, an atom, or a string whose
# closing quote is missing when it stops at a bad escape or the end.
_TOKEN_RE = re.compile(rf'\s*(?:([()/])|({_LABEL})|"{_STRING_BODY}("?))?')


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokens(text: str, pos: int) -> list[tuple[str, str, int]]:
    """(kind, value, character offset) of each token from ``pos`` on; kind is
    ``(``, ``)``, ``/``, ``atom`` or ``string``. Raises the first lexical error."""
    tokens = []
    while True:
        m = _TOKEN_RE.match(text, pos)
        pos = m.end()
        punct, atom, string, closed = m.groups()
        if punct is not None:
            tokens.append((punct, punct, m.start(1)))
        elif atom is not None:
            tokens.append(("atom", atom, m.start(2)))
        elif string is not None:
            start = m.start(3) - 1
            if not closed:  # it stops at the end of the text or at a backslash
                if pos == len(text):
                    raise ParseError("unterminated string", _byte_offset(text, start))
                message = ("unterminated escape" if pos + 1 == len(text)
                           else f"unknown escape \\{text[pos + 1]}")
                raise ParseError(message, _byte_offset(text, pos))
            tokens.append(("string", _UNESCAPE_RE.sub(r"\1", string), start))
        elif pos == len(text):
            return tokens
        else:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             _byte_offset(text, pos))


def _raise_at(text: str, pos: int, expected: str) -> NoReturn:
    """Raise the error of the text from ``pos`` on, where ``expected`` (a node,
    ``)`` or the end) failed to match. A lexical error anywhere there wins;
    the text before ``pos`` has none."""
    tokens = iter(_tokens(text, pos))

    def fail(message, tok=None):
        raise ParseError(message, _byte_offset(text, len(text) if tok is None else tok[2]))

    def take(what, kind=None):
        tok = next(tokens, None)
        if tok is None:
            fail(f"unbalanced parentheses: expected {what}, got end of input")
        if kind is not None and tok[0] != kind:
            fail(f"expected {what}, got {tok[1]!r}", tok)
        return tok

    if expected == "end":
        fail("unbalanced parentheses: trailing content", next(tokens))
    elif expected == ")":
        take("')'", ")")
    else:
        take("'('", "(")
        keyword = take("node keyword", "atom")
        if keyword[1] == "edu":
            string = take("quoted EDU text", "string")
            if string[1] == "":
                fail("empty EDU string", string)
            take("')'", ")")
        elif keyword[1] == "rel":
            for _ in range(2):
                take("relation label", "atom")
                take("'/'", "/")
                nuc = take("nuclearity")
                if nuc[0] != "atom" or nuc[1] not in ("N", "S"):
                    fail(f"bad nuclearity token {nuc[1]!r}", nuc)
        else:
            fail(f"unknown node keyword {keyword[1]!r}", keyword)
    raise AssertionError(f"well-formed node at offset {pos} did not match")


def parse_tree(text: str) -> TreeShape:
    """The flat form of one serialized tree, from one pass over its text that
    closes each node as its ``)`` is read (post-order; iterative, for the
    deep trees of real parsers). Raises :class:`ParseError` with byte offset."""
    # (left label, right label, len(done) when it opened) of each open internal
    # node; (height, position) of each subtree awaiting a parent
    frames: list[tuple[NodeLabel, NodeLabel, int]] = []
    done: list[tuple[int, int]] = []
    leaves, labels, nodes, bad = [], [], [], []
    counts = [0]  # the internal nodes of each height so far
    pos = 0
    while True:
        m = _NODE_RE.match(text, pos)
        if m is None:
            _raise_at(text, pos, "node")
        pos = m.end()
        leaf, rel1, nuc1, rel2, nuc2 = m.groups()
        if leaf is None:
            frames.append((NodeLabel(rel1, nuc1), NodeLabel(rel2, nuc2), len(done)))
            continue
        if "\\" in leaf:
            leaf = _UNESCAPE_RE.sub(r"\1", leaf)
        if not leaf.strip():
            # an open node holds the leaf on its left when its child on the
            # path (the next frame, or the leaf) came while done was as it opened
            opened = [frame[2] for frame in frames] + [len(done)]
            bad.append(Violation("EmptyEduText", "".join(
                "L" if here == below else "R" for here, below in zip(opened, opened[1:]))))
        done.append((0, len(leaves)))
        leaves.append(leaf)
        while frames and len(done) - frames[-1][2] == 2:
            m = _CLOSE_RE.match(text, pos)
            if m is None:
                _raise_at(text, pos, ")")
            pos = m.end()
            left_label, right_label, _ = frames.pop()
            right_height, right_position = done.pop()
            left_height, left_position = done.pop()
            height = max(left_height, right_height) + 1
            nodes.append((height, left_height, right_height, left_position, right_position))
            labels += (left_label, right_label)
            if height == len(counts):
                counts.append(0)
            done.append((height, counts[height]))
            counts[height] += 1
        if not frames:
            break
    if text[pos:].strip():
        _raise_at(text, pos, "end")
    if len(leaves) < 2:
        bad.append(Violation("DegenerateTree", ""))
    root = nodes.pop()[1:] if nodes else None
    return TreeShape(leaves, labels, np.array(nodes, dtype=np.intp).reshape(-1, 5), root,
                     sorted(bad))


# --- relation vocabulary ----------------------------------------------------

UNK_LABEL = "UNK"


class RelationVocabulary:
    """Frozen ordered list of combined ``<relation>_<N|S>`` labels: a label's
    position is its embedding row, and row 0 is always the UNK fallback. The
    other entries must be distinct labels, or the constructor raises
    :class:`DataError`; ``rows`` maps the :class:`NodeLabel` of each to its row."""

    def __init__(self, labels: Iterable[str]):
        labels = list(labels)
        if not labels or labels[0] != UNK_LABEL:
            labels = [UNK_LABEL] + labels
        rows = {parse_label(label): row for row, label in enumerate(labels[1:], start=1)}
        if len(rows) != len(labels) - 1:
            raise DataError("duplicate labels in vocabulary")
        self._labels = tuple(labels)
        self.rows: Mapping[NodeLabel, int] = MappingProxyType(rows)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def size(self) -> int:
        return len(self._labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, RelationVocabulary) and self._labels == other._labels


def build_relation_vocab(shapes: Iterable[TreeShape]) -> RelationVocabulary:
    """UNK plus the lexicographically sorted set of combined labels of the
    trees whose flat forms are ``shapes``."""
    shapes = list(shapes)
    if not shapes:
        raise DataError("no trees supplied")
    labels = set(chain.from_iterable(shape.labels for shape in shapes))
    return RelationVocabulary([UNK_LABEL] + sorted({lab.combined() for lab in labels}))
