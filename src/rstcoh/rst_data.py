"""Binary discourse trees: data model, text format, flat form and its
violations, vocabulary.

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

Only :func:`parse_tree`, :func:`serialize_tree` and :func:`flatten` walk a
tree; :func:`flatten` is also the one place that knows the violation rules
and their L/R paths. The rest reads the :class:`TreeShape` that
``corpus.Document.shape`` caches, so each document's tree is walked once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, NoReturn, Union

import numpy as np

from .errors import DataError, ParseError


class NodeLabel(NamedTuple):
    relation: str
    nuclearity: str  # "N" or "S": parse_tree and parse_label match no other

    def combined(self) -> str:
        return f"{self.relation}_{self.nuclearity}"


@dataclass(frozen=True)
class Leaf:
    text: str


@dataclass(frozen=True)
class Internal:
    left: "RstTree"
    right: "RstTree"
    left_label: NodeLabel
    right_label: NodeLabel


RstTree = Union[Leaf, Internal]

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
    code: str  # DegenerateTree | EmptyRelation | EmptyEduText
    path: str  # "" = root, else a string of L/R steps


_EMPTY_EDU = (Violation("EmptyEduText", ""),)


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
    # Sorted, empty for a usable tree: EmptyEduText at each blank leaf, EmptyRelation
    # at an internal node per child label with no relation, DegenerateTree at a lone leaf.
    violations: list[Violation]


def flatten(tree: RstTree) -> TreeShape:
    """``tree`` in flat form, from one iterative post-order walk (trees from
    real parsers can be deep)."""
    walk = []  # pre-order with right children first: post-order reversed
    stack = [tree]
    while stack:
        node = stack.pop()
        walk.append(node)
        if type(node) is Internal:  # not isinstance: this loop is ingest's hot path
            stack += (node.left, node.right)
    # done: (height, position, violations with paths from it) of each
    # subtree awaiting a parent
    leaves, labels, nodes, done = [], [], [], []
    counts = [0] * len(walk)  # the internal nodes of each height so far
    for node in reversed(walk):
        if type(node) is Leaf:
            done.append((0, len(leaves), () if node.text.strip() else _EMPTY_EDU))
            leaves.append(node.text)
            continue
        right_height, right_position, right_bad = done.pop()
        left_height, left_position, left_bad = done.pop()
        height = max(left_height, right_height) + 1
        nodes.append((height, left_height, right_height, left_position, right_position))
        pair = (node.left_label, node.right_label)
        labels += pair
        bad = ()
        if left_bad or right_bad or not (pair[0].relation and pair[1].relation):
            bad = (*(Violation("EmptyRelation", "") for lab in pair if not lab.relation),
                   *(Violation(code, "L" + path) for code, path in left_bad),
                   *(Violation(code, "R" + path) for code, path in right_bad))
        done.append((height, counts[height], bad))
        counts[height] += 1
    bad = done.pop()[2] + ((Violation("DegenerateTree", ""),) if len(leaves) < 2 else ())
    root = nodes.pop()[1:] if nodes else None
    return TreeShape(leaves, labels, np.array(nodes, dtype=np.intp).reshape(-1, 5), root,
                     sorted(bad))


def count_leaves(tree: RstTree) -> int:
    return len(flatten(tree).leaves)


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


def parse_tree(text: str) -> RstTree:
    """Parse one serialized tree; raises :class:`ParseError` with byte offset."""
    # Each frame is an open internal node: its two labels and its children.
    frames: list[tuple[NodeLabel, NodeLabel, list[RstTree]]] = []
    pos = 0
    while True:
        m = _NODE_RE.match(text, pos)
        if m is None:
            _raise_at(text, pos, "node")
        pos = m.end()
        leaf, rel1, nuc1, rel2, nuc2 = m.groups()
        if leaf is None:
            frames.append((NodeLabel(rel1, nuc1), NodeLabel(rel2, nuc2), []))
            continue
        node: RstTree = Leaf(_UNESCAPE_RE.sub(r"\1", leaf) if "\\" in leaf else leaf)
        while frames:
            children = frames[-1][2]
            children.append(node)
            if len(children) < 2:
                break
            m = _CLOSE_RE.match(text, pos)
            if m is None:
                _raise_at(text, pos, ")")
            pos = m.end()
            left_label, right_label, _ = frames.pop()
            node = Internal(children[0], children[1], left_label, right_label)
        else:
            if text[pos:].strip():
                _raise_at(text, pos, "end")
            return node


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def serialize_tree(tree: RstTree) -> str:
    """Canonical single-space serialization; inverse of :func:`parse_tree`."""
    out: list[str] = []
    stack: list[RstTree | str] = [tree]  # nodes still to write, and the text between
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Leaf):
            out.append(f'(edu "{_escape(item.text)}")')
        else:
            ll, rl = item.left_label, item.right_label
            out.append(f"(rel {ll.relation}/{ll.nuclearity} "
                       f"{rl.relation}/{rl.nuclearity} ")
            stack += (")", item.right, " ", item.left)
    return "".join(out)


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
