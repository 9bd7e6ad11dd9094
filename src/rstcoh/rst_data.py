"""Binary discourse trees: data model, text format, validation, vocabulary.

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, NoReturn, Union

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


# --- traversal helpers (iterative: trees from real parsers can be deep) ------


def iter_nodes(tree: RstTree) -> Iterable[RstTree]:
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Internal):
            stack.append(node.right)
            stack.append(node.left)


def count_leaves(tree: RstTree) -> int:
    return len(leaves(tree))


def leaves(tree: RstTree) -> list[Leaf]:
    """The tree's leaves, left to right."""
    return [n for n in iter_nodes(tree) if isinstance(n, Leaf)]


def leaf_texts(tree: RstTree) -> list[str]:
    return [leaf.text for leaf in leaves(tree)]


def child_labels(tree: RstTree) -> list[NodeLabel]:
    """All (relation, nuclearity) labels attached to children of internal nodes."""
    out = []
    for node in iter_nodes(tree):
        if isinstance(node, Internal):
            out.append(node.left_label)
            out.append(node.right_label)
    return out


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


# --- validation -------------------------------------------------------------


class Violation(NamedTuple):
    code: str  # DegenerateTree | EmptyRelation | EmptyEduText
    path: str  # "" = root, else a string of L/R steps


def validate_tree(tree: RstTree) -> list[Violation]:
    """Structural checks; an empty result means the tree is usable."""
    violations: list[Violation] = []
    leaves = 0
    stack: list[tuple[RstTree, str]] = [(tree, "")]
    while stack:
        node, path = stack.pop()
        if isinstance(node, Leaf):
            leaves += 1
            if not node.text.strip():
                violations.append(Violation("EmptyEduText", path))
        else:
            for lab in (node.left_label, node.right_label):
                if not lab.relation:
                    violations.append(Violation("EmptyRelation", path))
            stack.append((node.right, path + "R"))
            stack.append((node.left, path + "L"))
    if leaves < 2:
        violations.append(Violation("DegenerateTree", ""))
    violations.sort()
    return violations


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


def build_relation_vocab(trees: Iterable[RstTree]) -> RelationVocabulary:
    """UNK plus the lexicographically sorted set of combined labels in ``trees``."""
    combined: set[str] = set()
    n = 0
    for tree in trees:
        n += 1
        for lab in child_labels(tree):
            combined.add(lab.combined())
    if n == 0:
        raise DataError("no trees supplied")
    return RelationVocabulary([UNK_LABEL] + sorted(combined))
