"""Binary discourse trees: data model, text format, validation, vocabulary.

Tree text format (one s-expression per line in tree files)::

    tree     := leaf | internal
    leaf     := "(" "edu" quoted-string ")"
    internal := "(" "rel" label "/" nuc label "/" nuc tree tree ")"
    nuc      := "N" | "S"
    label    := [A-Za-z][A-Za-z0-9-]*

Whitespace between tokens is insignificant. Inside quoted strings the
escapes \\" and \\\\ are honored. The first label/nuc pair describes the
left child, the second the right child; the root itself carries no label.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

from .errors import DataError, ParseError


class Nuclearity(enum.Enum):
    N = "N"
    S = "S"


class NodeLabel(NamedTuple):
    relation: str
    nuclearity: Nuclearity

    def combined(self) -> str:
        return f"{self.relation}_{self.nuclearity.value}"


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

_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9-]*")


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


def count_nodes(tree: RstTree) -> int:
    return sum(1 for _ in iter_nodes(tree))


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


class _Token(NamedTuple):
    kind: str  # "(", ")", "/", "atom", "string"
    value: str
    pos: int  # character offset into the source


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()/":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch == '"':
            start = i
            i += 1
            buf = []
            while i < n:
                ch = text[i]
                if ch == "\\":
                    if i + 1 >= n:
                        raise ParseError("unterminated escape", _byte_offset(text, i))
                    nxt = text[i + 1]
                    if nxt not in ('"', "\\"):
                        raise ParseError(f"unknown escape \\{nxt}",
                                         _byte_offset(text, i))
                    buf.append(nxt)
                    i += 2
                elif ch == '"':
                    i += 1
                    tokens.append(_Token("string", "".join(buf), start))
                    break
                else:
                    buf.append(ch)
                    i += 1
            else:
                raise ParseError("unterminated string", _byte_offset(text, start))
            continue
        m = _LABEL_RE.match(text, i)
        if m:
            tokens.append(_Token("atom", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", _byte_offset(text, i))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _fail(self, message: str, tok: _Token | None = None):
        pos = tok.pos if tok is not None else len(self.text)
        raise ParseError(message, _byte_offset(self.text, pos))

    def _next(self, expected: str) -> _Token:
        if self.i >= len(self.tokens):
            self._fail(f"unbalanced parentheses: expected {expected}, got end of input")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._next(what)
        if tok.kind != kind:
            self._fail(f"expected {what}, got {tok.value!r}", tok)
        return tok

    def _label_pair(self) -> NodeLabel:
        lab = self._expect("atom", "relation label")
        self._expect("/", "'/'")
        nuc = self._next("nuclearity")
        if nuc.kind != "atom" or nuc.value not in ("N", "S"):
            self._fail(f"bad nuclearity token {nuc.value!r}", nuc)
        return NodeLabel(lab.value, Nuclearity(nuc.value))

    def parse(self) -> RstTree:
        root = self._tree()
        if self.i < len(self.tokens):
            self._fail("unbalanced parentheses: trailing content",
                       self.tokens[self.i])
        return root

    def _tree(self) -> RstTree:
        # Iterative: a stack of partially-built internal nodes.
        frames: list[tuple[NodeLabel, NodeLabel, list[RstTree]]] = []
        while True:
            self._expect("(", "'('")
            kw = self._expect("atom", "node keyword")
            if kw.value == "edu":
                s = self._expect("string", "quoted EDU text")
                if s.value == "":
                    self._fail("empty EDU string", s)
                self._expect(")", "')'")
                node: RstTree = Leaf(s.value)
            elif kw.value == "rel":
                left_label = self._label_pair()
                right_label = self._label_pair()
                frames.append((left_label, right_label, []))
                continue
            else:
                self._fail(f"unknown node keyword {kw.value!r}", kw)
            while frames:
                frames[-1][2].append(node)
                if len(frames[-1][2]) < 2:
                    break
                ll, rl, children = frames.pop()
                self._expect(")", "')'")
                node = Internal(children[0], children[1], ll, rl)
            else:
                return node


def parse_tree(text: str) -> RstTree:
    """Parse one serialized tree; raises :class:`ParseError` with byte offset."""
    return _Parser(text).parse()


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def serialize_tree(tree: RstTree) -> str:
    """Canonical single-space serialization; inverse of :func:`parse_tree`."""
    out: list[str] = []
    stack: list[tuple[str, object]] = [("node", tree)]
    while stack:
        kind, item = stack.pop()
        if kind == "text":
            out.append(item)  # type: ignore[arg-type]
        elif isinstance(item, Leaf):
            out.append(f'(edu "{_escape(item.text)}")')
        else:
            node: Internal = item  # type: ignore[assignment]
            ll, rl = node.left_label, node.right_label
            out.append(f"(rel {ll.relation}/{ll.nuclearity.value} "
                       f"{rl.relation}/{rl.nuclearity.value} ")
            stack.append(("text", ")"))
            stack.append(("node", node.right))
            stack.append(("text", " "))
            stack.append(("node", node.left))
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
    """Frozen ordered map from combined "Relation_N"/"Relation_S" labels to
    embedding row indices. Index 0 is always the UNK fallback."""

    def __init__(self, labels: Iterable[str]):
        labels = list(labels)
        if not labels or labels[0] != UNK_LABEL:
            labels = [UNK_LABEL] + labels
        if len(set(labels)) != len(labels):
            raise DataError("duplicate labels in vocabulary")
        self._labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self._labels)}

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def size(self) -> int:
        return len(self._labels)

    def index_of(self, combined: str) -> int:
        return self._index.get(combined, 0)

    def index_of_label(self, label: NodeLabel) -> int:
        return self.index_of(label.combined())

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
