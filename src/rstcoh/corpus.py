"""Dataset ingestion, text segmentation, and a planted-signal corpus generator.

This module owns the rule that turns text into tokens (:func:`tokenize`):
:func:`segment` applies it to a document's sentences and
:attr:`Document.edus` to its tree's leaves, once per document. Ingest
drops a document with an EDU that has no tokens, so every model reads
non-empty token lists.

File formats:

* documents: JSON Lines, one object per document with fields
  ``id`` (string), ``label`` (1|2|3), ``text`` (string), optional
  ``split`` ("train"|"test", default "train") and optional ``paragraphs``
  (paragraph -> sentence -> token lists) overriding segmentation.
* trees: one record per line, ``<id> <TAB> <serialized tree>`` (see
  :mod:`rstcoh.rst_data` for the tree grammar).
* word vectors: plain text, ``token v1 ... vD`` per line, read into a
  :class:`WordVectors`: a token -> row map and one matrix, so that the
  rows of a batch's tokens are one gather.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import rst_data
from .atomic import atomic_write
from .errors import ConfigError, DataError, IngestError, ParseError
from .metrics import CLASSES

Paragraphs = list[list[list[str]]]


@dataclass
class Document:
    id: str
    label: int
    text: str
    paragraphs: Paragraphs
    tree: rst_data.RstTree

    @functools.cached_property
    def edus(self) -> list[list[str]]:
        """The tokens of the tree's leaves, left to right, interned.

        Computed on first use, so a document that no model reads (most of
        a synthesized pool) never holds them; ``tree`` must not be
        replaced after that.
        """
        return [[sys.intern(tok) for tok in tokenize(text)]
                for text in rst_data.leaf_texts(self.tree)]


class WordVectors:
    """Frozen word vectors: a token -> row map and one read-only (V+1, D)
    matrix, built once from ``vectors`` (token -> D values, in row order).
    Row 0 is the zero vector that every token the map lacks reads, so the
    vectors of a list of tokens are one gather of rows."""

    def __init__(self, dimension: int, vectors: Mapping[str, Sequence[float]]):
        matrix = np.zeros((len(vectors) + 1, dimension))
        if vectors:
            matrix[1:] = list(vectors.values())
        matrix.flags.writeable = False
        self._rows = {token: row for row, token in enumerate(vectors, start=1)}
        self.matrix = matrix

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    @property
    def rows(self) -> Mapping[str, int]:
        """Read-only token -> row of ``matrix``; absent tokens read row 0."""
        return MappingProxyType(self._rows)

    def stack(self, tokens: Sequence[str]) -> np.ndarray:
        """The vectors of ``tokens`` as the rows of one (len(tokens), D) array."""
        rows = np.fromiter(map(self._rows.get, tokens, itertools.repeat(0)),
                           np.intp, len(tokens))
        return self.matrix.take(rows, axis=0)


@dataclass
class Exclusion:
    doc_id: str
    reason: str


@dataclass
class CorpusSplit:
    train: list[Document]
    test: list[Document]
    exclusion_log: list[Exclusion] = field(default_factory=list)


# --- segmentation -----------------------------------------------------------

_PARA_RE = re.compile(r"\n\s*\n")
_SENT_RE = re.compile(r"(?<=[.?!])\s+(?=[A-Z])")
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def segment(text: str) -> Paragraphs:
    """Split text into paragraph -> sentence -> token structure.

    Paragraphs split on blank lines; sentences split after [.?!] followed by
    whitespace and an uppercase letter (or at end of text); tokens are
    lowercased with punctuation acting as a separator.
    """
    paragraphs: Paragraphs = []
    for block in _PARA_RE.split(text):
        sentences = []
        for sent in _SENT_RE.split(block):
            tokens = tokenize(sent)
            if tokens:
                sentences.append(tokens)
        if sentences:
            paragraphs.append(sentences)
    if not paragraphs:
        raise DataError("text contains no tokens")
    return paragraphs


def join_paragraphs(paragraphs: Paragraphs) -> str:
    """Canonical inverse of :func:`segment` for alphabetic-initial sentences."""
    blocks = []
    for para in paragraphs:
        sentences = [" ".join(tokens).capitalize() + "." for tokens in para]
        blocks.append(" ".join(sentences))
    return "\n\n".join(blocks)


# --- ingestion ----------------------------------------------------------------


def _parse_document_record(obj: dict, line_no: int) -> tuple[str, int, str, Paragraphs | None, str]:
    if not isinstance(obj, dict):
        raise IngestError("record is not a JSON object", line_no)
    for key in ("id", "label", "text"):
        if key not in obj:
            raise IngestError(f"missing field {key!r}", line_no)
    doc_id = obj["id"]
    if not isinstance(doc_id, str) or not doc_id:
        raise IngestError("id must be a non-empty string", line_no)
    label = obj["label"]
    if type(label) is not int or label not in CLASSES:
        raise IngestError(f"label must be one of {CLASSES}, got {label!r}", line_no)
    text = obj["text"]
    if not isinstance(text, str):
        raise IngestError("text must be a string", line_no)
    split = obj.get("split", "train")
    if split not in ("train", "test"):
        raise IngestError(f"split must be 'train' or 'test', got {split!r}", line_no)
    paragraphs = obj.get("paragraphs")
    if paragraphs is not None:
        ok = (isinstance(paragraphs, list) and paragraphs
              and all(isinstance(p, list) and p and
                      all(isinstance(s, list) and s and
                          all(isinstance(t, str) for t in s) for s in p)
                      for p in paragraphs))
        if not ok:
            raise IngestError("paragraphs must be a non-empty nested token list",
                              line_no)
    return doc_id, label, text, paragraphs, split


def _numbered_lines(path) -> Iterator[tuple[int, str]]:
    """(1-based number, line) of each line of a UTF-8 text file; bytes that
    are not UTF-8 raise :class:`DataError` naming the file. Only ``\n``
    ends a line: a lone ``\r`` is part of it (a CRLF line keeps its
    ``\r``, which every reader takes as trailing whitespace)."""
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_tree_lines(path) -> Iterator[tuple[int, str, str]]:
    """(line number, id, tree text) of each non-blank line of a trees file.

    This is the one reader of the ``<id><TAB><tree>`` line format: a line
    without a tab or with an empty id raises :class:`IngestError`, a
    repeated id :class:`DataError`. The tree text is not parsed here.
    """
    seen: set[str] = set()
    for line_no, line in _numbered_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise IngestError("expected '<id><TAB><tree>'", line_no)
        doc_id, text = line.split("\t", 1)
        doc_id = doc_id.strip()
        if not doc_id:
            raise IngestError("empty tree id", line_no)
        if doc_id in seen:
            raise DataError(f"duplicate tree id {doc_id!r} at line {line_no}")
        seen.add(doc_id)
        yield line_no, doc_id, text


def _load_trees_file(path) -> dict[str, tuple[rst_data.RstTree | None, str]]:
    """Map id -> (tree, "") on success or (None, reason) on parse failure."""
    trees: dict[str, tuple[rst_data.RstTree | None, str]] = {}
    for _, doc_id, text in read_tree_lines(path):
        try:
            trees[doc_id] = (rst_data.parse_tree(text), "")
        except ParseError as exc:
            trees[doc_id] = (None, f"tree parse error: {exc}")
    return trees


def load_corpus(docs_path, trees_path) -> CorpusSplit:
    """Join a documents file with a trees file by id.

    Documents whose tree is missing, unparseable, failing validation, or
    whose EDUs carry no tokens are dropped and logged, never silently.
    """
    trees = _load_trees_file(trees_path)
    train: list[Document] = []
    test: list[Document] = []
    excluded: list[Exclusion] = []
    seen: set[str] = set()
    for line_no, line in _numbered_lines(docs_path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IngestError(f"bad JSON: {exc.msg}", line_no) from exc
        doc_id, label, text, paragraphs, split = _parse_document_record(obj, line_no)
        if doc_id in seen:
            raise DataError(f"duplicate document id {doc_id!r} at line {line_no}")
        seen.add(doc_id)
        if paragraphs is None:
            try:
                paragraphs = segment(text)
            except DataError as exc:
                raise IngestError(str(exc), line_no) from exc
        entry = trees.get(doc_id)
        if entry is None:
            excluded.append(Exclusion(doc_id, "missing tree"))
            continue
        tree, reason = entry
        if tree is None:
            excluded.append(Exclusion(doc_id, reason))
            continue
        violations = rst_data.validate_tree(tree)
        if violations:
            codes = ",".join(sorted({v.code for v in violations}))
            excluded.append(Exclusion(doc_id, f"invalid tree: {codes}"))
            continue
        doc = Document(doc_id, label, text, paragraphs, tree)
        if not all(doc.edus):
            excluded.append(Exclusion(doc_id, "EDU with no tokens"))
            continue
        (train if split == "train" else test).append(doc)
    return CorpusSplit(train, test, excluded)


def load_word_vectors(path, vocab: set[str] | None = None) -> WordVectors:
    """Read "token v1 ... vD" lines, keeping only tokens in ``vocab`` if given.

    Fields split on any whitespace, so trailing spaces and CRLF endings
    load. A word2vec "count dim" first line is skipped when dim equals the
    number of values on the next line. Values must be finite.
    """
    dimension: int | None = None
    vectors: dict[str, list[float]] = {}
    rows = ((line_no, line.split()) for line_no, line in _numbered_lines(path))
    head = list(itertools.islice(rows, 2))
    if len(head) == 2 and len(head[0][1]) == 2 \
            and all(f.isdecimal() for f in head[0][1]) \
            and int(head[0][1][1]) == len(head[1][1]) - 1:
        head = head[1:]
    for line_no, parts in itertools.chain(head, rows):
        if len(parts) < 2:
            raise DataError(f"line {line_no}: expected 'token v1 ... vD'")
        token, values = parts[0], parts[1:]
        if dimension is None:
            dimension = len(values)
        elif len(values) != dimension:
            raise DataError(
                f"line {line_no}: {len(values)} values, expected {dimension}")
        if vocab is not None and token not in vocab:
            continue
        try:
            vec = [float(v) for v in values]
        except ValueError as exc:
            raise DataError(f"line {line_no}: non-numeric value") from exc
        if not np.isfinite(vec).all():
            raise DataError(f"line {line_no}: non-finite value")
        vectors[token] = vec
    if dimension is None:
        raise DataError("empty word-vector file")
    return WordVectors(dimension, vectors)


def corpus_token_vocab(split: CorpusSplit) -> set[str]:
    """All tokens appearing in documents or tree leaves of a split."""
    vocab: set[str] = set()
    for doc in itertools.chain(split.train, split.test):
        for para in doc.paragraphs:
            for sent in para:
                vocab.update(sent)
        for tokens in doc.edus:
            vocab.update(tokens)
    return vocab


# --- synthetic corpus ---------------------------------------------------------

DEFAULT_RELATIONS = (
    "Attribution", "Background", "Cause", "Comparison", "Condition",
    "Contrast", "Elaboration", "Enablement", "Evaluation", "Explanation",
    "Joint", "Same-Unit", "Summary", "Temporal", "Topic-Change",
)

# 15 relations x {N, S} plus one single-nuclearity label = 31 combined labels.
DEFAULT_LABELS = tuple(sorted(
    [f"{rel}_{nuc}" for rel in DEFAULT_RELATIONS for nuc in ("N", "S")]
    + ["TextualOrganization_N"]
))

DEFAULT_TOKEN_POOL = (
    "alder", "basil", "cedar", "dahlia", "elm", "fennel", "ginkgo", "hazel",
    "iris", "juniper", "kale", "laurel", "maple", "nettle", "oak", "poplar",
    "quince", "rowan", "sage", "thyme", "umber", "violet", "willow", "yarrow",
    "zinnia", "aspen", "birch", "clover", "fern", "heather",
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Planted-signal corpus: relation labels (and optionally tokens) are
    drawn from class-conditional distributions.

    Coherent documents (class 3) draw each child label from
    ``coherent_labels`` with probability ``signal_strength`` and uniformly
    otherwise; neutral documents (class 2) do the same with
    ``neutral_labels``; incoherent documents (class 1) always draw
    uniformly. ``token_signal`` applies the same scheme to EDU tokens.

    ``edu_range`` and ``tokens_per_edu`` are (lo, hi) pairs, both ends
    included. The constructor raises :class:`ConfigError` for an illegal value.
    """

    n_train: int = 300
    n_test: int = 150
    labels: tuple[str, ...] = DEFAULT_LABELS
    coherent_labels: tuple[str, ...] | None = None
    neutral_labels: tuple[str, ...] | None = None
    signal_strength: float = 0.9
    class_probs: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    edu_range: tuple[int, int] = (4, 16)
    tokens_per_edu: tuple[int, int] = (3, 7)
    max_paragraphs: int = 3
    token_pool: tuple[str, ...] = DEFAULT_TOKEN_POOL
    coherent_tokens: tuple[str, ...] | None = None
    neutral_tokens: tuple[str, ...] | None = None
    token_signal: float = 0.0
    wv_dim: int = 16

    def __post_init__(self) -> None:
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ConfigError(
                f"signal_strength must be in [0, 1], got {self.signal_strength}")
        if not 0.0 <= self.token_signal <= 1.0:
            raise ConfigError(
                f"token_signal must be in [0, 1], got {self.token_signal}")
        for name, pair in (("edu_range", self.edu_range), ("tokens_per_edu", self.tokens_per_edu)):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"{name} must be a pair [lo, hi], got {pair!r}")
        ints = (self.n_train, self.n_test, self.max_paragraphs, self.wv_dim,
                *self.edu_range, *self.tokens_per_edu)
        if any(type(n) is not int for n in ints):
            raise ConfigError("corpus sizes, max_paragraphs, wv_dim, edu_range and "
                              f"tokens_per_edu must be integers, got {ints}")
        if self.n_train < 0 or self.n_test < 0:
            raise ConfigError("corpus sizes must be non-negative")
        if self.max_paragraphs < 1 or self.wv_dim < 1:
            raise ConfigError("max_paragraphs and wv_dim must be positive")
        # the range test also rejects NaN
        if len(self.class_probs) != len(CLASSES) or abs(sum(self.class_probs) - 1.0) > 1e-9 \
                or not all(0.0 <= p <= 1.0 for p in self.class_probs):
            raise ConfigError(f"class_probs must be a distribution over {len(CLASSES)} classes")
        if len(self.labels) < 3:
            raise ConfigError("need at least 3 combined labels")
        for label in self.labels:
            try:
                rst_data.parse_label(label)
            except DataError:
                raise ConfigError(
                    f"labels must be <relation>_<N|S> strings, got {label!r}") from None
        if not isinstance(self.token_pool, (list, tuple)) or not self.token_pool \
                or not all(isinstance(tok, str) for tok in self.token_pool):
            raise ConfigError("token_pool must be a non-empty list of strings")
        # tokenize(tok) == [tok] exactly when the token pattern matches all of tok
        bad = [tok for tok in self.token_pool if not _TOKEN_RE.fullmatch(tok)]
        if bad:
            raise ConfigError("token_pool entries must each be one token "
                              f"(ASCII lowercase letters and digits), got {bad}")
        if self.edu_range[0] < 2 or self.edu_range[1] < self.edu_range[0]:
            raise ConfigError(f"bad edu_range {self.edu_range}")
        if self.tokens_per_edu[0] < 1 or self.tokens_per_edu[1] < self.tokens_per_edu[0]:
            raise ConfigError(f"bad tokens_per_edu {self.tokens_per_edu}")
        for name, subset, pool_name, pool in (
                ("coherent_labels", self.coherent_labels, "labels", self.labels),
                ("neutral_labels", self.neutral_labels, "labels", self.labels),
                ("coherent_tokens", self.coherent_tokens, "token_pool", self.token_pool),
                ("neutral_tokens", self.neutral_tokens, "token_pool", self.token_pool)):
            if subset is None:
                continue
            if not isinstance(subset, (list, tuple)) or not subset \
                    or not all(isinstance(x, str) for x in subset):
                raise ConfigError(
                    f"{name} must be a non-empty list of strings, got {subset!r}")
            outside = sorted(set(subset) - set(pool))
            if outside:
                raise ConfigError(f"{name} not a subset of {pool_name}: {outside}")

    def feature_subset(self, klass: int) -> tuple[str, ...]:
        third = max(1, len(self.labels) // 3)
        if klass == 3:
            return self.coherent_labels or self.labels[:third]
        if klass == 2:
            return self.neutral_labels or self.labels[third:2 * third]
        return self.labels

    def token_subset(self, klass: int) -> tuple[str, ...]:
        third = max(1, len(self.token_pool) // 3)
        if klass == 3:
            return self.coherent_tokens or self.token_pool[:third]
        if klass == 2:
            return self.neutral_tokens or self.token_pool[third:2 * third]
        return self.token_pool


def _draw(rng: np.random.Generator, items: Sequence[str]) -> str:
    return items[int(rng.integers(0, len(items)))]


def _sample_label(rng: np.random.Generator, cfg: GeneratorConfig, klass: int) -> rst_data.NodeLabel:
    if klass in (2, 3) and rng.random() < cfg.signal_strength:
        combined = _draw(rng, cfg.feature_subset(klass))
    else:
        combined = _draw(rng, cfg.labels)
    return rst_data.parse_label(combined)


def _sample_token(rng: np.random.Generator, cfg: GeneratorConfig, klass: int) -> str:
    if klass in (2, 3) and cfg.token_signal > 0 and rng.random() < cfg.token_signal:
        return _draw(rng, cfg.token_subset(klass))
    return _draw(rng, cfg.token_pool)


def _random_shape(rng: np.random.Generator, n: int) -> object:
    """Random binary tree shape over leaves 0..n-1; leaves are ints."""
    # recursive splits over index ranges, materialized as nested pairs
    def build(lo: int, hi: int):
        if hi - lo == 1:
            return lo
        cut = int(rng.integers(lo + 1, hi))
        return (build(lo, cut), build(cut, hi))

    return build(0, n)


def _attach(shape, sentences: list[str], rng: np.random.Generator,
            cfg: GeneratorConfig, klass: int) -> rst_data.RstTree:
    if isinstance(shape, int):
        return rst_data.Leaf(sentences[shape])
    left = _attach(shape[0], sentences, rng, cfg, klass)
    right = _attach(shape[1], sentences, rng, cfg, klass)
    return rst_data.Internal(left, right,
                             _sample_label(rng, cfg, klass),
                             _sample_label(rng, cfg, klass))


def _synth_document(rng: np.random.Generator, cfg: GeneratorConfig,
                    doc_id: str) -> Document:
    klass = int(rng.choice(CLASSES, p=np.asarray(cfg.class_probs)))
    n_edus = int(rng.integers(cfg.edu_range[0], cfg.edu_range[1] + 1))
    lo, hi = cfg.tokens_per_edu
    edu_tokens = [[_sample_token(rng, cfg, klass)
                   for _ in range(int(rng.integers(lo, hi + 1)))]
                  for _ in range(n_edus)]
    sentences = [" ".join(toks).capitalize() + "." for toks in edu_tokens]
    shape = _random_shape(rng, n_edus)
    tree = _attach(shape, sentences, rng, cfg, klass)
    n_paras = int(rng.integers(1, min(cfg.max_paragraphs, n_edus) + 1))
    if n_paras > 1:
        cuts = sorted(rng.choice(np.arange(1, n_edus), size=n_paras - 1,
                                 replace=False).tolist())
    else:
        cuts = []
    bounds = [0] + cuts + [n_edus]
    paragraphs = [edu_tokens[a:b] for a, b in zip(bounds, bounds[1:])]
    text = join_paragraphs(paragraphs)
    return Document(doc_id, klass, text, paragraphs, tree)


def synthesize_corpus(cfg: GeneratorConfig, seed: int) -> CorpusSplit:
    """Deterministic planted-signal corpus; byte-identical for equal seeds."""
    rng = np.random.default_rng(seed)
    train = [_synth_document(rng, cfg, f"synth-train-{i:04d}")
             for i in range(cfg.n_train)]
    test = [_synth_document(rng, cfg, f"synth-test-{i:04d}")
            for i in range(cfg.n_test)]
    return CorpusSplit(train, test, [])


def synthesize_word_vectors(cfg: GeneratorConfig, seed: int) -> WordVectors:
    rng = np.random.default_rng(seed)
    tokens = sorted(set(cfg.token_pool))
    matrix = rng.uniform(-0.5, 0.5, size=(len(tokens), cfg.wv_dim))
    return WordVectors(cfg.wv_dim, dict(zip(tokens, matrix)))


# --- file writers (deterministic bytes) ---------------------------------------


def write_documents(path, split: CorpusSplit) -> None:
    with atomic_write(path) as fh:
        for name, docs in (("train", split.train), ("test", split.test)):
            for doc in docs:
                record = {"id": doc.id, "label": doc.label, "text": doc.text,
                          "split": name}
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_trees(path, split: CorpusSplit) -> None:
    with atomic_write(path) as fh:
        for doc in list(split.train) + list(split.test):
            fh.write(f"{doc.id}\t{rst_data.serialize_tree(doc.tree)}\n")


def write_word_vectors(path, wv: WordVectors) -> None:
    with atomic_write(path) as fh:
        for token in sorted(wv.rows):
            values = " ".join(repr(v) for v in wv.matrix[wv.rows[token]].tolist())
            fh.write(f"{token} {values}\n")
